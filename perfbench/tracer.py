"""In-memory span tracer that hooks dworkbox from the outside.

Nothing under ``src/`` knows about tracing.  ``install`` rebinds module and
class attributes of the imported program to thin wrappers that open a span
around each call, in every ``dworkbox`` module that holds the same function
object, and ``Hooks.remove`` puts the originals back.

A span is (id, parent, root, name, start, end, attrs), with times on a clock
that leaves out `pause`d time.  Every span feeds the
per-name aggregates (calls and self time).  Spans of
the hot kernels (product and derivatives, hundreds of thousands per job) are
only aggregated; every other span is also kept in memory and written out at
the end of the run.  Self time is a span's duration minus the time its child
spans cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter

# spans that are counted but not kept one by one
HOT = frozenset({"superalgebra.product", "superalgebra.derivatives"})


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [id, name, start, child_time, root]
        self.spans = []          # kept spans, closed order
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.unreadable = {}     # span name -> why its attributes could not be read
        self.paused = 0.0
        self._next_id = 1

    def pause(self, seconds):
        """Leave `seconds` spent outside the program out of every span."""
        self.paused += seconds

    def enter(self, name):
        sid = self._next_id
        self._next_id = sid + 1
        root = self.stack[-1][4] if self.stack else sid
        self.stack.append([sid, name, perf_counter() - self.paused, 0.0, root])

    def exit(self, attrs=None):
        end = perf_counter() - self.paused
        sid, name, start, child, root = self.stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        parent = None
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        if name not in HOT:
            self.spans.append((sid, parent, root, name, start, end, attrs))

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, root, name, start, end, attrs in self.spans:
                record = {"id": sid, "parent": parent, "root": root, "name": name,
                          "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _wrap(tracer, fn, name, attrs_of=None):
    enter = tracer.enter
    leave = tracer.exit
    if attrs_of is None:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
    else:
        def attrs(args, kwargs, result):
            try:
                return attrs_of(args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError) as exc:
                tracer.unreadable[name] = repr(exc)
                return {}

        def wrapper(*args, **kwargs):
            enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(attrs(args, kwargs, result))
    wrapper.__wrapped__ = fn
    return wrapper


def _span(name, attrs_of=None):
    return lambda tracer, fn: _wrap(tracer, fn, name, attrs_of)


def _count_calls(counter):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            tracer.count(counter)
            return fn(*args, **kwargs)
        return wrapper
    return make


def _count_top_level_yields(counter):
    """Count what a recursive generator yields to callers other than itself."""
    def make(tracer, gen_fn):
        own_code = gen_fn.__code__

        def counted(gen):
            for item in gen:
                tracer.count(counter)
                yield item

        def wrapper(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            if sys._getframe(1).f_code is own_code:
                return gen
            return counted(gen)
        return wrapper
    return make


# -- span attributes ----------------------------------------------------------

def _bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _solver_attrs(args, kwargs, solver):
    D, weight = args[0], args[2]
    attrs = {"weight": weight, "top": D.ctx.n - D.ctx.k}
    if solver is not None:
        rows = solver.rows
        attrs["rank"] = len(rows)
        attrs["row_nnz"] = sum(len(r[1]) for r in rows)
        attrs["combo_nnz"] = sum(len(r[2]) for r in rows)
        attrs["max_coeff_bits"] = max(
            (_bits(c) for r in rows for part in (r[1], r[2]) for c in part.values()),
            default=0)
    return attrs


def _piece_attrs(args, kwargs, piece):
    return {"monomials": len(piece.monomials) if piece is not None else 0}


def _insert_attrs(args, kwargs, grew):
    return {"useful": bool(grew)}


def _check_loop_attrs(args, kwargs, result):
    return {"family": args[1]}


def _reduce_hook(tracer, fn):
    """QuotientPresentation.reduce, noting whether its memo answered."""

    def reduce(pres, f, *args, **kwargs):
        cached = bool(kwargs.get("_use_cache", args[0] if args else False))
        memo = getattr(pres, "_reduce_cache", None)
        hit = cached and memo is not None and memo.get(f) is not None
        tracer.enter("cohomology.reduce")
        try:
            return fn(pres, f, *args, **kwargs)
        finally:
            tracer.exit({"cached": cached, "hit": hit})
    reduce.__wrapped__ = fn
    return reduce


# -- installing the hooks -----------------------------------------------------

# (module, attribute path, wrapper factory); an attribute path with a dot
# names a class attribute.
HOOKS = (
    ("superalgebra", "SuperElement.__mul__", _span("superalgebra.product")),
    ("superalgebra", "partial_q", _span("superalgebra.derivatives")),
    ("superalgebra", "partial_eta", _span("superalgebra.derivatives")),
    ("operators", "apply_q", _span("operators.apply_q")),
    ("operators", "apply_delta", _span("operators.apply_delta")),
    ("operators", "apply_k", _span("operators.apply_k")),
    ("operators", "ell2", _span("operators.ell2")),
    ("operators", "ell_n", _span("operators.ell_n")),
    ("operators", "phi_n", _span("operators.phi_n")),
    ("operators", "bell_complete", _span("operators.bell")),
    ("operators", "bell_partial", _span("operators.bell")),
    ("cohomology", "enumerate_piece", _span("cohomology.enumerate_piece", _piece_attrs)),
    ("cohomology", "_build_weight_solver",
     _span("cohomology.build_weight_solver", _solver_attrs)),
    ("cohomology", "_WeightSolver.insert", _span("cohomology.echelon_insert", _insert_attrs)),
    ("cohomology", "_WeightSolver.eliminate", _span("cohomology.eliminate")),
    ("cohomology", "QuotientPresentation.reduce", _reduce_hook),
    ("cohomology", "build_presentation", _span("cohomology.build_presentation")),
    ("deformation", "build_deformation", _span("deformation.build_deformation")),
    ("deformation", "u_basis", _span("deformation.u_basis")),
    ("deformation", "t_series", _span("deformation.t_series")),
    ("deformation", "_exponents_of_order",
     _count_top_level_yields("deformation.t_series.exponents_enumerated")),
    ("deformation", "_record", _count_calls("deformation.t_series.exponents_reduced")),
    ("deformation", "d_matrix", _span("deformation.d_matrix")),
    ("deformation", "period_transport", _span("deformation.period_transport")),
    ("polyparse", "parse", _span("polyparse.parse")),
    ("polyparse", "render", _span("polyparse.render")),
    ("verify", "_check_loop", _span("verify.family", _check_loop_attrs)),
)


class Hooks:
    """The installed rebindings, so they can be undone."""

    def __init__(self):
        self.saved = []          # (owner, attribute, original)
        self.unavailable = []    # (hook, reason)

    def rebind(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dworkbox" or name.startswith("dworkbox."))]


def _replace_everywhere(hooks, original, replacement):
    """Rebind every dworkbox module global that is `original`."""
    for module in _program_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                hooks.rebind(module, attr, replacement)


def _resolve(module_name, path):
    module = sys.modules.get("dworkbox." + module_name)
    if module is None:
        raise LookupError(f"module dworkbox.{module_name} is not loaded")
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in vars(owner):
        raise LookupError(f"{module_name}.{path} no longer exists")
    return owner, parts[-1], vars(owner)[parts[-1]]


def install(tracer):
    hooks = Hooks()
    for module_name, path, make in HOOKS:
        try:
            owner, attr, original = _resolve(module_name, path)
        except (LookupError, AttributeError) as exc:
            hooks.unavailable.append((f"{module_name}.{path}", str(exc)))
            continue
        replacement = make(tracer, original)
        if isinstance(owner, type):
            hooks.rebind(owner, attr, replacement)
        else:
            _replace_everywhere(hooks, original, replacement)
    return hooks


# -- per-layer metrics ----------------------------------------------------------

# verify check family -> metric slug; families added later land in "other"
FAMILIES = {
    "product: graded commutativity": "product_commutativity",
    "product: associativity": "product_associativity",
    "product: gradings additive": "product_gradings",
    "odd derivatives: square zero / anticommute": "odd_derivatives",
    "even derivatives: commute (also with odd)": "even_derivatives",
    "differentials: squares and anticommutator vanish": "differentials",
    "Q: derivation of the product": "q_derivation",
    "bracket: graded symmetry": "bracket_symmetry",
    "bracket: defining expansion against K": "bracket_definition",
    "bracket: graded Jacobi": "bracket_jacobi",
    "bracket: Poisson rule": "bracket_poisson",
    "descendants: l_n = 0 for n >= 3": "descendants_vanish",
    "exponential identities at truncation orders <= 3": "exp_identities",
    "Bell polynomials: partial sums match complete": "bell",
    "reduce: certificate soundness": "reduce_soundness",
    "reduce: vanishes on the image of K": "reduce_kernel",
    "reduce: basis idempotence": "reduce_idempotence",
    "reduce: linearity": "reduce_linearity",
    "charge concentration: R-witness gives exact preimages": "charge_concentration",
    "reduction functionals kill the image of K": "cochain_functional",
    "descendant maps assemble exponentials": "descendant_moments",
    "surface syntax: parse inverts render": "parse_render",
    "deformation: K_Gamma equals the deformed K": "deformed_operator",
}

SELF_TIMES = ("superalgebra.product", "superalgebra.derivatives", "operators.apply_q",
              "operators.apply_delta", "operators.apply_k", "operators.ell2",
              "operators.ell_n", "operators.phi_n", "operators.bell",
              "cohomology.enumerate_piece", "cohomology.echelon_insert",
              "cohomology.reduce")
CALLS = ("superalgebra.product", "operators.apply_q", "cohomology.enumerate_piece",
         "cohomology.echelon_insert", "cohomology.reduce")
TOTALS = ("cohomology.build_presentation", "deformation.build_deformation",
          "deformation.u_basis", "deformation.t_series", "deformation.d_matrix",
          "deformation.period_transport", "polyparse.parse", "polyparse.render")
COUNTERS = ("deformation.t_series.exponents_enumerated",
            "deformation.t_series.exponents_reduced")


def layer_metric_units(job_names):
    """Every per-layer metric, with its unit; `job_names` are the root spans."""
    units = {}
    for name in SELF_TIMES:
        units[name + ".self_s"] = "s"
    for name in CALLS:
        units[name + ".calls"] = "count"
    units["cohomology.enumerate_piece.monomials"] = "count"
    units["cohomology.q_image_s"] = "s"
    units["cohomology.echelon_insert.useful_ratio"] = "ratio"
    units["cohomology.eliminate.insert_s"] = "s"
    units["cohomology.eliminate.reduce_s"] = "s"
    units["cohomology.guard_s"] = "s"
    units["cohomology.lazy_solver_s"] = "s"
    for name in ("rank", "row_nnz", "combo_nnz"):
        units["cohomology.solver." + name] = "count"
    units["cohomology.solver.max_coeff_bits"] = "bits"
    units["cohomology.reduce.cache_hit_ratio"] = "ratio"
    for name in TOTALS:
        units[name + "_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for slug in sorted(set(FAMILIES.values())) + ["other"]:
        units[f"verify.family.{slug}_s"] = "s"
    for name in job_names:
        units[name + "_s"] = "s"
    return units


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _has_ancestor(index, sid, name):
    parent = index[sid][0]
    while parent is not None:
        if parent not in index:
            return False
        if index[parent][1] == name:
            return True
        parent = index[parent][0]
    return False


def span_breakdown(spans, root_ids=None):
    """Metrics that depend on where a span sits in the tree, and inclusive
    times (outermost occurrence of a name only, so recursion counts once).

    With `root_ids`, only spans under those roots count.
    """
    index = {s[0]: (s[1], s[3]) for s in spans}
    out = {
        "cohomology.enumerate_piece.monomials": 0,
        "cohomology.q_image_s": 0.0,
        "cohomology.eliminate.insert_s": 0.0,
        "cohomology.eliminate.reduce_s": 0.0,
        "cohomology.guard_s": 0.0,
        "cohomology.lazy_solver_s": 0.0,
        "cohomology.solver.rank": 0,
        "cohomology.solver.row_nnz": 0,
        "cohomology.solver.combo_nnz": 0,
        "cohomology.solver.max_coeff_bits": 0,
    }
    inserts = useful = cached = hits = 0
    families = {}
    for sid, parent, root, name, start, end, attrs in spans:
        if root_ids is not None and root not in root_ids:
            continue
        dur = end - start
        parent_name = index[parent][1] if parent in index else None
        if name == "cohomology.enumerate_piece":
            out["cohomology.enumerate_piece.monomials"] += attrs.get("monomials", 0)
        elif name == "operators.apply_q" and parent_name == "cohomology.build_weight_solver":
            out["cohomology.q_image_s"] += dur
        elif name == "cohomology.eliminate":
            key = ("insert_s" if parent_name == "cohomology.echelon_insert" else "reduce_s")
            out["cohomology.eliminate." + key] += dur
        elif name == "cohomology.echelon_insert":
            inserts += 1
            useful += attrs.get("useful", False)
        elif name == "cohomology.reduce":
            cached += attrs.get("cached", False)
            hits += attrs.get("hit", False)
        elif name == "cohomology.build_weight_solver":
            if _has_ancestor(index, sid, "cohomology.reduce"):
                out["cohomology.lazy_solver_s"] += dur
            elif attrs.get("weight", 0) > attrs.get("top", float("inf")):
                out["cohomology.guard_s"] += dur
            for key in ("rank", "row_nnz", "combo_nnz"):
                out["cohomology.solver." + key] += attrs.get(key, 0)
            out["cohomology.solver.max_coeff_bits"] = max(
                out["cohomology.solver.max_coeff_bits"], attrs.get("max_coeff_bits", 0))
        elif name == "verify.family":
            slug = FAMILIES.get(attrs.get("family"), "other")
            families[slug] = families.get(slug, 0.0) + dur
        if (name in TOTALS or parent is None) and not _has_ancestor(index, sid, name):
            out[name + "_s"] = out.get(name + "_s", 0.0) + dur
    out["cohomology.echelon_insert.useful_ratio"] = _ratio(useful, inserts)
    out["cohomology.reduce.cache_hit_ratio"] = _ratio(hits, cached)
    for slug in sorted(set(FAMILIES.values())) + ["other"]:
        out[f"verify.family.{slug}_s"] = families.get(slug, 0.0)
    return out


def layer_metrics(tracer, job_names):
    """Every metric of `layer_metric_units`, from one traced pass."""
    values = dict.fromkeys(layer_metric_units(job_names), 0)
    for name in SELF_TIMES:
        values[name + ".self_s"] = tracer.self_s.get(name, 0.0)
    for name in CALLS:
        values[name + ".calls"] = tracer.calls.get(name, 0)
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    values.update(span_breakdown(tracer.spans))
    return values
