"""The public surface: package exports, the README quick start and the
stdlib-only runtime."""

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dworkbox

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in dworkbox.__all__ if not hasattr(dworkbox, name)]
    assert not missing
    assert len(set(dworkbox.__all__)) == len(dworkbox.__all__)


def _quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_states_true_values():
    """Each bare expression in the block equals the value in its comment."""
    namespace: dict = {}
    checked = 0
    for line in _quick_start_block().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        statement = ast.parse(code.strip()).body[0]
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
            expected = eval(comment.strip(), {"Fraction": Fraction})
            assert value == expected, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 7


def test_src_imports_only_stdlib():
    """The runtime depends on nothing outside the standard library
    (`__future__` is in it; relative imports stay inside the package)."""
    sources = sorted((ROOT / "src" / "dworkbox").glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_src_parses_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10; newer syntax (such as
    `except*`) would break that floor unnoticed."""
    for path in sorted((ROOT / "src" / "dworkbox").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_src_has_no_unused_imports():
    """Each name a module imports at module level (`__future__` aside) is
    read somewhere in that module, directly or as the base of an attribute;
    `__init__.py` imports to re-export and is left out."""
    unused = []
    for path in sorted((ROOT / "src" / "dworkbox").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert not unused


def test_no_dense_scan_of_a_coefficients_record():
    """A reduction's and a series' `coefficients` are dicts, so `any`, `all`,
    `zip`, `enumerate`, `tuple` or `sum` called on one walks its keys, where
    position 0 is falsy: `any({0: Fraction(5)})` is False.  No such call is
    right, so none may appear in src/ or tests/."""
    scans = {"any", "all", "zip", "enumerate", "tuple", "sum"}
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in scans
                    and any(isinstance(arg, ast.Attribute) and arg.attr == "coefficients"
                            for arg in node.args)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.func.id}")
    assert not found


def test_reports_have_one_json_writer():
    """`polyparse.json_text` writes every indented JSON report; no
    `json.dumps(..., indent=...)`, which runs the pure-Python encoder,
    is left in src/dworkbox."""
    found = []
    for path in sorted((ROOT / "src" / "dworkbox").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and any(kw.arg == "indent" for kw in node.keywords)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found


# hooks in perfbench/tracer.py whose targets were renamed or removed; the
# benchmark's next revision is expected to repoint them
STALE_TRACER_HOOKS = {
    "cohomology._WeightSolver.insert",
    "cohomology._WeightSolver.eliminate",
    "deformation._exponents_of_order",
    "deformation.d_matrix",
}


def _perfbench(stem):
    """Load `perfbench/<stem>.py` as a module of its own, read-only."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        f"perfbench_{stem}", ROOT / "perfbench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    """Every name `perfbench/tracer.py` hooks resolves as `install` resolves
    it, except the known stale ones: a refactor that renames a hooked
    function fails here instead of silently zeroing a per-layer metric."""
    import importlib

    tracer = _perfbench("tracer")
    unresolved = set()
    for module_name, path, _make in tracer.HOOKS:
        importlib.import_module("dworkbox." + module_name)
        try:
            tracer._resolve(module_name, path)
        except (LookupError, AttributeError):
            unresolved.add(f"{module_name}.{path}")
    assert unresolved == STALE_TRACER_HOOKS


def test_tracer_knows_every_verify_family(cubic_dwork, cubic_presentation, monkeypatch):
    """Every family name `run_suite` passes to `_check_loop`, the span the
    tracer times, is a key of `perfbench/tracer.py`'s FAMILIES: a renamed
    or added family fails here instead of landing silently in
    `verify.family.other_s`."""
    from dworkbox import parse, verify

    tracer = _perfbench("tracer")
    names = []
    check_loop = verify._check_loop

    def recorded(report, name, iterations, body):
        names.append(name)
        return check_loop(report, name, iterations, body)

    monkeypatch.setattr(verify, "_check_loop", recorded)
    ctx = cubic_dwork.ctx
    assert verify.run_suite(cubic_dwork, cubic_presentation, seed=0, iterations=1,
                            deformation_H=[parse("x0*x1*x2", ctx)]).ok
    assert "deformation: K_Gamma equals the deformed K" in names
    assert set(names) <= set(tracer.FAMILIES)


def test_tracer_reads_every_span_it_records():
    """A traced cubic run through module attributes, as perfbench drives it:
    every hooked layer it passes through records calls and no span's
    attributes go unread."""
    from dworkbox import VariableContext, cohomology, deformation, dwork_potential, parse

    tracer_module = _perfbench("tracer")
    tracer = tracer_module.Tracer()
    hooks = tracer_module.install(tracer)
    try:
        ctx = VariableContext(2, 1, (3,))
        D = dwork_potential(ctx, [parse("x0^3 + x1^3 + x2^3", ctx)])
        pres = cohomology.build_presentation(D)
        # weight 3 > n - k + 1 = 2: the reduction goes through the lift
        pres.reduce(parse("y1^3*x0^3*x1^3*x2^3 + y1*x0*x1*x2", ctx))
        deform = deformation.build_deformation(D, [parse("x0*x1*x2", ctx)])
        pres_U = cohomology.build_presentation(deform.deformed)
        basis_u = deformation.u_basis(deform, pres, pres_U)
        deformation.t_series(deform, pres, basis_u, 2)
        deformation.d_ladder(deform, pres, basis_u, 2)
    finally:
        hooks.remove()
    assert tracer.unreadable == {}
    for name in ("cohomology.build_presentation", "cohomology.build_weight_solver",
                 "cohomology.enumerate_piece", "cohomology.reduce"):
        assert tracer.calls.get(name, 0) > 0, name


@pytest.mark.parametrize("workload", ["build", "deform", "transport", "reduce"])
def test_benchmark_workloads_run_against_the_library(workload, tmp_path):
    """One set-up, pass and check of each `perfbench/workloads.py` workload
    on the installed package, loaded as the tracer tests load `tracer.py`:
    a change that drops a name the benchmark calls (`build_presentation`,
    `random_charge_element(..., max_weight=)`, `pres.slack`, `as_element`,
    `JobConfig.dwork` and `.H`) fails here.  `verify` is left out: one pass
    takes seconds."""
    import importlib
    import types

    workloads = _perfbench("workloads")
    prog = types.SimpleNamespace(**{
        name: importlib.import_module("dworkbox." + name)
        for name in ("cli", "cohomology", "deformation", "operators", "polyparse",
                     "superalgebra", "verify")})
    bench = workloads.WORKLOADS[workload](prog, 1, tmp_path)
    bench.run_pass()
    operations, failures = bench.check_pass()
    assert operations > 0
    assert failures == []
