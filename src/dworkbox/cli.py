"""Batch command-line front end.

One JSON config file describes the geometry; subcommands build the quotient
basis, reduce polynomials, expand deformation series with the D-matrix
ladder, transport period matrices and run the verification suite.  All
machine-readable output serializes rationals as "p/q" strings and is
byte-stable under a fixed config and seed.

Exit codes: 0 success, 2 input error, 3 mathematical-assumption failure
(smoothness guard, independence), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction

from .cohomology import build_presentation
from .deformation import (
    BaseChange,
    PeriodMatrix,
    build_deformation,
    d_ladder,
    period_transport,
    t_series,
    u_basis,
)
from .errors import (
    AssumptionError,
    DworkboxError,
    InputError,
    InternalCheckError,
)
from .operators import dwork_potential
from .polyparse import json_text, parse, render
from .superalgebra import VariableContext
from .verify import FAULT_HOOKS, fault_injection, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
EXIT_INTERNAL = 4


def _frac_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)  # floating entries stay floating


def _matrix_json(matrix):
    return [[_frac_str(v) for v in row] for row in matrix]


def _int_field(name: str, value) -> int:
    """`value` if it is a JSON integer; floats, bools and strings are not."""
    if type(value) is not int:
        raise InputError(f"config field {name} must be an integer, got {value!r}")
    return value


def _polynomials(name: str, value, ctx: VariableContext) -> list:
    """k polynomial texts from a JSON list; a string is not split into characters."""
    if type(value) is not list:
        raise InputError(f"config field {name} must be a list of polynomials, got {value!r}")
    if len(value) != ctx.k:
        raise InputError(f"expected {ctx.k} polynomials in {name}, got {len(value)}")
    return [parse(text, ctx) for text in value]


def _read_json(path: str, what: str):
    """The JSON value in the file at `path`; `what` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}")
    except ValueError as exc:  # also bad UTF-8 and an integer past the int-string limit
        raise InputError(f"{what} is not valid JSON: {exc}")
    except RecursionError:
        raise InputError(f"{what} is nested too deeply to read") from None


class JobConfig:
    """Validated problem description loaded from a JSON file."""

    def __init__(self, raw: dict):
        try:
            n = _int_field("n", raw["n"])
            k = _int_field("k", raw["k"])
            degrees = tuple(_int_field(f"degrees[{i}]", d)
                            for i, d in enumerate(raw["degrees"]))
            g_texts = raw["G"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"config missing or malformed field: {exc}")
        order_name = raw.get("monomialOrder", "graded-lex")
        self.ctx = VariableContext(n, k, degrees, order_name)
        self.G = _polynomials("G", g_texts, self.ctx)
        self.H = None if raw.get("H") is None else _polynomials("H", raw["H"], self.ctx)
        self.truncation_order = _int_field("truncationOrder", raw.get("truncationOrder", 6))
        self.h_override = raw.get("h")
        self.y_choice = raw.get("yPower")
        if self.y_choice is not None:
            if type(self.y_choice) is not list or len(self.y_choice) != 2:
                raise InputError("config field yPower must be a list of two "
                                 f"integers [j, m], got {self.y_choice!r}")
            self.y_choice = tuple(_int_field(f"yPower[{i}]", v)
                                  for i, v in enumerate(self.y_choice))
        self.seed = _int_field("seed", raw.get("seed", 0))

    @classmethod
    def load(cls, path: str) -> "JobConfig":
        raw = _read_json(path, "config")
        if not isinstance(raw, dict):
            raise InputError("config must be a JSON object")
        return cls(raw)

    def dwork(self):
        return dwork_potential(self.ctx, self.G)


def _emit(args, payload: dict, text_lines) -> None:
    """Write `payload` as JSON, or the lines `text_lines()`, which is only
    called for --format text."""
    if args.format == "json":
        body = json_text(payload) + "\n"
    else:
        body = "\n".join(text_lines()) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(body)
        except OSError as exc:
            raise InputError(f"cannot write report: {exc}")
    else:
        sys.stdout.write(body)


def _build(config: JobConfig):
    return build_presentation(config.dwork())


def cmd_basis(args) -> int:
    config = JobConfig.load(args.config)
    pres = _build(config)
    basis_texts = [render(e) for e in pres.basis_elements()]
    payload = {
        "cG": pres.c_G,
        "dimension": pres.dimension,
        "hodge": pres.hodge_numbers(),
        "basis": basis_texts,
        "weights": list(pres.weight_counts),
    }
    _emit(args, payload, lambda: [
        f"background charge: {pres.c_G}",
        f"quotient dimension: {pres.dimension}",
        "hodge numbers: " + " ".join(str(h) for h in pres.hodge_numbers()),
        "basis (by weight, largest monomials first):",
        *(f"  e{i + 1} = {t}" for i, t in enumerate(basis_texts))])
    return EXIT_OK


def cmd_reduce(args) -> int:
    config = JobConfig.load(args.config)
    pres = _build(config)
    f = parse(args.polynomial, config.ctx)
    result = pres.reduce(f)
    payload = {
        "input": render(f),
        "coefficients": [_frac_str(result.coefficients.get(rho, Fraction(0)))
                         for rho in range(pres.dimension)],
        "basis": [render(e) for e in pres.basis_elements()],
        "certificate": render(result.certificate),
    }
    _emit(args, payload, lambda: [
        f"input: {payload['input']}",
        "coefficients:",
        *(f"  e{i + 1}: {c}" for i, c in enumerate(payload["coefficients"])),
        f"certificate: {payload['certificate']}"])
    return EXIT_OK


def _deformation_base(config: JobConfig):
    """Base presentation of a config that has an H block to deform by."""
    if config.H is None:
        raise InputError("config has no H block; nothing to deform")
    return _build(config)


def _deformation_setup(config: JobConfig, pres):
    """Deformation and u basis over `pres`, shared by deform and transport."""
    deform = build_deformation(pres.dwork, config.H)
    pres_U = build_presentation(deform.deformed)
    h_elt = parse(config.h_override, config.ctx) if config.h_override is not None else None
    basis_u = u_basis(deform, pres, pres_U, h=h_elt, y_choice=config.y_choice)
    return deform, basis_u


def _truncation_order(args, config: JobConfig) -> int:
    order = args.order if args.order is not None else config.truncation_order
    if order < 1:
        raise InputError("truncation order must be >= 1")
    return order


def cmd_deform(args) -> int:
    config = JobConfig.load(args.config)
    order = _truncation_order(args, config)
    pres = _deformation_base(config)
    deform, basis_u = _deformation_setup(config, pres)
    # the series is expanded for the report only; the ladder does not need it
    series = t_series(deform, pres, basis_u, order)
    ladder = d_ladder(deform, pres, basis_u, order)
    series_rows = series.series_rows()
    payload = {
        "uBasis": [render(u) for u in basis_u.elements],
        "primeIndices": list(series.prime_indices),
        "order": order,
        "series": series_rows,
        "dLadder": {str(m): _matrix_json(mat) for m, mat in ladder.items()},
    }
    _emit(args, payload, lambda: [
        "u basis: " + ", ".join(payload["uBasis"]),
        f"deformed indices I': {payload['primeIndices']}",
        f"series to total order {order} (T^rho, exponent, value):",
        *(f"  T^{row['rho']} t^{tuple(row['exponent'])} = {row['value']}"
          for row in series_rows),
        "D-matrix ladder:",
        *(f"  order {m}: " + json.dumps(mat) for m, mat in payload["dLadder"].items())])
    return EXIT_OK


# the exponent of a decimal string, which Fraction would expand as 10**exponent
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _parse_matrix_entry(value):
    """A JSON matrix entry as an int, a float or a Fraction (from a string)."""
    if isinstance(value, bool):
        raise InputError("matrix entries must be numbers or strings")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            # bound the exponent as Python bounds numerals
            exponent = _EXPONENT.search(value)
            if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent[1])):
                raise ValueError(f"exponent beyond {sys.get_int_max_str_digits()}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad matrix entry {value!r}: {exc}")
    raise InputError(f"bad matrix entry {value!r}")


def _matrix_from_file(path: str):
    raw = _read_json(path, "matrix file")
    meta = {}
    if isinstance(raw, dict):
        meta = raw
        raw = raw.get("matrix")
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise InputError("matrix file must hold an array of arrays")
    return [[_parse_matrix_entry(v) for v in row] for row in raw], meta


def cmd_transport(args) -> int:
    config = JobConfig.load(args.config)
    order = _truncation_order(args, config)
    omega_rows, _ = _matrix_from_file(args.omega)
    b_rows, b_meta = _matrix_from_file(args.base_change)
    integral = b_meta.get("integral", True)
    if type(integral) is not bool:
        raise InputError(f"base change field integral must be true or false, got {integral!r}")
    omega = PeriodMatrix(tuple(tuple(r) for r in omega_rows))
    # before BaseChange: its unimodularity check costs about n^4 on an n x n B
    if len(b_rows) != omega.size:
        width = len(b_rows[0]) if b_rows else 0
        raise InputError(f"base change is {len(b_rows)}x{width}, expected "
                         f"{omega.size}x{omega.size} to match the period matrix")
    base = BaseChange(tuple(tuple(r) for r in b_rows), integral=integral)
    pres = _deformation_base(config)
    if omega.size != pres.dimension:
        raise InputError(
            f"period matrix is {omega.size}x{omega.size}, expected {pres.dimension}")
    deform, basis_u = _deformation_setup(config, pres)
    # only the ladder is needed, so the series is never expanded
    ladder = d_ladder(deform, pres, basis_u, order)
    payload = {"orders": [{"order": m, "matrix": _matrix_json(result.entries)}
                          for m, result in period_transport(ladder, omega, base).items()]}
    _emit(args, payload, lambda: [
        f"period transport through order {order}:",
        *(f"  order {o['order']}: " + json.dumps(o["matrix"]) for o in payload["orders"])])
    return EXIT_OK


def cmd_verify(args) -> int:
    config = JobConfig.load(args.config)
    seed = args.seed if args.seed is not None else config.seed
    iterations = args.iterations
    if iterations < 1:
        raise InputError(f"--iterations must be >= 1, got {iterations}")
    pres = _build(config)
    with fault_injection(args.inject_fault) if args.inject_fault else contextlib.nullcontext():
        report = run_suite(pres.dwork, pres, seed=seed, iterations=iterations,
                           deformation_H=config.H)
    payload = {
        "seed": seed,
        "iterations": iterations,
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    _emit(args, payload, report.lines)
    return EXIT_OK if report.ok else EXIT_INTERNAL


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dworkbox",
        description="exact quotient bases, reductions and period deformation "
                    "series for smooth projective complete intersections")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="quotient basis and Hodge numbers")
    p_basis.add_argument("config")
    p_basis.set_defaults(func=cmd_basis)

    p_reduce = sub.add_parser("reduce", help="normal form of a polynomial")
    p_reduce.add_argument("config")
    p_reduce.add_argument("polynomial")
    p_reduce.set_defaults(func=cmd_reduce)

    p_deform = sub.add_parser("deform", help="deformation series and D ladder")
    p_deform.add_argument("config")
    p_deform.add_argument("--order", type=int, default=None)
    p_deform.set_defaults(func=cmd_deform)

    p_transport = sub.add_parser("transport", help="transport a period matrix")
    p_transport.add_argument("config")
    p_transport.add_argument("--omega", required=True)
    p_transport.add_argument("--base-change", required=True, dest="base_change")
    p_transport.add_argument("--order", type=int, default=None)
    p_transport.set_defaults(func=cmd_transport)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("config")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--iterations", type=int, default=200)
    p_verify.add_argument("--inject-fault", default=None, choices=sorted(FAULT_HOOKS),
                          help="testing hook: corrupt an operator on purpose")
    p_verify.set_defaults(func=cmd_verify)
    return parser


# one parser per process: building one (gettext, formatters) costs about a
# millisecond, and parse_args keeps no state between calls
_arg_parser = functools.cache(build_arg_parser)


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, DworkboxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
