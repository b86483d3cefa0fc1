"""Byte-identity of the CLI reports and of the presentation export.

Each case runs one CLI command in process and compares its report, byte for
byte, with a file under tests/golden/.  The files were written by the code
before the elimination and enumeration rewrites, and the quintic-curve ones
(positive background charge) before transport switched to the direct
D-ladder route; the cubic-surface ones (negative background charge), the
cubic `reduce` and the cubic `verify` were written before the charge and
weight gradings moved into `monomial_charge` and `monomial_weight`; the
cubic transport of a float period matrix and the quartic K3 `reduce` were
written before `reduce` graded its input once and walked the weight
slices; the quintic-curve `reduce` of an off-charge input was written
before `reduce` returned its coefficients as a sparse dict.  The cubic
`verify` was rewritten twice since: without the rows of the two families
the suite dropped (the descendants' vanishing and the Bell sums), and
without the Maurer-Cartan row, which could not fail; every other row kept
its name, order and verdict.  The cubic and quartic K3 `reduce`
certificates were rewritten when the weight n - k + 1 preimages of a
presentation whose smoothness guard leaves no leftover came from the
guard's cover instead of the weight n - k + 1 echelon; their coefficients
stayed byte-identical, and `test_reduce_certificates_satisfy_the_identity`
checks every `reduce` certificate.  So any change in a basis, a series coefficient, a D ladder, a
reduction certificate, a verify verdict, a transported matrix or the
presentation JSON shows up here.  To rewrite them after an intended report change:

    python -c "from tests.test_golden import write_goldens; write_goldens()"

Two format-1 cubic exports, which also store the echelon rows, must keep
loading as the format-2 export: `presentation-cubic_curve-v1.json`, written
before the export dropped the rows, and
`presentation-cubic_curve-full-echelon.json`, written before the build
skipped Koszul-redundant generators, when every generator was inserted.
`write_goldens` leaves both alone.
"""

import json
from pathlib import Path

import pytest

from dworkbox import VariableContext, build_presentation, dwork_potential, parse
from dworkbox.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

GEOMETRIES = {
    "cubic_curve": {
        "n": 2, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3"], "H": ["x0*x1*x2"]},
    "two_quadrics": {
        "n": 3, "k": 2, "degrees": [2, 2],
        "G": ["x0^2 + x1^2 + x2^2 + x3^2", "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"],
        "H": ["x0*x1", "0"]},
    # positive background charge c_G = 2: u basis built with an h factor
    "quintic_curve": {
        "n": 2, "k": 1, "degrees": [5],
        "G": ["x0^5 + x1^5 + x2^5"], "H": ["x0^2*x1^2*x2"]},
    # negative background charge c_G = -1: u basis built with h * y1
    "cubic_surface": {
        "n": 3, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3 + x3^3"], "H": ["x0*x1*x2"], "h": "x2^2"},
    # no H: only reduced, never deformed
    "quartic_k3": {
        "n": 3, "k": 1, "degrees": [4],
        "G": ["x0^4 + x1^4 + x2^4 + x3^4"]},
}
DIMENSIONS = {"cubic_curve": 2, "two_quadrics": 2, "quintic_curve": 12,
              "cubic_surface": 6, "quartic_k3": 21}
# exact and decimal period entries; unimodular base changes of determinant -1
# whose elimination needs a row swap
OMEGA = [["3/7", "-2"], ["0.25", "5/3"]]
BASE_CHANGE = [[0, 1], [1, 3]]
# JSON floats stay floats through the transport and are reported by repr
FLOAT_OMEGA = [[1.5, 0.25], [0.125, -2.0]]


def periods(size):
    """Exact period matrix and determinant -1 base change of one size."""
    if size == 2:
        return OMEGA, BASE_CHANGE
    omega = [[f"{(3 * i - 2 * j) % 7 - 3}/{i + j + 1}" for j in range(size)]
             for i in range(size)]
    base = [[1 if i == j else (i + 2 * j) % 3 - 1 if j > i else 0
             for j in range(size)] for i in range(size)]
    base[0], base[1] = base[1], base[0]
    return omega, base

# case name -> the subcommand, then its arguments after the config
COMMANDS = {
    "basis": ["basis"],
    "deform": ["deform", "--order", "3"],
    "transport": ["transport", "--order", "3", "--omega", "{omega}", "--base-change", "{base}"],
    "transport_float": ["transport", "--order", "3", "--omega", "{float_omega}",
                        "--base-change", "{base}"],
    "reduce": ["reduce", "{polynomial}"],
    # seeded draws through the piece views and the grading checks
    "verify": ["verify", "--seed", "2", "--iterations", "20"],
}
# a certificate through the lift and the echelon; on the K3 the lift at
# weight 4 leaves weights 3 and 2 to the delta terms alone
REDUCE_INPUTS = {
    "cubic_curve": "y1^3*x0^3*x1^3*x2^3 + y1*x0*x1*x2",
    # charge 1 != c_G = 2 and eta-free, so K-closed: no coefficient, only
    # the charge witness as certificate
    "quintic_curve": "x0",
    "quartic_k3": "y1^4*x0^4*x1^4*x2^4*x3^4 + y1*x0^2*x1^2 + 1",
}
# the geometries a case runs on, where not every geometry with an H block
ONLY = {"transport_float": ("cubic_curve",), "reduce": tuple(REDUCE_INPUTS),
        "verify": ("cubic_curve",)}
DEFORMED = tuple(name for name, spec in GEOMETRIES.items() if "H" in spec)

CASES = [(command, geometry, fmt)
         for geometry in GEOMETRIES
         for command in COMMANDS
         if geometry in ONLY.get(command, DEFORMED)
         for fmt in ("text", "json")]


def _case_name(command, geometry, fmt):
    return f"{command}-{geometry}.{'json' if fmt == 'json' else 'txt'}"


def render_case(command, geometry, fmt, workdir: Path) -> str:
    """Run one CLI command into a file under workdir and return the report."""
    config = workdir / f"{geometry}.json"
    config.write_text(json.dumps(GEOMETRIES[geometry]))
    omega_rows, base_rows = periods(DIMENSIONS[geometry])
    omega = workdir / "omega.json"
    omega.write_text(json.dumps(omega_rows))
    base = workdir / "base.json"
    base.write_text(json.dumps(base_rows))
    float_omega = workdir / "float_omega.json"
    float_omega.write_text(json.dumps(FLOAT_OMEGA))
    out = workdir / _case_name(command, geometry, fmt)
    subcommand, *extra = [a.format(omega=omega, base=base, float_omega=float_omega,
                                   polynomial=REDUCE_INPUTS.get(geometry))
                          for a in COMMANDS[command]]
    code = main(["--format", fmt, "--out", str(out), subcommand, str(config), *extra])
    assert code == EXIT_OK
    return out.read_text(encoding="utf-8")


def render_cubic_presentation() -> str:
    spec = GEOMETRIES["cubic_curve"]
    ctx = VariableContext(spec["n"], spec["k"], tuple(spec["degrees"]))
    D = dwork_potential(ctx, [parse(g, ctx) for g in spec["G"]])
    return build_presentation(D).to_json()


def write_goldens() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            text = render_case(*case, Path(tmp))
            (GOLDEN / _case_name(*case)).write_text(text, encoding="utf-8")
    (GOLDEN / "presentation-cubic_curve.json").write_text(
        render_cubic_presentation(), encoding="utf-8")


@pytest.mark.parametrize("command,geometry,fmt", CASES,
                         ids=[_case_name(*c) for c in CASES])
def test_cli_report_is_byte_identical(command, geometry, fmt, tmp_path):
    expected = (GOLDEN / _case_name(command, geometry, fmt)).read_text(encoding="utf-8")
    assert render_case(command, geometry, fmt, tmp_path) == expected


@pytest.mark.parametrize("geometry", REDUCE_INPUTS)
def test_reduce_certificates_satisfy_the_identity(geometry):
    """Each golden `reduce` report satisfies input = sum c_rho e_rho +
    K(certificate), read back from its JSON with the polynomial parser."""
    from fractions import Fraction

    from dworkbox import SuperElement, apply_k

    spec = GEOMETRIES[geometry]
    ctx = VariableContext(spec["n"], spec["k"], tuple(spec["degrees"]))
    D = dwork_potential(ctx, [parse(g, ctx) for g in spec["G"]])
    report = json.loads((GOLDEN / f"reduce-{geometry}.json").read_text(encoding="utf-8"))
    normal = SuperElement.zero(ctx)
    for e, c in zip(report["basis"], report["coefficients"]):
        normal = normal + parse(e, ctx).scale(Fraction(c))
    assert report["input"] == REDUCE_INPUTS[geometry]
    assert apply_k(D, parse(report["certificate"], ctx)) + normal == parse(report["input"], ctx)


def test_presentation_json_is_byte_identical():
    expected = (GOLDEN / "presentation-cubic_curve.json").read_text(encoding="utf-8")
    assert render_cubic_presentation() == expected


def test_presentation_file_of_the_full_echelon_still_loads():
    """presentation-cubic_curve-full-echelon.json holds the rows of the echelon
    of every generator, as written before the build skipped the Koszul-redundant
    ones; its rows are not read, and it loads as a fresh build's export."""
    from dworkbox import QuotientPresentation

    older = (GOLDEN / "presentation-cubic_curve-full-echelon.json").read_text(encoding="utf-8")
    fresh = render_cubic_presentation()
    assert json.loads(older)["version"] == 1 and "solvers" in json.loads(older)
    loaded = QuotientPresentation.from_json(older)
    assert loaded.basis == QuotientPresentation.from_json(fresh).basis
    assert loaded.to_json() == fresh


def test_presentation_file_of_format_1_still_loads():
    """presentation-cubic_curve-v1.json is the cubic export of format 1, with
    its echelon rows and slack; it loads as the format-2 export."""
    from dworkbox import QuotientPresentation

    older = (GOLDEN / "presentation-cubic_curve-v1.json").read_text(encoding="utf-8")
    fresh = render_cubic_presentation()
    payload = json.loads(older)
    assert payload["version"] == 1
    assert set(payload) - set(json.loads(fresh)) == {"slack", "solvers"}
    assert QuotientPresentation.from_json(older).to_json() == fresh
