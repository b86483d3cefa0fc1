"""CLI: commands, exit codes, output schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dworkbox import cli
from dworkbox.cli import (
    EXIT_ASSUMPTION,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
)


@pytest.fixture
def fermat_config(tmp_path):
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3"],
        "H": ["x0*x1*x2"],
        "truncationOrder": 6,
    }))
    return str(path)


@pytest.fixture
def quartic_config(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({
        "n": 3, "k": 1, "degrees": [4],
        "G": ["x0^4 + x1^4 + x2^4 + x3^4"],
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_fermat(capsys, fermat_config):
    code, out, err = run_cli(capsys, "--format", "json", "basis", fermat_config)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["cG"] == 0
    assert payload["dimension"] == 2
    assert payload["hodge"] == [1, 1]
    assert payload["basis"] == ["1", "y1*x0*x1*x2"]


def run_fresh_process(*argv):
    """`python -m dworkbox *argv` in a new interpreter, from this checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dworkbox", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli(fermat_config):
    """`python -m dworkbox` works from an uninstalled checkout on PYTHONPATH."""
    done = run_fresh_process("--format", "json", "basis", fermat_config)
    assert done.returncode == EXIT_OK, done.stderr
    payload = json.loads(done.stdout)
    assert payload["hodge"] == [1, 1]
    assert payload["basis"] == ["1", "y1*x0*x1*x2"]


def test_one_parser_serves_every_call_in_a_process(capsys, fermat_config):
    """`main` builds its parser once per process.  After a bad argv exits 2
    through it, a good call gives the report a fresh process gives."""
    assert cli._arg_parser() is cli._arg_parser()
    with pytest.raises(SystemExit) as exc:
        main(["deform", fermat_config, "--order", "three"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid int value: 'three'" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "--format", "json", "deform", fermat_config)
    assert code == EXIT_OK
    done = run_fresh_process("--format", "json", "deform", fermat_config)
    assert done.returncode == EXIT_OK, done.stderr
    assert out == done.stdout


def test_basis_quartic(capsys, quartic_config):
    code, out, _ = run_cli(capsys, "--format", "json", "basis", quartic_config)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 21
    assert payload["hodge"] == [1, 19, 1]
    assert len(payload["basis"]) == 21


def test_basis_singular_guard(capsys, tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [3], "G": ["x0^2*x1"],
    }))
    code, out, err = run_cli(capsys, "basis", str(path))
    assert code == EXIT_ASSUMPTION
    assert "singular" in err


def test_reduce_command(capsys, fermat_config):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "reduce", fermat_config, "y1*x0^3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coefficients"] == ["-1/3", "0/1"]
    assert payload["certificate"] == "1/3*x0*e2"


def test_reduce_unit(capsys, fermat_config):
    code, out, _ = run_cli(capsys, "--format", "json", "reduce", fermat_config, "1")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["coefficients"] == ["1/1", "0/1"]


def test_reduce_charge_error(capsys, fermat_config):
    code, out, err = run_cli(capsys, "reduce", fermat_config, "1 + x0")
    assert code == EXIT_INPUT
    assert "charge" in err


def test_reduce_parse_error(capsys, fermat_config):
    code, _, err = run_cli(capsys, "reduce", fermat_config, "2x0")
    assert code == EXIT_INPUT
    assert "line" in err


def test_deform_hesse(capsys, fermat_config):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "deform", fermat_config, "--order", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["uBasis"] == ["y1*x0*x1*x2", "1"]
    assert payload["primeIndices"] == [1]
    rows = {(r["rho"], tuple(r["exponent"])): r["value"] for r in payload["series"]}
    assert rows[(2, (1, 0))] == "1/1"
    assert rows[(1, (3, 0))] == "-1/162"
    assert rows[(2, (4, 0))] == "-1/81"
    assert (1, (2, 0)) not in rows and (2, (2, 0)) not in rows
    assert payload["dLadder"]["1"] == [["0/1", "1/1"], ["1/1", "0/1"]]
    assert payload["dLadder"]["3"][0][0] == "-1/54"


def test_deform_trivial_identity(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3"],
        "H": ["0"],
    }))
    code, out, _ = run_cli(capsys, "--format", "json", "deform", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    eye = [["1/1", "0/1"], ["0/1", "1/1"]]
    for order, matrix in payload["dLadder"].items():
        assert matrix == eye


def test_trivial_deformation_at_nonzero_background_charge(capsys, tmp_path):
    """The sextic (c_G = 3) deformed by H = 0 has no deformation class: the
    series is reduce(h) at the zero exponent, h = x2^3 the default factor,
    every D is the identity and transport returns Omega * B."""
    from fractions import Fraction

    path = tmp_path / "sextic.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [6],
        "G": ["x0^6 + x1^6 + x2^6"],
        "H": ["0"],
    }))
    code, out, _ = run_cli(capsys, "--format", "json", "deform", str(path), "--order", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    size = 20
    eye = [[f"{int(i == j)}/1" for j in range(size)] for i in range(size)]
    assert sorted(payload["dLadder"]) == ["1", "2", "3"]
    assert all(matrix == eye for matrix in payload["dLadder"].values())
    code, out, _ = run_cli(capsys, "--format", "json", "reduce", str(path), "x2^3")
    assert code == EXIT_OK
    reduced = json.loads(out)["coefficients"]
    assert [i + 1 for i, c in enumerate(reduced) if c != "0/1"] == [10]
    assert reduced[9] == "1/1"
    zero = [row for row in payload["series"] if not any(row["exponent"])]
    assert [(row["rho"], row["value"]) for row in zero] == [(10, "1/1")]

    omega = [[Fraction(i - 2 * j, i + j + 1) for j in range(size)] for i in range(size)]
    base = [[int(i == j) + int(j == i + 1) for j in range(size)] for i in range(size)]
    omega_path, base_path = tmp_path / "omega.json", tmp_path / "base.json"
    omega_path.write_text(json.dumps([[str(v) for v in row] for row in omega]))
    base_path.write_text(json.dumps(base))
    code, out, _ = run_cli(capsys, "--format", "json", "transport", str(path), "--order", "3",
                           "--omega", str(omega_path), "--base-change", str(base_path))
    assert code == EXIT_OK
    product = [[str(sum(omega[i][t] * base[t][j] for t in range(size)))
                for j in range(size)] for i in range(size)]
    orders = json.loads(out)["orders"]
    assert [entry["order"] for entry in orders] == [1, 2, 3]
    for entry in orders:
        assert [[str(Fraction(v)) for v in row] for row in entry["matrix"]] == product


def test_deform_without_h(capsys, quartic_config):
    code, _, err = run_cli(capsys, "deform", quartic_config)
    assert code == EXIT_INPUT
    assert "H" in err


def test_deform_order_zero_rejected(capsys, fermat_config):
    code, _, err = run_cli(capsys, "deform", fermat_config, "--order", "0")
    assert code == EXIT_INPUT


def _matrix_files(tmp_path, omega_rows, b_rows):
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps(omega_rows))
    bmat = tmp_path / "b.json"
    bmat.write_text(json.dumps(b_rows))
    return str(omega), str(bmat)


def _no_presentation(monkeypatch):
    """Make building any presentation in the CLI a test failure."""
    def refuse(*args, **kwargs):
        raise AssertionError("a presentation was built before the input check")

    monkeypatch.setattr(cli, "build_presentation", refuse)


def test_transport_order_zero_rejected_before_any_build(capsys, fermat_config,
                                                        tmp_path, monkeypatch):
    omega, bmat = _matrix_files(tmp_path, [["1", "2"], ["3", "4"]], [[1, 0], [0, 1]])
    _no_presentation(monkeypatch)
    code, _, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                           "--base-change", bmat, "--order", "0")
    assert code == EXIT_INPUT
    assert "truncation order must be >= 1" in err


def test_transport_rejects_omega_base_change_mismatch_before_any_build(
        capsys, fermat_config, tmp_path, monkeypatch):
    omega, bmat = _matrix_files(tmp_path, [["1", "2"], ["3", "4"]],
                                [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    _no_presentation(monkeypatch)
    code, _, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                           "--base-change", bmat)
    assert code == EXIT_INPUT
    assert "3x3" in err and "2x2" in err


def test_transport_checks_base_change_size_before_its_determinant(
        capsys, fermat_config, tmp_path, monkeypatch):
    """A 200x200 B against a 2x2 Omega is a size mismatch, reported before
    the unimodularity check, whose cost grows about as n^4."""
    import random
    import time

    from dworkbox import deformation

    rng = random.Random(200)
    omega, bmat = _matrix_files(tmp_path, [["1", "2"], ["3", "4"]],
                                [[rng.randint(-9, 9) for _ in range(200)] for _ in range(200)])

    def refuse(*args, **kwargs):
        raise AssertionError("the determinant of B was computed before the size check")

    monkeypatch.setattr(deformation, "_determinant", refuse)
    _no_presentation(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                             "--base-change", bmat)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert "base change is 200x200, expected 2x2" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("integral", [True, False])
def test_transport_integer_entries_match_their_strings(capsys, fermat_config, tmp_path,
                                                       fmt, integral):
    """Omega and B from JSON integers give the report of the same entries
    written as strings, byte for byte."""
    reports = []
    for entry in (lambda v: v, str):
        omega = [[entry(v) for v in row] for row in [[1, 2], [3, 4]]]
        b = [[entry(v) for v in row] for row in [[2, 1], [1, 1]]]
        omega_path, b_path = _matrix_files(tmp_path, omega,
                                           b if integral else {"matrix": b, "integral": False})
        code, out, _ = run_cli(capsys, "--format", fmt, "transport", fermat_config,
                               "--omega", omega_path, "--base-change", b_path, "--order", "3")
        assert code == EXIT_OK
        reports.append(out)
    assert reports[0] == reports[1]


def test_transport_never_expands_the_series(capsys, fermat_config, tmp_path,
                                            monkeypatch):
    omega, bmat = _matrix_files(tmp_path, [["1", "2"], ["3", "4"]], [[1, 0], [0, 1]])

    def refuse(*args, **kwargs):
        raise AssertionError("transport expanded the T series")

    monkeypatch.setattr(cli, "t_series", refuse)
    code, out, _ = run_cli(capsys, "--format", "json", "transport", fermat_config,
                           "--omega", omega, "--base-change", bmat, "--order", "3")
    assert code == EXIT_OK
    # row 0 of the order-3 ladder is (-1/54, 1): the Hesse value
    assert json.loads(out)["orders"][2]["matrix"][0] == ["161/54", "107/27"]


def test_transport_identity(capsys, fermat_config, tmp_path):
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps([["1", "2"], ["3", "4"]]))
    bmat = tmp_path / "b.json"
    bmat.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, _ = run_cli(capsys, "--format", "json", "transport", fermat_config,
                           "--omega", str(omega), "--base-change", str(bmat),
                           "--order", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    order1 = payload["orders"][0]
    assert order1["order"] == 1
    # ladder at order 1 swaps the rows: D = [[0,1],[1,0]]
    assert order1["matrix"] == [["3/1", "4/1"], ["1/1", "2/1"]]


def test_transport_rejects_non_unimodular(capsys, fermat_config, tmp_path):
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    bmat = tmp_path / "b.json"
    bmat.write_text(json.dumps([[2, 0], [0, 1]]))
    code, _, err = run_cli(capsys, "transport", fermat_config,
                           "--omega", str(omega), "--base-change", str(bmat))
    assert code == EXIT_INPUT
    assert "unimodular" in err


@pytest.mark.parametrize("entry", [1.5, float("nan"), float("inf")],
                         ids=["fraction", "nan", "infinity"])
def test_transport_rejects_non_integer_base_change(capsys, fermat_config, tmp_path,
                                                   monkeypatch, entry):
    omega, bmat = _matrix_files(tmp_path, [["1", "0"], ["0", "1"]], [[entry, 0], [0, 1]])
    _no_presentation(monkeypatch)
    code, _, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                           "--base-change", bmat)
    assert code == EXIT_INPUT
    assert "integral base change needs integer entries" in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("omega_rows, b_rows, message", [
    ([[NAN, 1.0], [INF, 2.0]], [[1, 0], [0, 1]], "period matrix entries must be finite"),
    ([["1", "0"], ["0", "1"]], {"matrix": [[NAN, 0], [0, 1]], "integral": False},
     "base change entries must be finite"),
    ([["1", "0"], ["0", "1"]], {"matrix": [[1.5, 0], [0, -INF]], "integral": False},
     "base change entries must be finite"),
], ids=["omega", "base-change-nan", "base-change-infinity"])
def test_transport_rejects_non_finite_entries(capsys, fermat_config, tmp_path,
                                              monkeypatch, omega_rows, b_rows, message):
    omega, bmat = _matrix_files(tmp_path, omega_rows, b_rows)
    _no_presentation(monkeypatch)
    code, out, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                             "--base-change", bmat)
    assert code == EXIT_INPUT
    assert message in err and out == ""


@pytest.mark.parametrize("entry", ["1e20000000", "1E-20000000", "2.5e+99999", "1e4301"])
def test_transport_refuses_a_huge_exponent_before_expanding_it(
        capsys, fermat_config, tmp_path, monkeypatch, entry):
    """Fraction would build 10**20000000 before anything else; an exponent
    is bounded by Python's int-string limit (4300) instead."""
    import time

    omega, bmat = _matrix_files(tmp_path, [[entry, "0"], ["0", "1"]], [[1, 0], [0, 1]])
    _no_presentation(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                             "--base-change", bmat)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert f"bad matrix entry {entry!r}: exponent beyond 4300" in err


def test_transport_accepts_an_exponent_within_the_limit(capsys, fermat_config, tmp_path):
    omega, bmat = _matrix_files(tmp_path, [["1e3", "2.5e-1"], ["3", "4"]], [[1, 0], [0, 1]])
    code, out, _ = run_cli(capsys, "--format", "json", "transport", fermat_config,
                           "--omega", omega, "--base-change", bmat, "--order", "1")
    assert code == EXIT_OK
    assert json.loads(out)["orders"][0]["matrix"] == [["3/1", "4/1"], ["1000/1", "1/4"]]


@pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
def test_transport_integral_flag_must_be_boolean(capsys, fermat_config, tmp_path,
                                                 monkeypatch, flag):
    omega, bmat = _matrix_files(tmp_path, [["1", "0"], ["0", "1"]],
                                {"matrix": [[1, 0], [0, 1]], "integral": flag})
    _no_presentation(monkeypatch)
    code, _, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                           "--base-change", bmat)
    assert code == EXIT_INPUT
    assert "integral must be true or false" in err


def test_transport_non_integral_base_change(capsys, fermat_config, tmp_path):
    omega, bmat = _matrix_files(tmp_path, [["1", "2"], ["3", "4"]],
                                {"matrix": [["1/2", "0"], ["0", 3]], "integral": False})
    code, out, _ = run_cli(capsys, "--format", "json", "transport", fermat_config,
                           "--omega", omega, "--base-change", bmat, "--order", "1")
    assert code == EXIT_OK
    # D = [[0,1],[1,0]] at order 1 swaps the rows of Omega * B
    assert json.loads(out)["orders"][0]["matrix"] == [["3/2", "12/1"], ["1/2", "6/1"]]


def test_transport_rejects_mismatched_sizes(capsys, fermat_config, tmp_path):
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    bmat = tmp_path / "b.json"
    bmat.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, _, err = run_cli(capsys, "transport", fermat_config,
                           "--omega", str(omega), "--base-change", str(bmat))
    assert code == EXIT_INPUT
    assert "3x3" in err


def test_transport_rejects_wrong_omega_size_before_deforming(capsys, fermat_config,
                                                            tmp_path, monkeypatch):
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    omega, bmat = _matrix_files(tmp_path, identity, identity)

    def refuse(*args, **kwargs):
        raise AssertionError("the deformation was set up before the size check")

    monkeypatch.setattr(cli, "build_deformation", refuse)
    monkeypatch.setattr(cli, "u_basis", refuse)
    code, _, err = run_cli(capsys, "transport", fermat_config, "--omega", omega,
                           "--base-change", bmat)
    assert code == EXIT_INPUT
    assert "period matrix is 3x3, expected 2" in err


def test_verify_passes_and_is_deterministic(capsys, fermat_config):
    code1, out1, _ = run_cli(capsys, "verify", fermat_config,
                             "--seed", "5", "--iterations", "25")
    code2, out2, _ = run_cli(capsys, "verify", fermat_config,
                             "--seed", "5", "--iterations", "25")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "result: all invariants hold" in out1


def test_verify_catches_injected_fault(capsys, fermat_config):
    code, out, _ = run_cli(capsys, "verify", fermat_config,
                           "--seed", "5", "--iterations", "10",
                           "--inject-fault", "delta-drop-term")
    assert code == EXIT_INTERNAL
    assert "FAIL" in out


def test_verify_rejects_unknown_fault_before_any_build(capsys, fermat_config,
                                                      monkeypatch):
    _no_presentation(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", fermat_config, "--inject-fault", "no-such-hook"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid choice: 'no-such-hook'" in capsys.readouterr().err


@pytest.mark.parametrize("iterations", ["0", "-3"])
def test_verify_needs_at_least_one_iteration(capsys, fermat_config, monkeypatch,
                                             iterations):
    _no_presentation(monkeypatch)
    code, out, err = run_cli(capsys, "verify", fermat_config,
                             "--iterations", iterations)
    assert code == EXIT_INPUT
    assert out == ""
    assert "--iterations must be >= 1" in err


def test_missing_config(capsys, tmp_path):
    code, _, err = run_cli(capsys, "basis", str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT


def test_malformed_config(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"n\": 2}")
    code, _, err = run_cli(capsys, "basis", str(path))
    assert code == EXIT_INPUT


def test_config_arity_mismatch(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3"],
        "H": ["x0*x1*x2", "x0^3"],
    }))
    code, _, err = run_cli(capsys, "deform", str(path))
    assert code == EXIT_INPUT


@pytest.mark.parametrize("field,value", [
    ("G", "x0^3 + x1^3 + x2^3"),
    ("H", "x0*x1*x2"),
    ("H", "0"),
], ids=["g-string", "h-string", "h-one-character"])
def test_config_reads_polynomial_blocks_only_as_lists(capsys, fermat_config, field, value):
    """A string G or H is not split into its characters: a one-character
    string would otherwise pass as a list of one polynomial."""
    raw = json.loads(Path(fermat_config).read_text())
    raw[field] = value
    Path(fermat_config).write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "deform", fermat_config)
    assert code == EXIT_INPUT
    assert out == ""
    assert f"config field {field} must be a list of polynomials" in err


def test_config_empty_h_factor_is_not_dropped(capsys, tmp_path):
    """The genus-4 curve has c_G = 1, so deform multiplies by an h factor;
    an h that is present is parsed, even when it is empty."""
    path = tmp_path / "genus4.json"
    raw = {
        "n": 3, "k": 2, "degrees": [2, 3],
        "G": ["x0^2 + x1^2 + x2^2 + x3^2", "x0^3 + x1^3 + x2^3 + x3^3"],
        "H": ["x0*x1", "0"],
    }
    path.write_text(json.dumps(raw))
    code, _, _ = run_cli(capsys, "deform", str(path), "--order", "1")
    assert code == EXIT_OK
    path.write_text(json.dumps(dict(raw, h="")))
    code, out, _ = run_cli(capsys, "deform", str(path), "--order", "1")
    assert code == EXIT_INPUT
    assert out == ""


@pytest.mark.parametrize("field,value,name", [
    ("truncationOrder", "six", "truncationOrder"),
    ("seed", "x", "seed"),
    ("truncationOrder", 2.5, "truncationOrder"),
    ("truncationOrder", True, "truncationOrder"),
    ("n", 2.9, "n"),
    ("degrees", [3.7], "degrees[0]"),
    ("yPower", ["a", 2], "yPower[0]"),
], ids=["order-string", "seed-string", "order-float", "order-bool", "n-float",
        "degree-float", "ypower-string"])
def test_config_rejects_non_integer_fields(capsys, fermat_config, field, value, name):
    """Integer fields take JSON integers only: no truncation, no uncaught
    conversion error."""
    raw = json.loads(Path(fermat_config).read_text())
    raw[field] = value
    Path(fermat_config).write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "deform", fermat_config)
    assert code == EXIT_INPUT
    assert out == ""
    assert f"config field {name} must be an integer" in err


@pytest.mark.parametrize("value", [5, "1,2", [1, 2, 3]],
                         ids=["number", "string", "three-entries"])
def test_config_rejects_y_power_that_is_not_a_pair(capsys, fermat_config, value):
    raw = json.loads(Path(fermat_config).read_text())
    raw["yPower"] = value
    Path(fermat_config).write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "deform", fermat_config)
    assert code == EXIT_INPUT
    assert out == ""
    assert "config field yPower must be a list of two integers" in err


@pytest.mark.parametrize("geometry, field, value", [
    ("cubic", "h", "x0^7 + x1"),
    ("cubic", "yPower", [1, 3]),
    ("sextic", "yPower", [1, 3]),
], ids=["cubic-h", "cubic-ypower", "sextic-ypower"])
def test_config_override_the_charge_does_not_use(capsys, tmp_path, geometry, field, value):
    """The cubic has c_G = 0 and uses neither h nor yPower; the sextic has
    c_G = 3 > 0 and uses h only.  An unused override exits 2."""
    degree = 3 if geometry == "cubic" else 6
    path = tmp_path / f"{geometry}.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [degree],
        "G": [f"x0^{degree} + x1^{degree} + x2^{degree}"],
        "H": ["x0*x1*x2" if degree == 3 else "x0^2*x1^2*x2^2"],
        field: value,
    }))
    code, out, err = run_cli(capsys, "deform", str(path), "--order", "1")
    assert code == EXIT_INPUT
    assert out == ""
    assert ("h override" if field == "h" else "y power override") in err


@pytest.mark.parametrize("y_power", [[2, 1], [1, 0]], ids=["no-y2", "zero-power"])
def test_deform_rejects_an_invalid_y_power(capsys, tmp_path, y_power):
    """The cubic surface has c_G = -1 and one y variable: j must be 1 and
    m at least 1."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({
        "n": 3, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3 + x3^3"], "H": ["x0*x1*x2"],
        "yPower": y_power,
    }))
    code, out, err = run_cli(capsys, "deform", str(path), "--order", "1")
    assert code == EXIT_INPUT
    assert out == ""
    assert "invalid y power choice" in err


def test_deform_rejects_a_y_power_short_of_the_charge(capsys, tmp_path):
    """The quadric 4-fold has c_G = -4 and d_1 = 2: y1^1 leaves x degree -2."""
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps({
        "n": 5, "k": 1, "degrees": [2],
        "G": ["x0^2 + x1^2 + x2^2 + x3^2 + x4^2 + x5^2"], "H": ["0"],
        "yPower": [1, 1],
    }))
    code, out, err = run_cli(capsys, "deform", str(path), "--order", "1")
    assert code == EXIT_INPUT
    assert out == ""
    assert "cannot reach charge -4" in err


LONG_NUMERAL = "7" * 5000  # past Python's 4300-digit int-string limit


@pytest.mark.parametrize("where", ["config", "omega", "polynomial", "undecodable"])
def test_oversized_or_undecodable_input_exits_2(capsys, fermat_config, tmp_path, where):
    """Reading a 5000-digit integer raises ValueError inside json and int;
    each place that reads one reports it as an input error."""
    omega, bmat = _matrix_files(tmp_path, [["1", "0"], ["0", "1"]], [[1, 0], [0, 1]])
    if where == "config":
        text = Path(fermat_config).read_text()
        Path(fermat_config).write_text(text[:-1] + f', "seed": {LONG_NUMERAL}}}')
        argv = ["basis", fermat_config]
    elif where == "omega":
        Path(omega).write_text(f"[[{LONG_NUMERAL}, 0], [0, 1]]")
        argv = ["transport", fermat_config, "--omega", omega, "--base-change", bmat]
    elif where == "polynomial":
        argv = ["reduce", fermat_config, f"y1*x0^{LONG_NUMERAL}"]
    else:
        Path(fermat_config).write_bytes(b'{"n": 2, "k": 1, "degrees": [3], "G": ["\xff"]}')
        argv = ["basis", fermat_config]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["config", "omega", "base change", "polynomial"])
def test_deep_nesting_exits_2(capsys, fermat_config, tmp_path, where):
    """100,000 nested '[' in a JSON file and 2,000 nested parentheses in a
    polynomial overflow the stack of a recursive reader; each is an input
    error, the polynomial one at the column of the first '(' too deep."""
    omega, bmat = _matrix_files(tmp_path, [["1", "0"], ["0", "1"]], [[1, 0], [0, 1]])
    deep = "[" * 100_000 + "]" * 100_000
    transport = ["transport", fermat_config, "--omega", omega, "--base-change", bmat]
    if where == "config":
        Path(fermat_config).write_text(deep)
        argv = ["basis", fermat_config]
    elif where == "omega":
        Path(omega).write_text(deep)
        argv = transport
    elif where == "base change":
        Path(bmat).write_text(deep)
        argv = transport
    else:
        argv = ["reduce", fermat_config, "(" * 2000 + "y1*x0^3" + ")" * 2000]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if where == "polynomial":
        assert "nested deeper than 100 (line 1, column 101)" in err
    else:
        assert "nested too deeply" in err


def test_fifty_nested_parentheses_still_parse(capsys, fermat_config):
    code, out, _ = run_cli(capsys, "reduce", fermat_config, "(" * 50 + "y1*x0^3" + ")" * 50)
    assert code == EXIT_OK
    assert out.startswith("input: y1*x0^3\n")


def test_output_file(capsys, fermat_config, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--format", "json", "--out", str(target),
                           "basis", fermat_config)
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["dimension"] == 2


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_output_file_that_cannot_be_written(capsys, fermat_config, tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "r.txt"
    code, out, err = run_cli(capsys, "--out", str(target), "basis", fermat_config)
    assert code == EXIT_INPUT
    assert out == ""
    assert "cannot write report" in err
    assert "Traceback" not in err


def test_text_format_basis(capsys, fermat_config):
    code, out, _ = run_cli(capsys, "basis", fermat_config)
    assert code == EXIT_OK
    assert "background charge: 0" in out
    assert "e2 = y1*x0*x1*x2" in out


def test_byte_identical_reports(capsys, fermat_config):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "--format", "json", "deform", fermat_config,
                            "--order", "5")
        outputs.add(out)
    assert len(outputs) == 1


def test_grevlex_override(capsys, tmp_path):
    path = tmp_path / "grevlex.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3"],
        "monomialOrder": "grevlex",
    }))
    code, out, _ = run_cli(capsys, "--format", "json", "basis", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["hodge"] == [1, 1]


def test_unknown_order_rejected(capsys, tmp_path):
    path = tmp_path / "bad-order.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3"],
        "monomialOrder": "mystery",
    }))
    code, _, err = run_cli(capsys, "basis", str(path))
    assert code == EXIT_INPUT


def test_deform_with_no_room_exits_assumption(capsys, tmp_path):
    # a smooth conic has no primitive cohomology: |I| = 0 <= |I'| = 1
    path = tmp_path / "conic.json"
    path.write_text(json.dumps({
        "n": 2, "k": 1, "degrees": [2],
        "G": ["x0^2 + x1^2 + x2^2"],
        "H": ["x0*x1"],
    }))
    code, _, err = run_cli(capsys, "deform", str(path))
    assert code == EXIT_ASSUMPTION
    assert "|I|" in err


def test_deform_exits_assumption_when_the_base_monomials_span_too_little(capsys, tmp_path):
    """On the (2,4) threefold in P^5 with H = (x0 x1, 0) both quotients
    have dimension 180, but the 180 base basis monomials reach rank 172 in
    the deformed one: no greedy completion exists, a failed hypothesis of
    the construction and not a fault of the code."""
    path = tmp_path / "threefold.json"
    path.write_text(json.dumps({
        "n": 5, "k": 2, "degrees": [2, 4],
        "G": [" + ".join(f"x{i}^2" for i in range(6)),
              " + ".join(f"{i + 1}*x{i}^4" for i in range(6))],
        "H": ["x0*x1", "0"],
    }))
    code, out, err = run_cli(capsys, "deform", str(path), "--order", "1")
    assert code == EXIT_ASSUMPTION
    assert out == ""
    assert err == ("error: the base basis monomials reach rank 172 of the deformed "
                   "quotient's dimension 180; the deformed basis cannot be completed\n")


def test_deform_payload_rationals_parse(capsys, fermat_config):
    from fractions import Fraction

    code, out, _ = run_cli(capsys, "--format", "json", "deform", fermat_config,
                           "--order", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    for row in payload["series"]:
        assert Fraction(row["value"]) is not None
    for matrix in payload["dLadder"].values():
        for mrow in matrix:
            for value in mrow:
                Fraction(value)  # every entry is a parseable p/q string
