"""Graded enumeration, quotient bases, reduction and the charge witness.

Two independent oracles appear here:

  * a brute-force bounded-exponent enumerator checking enumerate_piece;
  * a dense rational rank computation over plain exponent-dict polynomials
    (no SuperElement machinery) checking quotient dimensions against the
    classical Jacobian-ring description.
"""

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from dworkbox import (
    InputError,
    SmoothnessError,
    SuperElement,
    SuperMonomial,
    VariableContext,
    apply_k,
    build_presentation,
    charge_generator,
    dwork_potential,
    enumerate_piece,
    parse,
)
from dworkbox.cohomology import PieceView, QuotientPresentation, _compositions
from dworkbox.verify import random_charge_element
from tests.oracles import (
    brute_force_piece,
    charge_witness_check,
    compositions,
    griffiths_hodge_numbers,
    hirzebruch_hodge_numbers,
)


# -- enumeration oracle --------------------------------------------------------

@pytest.mark.parametrize("charge,weight,eta_degree", [
    (0, 0, 0), (0, 1, 0), (0, 1, -1), (0, 0, -1),
    (1, 0, 0), (-3, 1, 0), (0, 2, -1), (3, 0, -1), (0, 2, -2),
])
def test_enumerate_piece_against_brute_force(cubic_ctx, charge, weight, eta_degree):
    piece = enumerate_piece(cubic_ctx, charge, weight, eta_degree)
    monos = [cubic_ctx.unpack(key) for key in piece.monomials]
    expected = brute_force_piece(cubic_ctx, charge, weight, eta_degree)
    assert set(monos) == expected
    assert len(monos) == len(set(monos))


def test_enumerate_piece_counts(cubic_ctx):
    assert [cubic_ctx.unpack(key) for key in enumerate_piece(cubic_ctx, 0, 0, 0).monomials] == \
        [SuperMonomial((0, 0, 0, 0), ())]
    # y1 * (cubics in three variables): C(5, 2) = 10 by stars and bars
    assert len(enumerate_piece(cubic_ctx, 0, 1, 0).monomials) == 10
    # weight 0 with one eta: no solutions at charge 0 for the cubic
    assert enumerate_piece(cubic_ctx, 0, 0, -1).monomials == ()


def test_enumerate_piece_rejects_negative_weight(cubic_ctx):
    with pytest.raises(InputError):
        enumerate_piece(cubic_ctx, 0, -1, 0)


def test_enumerate_piece_sorted_descending(cubic_ctx):
    from dworkbox.superalgebra import monomial_sort_key

    piece = enumerate_piece(cubic_ctx, 0, 2, -1)
    keys = [monomial_sort_key(cubic_ctx, m) for m in piece.monomials]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("order", ["graded-lex", "grevlex"])
@pytest.mark.parametrize("n,k,degrees", [
    (2, 1, (3,)), (3, 1, (4,)), (3, 2, (2, 2)), (2, 2, (1, 2)), (3, 2, (2, 3)),
    (4, 1, (3,)), (4, 2, (2, 3))])
def test_enumerate_piece_order_is_monomial_sort_key(n, k, degrees, order):
    """The order PieceView walks inside a piece, where the weight is
    constant, must be exactly monomial_sort_key's, so the quotient basis,
    the echelon rows and seeded draws stay fixed."""
    from dworkbox.superalgebra import monomial_sort_key

    ctx = VariableContext(n, k, degrees, order)
    nonempty = 0
    for charge in range(-3, 4):
        for weight in range(4):
            for eta_degree in range(0, -3, -1):
                monos = [ctx.unpack(key) for key in
                         enumerate_piece(ctx, charge, weight, eta_degree).monomials]
                expected = sorted(monos, key=lambda m: monomial_sort_key(ctx, ctx.pack(m)),
                                  reverse=True)
                assert list(monos) == expected
                nonempty += len(monos) > 1
    assert nonempty > 10


@pytest.mark.parametrize("order", ["graded-lex", "grevlex"])
@pytest.mark.parametrize("n,k,degrees", [
    (2, 1, (3,)), (3, 1, (4,)), (3, 2, (2, 2)), (2, 2, (1, 2)), (3, 2, (2, 3))])
def test_piece_view_counts_and_walks_enumerate_piece(n, k, degrees, order):
    """PieceView counts, in closed form, and walks exactly the monomials
    enumerate_piece lists, in the same order."""
    ctx = VariableContext(n, k, degrees, order)
    nonempty = 0
    for charge in range(-3, 4):
        for weight in range(4):
            for eta_degree in range(0, -3, -1):
                monos = list(enumerate_piece(ctx, charge, weight, eta_degree).monomials)
                view = PieceView(ctx, charge, weight, eta_degree)
                assert len(view) == len(monos)
                assert list(view) == monos
                nonempty += bool(monos)
    assert nonempty > 10


@pytest.mark.parametrize("n,k,degrees,order,pieces", [
    (2, 1, (3,), "graded-lex", [(0, 1, 0), (0, 2, -1), (0, 2, -2)]),
    (3, 2, (2, 2), "graded-lex", [(0, 1, 0), (0, 2, -1), (-1, 2, -2)]),
    (3, 1, (4,), "grevlex", [(0, 1, 0), (0, 2, -1), (0, 2, -2), (2, 1, -1)]),
])
def test_piece_view_iterates_without_enumerate_piece(monkeypatch, n, k, degrees,
                                                     order, pieces):
    """Iterating a view walks its own block table, as many monomials as
    `len` counts; it lists nothing through enumerate_piece."""
    import dworkbox.cohomology as cohomology

    def refuse(*args):
        raise AssertionError("PieceView iteration called enumerate_piece")

    monkeypatch.setattr(cohomology, "enumerate_piece", refuse)
    ctx = VariableContext(n, k, degrees, order)
    for charge, weight, eta_degree in pieces:
        view = PieceView(ctx, charge, weight, eta_degree)
        assert len(list(view)) == len(view) > 1


def test_compositions_follow_the_recursive_order():
    """The iterative enumerator lists the recursive reference's tuples in
    its order, parts = 0 and total = 0 included, and at scale lists the
    C(205, 2) exponents of total 2 over 204 parts (the Dwork quintic's
    T series at order 2)."""
    for total in range(9):
        for parts in range(9):
            assert list(_compositions(total, parts)) == list(compositions(total, parts))
    assert sum(1 for _ in _compositions(2, 204)) == comb(205, 2) == 20910


def test_piece_view_rejects_negative_weight(cubic_ctx):
    with pytest.raises(InputError):
        PieceView(cubic_ctx, 0, -1, 0)


def test_cubic_curve_presentation(cubic_dwork, cubic_presentation):
    P = cubic_presentation
    assert P.c_G == 0
    assert P.dimension == 2
    assert P.hodge_numbers() == [1, 1]
    assert P.basis[0] == SuperMonomial((0, 0, 0, 0), ())
    assert P.basis[1] == SuperMonomial((1, 1, 1, 1), ())
    oracle = griffiths_hodge_numbers(
        cubic_dwork.ctx, parse("x0^3 + x1^3 + x2^3", cubic_dwork.ctx))
    assert P.hodge_numbers() == oracle


def test_two_quadrics_presentation(quadrics_presentation):
    assert quadrics_presentation.c_G == 0
    assert quadrics_presentation.dimension == 2
    assert quadrics_presentation.hodge_numbers() == [1, 1]


def test_two_quadrics_oracle_rank(quadrics_dwork, quadrics_presentation):
    """Independent rank computation on the two relevant graded pieces."""
    from tests.oracles import two_quadrics_weight_coranks

    assert list(quadrics_presentation.weight_counts) == \
        two_quadrics_weight_coranks(quadrics_dwork)


def test_quartic_surface_presentation(quartic_dwork):
    P = build_presentation(quartic_dwork)
    assert P.dimension == 21
    assert P.hodge_numbers() == [1, 19, 1]
    oracle = griffiths_hodge_numbers(
        quartic_dwork.ctx,
        parse("x0^4 + x1^4 + x2^4 + x3^4", quartic_dwork.ctx))
    assert P.hodge_numbers() == oracle


def test_cubic_surface_presentation():
    ctx = VariableContext(3, 1, (3,))
    G = parse("x0^3 + x1^3 + x2^3 + x3^3", ctx)
    P = build_presentation(dwork_potential(ctx, [G]))
    assert P.c_G == -1
    assert P.dimension == 6
    assert P.hodge_numbers() == [0, 6, 0]
    assert P.hodge_numbers() == griffiths_hodge_numbers(ctx, G)


def _diagonal_complete_intersection(n, degrees, order):
    """G_l = sum_j (j+1)^l x_j^(d_l): smooth for the shapes tested here."""
    ctx = VariableContext(n, len(degrees), degrees, order)
    G = [parse(" + ".join(f"{(j + 1) ** l}*x{j}^{d}" for j in range(n + 1)), ctx)
         for l, d in enumerate(degrees)]
    return dwork_potential(ctx, G)


@pytest.mark.parametrize("order", ["graded-lex", "grevlex"])
@pytest.mark.parametrize("n, degrees", [(3, (2, 2)), (3, (2, 3)), (4, (2, 2)), (4, (2, 3)),
                                        (5, (2, 2, 2))],
                         ids=["two quadrics", "genus-4 curve", "quartic del Pezzo",
                              "(2,3) K3", "(2,2,2) K3"])
def test_hodge_numbers_match_hirzebruch_for_k2(n, degrees, order):
    """k = 2, and the K3 of three quadrics, against the independent oracle."""
    P = build_presentation(_diagonal_complete_intersection(n, degrees, order))
    assert P.hodge_numbers() == hirzebruch_hodge_numbers(n, degrees)


@pytest.mark.parametrize("fixture", ["cubic_dwork", "fractional_cubic_dwork", "quartic_dwork",
                                     "grevlex_k3_dwork", "quadrics_dwork"])
def test_hodge_numbers_match_hirzebruch_on_the_fixtures(request, fixture):
    D = request.getfixturevalue(fixture)
    ctx = D.ctx
    assert build_presentation(D).hodge_numbers() == hirzebruch_hodge_numbers(ctx.n, ctx.degrees)


def test_hirzebruch_oracle_on_known_geometries():
    """Values from the literature, on geometries too large to build here."""
    assert hirzebruch_hodge_numbers(4, (5,)) == [1, 101, 101, 1]  # quintic threefold
    assert hirzebruch_hodge_numbers(5, (2, 2, 2)) == [1, 19, 1]  # K3
    assert hirzebruch_hodge_numbers(4, (2, 3)) == [1, 19, 1]  # K3
    assert hirzebruch_hodge_numbers(5, (3, 3)) == [1, 73, 73, 1]  # Calabi-Yau threefold
    assert hirzebruch_hodge_numbers(7, (2, 2, 2, 2)) == [1, 65, 65, 1]  # Calabi-Yau threefold
    assert hirzebruch_hodge_numbers(6, (2, 2, 2)) == [0, 14, 14, 0]
    assert hirzebruch_hodge_numbers(3, (2,)) == [0, 1, 0]  # quadric surface


def test_singular_input_trips_guard():
    ctx = VariableContext(2, 1, (3,))
    D = dwork_potential(ctx, [parse("x0^2*x1", ctx)])
    with pytest.raises(SmoothnessError):
        build_presentation(D)


# -- reduction -------------------------------------------------------------------

def test_reduce_one(cubic_presentation):
    ctx = cubic_presentation.dwork.ctx
    result = cubic_presentation.reduce(SuperElement.one(ctx))
    assert result.coefficients == {0: Fraction(1)}
    assert result.certificate.is_zero()


def test_reduce_known_chains(cubic_dwork, cubic_presentation):
    ctx = cubic_dwork.ctx
    cases = {
        "y1*x0^3": {0: Fraction(-1, 3)},
        "y1^2*x0^2*x1^2*x2^2": {},
        "y1^3*x0^3*x1^3*x2^3": {0: Fraction(-1, 27)},
    }
    for text, expected in cases.items():
        f = parse(text, ctx)
        result = cubic_presentation.reduce(f)
        assert result.coefficients == expected
        rebuilt = apply_k(cubic_dwork, result.certificate) + \
            result.as_element(cubic_presentation)
        assert rebuilt == f


def test_reduce_certificate_soundness_random(cubic_dwork, cubic_presentation):
    rng = random.Random(70)
    for _ in range(100):
        f = random_charge_element(cubic_dwork, rng, 0, 0, max_weight=3)
        result = cubic_presentation.reduce(f)
        assert apply_k(cubic_dwork, result.certificate) + \
            result.as_element(cubic_presentation) == f


def test_reduce_kills_image(cubic_dwork, cubic_presentation):
    rng = random.Random(71)
    for _ in range(100):
        xi = random_charge_element(cubic_dwork, rng, 0, -1, max_weight=3)
        image = apply_k(cubic_dwork, xi)
        result = cubic_presentation.reduce(image)
        assert result.coefficients == {}


def test_reduce_linearity(cubic_dwork, cubic_presentation):
    rng = random.Random(72)
    for _ in range(50):
        f = random_charge_element(cubic_dwork, rng, 0, 0)
        g = random_charge_element(cubic_dwork, rng, 0, 0)
        a, b = Fraction(3, 2), Fraction(-5, 7)
        lhs = cubic_presentation.reduce(f.scale(a) + g.scale(b)).coefficients
        rf = cubic_presentation.reduce(f).coefficients
        rg = cubic_presentation.reduce(g).coefficients
        assert lhs == {rho: c for rho in range(cubic_presentation.dimension)
                       if (c := a * rf.get(rho, 0) + b * rg.get(rho, 0))}


def test_reduce_off_charge_input(cubic_dwork, cubic_presentation):
    ctx = cubic_dwork.ctx
    f = parse("x0", ctx)  # charge 1 != 0, eta-free hence K-closed
    result = cubic_presentation.reduce(f)
    assert result.coefficients == {}
    assert apply_k(cubic_dwork, result.certificate) == f


def test_reduce_rejects_mixed_charge(cubic_presentation):
    ctx = cubic_presentation.dwork.ctx
    with pytest.raises(InputError):
        cubic_presentation.reduce(parse("1 + x0", ctx))


def test_reduce_rejects_eta_input(cubic_presentation):
    ctx = cubic_presentation.dwork.ctx
    with pytest.raises(InputError):
        cubic_presentation.reduce(parse("x0*e2", ctx))


def test_dimension_matches_summed_corank(cubic_dwork, cubic_presentation):
    # corank of the Q matrices per weight, via the internal solvers
    total = 0
    for w in range(0, cubic_dwork.ctx.n - cubic_dwork.ctx.k + 1):
        solver = cubic_presentation._solvers[w]
        piece = enumerate_piece(cubic_dwork.ctx, 0, w, 0)
        total += len(piece.monomials) - len(solver.rows)
    assert total == cubic_presentation.dimension


# -- charge witness ----------------------------------------------------------------

def test_witness_identity_fermat_x0(cubic_dwork):
    ctx = cubic_dwork.ctx
    f = parse("x0", ctx)
    witness = charge_witness_check(cubic_dwork, f)
    assert apply_k(cubic_dwork, witness) == f  # (lambda - c_G) = 1 here


def test_witness_trivial_on_background_charge(cubic_dwork):
    ctx = cubic_dwork.ctx
    f = SuperElement.one(ctx)
    witness = charge_witness_check(cubic_dwork, f)
    assert apply_k(cubic_dwork, witness).is_zero()


def test_witness_random_charges(cubic_dwork):
    rng = random.Random(73)
    for lam in (-3, -1, 1, 2, 3):
        for _ in range(20):
            f = random_charge_element(cubic_dwork, rng, lam, 0, max_weight=2)
            if f.is_zero():
                continue
            witness = charge_witness_check(cubic_dwork, f)
            assert apply_k(cubic_dwork, witness) == f.scale(lam - 0)


def test_witness_rejects_mixed_charge(cubic_dwork):
    ctx = cubic_dwork.ctx
    with pytest.raises(InputError):
        charge_witness_check(cubic_dwork, parse("1 + x0", ctx))


def test_charge_generator_k_value(cubic_dwork, quadrics_dwork):
    for D in (cubic_dwork, quadrics_dwork):
        R = charge_generator(D)
        c_G = D.ctx.background_charge()
        assert apply_k(D, R) == SuperElement.scalar(D.ctx, -c_G)


# -- export / import ------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
# the cubic export in format 2, and the same presentation in format 1, which
# also stores the echelon rows of weights 0..n-k+1 (`solvers`) and `slack`
CUBIC_V2 = GOLDEN / "presentation-cubic_curve.json"
CUBIC_V1 = GOLDEN / "presentation-cubic_curve-v1.json"
V2_KEYS = {"version", "context", "G", "cG", "basis", "weightCounts"}
BOTH, V1 = (1, 2), (1,)
# the expected outcome of an edit that touches only fields the loader does not read
UNREAD = None


@pytest.fixture(scope="module")
def exports():
    """The cubic export as text, by format version."""
    return {1: CUBIC_V1.read_text(encoding="utf-8"), 2: CUBIC_V2.read_text(encoding="utf-8")}


def check_import(text, message, cubic_presentation):
    """`from_json(text)` raises InputError matching `message`; with message
    UNREAD it loads as the rebuild: the cubic basis, and a re-export equal to
    the format-2 golden."""
    if message is UNREAD:
        loaded = QuotientPresentation.from_json(text)
        assert loaded.basis == cubic_presentation.basis
        assert loaded.to_json() == CUBIC_V2.read_text(encoding="utf-8")
    else:
        with pytest.raises(InputError, match=message):
            QuotientPresentation.from_json(text)


def test_presentation_round_trip(cubic_dwork, cubic_presentation):
    ctx = cubic_dwork.ctx
    # reduce above weight n - k + 1, through the lift, before exporting
    f = parse("y1^3*x0^3*x1^3*x2^3", ctx)
    first = cubic_presentation.reduce(f)
    text = cubic_presentation.to_json()
    loaded = QuotientPresentation.from_json(text)
    assert loaded.basis == cubic_presentation.basis
    assert loaded.weight_counts == cubic_presentation.weight_counts
    assert loaded.c_G == cubic_presentation.c_G
    assert loaded.to_json() == text  # bit-exact round trip
    again = loaded.reduce(f)
    assert again.coefficients == first.coefficients
    assert again.certificate == first.certificate


EXPORT_GEOMETRIES = {
    "cubic": (2, 1, (3,), ["x0^3 + x1^3 + x2^3"]),
    "quartic K3": (3, 1, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"]),
    "(2,3) K3 in P^4": (4, 2, (2, 3), ["x0^2 + x1^2 + x2^2 + x3^2 + x4^2",
                                       "x0^3 + 2*x1^3 + 3*x2^3 + 4*x3^3 + 5*x4^3"]),
}


@pytest.mark.parametrize("name", list(EXPORT_GEOMETRIES))
def test_export_and_import_build_no_echelon_above_the_quotient(name):
    """The export holds the six format-2 fields only, and neither `to_json`
    nor `from_json` builds the weight n - k + 1 echelon."""
    n, k, degrees, G = EXPORT_GEOMETRIES[name]
    ctx = VariableContext(n, k, degrees)
    pres = build_presentation(dwork_potential(ctx, [parse(g, ctx) for g in G]))
    quotient = list(range(n - k + 1))
    text = pres.to_json()
    assert set(json.loads(text)) == V2_KEYS
    assert sorted(pres._solvers) == quotient
    loaded = QuotientPresentation.from_json(text)
    assert sorted(loaded._solvers) == quotient
    assert loaded.to_json() == text
    assert sorted(loaded._solvers) == quotient


def test_presentation_import_rejects_bad_version(exports):
    for version in BOTH:
        for bad in (0, 3, 99):
            payload = json.loads(exports[version])
            payload["version"] = bad
            with pytest.raises(InputError, match=f"unsupported presentation version {bad}"):
                QuotientPresentation.from_json(json.dumps(payload))


def _row_edit(edit):
    """Apply `edit` to weight-1 row 3 of the format-1 cubic: pivot 6,
    row {6: 1, 9: 1}, combo {0: 1, 3: -1/3}."""
    def apply(payload):
        rows = payload["solvers"][1]["rows"]
        assert rows[3] == {"pivot": 6, "row": {"6": "1", "9": "1"},
                           "combo": {"0": "1", "3": "-1/3"}}
        edit(rows)
    return apply


def _row_as(row):
    """Replace the row of weight-1 row 3, keeping its pivot and combo."""
    return _row_edit(lambda rows: rows[3].update({"row": row}))


def _rows_by_row_space(payload):
    """Reverse the weight-1 rows, the last one carrying twice the row (and
    combo) of a later one: the same row space in another basis."""
    rows = payload["solvers"][1]["rows"]
    rows.reverse()
    first = {pos: Fraction(c) for pos, c in rows[-1]["row"].items()}
    combo = {g: Fraction(c) for g, c in rows[-1]["combo"].items()}
    later = rows[0]
    assert int(later["pivot"]) > int(rows[-1]["pivot"])
    for part, extra in ((first, later["row"]), (combo, later["combo"])):
        for key, c in extra.items():
            part[key] = part.get(key, 0) + 2 * Fraction(c)
    rows[-1]["row"] = {pos: str(c) for pos, c in first.items() if c}
    rows[-1]["combo"] = {g: str(c) for g, c in combo.items() if c}


# edits that the format-1 row check rejected, or accepted as the same row
# space ("scaled row", "rows by row space"); the rows are no longer read
TAMPERED_ROWS = {
    "row entry": _row_edit(lambda rows: rows[3]["row"].update({"9": "2"})),
    "combo entry": _row_edit(lambda rows: rows[3]["combo"].update({"3": "-1/2"})),
    "pivot": _row_edit(lambda rows: rows[3].update({"pivot": 9})),
    "repeated pivot": _row_edit(lambda rows: rows.__setitem__(3, dict(rows[0]))),
    "position range": _row_edit(lambda rows: rows[3]["row"].update({"1000": "1"})),
    "generator range": _row_edit(lambda rows: rows[3]["combo"].update({"1000": "1"})),
    "malformed entry": _row_edit(lambda rows: rows[3]["row"].update({"9": "one"})),
    "truncated echelon": _row_edit(lambda rows: rows.pop(3)),
    # row 3 plus row 0 {0: 1, 6: 1, 9: 1} with both combos: in the row space
    # and consistent, but its leading position 0 is not its stored pivot 6
    "pivot not the leading position": _row_edit(
        lambda rows: rows[3].update({"row": {"0": "1", "6": "2", "9": "2"},
                                     "combo": {"0": "2", "3": "-1/3"}})),
    "signed and padded positions": _row_as({"+6": "1", " 9 ": "1"}),
    "underscored position": _row_as({"0_6": "1", "9": "1"}),
    "bool and int entries": _row_as({"6": True, "9": 1}),
    "unreduced fraction entry": _row_as({"6": "1", "9": "2/2"}),
    "decimal entries": _row_as({"6": "1.0", "9": "1e0"}),
    # Fraction would expand these to 20-million-digit numbers
    "exponent entry": _row_as({"6": "1", "9": "1e20000000"}),
    "exponent combo entry": _row_edit(lambda rows: rows[3]["combo"].update({"3": "-1e-20000000"})),
    "scaled row": _row_edit(lambda rows: rows[3].update(
        {"row": {"6": "-2", "9": "-2"}, "combo": {"0": "-2", "3": "2/3"}})),
    "rows by row space": _rows_by_row_space,
}


@pytest.mark.parametrize("case", sorted(TAMPERED_ROWS))
def test_presentation_import_ignores_format_1_rows(cubic_presentation, exports, case):
    """A format-1 file's stored rows are not read: each row edit, whether
    the old row check rejected it or not, loads as the rebuild."""
    payload = json.loads(exports[1])
    TAMPERED_ROWS[case](payload)
    check_import(json.dumps(payload), UNREAD, cubic_presentation)


@pytest.mark.parametrize("case", ["exponent entry", "exponent combo entry"])
def test_presentation_import_loads_exponent_rows_unexpanded(
        cubic_presentation, exports, case):
    """A format-1 row entry with an exponent loads within a second: the
    loader never converts it."""
    import time

    start = time.perf_counter()
    test_presentation_import_ignores_format_1_rows(cubic_presentation, exports, case)
    assert time.perf_counter() - start < 1.0


def _truncated_with_extended_basis(payload):
    """Without weight-1 row 3 its pivot y1*x1^3 is outside the image; listed
    as a third basis element it would make the Fermat cubic's quotient
    3-dimensional instead of 2."""
    _row_edit(lambda rows: rows.pop(3))(payload)
    payload["basis"].append({"q": [1, 0, 3, 0], "eta": []})
    payload["weightCounts"] = [1, 2]


# (format versions the edit applies to, edit, message or UNREAD)
TAMPERED_FIELDS = {
    # the cubic basis is 1 (weight 0) then y1*x0*x1*x2 (weight 1)
    "reversed basis": (BOTH, lambda payload: payload["basis"].reverse(),
                       "basis is not the complement"),
    "reversed basis, no solvers": (
        BOTH, lambda payload: (payload["basis"].reverse(), payload.update({"solvers": []})),
        "basis is not the complement"),
    "weight counts": (BOTH, lambda payload: payload.update({"weightCounts": [2, 0]}),
                      "weightCounts"),
    "bool weight counts": (BOTH, lambda payload: payload.update({"weightCounts": [True, True]}),
                           "weightCounts \\[True, True\\] are not ints"),
    "float weight counts": (BOTH, lambda payload: payload.update({"weightCounts": [1.0, 1.0]}),
                            "weightCounts \\[1.0, 1.0\\] are not ints"),
    "float cG": (BOTH, lambda payload: payload.update({"cG": 0.0}), "background charge 0.0"),
    "bool cG": (BOTH, lambda payload: payload.update({"cG": False}), "background charge False"),
    "float row pivot": (
        V1, lambda payload: payload["solvers"][1]["rows"][3].update({"pivot": 6.0}), UNREAD),
    "slack": (BOTH, lambda payload: payload.update({"slack": "two"}), UNREAD),
    "truncated echelon, extended basis": (V1, _truncated_with_extended_basis,
                                          "basis is not the complement"),
    "weight beyond the guard": (
        V1, lambda payload: payload["solvers"].append({"weight": 3, "rows": []}), UNREAD),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_FIELDS))
def test_presentation_import_rejects_tampered_fields(cubic_presentation, exports, case):
    versions, edit, message = TAMPERED_FIELDS[case]
    for version in versions:
        payload = json.loads(exports[version])
        edit(payload)
        check_import(json.dumps(payload), message, cubic_presentation)


def _edited(edit):
    """A text edit that applies `edit` to the parsed payload."""
    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return apply


# (format versions the edit applies to, text edit, message or UNREAD)
STRUCTURAL_FAULTS = {
    "no context": (BOTH, _edited(lambda p: p.pop("context")), "KeyError\\('context'\\)"),
    "not an object": (BOTH, lambda text: "[1]", "expected a JSON object, found list"),
    "basis entry without eta": (BOTH, _edited(lambda p: p["basis"][0].pop("eta")),
                                "KeyError\\('eta'\\)"),
    "not JSON": (BOTH, lambda text: text[:40], "not JSON"),
    "nested too deeply": (BOTH, lambda text: "[" * 100_000 + "]" * 100_000, "not JSON"),
    "float degree": (BOTH, _edited(lambda p: p["context"].update(degrees=[3.7])),
                     "degrees must be integers, got .*degrees=\\[3.7\\]"),
    "bool n": (BOTH, _edited(lambda p: p["context"].update(n=True)),
               "must be integers, got n=True"),
    "rows not a list": (V1, _edited(lambda p: p["solvers"][0].update(rows=5)), UNREAD),
    "rows null": (V1, _edited(lambda p: p["solvers"][0].update(rows=None)), UNREAD),
    "G a string": (BOTH, _edited(lambda p: p.update(G=p["G"][0])),
                   "G must be a list, got 'x0\\^3"),
    "bool version": (BOTH, _edited(lambda p: p.update(version=True)),
                     "unsupported presentation version True"),
    "float version": (BOTH, _edited(lambda p: p.update(version=float(p["version"]))),
                      "unsupported presentation version [12]\\.0"),
    "float basis exponent": (BOTH, _edited(lambda p: p["basis"][0].update(q=[0.5, 0, 0, 0])),
                             "must be ints, got \\(0.5, 0, 0, 0\\)"),
    "string basis exponent": (BOTH, _edited(lambda p: p["basis"][0].update(q=["0", 0, 0, 0])),
                              "must be ints, got \\('0', 0, 0, 0\\)"),
    "float basis eta index": (BOTH, _edited(lambda p: p["basis"][0].update(eta=[1.0])),
                              "must be ints, got .*\\(1.0,\\)"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL_FAULTS))
def test_presentation_import_rejects_structural_faults(cubic_presentation, exports, case):
    versions, edit, message = STRUCTURAL_FAULTS[case]
    for version in versions:
        check_import(edit(exports[version]), message, cubic_presentation)


def test_presentation_import_builds_the_echelons_a_file_lacks(cubic_presentation, exports):
    """A file without echelon rows, format 2 or format 1 with none stored,
    loads with the weight echelons 0..n-k built, and neither the load nor
    the export builds weight n-k+1's."""
    v1 = json.loads(exports[1])
    v1["solvers"] = []
    for text in (json.dumps(v1), exports[2]):
        loaded = QuotientPresentation.from_json(text)
        assert loaded.basis == cubic_presentation.basis
        assert sorted(loaded._solvers) == [0, 1]
        assert loaded.to_json() == exports[2]
        assert sorted(loaded._solvers) == [0, 1]


def test_presentation_import_loads_a_file_without_the_guard_weight(cubic_presentation, exports):
    """A format-1 file written at slack 0 stores no weight n - k + 1
    echelon; loading runs the guard, and builds no exact echelon there."""
    payload = json.loads(exports[1])
    payload["slack"] = 0
    payload["solvers"] = [s for s in payload["solvers"] if s["weight"] != 2]
    assert [s["weight"] for s in payload["solvers"]] == [0, 1]
    loaded = QuotientPresentation.from_json(json.dumps(payload))
    assert sorted(loaded._solvers) == [0, 1]
    assert loaded.to_json() == exports[2]
    assert sorted(loaded._solvers) == [0, 1]


def test_presentation_import_rejects_a_singular_g(exports):
    for version in BOTH:
        payload = json.loads(exports[version])
        payload["G"] = ["x0^2*x1"]
        with pytest.raises(SmoothnessError, match="fails to close at weight 2"):
            QuotientPresentation.from_json(json.dumps(payload))


def test_conic_has_no_primitive_cohomology():
    ctx = VariableContext(2, 1, (2,))
    P = build_presentation(dwork_potential(ctx, [parse("x0^2 + x1^2 + x2^2", ctx)]))
    assert P.dimension == 0
    assert P.hodge_numbers() == [0, 0]
    # everything of the background charge is exact: pure certificate
    g = parse("y1*x0", ctx)  # charge -2 + 1 = -1 = c_G
    result = P.reduce(g)
    assert result.coefficients == {}
    from dworkbox import apply_k

    assert apply_k(P.dwork, result.certificate) == g


def test_mixed_degrees_genus_four_curve():
    # intersection of a quadric and a cubic in P^3: canonical genus-4 curve
    ctx = VariableContext(3, 2, (2, 3))
    G = [parse("x0^2 + x1^2 + x2^2 + x3^2", ctx),
         parse("x0^3 + x1^3 + x2^3 + x3^3", ctx)]
    # the closure check runs on weight n - k + 1 = 2 only, by its rank mod
    # p, so the build holds no exact echelon there
    P = build_presentation(dwork_potential(ctx, G))
    assert sorted(P._solvers) == [0, 1]
    assert P._solver(2).complement_monomials() == ()
    assert sorted(P._solvers) == [0, 1, 2]
    assert P.c_G == 1
    assert P.dimension == 8
    assert P.hodge_numbers() == [4, 4]
