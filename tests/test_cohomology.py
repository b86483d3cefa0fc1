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
def test_piece_view_unranks_enumerate_piece(n, k, degrees, order):
    """PieceView counts and unranks exactly the monomials enumerate_piece
    lists, in the same order, so draws through it stay fixed."""
    ctx = VariableContext(n, k, degrees, order)
    nonempty = 0
    for charge in range(-3, 4):
        for weight in range(4):
            for eta_degree in range(0, -3, -1):
                monos = list(enumerate_piece(ctx, charge, weight, eta_degree).monomials)
                view = PieceView(ctx, charge, weight, eta_degree)
                assert len(view) == len(monos)
                assert [view[j] for j in range(len(view))] == monos
                assert list(view) == monos
                if monos:
                    assert view[-1] == monos[-1]
                    assert view[-len(monos)] == monos[0]
                    nonempty += 1
                with pytest.raises(IndexError):
                    view[len(view)]
                with pytest.raises(IndexError):
                    view[-len(view) - 1]
    assert nonempty > 10


@pytest.mark.parametrize("n,k,degrees,order,pieces", [
    (2, 1, (3,), "graded-lex", [(0, 1, 0), (0, 2, -1), (0, 2, -2)]),
    (3, 2, (2, 2), "graded-lex", [(0, 1, 0), (0, 2, -1), (-1, 2, -2)]),
    (3, 1, (4,), "grevlex", [(0, 1, 0), (0, 2, -1), (0, 2, -2), (2, 1, -1)]),
])
def test_piece_view_iterates_without_enumerate_piece(monkeypatch, n, k, degrees,
                                                     order, pieces):
    """Iterating a view walks its own block table, in the order `view[j]`
    unranks; it lists nothing through enumerate_piece."""
    import dworkbox.cohomology as cohomology

    def refuse(*args):
        raise AssertionError("PieceView iteration called enumerate_piece")

    monkeypatch.setattr(cohomology, "enumerate_piece", refuse)
    ctx = VariableContext(n, k, degrees, order)
    for charge, weight, eta_degree in pieces:
        view = PieceView(ctx, charge, weight, eta_degree)
        assert len(view) > 1
        assert list(view) == [view[j] for j in range(len(view))]


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


def test_presentation_import_rejects_bad_version(cubic_presentation):
    import json as _json

    payload = _json.loads(cubic_presentation.to_json())
    payload["version"] = 99
    with pytest.raises(InputError):
        QuotientPresentation.from_json(_json.dumps(payload))


def _row_edit(edit):
    """Apply `edit` to weight-1 row 3 of the cubic presentation: pivot 6,
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


TAMPERED_ROWS = {
    "row entry": (_row_edit(lambda rows: rows[3]["row"].update({"9": "2"})),
                  "rows differ from the rebuilt echelon"),
    "combo entry": (_row_edit(lambda rows: rows[3]["combo"].update({"3": "-1/2"})),
                    "rows differ from the rebuilt echelon"),
    "pivot": (_row_edit(lambda rows: rows[3].update({"pivot": 9})),
              "rows differ from the rebuilt echelon"),
    "repeated pivot": (_row_edit(lambda rows: rows.__setitem__(3, dict(rows[0]))),
                       "rows differ from the rebuilt echelon"),
    "position range": (_row_edit(lambda rows: rows[3]["row"].update({"1000": "1"})),
                       "rows differ from the rebuilt echelon"),
    "generator range": (_row_edit(lambda rows: rows[3]["combo"].update({"1000": "1"})),
                        "rows differ from the rebuilt echelon"),
    "malformed entry": (_row_edit(lambda rows: rows[3]["row"].update({"9": "one"})),
                        "malformed row"),
    "truncated echelon": (_row_edit(lambda rows: rows.pop(3)),
                          "rows differ from the rebuilt echelon"),
    # row 3 plus row 0 {0: 1, 6: 1, 9: 1} with both combos: in the row space
    # and consistent, but its leading position 0 is not its stored pivot 6
    "pivot not the leading position": (
        _row_edit(lambda rows: rows[3].update({"row": {"0": "1", "6": "2", "9": "2"},
                                               "combo": {"0": "2", "3": "-1/3"}})),
        "rows differ from the rebuilt echelon"),
    # each of these still reads as {6: 1, 9: 1} when parsed leniently
    "signed and padded positions": (_row_as({"+6": "1", " 9 ": "1"}), "malformed row"),
    "underscored position": (_row_as({"0_6": "1", "9": "1"}), "malformed row"),
    "bool and int entries": (_row_as({"6": True, "9": 1}), "malformed row"),
    "unreduced fraction entry": (_row_as({"6": "1", "9": "2/2"}), "malformed row"),
    "decimal entries": (_row_as({"6": "1.0", "9": "1e0"}), "malformed row"),
    # Fraction would expand these to 20-million-digit numbers before comparing
    "exponent entry": (_row_as({"6": "1", "9": "1e20000000"}), "malformed row"),
    "exponent combo entry": (
        _row_edit(lambda rows: rows[3]["combo"].update({"3": "-1e-20000000"})),
        "malformed row"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_ROWS))
def test_presentation_import_rejects_tampered_rows(cubic_presentation, case):
    import json as _json

    edit, message = TAMPERED_ROWS[case]
    payload = _json.loads(cubic_presentation.to_json())
    edit(payload)
    with pytest.raises(InputError, match=message):
        QuotientPresentation.from_json(_json.dumps(payload))


@pytest.mark.parametrize("case", ["exponent entry", "exponent combo entry"])
def test_presentation_import_refuses_an_exponent_without_expanding_it(
        cubic_presentation, case):
    import time

    start = time.perf_counter()
    test_presentation_import_rejects_tampered_rows(cubic_presentation, case)
    assert time.perf_counter() - start < 1.0


def _truncated_with_extended_basis(payload):
    """Without weight-1 row 3 its pivot y1*x1^3 is outside the image; listed
    as a third basis element it would make the Fermat cubic's quotient
    3-dimensional instead of 2."""
    _row_edit(lambda rows: rows.pop(3))(payload)
    payload["basis"].append({"q": [1, 0, 3, 0], "eta": []})
    payload["weightCounts"] = [1, 2]


TAMPERED_FIELDS = {
    # the cubic basis is 1 (weight 0) then y1*x0*x1*x2 (weight 1)
    "reversed basis": (lambda payload: payload["basis"].reverse(),
                       "basis is not the complement"),
    "reversed basis, no solvers": (
        lambda payload: (payload["basis"].reverse(), payload.update({"solvers": []})),
        "basis is not the complement"),
    "weight counts": (lambda payload: payload.update({"weightCounts": [2, 0]}),
                      "weightCounts"),
    "bool weight counts": (lambda payload: payload.update({"weightCounts": [True, True]}),
                           "weightCounts \\[True, True\\] are not ints"),
    "float weight counts": (lambda payload: payload.update({"weightCounts": [1.0, 1.0]}),
                            "weightCounts \\[1.0, 1.0\\] are not ints"),
    "float cG": (lambda payload: payload.update({"cG": 0.0}), "background charge 0.0"),
    "bool cG": (lambda payload: payload.update({"cG": False}), "background charge False"),
    "float row pivot": (lambda payload: payload["solvers"][1]["rows"][3].update({"pivot": 6.0}),
                        "weight 1: pivot 6.0 is not an int"),
    "slack": (lambda payload: payload.update({"slack": "two"}), "slack"),
    "truncated echelon, extended basis": (_truncated_with_extended_basis,
                                          "basis is not the complement"),
    "weight beyond the guard": (
        lambda payload: payload["solvers"].append({"weight": 3, "rows": []}),
        "weight 3 has no echelon"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_FIELDS))
def test_presentation_import_rejects_tampered_fields(cubic_presentation, case):
    import json as _json

    edit, message = TAMPERED_FIELDS[case]
    payload = _json.loads(cubic_presentation.to_json())
    edit(payload)
    with pytest.raises(InputError, match=message):
        QuotientPresentation.from_json(_json.dumps(payload))


def _edited(edit):
    """A text edit that applies `edit` to the parsed payload."""
    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return apply


STRUCTURAL_FAULTS = {
    "no context": (lambda text: '{"version": 1}', "KeyError\\('context'\\)"),
    "not an object": (lambda text: "[1]", "expected a JSON object, found list"),
    "basis entry without eta": (_edited(lambda p: p["basis"][0].pop("eta")),
                                "KeyError\\('eta'\\)"),
    "not JSON": (lambda text: text[:40], "not JSON"),
    "nested too deeply": (lambda text: "[" * 100_000 + "]" * 100_000, "not JSON"),
    "float degree": (_edited(lambda p: p["context"].update(degrees=[3.7])),
                     "degrees must be integers, got .*degrees=\\[3.7\\]"),
    "bool n": (_edited(lambda p: p["context"].update(n=True)),
               "must be integers, got n=True"),
    "rows not a list": (_edited(lambda p: p["solvers"][0].update(rows=5)),
                        "malformed field \\(TypeError"),
    "rows null": (_edited(lambda p: p["solvers"][0].update(rows=None)),
                  "malformed field \\(TypeError"),
    "G a string": (_edited(lambda p: p.update(G=p["G"][0])),
                   "G must be a list, got 'x0\\^3"),
    "bool version": (_edited(lambda p: p.update(version=True)),
                     "unsupported presentation version True"),
    "float version": (_edited(lambda p: p.update(version=1.0)),
                      "unsupported presentation version 1.0"),
    "float basis exponent": (_edited(lambda p: p["basis"][0].update(q=[0.5, 0, 0, 0])),
                             "must be ints, got \\(0.5, 0, 0, 0\\)"),
    "string basis exponent": (_edited(lambda p: p["basis"][0].update(q=["0", 0, 0, 0])),
                              "must be ints, got \\('0', 0, 0, 0\\)"),
    "float basis eta index": (_edited(lambda p: p["basis"][0].update(eta=[1.0])),
                              "must be ints, got .*\\(1.0,\\)"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL_FAULTS))
def test_presentation_import_rejects_structural_faults(cubic_presentation, case):
    edit, message = STRUCTURAL_FAULTS[case]
    with pytest.raises(InputError, match=message):
        QuotientPresentation.from_json(edit(cubic_presentation.to_json()))


def test_presentation_import_builds_the_echelons_a_file_lacks(cubic_presentation):
    import json as _json

    payload = _json.loads(cubic_presentation.to_json())
    payload["solvers"] = []
    loaded = QuotientPresentation.from_json(_json.dumps(payload))
    assert loaded.basis == cubic_presentation.basis
    # weights 0..n-k are built with the presentation, weight n-k+1 on the
    # export's first need
    assert sorted(loaded._solvers) == [0, 1]
    assert loaded.to_json() == cubic_presentation.to_json()
    assert sorted(loaded._solvers) == [0, 1, 2]


def test_presentation_import_loads_a_file_without_the_guard_weight(cubic_presentation):
    """A file written at slack 0 stores no weight n - k + 1 echelon; loading
    runs the guard, and the export builds that echelon on first need."""
    import json as _json

    payload = _json.loads(cubic_presentation.to_json())
    payload["slack"] = 0
    payload["solvers"] = [s for s in payload["solvers"] if s["weight"] != 2]
    assert [s["weight"] for s in payload["solvers"]] == [0, 1]
    loaded = QuotientPresentation.from_json(_json.dumps(payload))
    assert sorted(loaded._solvers) == [0, 1]
    assert loaded.to_json() == cubic_presentation.to_json()
    assert sorted(loaded._solvers) == [0, 1, 2]


def test_presentation_import_rejects_a_singular_g(cubic_presentation):
    import json as _json

    payload = _json.loads(cubic_presentation.to_json())
    payload["G"] = ["x0^2*x1"]
    with pytest.raises(SmoothnessError, match="fails to close at weight 2"):
        QuotientPresentation.from_json(_json.dumps(payload))


def test_presentation_import_normalizes_a_scaled_row(cubic_presentation):
    import json as _json

    text = cubic_presentation.to_json()
    payload = _json.loads(text)
    _row_edit(lambda rows: rows[3].update(
        {"row": {"6": "-2", "9": "-2"}, "combo": {"0": "-2", "3": "2/3"}}))(payload)
    assert QuotientPresentation.from_json(_json.dumps(payload)).to_json() == text


def test_presentation_import_reads_rows_by_row_space(cubic_presentation):
    """Stored rows may come in another order, and a row may carry a multiple
    of a later row (with its combo), as long as they are an echelon of the
    same Q image."""
    import json as _json

    text = cubic_presentation.to_json()
    payload = _json.loads(text)
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
    assert QuotientPresentation.from_json(_json.dumps(payload)).to_json() == text


def test_stored_rows_are_checked_with_one_q_image_each(cubic_presentation, monkeypatch):
    """`spans_like` maps each stored row's combination through Q once and
    never asks for a generator's image on its own."""
    from dworkbox import cohomology

    images = []
    real = cohomology.apply_q
    monkeypatch.setattr(cohomology, "apply_q", lambda D, a: images.append(a) or real(D, a))

    def forbidden(self, D, g_idx):
        raise AssertionError("q_vector called")

    solvers = [cubic_presentation._solver(w) for w in range(3)]
    monkeypatch.setattr(cohomology._WeightSolver, "q_vector", forbidden)
    for solver in solvers:
        rows = list(solver.rational_rows())
        images.clear()
        assert solver.spans_like(cubic_presentation.dwork, rows)
        assert len(images) == len(rows)


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
