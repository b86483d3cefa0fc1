"""Reduction above weight n - k + 1 by the lift, against the weight-echelon
route kept in `tests.oracles.EchelonReduction`."""

import functools
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
import sympy

from dworkbox import (
    SuperElement,
    VariableContext,
    apply_k,
    apply_q,
    build_presentation,
    dwork_potential,
    grade,
    parse,
)
from dworkbox import cohomology, superalgebra
from dworkbox.cli import EXIT_OK, main
from dworkbox.cohomology import (
    _GUARD_PRIME,
    PieceView,
    QuotientPresentation,
    _build_weight_solver,
    _closes,
    _WeightSolver,
    charge_witness,
    enumerate_piece,
)
from dworkbox.deformation import build_deformation, d_ladder, u_basis
from dworkbox.errors import InputError, InternalCheckError, SmoothnessError
from dworkbox.superalgebra import even_gradings, monomial_charge, monomial_weight
from dworkbox.verify import random_charge_element
from tests.oracles import (
    EchelonReduction,
    FractionEchelon,
    as_fractions,
    hirzebruch_hodge_numbers,
    koszul_redundant,
)

# (n, k, degrees, G, H): H gives Gamma = sum y_i H_i for the known chains
GEOMETRIES = {
    "cubic_curve": (2, 1, (3,), ["x0^3 + x1^3 + x2^3"], ["x0*x1*x2"]),
    "sextic_curve": (2, 1, (6,), ["x0^6 + x1^6 + x2^6"], ["x0^2*x1^2*x2^2"]),
    "two_quadrics": (3, 2, (2, 2),
                     ["x0^2 + x1^2 + x2^2 + x3^2", "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"],
                     ["x0*x1", "0"]),
    "quartic_k3": (3, 1, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"], ["x0*x1*x2*x3"]),
    "cubic_threefold": (4, 1, (3,), ["x0^3 + x1^3 + x2^3 + x3^3 + x4^3"],
                        ["x0*x1*x2"]),
}


def _geometry(name):
    n, k, degrees, G, H = GEOMETRIES[name]
    ctx = VariableContext(n, k, degrees)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    gamma = SuperElement.zero(ctx)
    for i, h in enumerate(H, start=1):
        gamma = gamma + SuperElement.variable(ctx, i) * parse(h, ctx)
    return D, gamma


def top_weight(f):
    """The largest weight of a nonzero f, from its `grade` components."""
    return max(w for _, w, _, _ in grade(f))


def known_chains(presentation, gamma, max_weight):
    """e_rho * Gamma^m for every basis element, up to weight max_weight."""
    chains = []
    for e in presentation.basis_elements():
        value = e
        while True:
            value = value * gamma
            if value.is_zero() or top_weight(value) > max_weight:
                break
            chains.append(value)
    return chains


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_lift_matches_echelon_route(name):
    D, gamma = _geometry(name)
    pres = build_presentation(D)
    top = D.ctx.n - D.ctx.k
    oracle = EchelonReduction(pres)
    rng = random.Random(f"lift:{name}")
    inputs = [random_charge_element(D, rng, pres.c_G, 0, max_weight=top + 4)
              for _ in range(4)]
    inputs += known_chains(pres, gamma, top + 4)
    assert max(top_weight(f) for f in inputs) == top + 4
    for f in inputs:
        result = pres.reduce(f)
        assert result.coefficients == oracle.reduce(f).coefficients
        assert apply_k(D, result.certificate) + result.as_element(pres) == f
    # the guard's cover is whole on every geometry here but two quadrics,
    # whose one leftover keeps the weight n-k+1 echelon
    assert sorted(pres._solvers) == list(range(top + 1 + (name == "two_quadrics")))
    assert max(oracle.solvers) == top + 4


@pytest.mark.parametrize("name", ["cubic_curve", "quartic_k3"])
def test_build_and_reduce_skip_the_fraction_view(name, monkeypatch):
    """The weight-solver build, the reduce slices and the lift run on int
    numerators: none of them reads `SuperElement.terms`."""
    D, _ = _geometry(name)
    top = D.ctx.n - D.ctx.k
    f = random_charge_element(D, random.Random(f"ints:{name}"), D.ctx.background_charge(),
                              0, max_weight=top + 2)
    assert top_weight(f) == top + 2

    def forbidden(self):
        raise AssertionError("SuperElement.terms read")

    monkeypatch.setattr(SuperElement, "terms", property(forbidden))
    pres = build_presentation(D)
    result = pres.reduce(f)
    monkeypatch.undo()
    assert apply_k(D, result.certificate) + result.as_element(pres) == f


@pytest.mark.parametrize("name", ["cubic_curve", "quartic_k3"])
def test_reduce_grades_its_input_once(name, monkeypatch):
    """`reduce` reads each input key once, in order, through
    `even_gradings`, and carries each delta(xi) into the slice below; it
    never calls `grade`, `homogeneous_charge` or `homogeneous_degree`, so
    it builds no graded component and never regrades a remainder."""
    D, _ = _geometry(name)
    top = D.ctx.n - D.ctx.k
    pres = build_presentation(D)
    f = random_charge_element(D, random.Random(f"grade:{name}"), pres.c_G, 0,
                              max_weight=top + 3)
    assert top_weight(f) == top + 3
    read = []
    real = cohomology.even_gradings
    monkeypatch.setattr(cohomology, "even_gradings",
                        lambda ctx, key: read.append(key) or real(ctx, key))

    def forbidden(*args):
        raise AssertionError("reduce regraded an element")

    monkeypatch.setattr(superalgebra, "grade", forbidden)
    monkeypatch.setattr(cohomology, "grade", forbidden, raising=False)
    for attr in ("homogeneous_charge", "homogeneous_degree"):
        monkeypatch.setattr(SuperElement, attr, forbidden)
    result = pres.reduce(f)
    monkeypatch.undo()
    assert read == list(f._num)
    assert apply_k(D, result.certificate) + result.as_element(pres) == f


# the five `build` geometries, the grevlex sextic and the non-diagonal
# genus-4 curve (2,3) of CASCADE_CASES
SLICE_CASES = [*GEOMETRIES, "sextic_curve_grevlex", "genus_four_non_diagonal"]


def _graded_slices(f):
    """{weight: [(key, value)]} and the charges of f, from `grade`."""
    components = grade(f)
    slices = {w: [(m, Fraction(v, part._den)) for m, v in part._num.items()]
              for _, w, _, part in components}
    return slices, {ch for ch, _, _, _ in components}


def _reduce_error(pres, f):
    with pytest.raises(InputError) as info:
        pres._weight_slices(f)
    return str(info.value)


@pytest.mark.parametrize("name", SLICE_CASES)
def test_weight_slices_match_grade(name):
    """`_weight_slices` cuts seeded inputs into the weight slices and the
    charge that `grade` gives, in f's key order, over f's denominator; it
    raises what `reduce` raised from `grade` on an eta term, mixed charges
    and a foreign context, gives ({}, 0) on zero, and leaves off-charge
    input to the charge witness.  `even_gradings` is pinned to
    `monomial_charge` and `monomial_weight` on every key drawn."""
    pres = (build_presentation(_geometry(name)[0]) if name in GEOMETRIES
            else _cascade_presentation(name))
    D = pres.dwork
    ctx = D.ctx
    top = ctx.n - ctx.k
    c_G = pres.c_G
    rng = random.Random(f"slices:{name}")
    draws = {}
    for charge in range(c_G - 2, c_G + 3):
        for eta_degree in (0, -1, -2):
            draws[charge, eta_degree] = [
                random_charge_element(D, rng, charge, eta_degree, max_weight=top + 2)
                for _ in range(3)]
    mask = ctx.eta_mask
    for f in (f for group in draws.values() for f in group):
        for key in f._num:
            even = key & ~mask
            gradings = (monomial_charge(ctx, even), monomial_weight(ctx, even))
            assert even_gradings(ctx, key) == even_gradings(ctx, even) == gradings
    pure = [f for (_, eta_degree), group in draws.items() if eta_degree == 0
            for f in group if f]
    assert {f.homogeneous_charge() for f in pure} == set(range(c_G - 2, c_G + 3))
    for f in pure:
        slices, charge = pres._weight_slices(f)
        expected, charges = _graded_slices(f)
        assert {charge} == charges
        assert {w: [(m, Fraction(v, den)) for m, v in num.items()]
                for w, (num, den) in slices.items()} == expected
        assert {den for _, den in slices.values()} == {f._den}
        if charge != c_G:
            result = pres.reduce(f)
            witness = charge_witness(D, f).scale(Fraction(1, charge - c_G))
            assert result.coefficients == {}
            assert result.certificate == witness
            assert list(result.certificate._num.items()) == list(witness._num.items())
    assert pres._weight_slices(SuperElement.zero(ctx)) == ({}, 0)

    background, above, below = (next(f for f in draws[charge, 0] if f)
                                for charge in (c_G, c_G + 1, c_G - 1))
    odd = next(f for f in draws[c_G, -1] if f)
    mixed = above + background + below
    assert _reduce_error(pres, mixed) == (
        "reduce expects charge-pure input, found charges "
        f"{sorted(_graded_slices(mixed)[1])}")
    eta_message = "reduce expects eta-free (degree 0) input"
    for f in (background + odd, odd, mixed + odd):
        assert _reduce_error(pres, f) == eta_message
    foreign = VariableContext(ctx.n + 1, ctx.k, ctx.degrees, ctx.order)
    assert _reduce_error(pres, SuperElement.one(foreign)) == "element over a different context"
    for f in (mixed, background + odd, SuperElement.one(foreign)):
        with pytest.raises(InputError) as info:
            pres.reduce(f)
        assert str(info.value) == _reduce_error(pres, f)


# (n, k, degrees, G, order, oracle weights above n - k): the cascade's
# differential cases; the genus-4 curve has non-diagonal equations, and the
# sextic runs in grevlex.  The genus-4 curve's exact echelons of weights 3
# and 4 take about 3 s and 15 s on 2 cores, so there the echelon route sees
# inputs up to weight n - k + 1 only; above it the certificate settles the
# coefficients, since the basis is a basis of the quotient.
CASCADE_CASES = {
    **{name: (*GEOMETRIES[name][:4], "graded-lex", 3)
       for name in ("cubic_curve", "quartic_k3", "two_quadrics")},
    "genus_four_non_diagonal": (3, 2, (2, 3), ["x0^2 + x1^2 + x2^2 + x3^2 + x0*x1",
                                               "x0^3 + x1^3 + x2^3 + x3^3 + x1*x2*x3"],
                                "graded-lex", 1),
    "sextic_curve_grevlex": (*GEOMETRIES["sextic_curve"][:4], "grevlex", 3),
}


@functools.cache
def _cascade_presentation(name):
    n, k, degrees, G, order, _ = CASCADE_CASES[name]
    ctx = VariableContext(n, k, degrees, order)
    return build_presentation(dwork_potential(ctx, [parse(g, ctx) for g in G]))


def _cascade_inputs(name, purpose, above):
    """Three seeded charge-c_G inputs up to weight n - k + above, reaching it."""
    pres = _cascade_presentation(name)
    top = pres.dwork.ctx.n - pres.dwork.ctx.k
    rng = random.Random(f"{purpose}:{name}")
    inputs = [random_charge_element(pres.dwork, rng, pres.c_G, 0, max_weight=top + above)
              for _ in range(3)]
    assert max(top_weight(f) for f in inputs) == top + above
    return inputs


@pytest.mark.parametrize("name", list(CASCADE_CASES))
def test_cascade_matches_the_echelon_route(name):
    """The numerator cascade gives the coefficients of the weight-echelon
    route, and a sound certificate, on inputs up to weight n - k + 3."""
    pres = _cascade_presentation(name)
    oracle = EchelonReduction(pres)
    above = CASCADE_CASES[name][-1]
    for f in _cascade_inputs(name, "cascade", above):
        result = pres.reduce(f)
        assert result.coefficients == oracle.reduce(f).coefficients
        assert apply_k(pres.dwork, result.certificate) + result.as_element(pres) == f
    for f in _cascade_inputs(name, "cascade:sound", 3) if above < 3 else ():
        result = pres.reduce(f)
        assert apply_k(pres.dwork, result.certificate) + result.as_element(pres) == f


@pytest.mark.parametrize("name", ["cubic_curve", "two_quadrics", "genus_four_non_diagonal"])
def test_cascade_forms_delta_once_per_slice_above_weight_zero(name, monkeypatch):
    """`reduce` calls the delta kernel `cohomology._delta_numerators` once
    on the numerators of the xi of each nonzero slice of weight >= 1, right
    after that slice, and never on the xi of weight 0, whose delta nothing
    would read."""
    pres = _cascade_presentation(name)
    ctx = pres.dwork.ctx
    inputs = _cascade_inputs(name, "delta", 3)
    events = []
    eliminate, lift = QuotientPresentation._eliminate_slice, QuotientPresentation._lift
    real_delta = cohomology._delta_numerators

    def slice_spy(w, real):
        def spy(*args):
            xi = real(*args)
            events.append(("slice", w(args), xi))
            return xi
        return spy

    monkeypatch.setattr(QuotientPresentation, "_eliminate_slice",
                        slice_spy(lambda args: args[1], eliminate))
    monkeypatch.setattr(QuotientPresentation, "_lift", slice_spy(
        lambda args: monomial_weight(ctx, next(iter(args[1]))), lift))
    monkeypatch.setattr(cohomology, "_delta_numerators",
                        lambda ctx, xi: events.append(("delta", xi)) or real_delta(ctx, xi))
    at_zero = 0
    for f in inputs:
        events.clear()
        result = pres.reduce(f)
        slices = [event for event in events if event[0] == "slice"]
        weights = [w for _, w, _ in slices]
        assert weights == sorted(set(weights), reverse=True)
        expected = []
        for event in slices:
            expected.append(event)
            if event[1]:
                expected.append(("delta", event[2][0]))  # xi's numerators
        assert events == expected
        at_zero += weights[-1] == 0
        assert apply_k(pres.dwork, result.certificate) + result.as_element(pres) == f
    assert at_zero


def test_reduce_makes_one_element_per_call(monkeypatch):
    """`reduce` calls `SuperElement._make` exactly once, for the
    certificate: no xi and no delta(xi) becomes an element.  Checked on the
    seeded inputs of the benchmark's reduce stream (seed 1: 200 per
    geometry, cubic then K3, up to weight n - k + 2, so the lift runs) and
    on single monomials made as `t_series` makes them, one of each weight
    up to n - k + 2."""
    rng = random.Random("dworkbox-bench:1:stream")
    cases = []
    for name in ("cubic_curve", "quartic_k3"):
        D, _ = _geometry(name)
        pres = build_presentation(D)
        top = D.ctx.n - D.ctx.k
        stream = [random_charge_element(D, rng, pres.c_G, 0, max_weight=top + 2)
                  for _ in range(200)]
        assert max(top_weight(f) for f in stream) == top + 2
        cases += [(pres, f) for f in stream]
        cases += [(pres, SuperElement._make(D.ctx, {piece.monomials[0]: 1}, 1))
                  for piece in (enumerate_piece(D.ctx, pres.c_G, w, 0)
                                for w in range(top + 3))]
    made = []
    real = SuperElement._make
    monkeypatch.setattr(SuperElement, "_make",
                        classmethod(lambda cls, *args: made.append(args) or real(*args)))
    results = []
    for pres, f in cases:
        made.clear()
        results.append(pres.reduce(f))
        assert len(made) == 1
    monkeypatch.undo()
    for (pres, f), result in zip(cases, results):
        assert apply_k(pres.dwork, result.certificate) + result.as_element(pres) == f


@pytest.mark.parametrize("name", list(CASCADE_CASES))
def test_as_element_equals_the_public_constructor_form(name):
    """`ReductionResult.as_element` on packed keys gives the element, the
    key order and the denominator of the public constructor on the basis
    monomials."""
    pres = _cascade_presentation(name)
    ctx = pres.dwork.ctx
    inputs = _cascade_inputs(name, "as-element", 3)
    # coefficients 1/2, 1/3, ...: more than one denominator
    inputs.append(sum((e.scale(Fraction(1, rho + 2))
                       for rho, e in enumerate(pres.basis_elements())), SuperElement.zero(ctx)))
    inputs.append(SuperElement.zero(ctx))
    several = False
    for f in inputs:
        result = pres.reduce(f)
        normal = result.as_element(pres)
        public = SuperElement(ctx, {pres.basis[rho]: c for rho, c in result.coefficients.items()})
        assert normal == public
        assert list(normal._num) == list(public._num)
        several |= len({c.denominator for c in result.coefficients.values()}) > 1
    assert several


def test_k3_ladder_builds_no_solver_above_weight_three(quartic_dwork):
    ctx = quartic_dwork.ctx
    pres = build_presentation(quartic_dwork)
    deform = build_deformation(quartic_dwork, [parse("x0*x1*x2*x3", ctx)])
    basis_u = u_basis(deform, pres, build_presentation(deform.deformed))
    ladder = d_ladder(deform, pres, basis_u, 6)
    # the base's weight 3 preimages come from the guard's cover
    assert sorted(pres._solvers) == [0, 1, 2]
    short = d_ladder(deform, pres, basis_u, 3)
    assert all(ladder[m] == short[m] for m in (1, 2, 3))


# (n, k, degrees, G); the guard must reject exactly the singular ones
GUARD_INPUTS = {
    "cubic_curve": (2, 1, (3,), ["x0^3 + x1^3 + x2^3"]),
    "sextic_curve": (2, 1, (6,), ["x0^6 + x1^6 + x2^6"]),
    "two_quadrics": (3, 2, (2, 2),
                     ["x0^2 + x1^2 + x2^2 + x3^2", "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"]),
    "quartic_k3": (3, 1, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"]),
    "genus_four_curve": (3, 2, (2, 3),
                         ["x0^2 + x1^2 + x2^2 + x3^2", "x0^3 + x1^3 + x2^3 + x3^3"]),
    "plane_quartic": (2, 1, (4,), ["x0^4 + x1^4 + x2^4"]),
    "singular:x0^2*x1": (2, 1, (3,), ["x0^2*x1"]),
    "singular:x0^3+x1^3": (2, 1, (3,), ["x0^3 + x1^3"]),
    "singular:x0^2+x1^2": (2, 1, (2,), ["x0^2 + x1^2"]),
    "singular:nodal_cubic": (2, 1, (3,), ["x0^3 + x1^3 + x0*x1*x2"]),
    "singular:quartic_cone": (3, 1, (4,), ["x0^4 + x1^4 + x2^4"]),
    "singular:cubic_surface": (3, 1, (3,), ["x0^3 + x1^3 + x2^3 + x0*x1*x2"]),
    "singular:x0^4+x1^3*x2": (2, 1, (4,), ["x0^4 + x1^3*x2"]),
    # both quadrics are cones with vertex (0:0:0:1)
    "singular:quadric_pencil": (3, 2, (2, 2),
                                ["x0^2 + x1^2 + x2^2", "x0^2 + 2*x1^2 + 3*x2^2"]),
}


@pytest.mark.parametrize("name", list(GUARD_INPUTS))
def test_guard_on_one_weight_agrees_with_two(name):
    """The default guard checks weight n - k + 1 only.  It must give the
    verdict and message of checking the echelons of weights n - k + 1 and
    n - k + 2 in turn, which is what the guard did before the lift proved
    the second one redundant."""
    n, k, degrees, G = GUARD_INPUTS[name]
    ctx = VariableContext(n, k, degrees)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    expected = None
    for w in (n - k + 1, n - k + 2):
        leftover = _build_weight_solver(D, ctx.background_charge(), w).complement_monomials()
        if leftover:
            expected = (f"quotient fails to close at weight {w}: "
                        f"{len(leftover)} unreduced monomials; "
                        "singular or non-complete-intersection input")
            break
    assert (expected is not None) == name.startswith("singular:")
    try:
        build_presentation(D)
    except SmoothnessError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


# the geometry set, the grevlex K3, the (2,3) K3 in P^4 in grevlex and the
# inputs of the guard test, singular ones included: (n, k, degrees, G, order)
KOSZUL_INPUTS = {
    **{name: (n, k, degrees, G, "graded-lex") for name, (n, k, degrees, G, _)
       in GEOMETRIES.items()},
    "grevlex_k3": (3, 1, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"], "grevlex"),
    "k3_2_3_grevlex": (4, 2, (2, 3), ["x0^2 + x1^2 + x2^2 + x3^2 + x4^2",
                                      "x0^3 + 2*x1^3 + 3*x2^3 + 4*x3^3 + 5*x4^3"],
                       "grevlex"),
    **{name: (*spec, "graded-lex") for name, spec in GUARD_INPUTS.items()
       if name not in GEOMETRIES},
}


@pytest.mark.parametrize("name", list(KOSZUL_INPUTS))
def test_koszul_pruned_echelon_spans_the_full_image(name):
    """At every weight 0..n-k+1 the build's echelon, which skips the
    Koszul-redundant generators, spans the Q image of every generator.

    The criterion is the oracle's own: each generator it calls redundant is
    absent from every combo, and its Q image eliminates to zero residual.
    The pivots equal those of the Fraction echelon of every generator, fed
    the kept ones first (the pivot set does not depend on the order; the
    natural order takes over a minute on the (2,3) K3 on 2 cores).  A
    singular input raises the SmoothnessError whose count the full echelon
    gives."""
    n, k, degrees, G, order = KOSZUL_INPUTS[name]
    ctx = VariableContext(n, k, degrees, order)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    is_redundant = koszul_redundant(D)
    skipped_somewhere = False
    for w in range(n - k + 2):
        pruned = _build_weight_solver(D, ctx.background_charge(), w)
        used = {gen for _, _, combo in pruned.rows for gen in combo}
        gens = tuple(PieceView(ctx, ctx.background_charge(), w, -1))
        redundant = {gen for gen in gens if is_redundant(ctx.unpack(gen))}
        assert not used & redundant
        skipped_somewhere = skipped_somewhere or bool(redundant)
        for gen in redundant:
            assert not pruned.eliminate(pruned.q_vector(D, gen)[0])[0]
        full = FractionEchelon()
        for gen in sorted(gens, key=lambda gen: gen in redundant):
            full.insert(as_fractions(*pruned.q_vector(D, gen))[0], {gen: 1})
            if len(full.rows) == len(pruned.target.monomials):
                break  # no later generator can add a pivot
        assert sorted(pruned.pivots) == sorted(full.pivots)
        leftover = len(pruned.target.monomials) - len(full.pivots)
    assert skipped_somewhere
    try:
        build_presentation(D)
    except SmoothnessError as exc:
        assert f": {leftover} unreduced monomials" in str(exc)
    else:
        assert leftover == 0


# the geometry set, the grevlex K3, the (2,3) K3 in P^4 and a cubic whose
# gradient has denominators up to 6
ROW_INPUTS = {
    **{name: KOSZUL_INPUTS[name] for name in [*GEOMETRIES, "grevlex_k3", "k3_2_3_grevlex"]},
    "fractional_cubic": (2, 1, (3,), ["x0^3 + 1/2*x1^3 + 2/3*x2^3"], "graded-lex"),
}


@pytest.mark.parametrize("name", list(ROW_INPUTS))
def test_q_rows_from_the_gradient_table_match_apply_q(name):
    """`q_vector` reads the Q image of each generator m * eta_j, given by
    its packed key, off the integer gradient table, over its denominator;
    at every weight 0..n-k+1 and for every generator it equals `apply_q` of
    the one-term element, as rationals.  A target piece that does not hold
    the image is refused."""
    n, k, degrees, G, order = ROW_INPUTS[name]
    ctx = VariableContext(n, k, degrees, order)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    c_G = ctx.background_charge()
    for w in range(n - k + 2):
        gens = tuple(PieceView(ctx, c_G, w, -1))
        solver = _WeightSolver(enumerate_piece(ctx, c_G, w, 0))
        target = solver.target.monomials
        for gen in gens:
            vec, den = solver.q_vector(D, gen)
            assert den == D.grad_den
            assert ({ctx.unpack(target[pos]): c
                     for pos, c in as_fractions(vec, den)[0].items()}
                    == apply_q(D, SuperElement(ctx, {ctx.unpack(gen): 1})).terms)
        if gens:
            stranger = _WeightSolver(enumerate_piece(ctx, c_G, w + 1, 0))
            with pytest.raises(InternalCheckError, match="monomial escaped its graded piece"):
                stranger.q_vector(D, gens[0])


@pytest.mark.parametrize("name", ["cubic_curve", "quartic_k3", "two_quadrics"])
def test_weight_solver_lists_only_its_target(name, monkeypatch):
    """At every weight 0..n-k+1 the solver build lists one piece through
    `enumerate_piece`, its degree-0 target; the generators are walked, and
    the combos are keyed by their packed keys."""
    D, _ = _geometry(name)
    ctx = D.ctx
    c_G, top = ctx.background_charge(), ctx.n - ctx.k
    listed = []
    real_list = cohomology.enumerate_piece
    monkeypatch.setattr(cohomology, "enumerate_piece",
                        lambda *args: listed.append(args[1:]) or real_list(*args))
    for w in range(top + 2):
        listed.clear()
        solver = _build_weight_solver(D, c_G, w)
        assert listed == [(c_G, w, 0)]
        assert not hasattr(solver, "generators")
        gens = set(PieceView(ctx, c_G, w, -1))
        assert all(gen in gens for _, _, combo in solver.rows for gen in combo)


# bases whose weight n-k+1 targets are each a multiple of a gradient lead
LEAD_COVERED = ["cubic_curve", "sextic_curve", "quartic_k3", "cubic_threefold", "grevlex_k3"]


@pytest.mark.parametrize("name", LEAD_COVERED)
def test_guard_closes_from_the_leads_alone(name, monkeypatch):
    """Where the leads cover every weight n-k+1 target, the guard lists no
    piece of that weight through `enumerate_piece`, takes no Koszul row and
    builds no echelon there, and the presentation is the one built before."""
    n, k, degrees, G, order = KOSZUL_INPUTS[name]
    ctx = VariableContext(n, k, degrees, order)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    top = n - k
    expected = build_presentation(D)
    real_list, real_rows = cohomology.enumerate_piece, cohomology._koszul_rows

    def listing(ctx, charge, weight, eta_degree):
        if weight > top:
            raise AssertionError("the guard listed a weight n-k+1 piece")
        return real_list(ctx, charge, weight, eta_degree)

    def rows(D, solver):
        if solver.target.weight > top:
            raise AssertionError("the guard made a weight n-k+1 row")
        return real_rows(D, solver)

    monkeypatch.setattr(cohomology, "enumerate_piece", listing)
    monkeypatch.setattr(cohomology, "_koszul_rows", rows)
    pres = build_presentation(D)
    assert pres.basis == expected.basis
    assert pres.hodge_numbers() == expected.hodge_numbers()
    assert sorted(pres._solvers) == list(range(top + 1))

    def refuse(*args):
        raise AssertionError("the guard left the lead cover")

    for attr in ("enumerate_piece", "_koszul_rows", "_build_weight_solver"):
        monkeypatch.setattr(cohomology, attr, refuse)
    assert _closes(D, pres._solvers[top])


# (n, k, degrees, G, H, order), H None for the base: presentations whose
# leads cover the weight n-k+1 targets only in part, so the guard needs the
# shifted pivots of weight n-k.  The deformed (2,3) K3 is left out: its
# exact weight 3 echelon takes about 7 s on 2 cores.
PARTIAL_COVER = {
    **{f"deformed:{name}": (*GEOMETRIES[name], "graded-lex")
       for name in ("cubic_curve", "sextic_curve", "two_quadrics", "quartic_k3")},
    "genus_four_curve": (*GUARD_INPUTS["genus_four_curve"], None, "graded-lex"),
    "deformed:genus_four_curve": (*GUARD_INPUTS["genus_four_curve"], ["x0*x1", "x1*x2*x3"],
                                  "graded-lex"),
    "k3_2_3_grevlex": (*KOSZUL_INPUTS["k3_2_3_grevlex"][:4], None, "grevlex"),
}


def _dwork_of(n, k, degrees, G, H, order):
    """D of G, or of its deformed presentation by H when H is not None."""
    ctx = VariableContext(n, k, degrees, order)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    if H is not None:
        D = build_deformation(D, [parse(h, ctx) for h in H]).deformed
    return D


@pytest.mark.parametrize("name", list(PARTIAL_COVER))
def test_guard_on_a_partial_lead_cover_agrees_with_the_exact_complement(name, monkeypatch):
    """Where some weight n-k+1 target is a multiple of no lead, the guard
    still gives the exact echelon's verdict, and `build_presentation` makes
    no Koszul row, lists no piece and builds no echelon above weight n-k."""
    D = _dwork_of(*PARTIAL_COVER[name])
    ctx = D.ctx
    charge, top = ctx.background_charge(), ctx.n - ctx.k
    guard = ctx.guard_mask
    leads = [lead for lead, _ in filter(None, cohomology._gradient_leads(D))]
    assert not all(any(((m | guard) - lead) & guard == guard for lead in leads)
                   for m in cohomology.PieceView(ctx, charge, top + 1, 0))
    closes = not _build_weight_solver(D, charge, top + 1).complement_monomials()
    assert closes
    assert _closes(D, _build_weight_solver(D, charge, top)) == closes
    weights = []
    real_list, real_rows = cohomology.enumerate_piece, cohomology._koszul_rows
    monkeypatch.setattr(cohomology, "enumerate_piece",
                        lambda ctx, c, w, e: weights.append(w) or real_list(ctx, c, w, e))
    monkeypatch.setattr(cohomology, "_koszul_rows",
                        lambda D, solver: weights.append(solver.target.weight)
                        or real_rows(D, solver))
    pres = build_presentation(D)
    assert max(weights) == top
    assert sorted(pres._solvers) == list(range(top + 1))


def _random_form(rng, n, d, density=None):
    """A form of degree d in x0..xn with each monomial present with one
    density and small nonzero coefficients; sparse ones are often singular
    at a coordinate point."""
    density = density or rng.choice([0.25, 0.4, 0.6])
    terms = [f"{rng.choice([-3, -2, -1, 1, 2, 3, 5])}*" + "*".join(f"x{i}" for i in mono)
             for mono in combinations_with_replacement(range(n + 1), d)
             if rng.random() < density]
    return " + ".join(terms) or f"x0^{d}"


def _nodal_form(rng, n, d):
    """l1 * l2 * A + l3 * l4 * B for random linear forms l_i that vanish at
    (1 : ... : 1) and random forms A, B of degree d - 2: singular at that
    point, which is no coordinate point."""
    def linear():
        return " + ".join(f"{rng.choice([-2, -1, 1, 2, 3])}*(x{i} - x{i + 1})" for i in range(n))

    def cofactor():
        return _random_form(rng, n, d - 2, 0.6) + f" + x0^{d - 2}" if d > 2 else "1"

    return " + ".join(f"({linear()})*({linear()})*({cofactor()})" for _ in range(2))


# seeded non-diagonal plane cubics, plane quartics and cubic surfaces in
# both orders, as (n, k, degrees, G, order): 16 of the 36 sparse ones are
# singular, and so is every nodal one
RANDOM_GUARD_INPUTS = {
    f"random:{kind}:{n},{d}:{order}:{seed}":
        (n, 1, (d,), [form(random.Random(1000 * n + 10 * d + seed), n, d)], order)
    for n, d in ((2, 3), (2, 4), (3, 3)) for order in ("graded-lex", "grevlex")
    for kind, form, seeds in (("sparse", _random_form, 6), ("nodal", _nodal_form, 2))
    for seed in range(seeds)
}

# (n, k, degrees, G, H, order) of every input of the guard and Koszul tests
# (GUARD_INPUTS among them), the deformed partial covers and the seeded
# random inputs
GUARD_CHECKS = {
    **{name: (n, k, degrees, G, None, order) for name, (n, k, degrees, G, order)
       in {**KOSZUL_INPUTS, **RANDOM_GUARD_INPUTS}.items()},
    **{name: spec for name, spec in PARTIAL_COVER.items() if name.startswith("deformed:")},
}


@pytest.mark.parametrize("name", list(GUARD_CHECKS))
def test_modular_guard_agrees_with_the_exact_complement(name, monkeypatch):
    """The guard closes exactly when the exact weight n-k+1 echelon leaves
    no complement monomial, and a presentation that does not close raises
    the SmoothnessError with that echelon's count.  The echelons the build
    makes are kept, so the exact one is not built twice."""
    D = _dwork_of(*GUARD_CHECKS[name])
    ctx = D.ctx
    charge, top = ctx.background_charge(), ctx.n - ctx.k
    built = {}
    real = cohomology._build_weight_solver

    def build(D, charge, w):
        built[w] = real(D, charge, w)
        return built[w]

    monkeypatch.setattr(cohomology, "_build_weight_solver", build)
    try:
        build_presentation(D)
    except SmoothnessError as exc:
        message = str(exc)
    else:
        message = None
    leftover = (built.get(top + 1) or real(D, charge, top + 1)).complement_monomials()
    if not name.startswith("random:"):
        assert bool(leftover) == name.startswith("singular:")
    assert _closes(D, built[top]) == (not leftover)
    expected = None
    if leftover:
        expected = (f"quotient fails to close at weight {top + 1}: "
                    f"{len(leftover)} unreduced monomials; "
                    "singular or non-complete-intersection input")
    assert message == expected


def test_guard_prime_is_prime():
    assert _GUARD_PRIME == 2**61 - 1
    assert sympy.isprime(_GUARD_PRIME)


def test_guard_falls_back_to_the_exact_echelon_when_p_divides_a_row(monkeypatch):
    """x0^3 + x1^3 + p*x2^3 is smooth over Q, but its x2 row vanishes mod
    p: the modular rank is short, the exact weight 2 echelon closes, and the
    presentation keeps it and has the plain Fermat cubic's basis."""
    ctx = VariableContext(2, 1, (3,))
    D = dwork_potential(ctx, [parse(f"x0^3 + x1^3 + {_GUARD_PRIME}*x2^3", ctx)])
    assert not _closes(D, _build_weight_solver(D, ctx.background_charge(), 1))
    fermat = build_presentation(dwork_potential(ctx, [parse("x0^3 + x1^3 + x2^3", ctx)]))
    built = []
    real = cohomology._build_weight_solver
    monkeypatch.setattr(cohomology, "_build_weight_solver",
                        lambda D, charge, w: built.append(w) or real(D, charge, w))
    pres = build_presentation(D)
    assert built == [0, 1, 2]
    assert sorted(pres._solvers) == [0, 1, 2]
    assert pres.basis == fermat.basis
    assert pres.hodge_numbers() == fermat.hodge_numbers() == [1, 1]
    f = SuperElement(ctx, {ctx.unpack(enumerate_piece(ctx, pres.c_G, 3, 0).monomials[0]): 1})
    result = pres.reduce(f)
    assert apply_k(D, result.certificate) + result.as_element(pres) == f
    assert built == [0, 1, 2]


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_basis_builds_no_exact_echelon_above_the_quotient(name, tmp_path, monkeypatch):
    """`basis` builds the weight solvers 0..n-k only.  Lifts and weight
    n-k+1 slices build none where the guard's cover is whole; with a
    leftover (two quadrics) the first builds the weight n-k+1 solver, once,
    and later lifts and slices reuse it."""
    n, k, degrees, G, _ = GEOMETRIES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": n, "k": k, "degrees": list(degrees), "G": G}))
    built = []
    real = cohomology._build_weight_solver
    monkeypatch.setattr(cohomology, "_build_weight_solver",
                        lambda D, charge, w: built.append(w) or real(D, charge, w))
    assert main(["--out", str(tmp_path / "basis.txt"), "basis", str(config)]) == EXIT_OK
    top = n - k
    assert built == list(range(top + 1))
    D, _ = _geometry(name)
    built.clear()
    pres = build_presentation(D)
    assert built == list(range(top + 1))
    above = enumerate_piece(D.ctx, pres.c_G, top + 2, 0).monomials
    at = enumerate_piece(D.ctx, pres.c_G, top + 1, 0).monomials
    lazy = [top + 1] if name == "two_quadrics" else []
    for key in (above[0], above[-1], at[0], at[-1]):
        f = SuperElement(D.ctx, {D.ctx.unpack(key): 1})
        result = pres.reduce(f)
        assert apply_k(D, result.certificate) + result.as_element(pres) == f
        assert built == [*range(top + 1), *lazy]


def _sum_of_powers(n, d, weight=lambda i: 1):
    return " + ".join(f"{weight(i)}*x{i}^{d}" for i in range(n + 1))


# (n, degrees, G, check the lift against EchelonReduction): complete
# intersections with k = 1..3 and non-diagonal terms, so a preimage of the
# lift is no longer one monomial
NON_DIAGONAL = {
    "cubic curve": (2, (3,), ["x0^3 + x1^3 + x2^3 + x0*x1*x2"], True),
    "quartic K3": (3, (4,), [_sum_of_powers(3, 4) + " + x0*x1*x2*x3 + x0^2*x1*x2"], False),
    "(2,2) in P^3": (3, (2, 2), [_sum_of_powers(3, 2) + " + x0*x1",
                                 _sum_of_powers(3, 2, lambda i: i + 1) + " + x2*x3"], True),
    "(2,3) in P^3": (3, (2, 3), [_sum_of_powers(3, 2) + " + x0*x1",
                                 _sum_of_powers(3, 3) + " + x1*x2*x3"], False),
    "(2,2) in P^4": (4, (2, 2), [_sum_of_powers(4, 2) + " + x0*x1",
                                 _sum_of_powers(4, 2, lambda i: i + 1) + " + x3*x4"], True),
    "(2,2,2) in P^4": (4, (2, 2, 2), [_sum_of_powers(4, 2) + " + x0*x1",
                                      _sum_of_powers(4, 2, lambda i: i + 1),
                                      _sum_of_powers(4, 2, lambda i: (i + 1) ** 2) + " + x2*x4"],
                       False),
}


@pytest.mark.parametrize("order", ["graded-lex", "grevlex"])
@pytest.mark.parametrize("name", list(NON_DIAGONAL))
def test_non_diagonal_complete_intersections(name, order):
    """Hodge numbers against Hirzebruch, certificate soundness through the
    lift, and on three inputs the lift's coefficients against the
    weight-echelon route."""
    n, degrees, G, against_echelon = NON_DIAGONAL[name]
    ctx = VariableContext(n, len(degrees), degrees, order)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    pres = build_presentation(D)
    assert pres.hodge_numbers() == hirzebruch_hodge_numbers(n, degrees)
    top = n - len(degrees)
    rng = random.Random(f"non-diagonal:{name}:{order}")
    inputs = [random_charge_element(D, rng, pres.c_G, 0, max_weight=top + 2) for _ in range(3)]
    assert max(top_weight(f) for f in inputs) == top + 2
    oracle = EchelonReduction(pres)
    for f in inputs:
        result = pres.reduce(f)
        assert apply_k(D, result.certificate) + result.as_element(pres) == f
        if against_echelon:
            assert result.coefficients == oracle.reduce(f).coefficients


ORDERS = ("graded-lex", "grevlex")

# (n, k, degrees, G, order) of every smooth geometry of this file whose
# guard walk leaves no weight n-k+1 leftover: the lead-covered Fermat bases
# and the grevlex K3, the plane quartic, and, with 11-32% of their weight
# n-k+1 targets covered by shifted weight n-k pivots, the (2,2) pair in P^4
# with non-diagonal terms and the smooth seeded cubic surfaces
COVER_WHOLE = {
    **{name: KOSZUL_INPUTS[name] for name in (*LEAD_COVERED, "plane_quartic")},
    "sextic_curve_grevlex": CASCADE_CASES["sextic_curve_grevlex"][:5],
    **{f"(2,2) in P^4:{order}": (4, 2, (2, 2), NON_DIAGONAL["(2,2) in P^4"][2], order)
       for order in ORDERS},
    **{name: spec for name, spec in RANDOM_GUARD_INPUTS.items()
       if name.startswith("random:sparse:3,3:") and not name.endswith(":0")},
}


@pytest.mark.parametrize("name", list(COVER_WHOLE))
def test_cover_preimages_are_exact(name, monkeypatch):
    """Q(pre(M)) == M exactly for every weight n-k+1 monomial M, with each
    preimage solved from the guard's cover: no weight n-k+1 echelon is
    built, and each preimage is stored over a primitive denominator."""
    n, k, degrees, G, order = COVER_WHOLE[name]
    ctx = VariableContext(n, k, degrees, order)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    real = cohomology._build_weight_solver

    def build(D, charge, w):
        assert w <= n - k, "a weight n-k+1 echelon was built"
        return real(D, charge, w)

    monkeypatch.setattr(cohomology, "_build_weight_solver", build)
    pres = build_presentation(D)
    assert pres._cover is not None and pres._cover.leftovers == 0
    targets = tuple(PieceView(ctx, pres.c_G, n - k + 1, 0))
    for m in targets:
        num, den = pres._preimage(m)
        assert den > 0 and 0 not in num.values() and gcd(den, *num.values()) == 1
        assert apply_q(D, SuperElement._make(ctx, dict(num), den)) == SuperElement._make(
            ctx, {m: 1}, 1)
    assert len(pres._lifts) == len(targets)
    assert sorted(pres._solvers) == list(range(n - k + 1))


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_certificates_do_not_depend_on_earlier_reductions(name):
    """A fresh presentation and one that has already reduced other seeded
    inputs, in either order, give the same certificate key for key: each
    weight n-k+1 preimage depends on its monomial alone."""
    D, _ = _geometry(name)
    top = D.ctx.n - D.ctx.k
    above = 2 if name == "cubic_threefold" else 3
    rng = random.Random(f"call-order:{name}")
    inputs, others = ([random_charge_element(D, rng, D.ctx.background_charge(), 0,
                                             max_weight=top + above) for _ in range(3)]
                      for _ in range(2))
    assert max(top_weight(f) for f in inputs) == top + above
    served = build_presentation(D)
    for f in others:
        served.reduce(f)
    expected = [build_presentation(D).reduce(f).certificate for f in inputs]
    got = [served.reduce(f).certificate for f in reversed(inputs)][::-1]
    assert [list(c._num.items()) for c in got] == [list(c._num.items()) for c in expected]
    assert [c._den for c in got] == [c._den for c in expected]


def test_two_quadrics_keeps_the_echelon_route(monkeypatch):
    """Two quadrics leave one weight 2 leftover, so their preimages and
    weight 2 slices stay on the exact echelon, built once on first need.
    The certificates of four seeded inputs up to weight 4 hash as they did
    before the cover solved any preimage."""
    D, _ = _geometry("two_quadrics")
    built = []
    real = cohomology._build_weight_solver
    monkeypatch.setattr(cohomology, "_build_weight_solver",
                        lambda D, charge, w: built.append(w) or real(D, charge, w))
    pres = build_presentation(D)
    assert pres._cover is None
    rng = random.Random("echelon-route:two_quadrics")
    inputs = [random_charge_element(D, rng, pres.c_G, 0, max_weight=4) for _ in range(4)]
    assert max(top_weight(f) for f in inputs) == 4
    results = [pres.reduce(f) for f in inputs]
    assert built == [0, 1, 2]
    for f, result in zip(inputs, results):
        assert apply_k(D, result.certificate) + result.as_element(pres) == f
    text = repr([(list(r.certificate._num.items()), r.certificate._den) for r in results])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4b48cec484a365b56d6b9d2e4dcf3b31c3dd2135f6c24a4bab22ffea8efca39b")
