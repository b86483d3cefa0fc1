"""Deformation layer: Maurer-Cartan, u bases, T series, D ladder, transport.

The Hesse-pencil values asserted here were derived by explicit certificate
chains (each chain is re-verified in-place by applying K to the certificate
of reducing the recorded right side).
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from dworkbox import (
    IndependenceError,
    InputError,
    SuperElement,
    VariableContext,
    apply_k,
    build_presentation,
    dwork_potential,
    parse,
)
from dworkbox import deformation
from dworkbox.cohomology import QuotientPresentation
from dworkbox.deformation import (
    BaseChange,
    PeriodMatrix,
    bell_expansion,
    build_deformation,
    d_ladder,
    expansion_coefficients,
    k_gamma,
    mc_check,
    period_transport,
    t_series,
    u_basis,
)
from dworkbox.operators import LinearFunctional
from dworkbox.verify import random_element, reduction_functional
from tests.oracles import (
    d_matrix,
    plain_t_series,
    plain_transport,
    series_certificate,
    t_series_key_orders,
    t_series_values,
)


@pytest.fixture(scope="module")
def hesse(cubic_dwork):
    return build_deformation(cubic_dwork, [parse("x0*x1*x2", cubic_dwork.ctx)])


@pytest.fixture(scope="module")
def hesse_setup(cubic_dwork, cubic_presentation, hesse):
    pres_U = build_presentation(hesse.deformed)
    basis_u = u_basis(hesse, cubic_presentation, pres_U)
    return hesse, cubic_presentation, pres_U, basis_u


# -- construction and Maurer-Cartan ----------------------------------------------

def test_build_deformation_hesse(cubic_dwork, hesse):
    ctx = cubic_dwork.ctx
    assert hesse.gamma == parse("y1*x0*x1*x2", ctx)
    assert hesse.nonzero_indices == (1,)
    assert hesse.deformed.S == cubic_dwork.S + hesse.gamma
    # the deformed curve is the smooth Hesse member: its presentation builds
    P = build_presentation(hesse.deformed)
    assert P.dimension == 2


def test_build_deformation_trivial(cubic_dwork):
    dd = build_deformation(cubic_dwork, [SuperElement.zero(cubic_dwork.ctx)])
    assert not dd.nonzero_indices
    assert dd.gamma.is_zero()
    assert dd.deformed.S == cubic_dwork.S


def test_build_deformation_rejects_bad_arity(cubic_dwork):
    ctx = cubic_dwork.ctx
    with pytest.raises(InputError):
        build_deformation(cubic_dwork, [])
    with pytest.raises(InputError):
        build_deformation(cubic_dwork, [parse("x0*x1*x2", ctx), parse("x0^3", ctx)])


def test_build_deformation_rejects_degree_mismatch(cubic_dwork):
    with pytest.raises(InputError):
        build_deformation(cubic_dwork, [parse("x0^2", cubic_dwork.ctx)])


def test_mc_check_trivial_and_eta(cubic_dwork):
    ctx = cubic_dwork.ctx
    mc_check(cubic_dwork, parse("y1*x0^3", ctx))
    mc_check(cubic_dwork, SuperElement.zero(ctx))
    with pytest.raises(InputError):
        mc_check(cubic_dwork, parse("x0*e2", ctx))


def test_k_gamma_equals_deformed(cubic_dwork, hesse):
    rng = random.Random(80)
    ctx = cubic_dwork.ctx
    for _ in range(100):
        lam = random_element(ctx, rng)
        assert k_gamma(cubic_dwork, hesse.gamma, lam) == apply_k(hesse.deformed, lam)


def test_k_gamma_with_zero_gamma(cubic_dwork):
    rng = random.Random(81)
    ctx = cubic_dwork.ctx
    zero = SuperElement.zero(ctx)
    for _ in range(20):
        lam = random_element(ctx, rng)
        assert k_gamma(cubic_dwork, zero, lam) == apply_k(cubic_dwork, lam)


def test_k_gamma_eta_free_input(cubic_dwork, hesse):
    assert k_gamma(cubic_dwork, hesse.gamma,
                   parse("y1^2*x0^2", cubic_dwork.ctx)).is_zero()


def test_two_quadrics_deformation(quadrics_dwork):
    ctx = quadrics_dwork.ctx
    H = [parse("x0*x1", ctx), SuperElement.zero(ctx)]
    dd = build_deformation(quadrics_dwork, H)
    assert dd.nonzero_indices == (1,)
    mc_check(quadrics_dwork, dd.gamma)
    rng = random.Random(82)
    for _ in range(100):
        lam = random_element(ctx, rng)
        assert k_gamma(quadrics_dwork, dd.gamma, lam) == apply_k(dd.deformed, lam)


# -- u basis ------------------------------------------------------------------------

def test_u_basis_hesse(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    ctx = pres_G.dwork.ctx
    assert t_series(hesse, pres_G, basis_u, 1).prime_indices == (1,)
    assert basis_u.elements[0] == parse("y1*x0*x1*x2", ctx)
    assert basis_u.elements[1] == SuperElement.one(ctx)


def test_u_basis_trivial_deformation(cubic_dwork, cubic_presentation):
    dd = build_deformation(cubic_dwork, [SuperElement.zero(cubic_dwork.ctx)])
    basis_u = u_basis(dd, cubic_presentation, cubic_presentation)
    assert t_series(dd, cubic_presentation, basis_u, 1).prime_indices == ()
    assert [u for u in basis_u.elements] == cubic_presentation.basis_elements()


def test_u_basis_positive_charge_quintic():
    # quintic curve: c_G = 2 > 0, h should default to the smallest
    # canonical degree-2 monomial x2^2
    ctx = VariableContext(2, 1, (5,))
    D = dwork_potential(ctx, [parse("x0^5 + x1^5 + x2^5", ctx)])
    P = build_presentation(D)
    assert P.dimension == 12  # genus-6 plane quintic
    dd = build_deformation(D, [parse("x0^5", ctx)])
    PU = build_presentation(dd.deformed)
    basis_u = u_basis(dd, P, PU)
    assert basis_u.prefactor == parse("x2^2", ctx)
    assert basis_u.elements[0] == parse("y1*x0^5*x2^2", ctx)
    assert len(basis_u.elements) == 12
    # all classes must really be independent mod the deformed kernel
    rows = [PU.reduce(u).coefficients for u in basis_u.elements]
    from tests.oracles import dense_rank

    vectors = [{(0, (i,)): c for i, c in r.items()} for r in rows]
    columns = [(0, (i,)) for i in range(12)]
    assert dense_rank(vectors, columns) == 12


def test_u_basis_negative_charge_cubic_surface():
    ctx = VariableContext(3, 1, (3,))
    D = dwork_potential(ctx, [parse("x0^3 + x1^3 + x2^3 + x3^3", ctx)])
    P = build_presentation(D)
    dd = build_deformation(D, [parse("x0*x1*x2", ctx)])
    PU = build_presentation(dd.deformed)
    # c_G = -1: u_1 = y1 H1 * y1^1 * h with deg h = 3 - 1 = 2.  The default
    # h = x3^2 (smallest canonical monomial) happens to make y1^2 x0 x1 x2 x3^2
    # exact in the deformed complex, so the independence assumption fails
    # loudly instead of being silently repaired:
    with pytest.raises(IndependenceError):
        u_basis(dd, P, PU)
    # a user-supplied h clears it
    basis_u = u_basis(dd, P, PU, h=parse("x2^2", ctx))
    # h = x2^2 and the default (j, m) = (1, 1)
    assert basis_u.prefactor == parse("y1*x2^2", ctx)
    assert basis_u.elements[0] == parse("y1^2*x0*x1*x2^3", ctx)
    assert len(basis_u.elements) == 6


def test_u_basis_rejects_a_y_power_that_is_not_two_ints():
    """y_choice must be a pair (j, m) of ints, as the CLI's yPower is; a
    pair of the wrong length, of non-int entries or a scalar is an
    InputError."""
    ctx = VariableContext(3, 1, (3,))  # c_G = -1
    D = dwork_potential(ctx, [parse("x0^3 + x1^3 + x2^3 + x3^3", ctx)])
    P = build_presentation(D)
    dd = build_deformation(D, [parse("x0*x1*x2", ctx)])
    PU = build_presentation(dd.deformed)
    for y_choice in [(1,), (1, 1, 1), (1.0, 1), ("1", 1), 1]:
        with pytest.raises(InputError, match="invalid y power choice"):
            u_basis(dd, P, PU, h=parse("x2^2", ctx), y_choice=y_choice)


@pytest.mark.parametrize("n,degree,H,h,prefactor", [
    (2, 3, "x0*x1*x2", None, "1"),
    (2, 6, "x0^2*x1^2*x2^2", None, "x2^3"),
    (3, 3, "x0*x1*x2", "x2^2", "y1*x2^2"),
], ids=["cubic c_G=0", "sextic c_G=3", "cubic surface c_G=-1"])
def test_leading_classes_carry_the_recorded_prefactor(n, degree, H, h, prefactor):
    """`t_series` multiplies by `UBasis.prefactor`; it is the factor every
    leading class y_i H_i was built with."""
    ctx = VariableContext(n, 1, (degree,))
    G = " + ".join(f"x{i}^{degree}" for i in range(n + 1))
    D = dwork_potential(ctx, [parse(G, ctx)])
    P = build_presentation(D)
    dd = build_deformation(D, [parse(H, ctx)])
    h_elt = parse(h, ctx) if h is not None else None
    basis_u = u_basis(dd, P, build_presentation(dd.deformed), h=h_elt)
    assert basis_u.prefactor == parse(prefactor, ctx)
    for a, i in enumerate(dd.nonzero_indices):
        assert basis_u.elements[a] == \
            SuperElement.variable(ctx, i) * dd.H[i - 1] * basis_u.prefactor


@pytest.mark.parametrize("order", ["graded-lex", "grevlex"])
@pytest.mark.parametrize("shape", [(2, 1, (3,)), (3, 2, (2, 2)), (4, 1, (3,))],
                         ids=["cubic", "two_quadrics", "cubic_threefold"])
def test_smallest_x_monomial_is_the_last_of_its_piece(shape, order):
    """x_n^degree in closed form is the minimum under monomial_sort_key of
    the listed piece, which is what it replaced."""
    from dworkbox.cohomology import enumerate_piece
    from dworkbox.deformation import _smallest_x_monomial
    from dworkbox.superalgebra import monomial_sort_key

    ctx = VariableContext(*shape, order)
    for degree in range(6):
        piece = map(ctx.unpack, enumerate_piece(ctx, degree, 0, 0).monomials)
        expected = min(piece, key=lambda m: monomial_sort_key(ctx, ctx.pack(m)))
        assert _smallest_x_monomial(ctx, degree) == SuperElement(ctx, {expected: 1})
    with pytest.raises(InputError, match="no x-monomial of degree -1"):
        _smallest_x_monomial(ctx, -1)


@pytest.mark.parametrize("order", ["graded-lex", "grevlex"])
def test_smallest_x_monomial_is_the_last_walked_monomial(order):
    """x_n^degree in closed form equals the last monomial PieceView walks,
    for every n <= 5 and k <= n."""
    from dworkbox.cohomology import PieceView
    from dworkbox.deformation import _smallest_x_monomial

    for n in range(1, 6):
        for k in range(1, n + 1):
            ctx = VariableContext(n, k, tuple(range(2, k + 2)), order)
            for degree in range(6):
                *_, last = map(ctx.unpack, PieceView(ctx, degree, 0, 0))
                assert _smallest_x_monomial(ctx, degree) == SuperElement(ctx, {last: 1})


def test_u_basis_requires_room(cubic_dwork, cubic_presentation):
    ctx = cubic_dwork.ctx
    # sabotage: pretend both basis classes are deformed by feeding a fake
    # nonzero H list through a 2-dimensional quotient; |I| = 2 = |I'| fails
    class FakeDef:
        base = cubic_dwork
        H = (parse("x0*x1*x2", ctx), parse("x0^3", ctx))
        nonzero_indices = (1, 2)
        gamma = parse("y1*x0*x1*x2", ctx)
        deformed = cubic_dwork

    from dworkbox import AssumptionError

    with pytest.raises(AssumptionError):
        u_basis(FakeDef(), cubic_presentation, cubic_presentation)


def test_u_basis_surfaces_dependence(cubic_dwork, cubic_presentation):
    ctx = cubic_dwork.ctx

    class FakeDef:
        base = cubic_dwork
        # y1*(x0^3 - x1^3) = K((x0 e2 - x1 e3)/3) exactly: the class is zero
        # in the quotient, so independence must fail with a hard error
        H = (parse("x0^3 - x1^3", ctx),)
        nonzero_indices = (1,)
        gamma = parse("y1*x0^3 - y1*x1^3", ctx)
        deformed = cubic_dwork

    assert cubic_presentation.reduce(parse("y1*x0^3 - y1*x1^3", ctx)).coefficients == {}
    with pytest.raises(IndependenceError):
        u_basis(FakeDef(), cubic_presentation, cubic_presentation)


# -- T series ----------------------------------------------------------------------

def test_hesse_series_known_values(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    series = t_series(hesse, pres_G, basis_u, 6)
    # linear data
    assert series.coefficient(1, (1, 0)) == 1
    assert series.coefficient(0, (1, 0)) == 0
    # squares vanish
    assert series.coefficient(0, (2, 0)) == 0
    assert series.coefficient(1, (2, 0)) == 0
    # certificate chains
    assert series.coefficient(0, (3, 0)) == Fraction(-1, 162)
    assert series.coefficient(1, (4, 0)) == Fraction(-1, 81)


def test_series_residual_exactness(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    ctx = pres_G.dwork.ctx
    series = t_series(hesse, pres_G, basis_u, 5)
    basis_elements = pres_G.basis_elements()
    u1, u2 = basis_u.elements
    assert {e for (_, e) in series.coefficients} <= set(series.rhs)
    for expo in series.rhs:
        m1, m2 = expo
        rhs = (u1 ** m1 * u2 ** m2).scale(
            Fraction(1, math.factorial(m1) * math.factorial(m2)))
        assert series.rhs[expo] == rhs
        normal = SuperElement.zero(ctx)
        for rho, e in enumerate(basis_elements):
            c = series.coefficient(rho, expo)
            if c:
                normal = normal + e.scale(c)
        cert = series_certificate(pres_G, series, expo)
        assert rhs - normal == apply_k(pres_G.dwork, cert)


def test_series_order_zero_coefficients_vanish(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    series = t_series(hesse, pres_G, basis_u, 3)
    zero_expo = (0, 0)
    for rho in range(series.dimension):
        assert series.coefficient(rho, zero_expo) == 0


def test_series_rejects_bad_order(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    with pytest.raises(InputError):
        t_series(hesse, pres_G, basis_u, 0)


def test_series_export_shape(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    series = t_series(hesse, pres_G, basis_u, 3)
    assert series.order == 3
    assert series.dimension == 2
    rows = series.series_rows()
    assert {"rho", "exponent", "value"} <= set(rows[0])
    linear = [r for r in rows if r["exponent"] == [1, 0] and r["rho"] == 2]
    assert linear and linear[0]["value"] == "1/1"


def test_series_rows_index_the_coefficients(hesse_setup, quadrics_presentation,
                                            quadrics_deformation):
    """Each exported row is one coefficient, with rho numbered from 1."""
    hesse, pres_G, _, basis_u = hesse_setup
    dd, _, quadrics_u = quadrics_deformation
    for series in (t_series(hesse, pres_G, basis_u, 3),
                   t_series(dd, quadrics_presentation, quadrics_u, 4)):
        rows = series.series_rows()
        assert len(rows) == len(series.coefficients)
        for row in rows:
            assert Fraction(row["value"]) == series.coefficient(row["rho"] - 1, row["exponent"])


# -- D matrix ladder -----------------------------------------------------------------

def test_d_ladder_hesse(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    ladder = d_ladder(hesse, pres_G, basis_u, 6)
    assert set(ladder) == set(range(1, 7))
    assert ladder[1] == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    # order 3 picks up the -1/162 term: d/dt1 of -(t1)^3/162 at t1 = 1
    assert ladder[3][0][0] == Fraction(-1, 54)
    assert ladder[3][0][1] == Fraction(1)


def test_d_ladder_trivial_is_identity(cubic_dwork, cubic_presentation):
    dd = build_deformation(cubic_dwork, [SuperElement.zero(cubic_dwork.ctx)])
    basis_u = u_basis(dd, cubic_presentation, cubic_presentation)
    ladder = d_ladder(dd, cubic_presentation, basis_u, 6)
    identity = [[Fraction(1) if i == j else Fraction(0) for j in range(2)]
                for i in range(2)]
    for order in range(1, 7):
        assert ladder[order] == identity


def test_d_ladder_changes_only_with_matching_terms(hesse_setup):
    hesse, pres_G, pres_U, basis_u = hesse_setup
    series = t_series(hesse, pres_G, basis_u, 6)
    ladder = d_matrix(series)
    prime = set(p - 1 for p in series.prime_indices)
    for order in range(2, 7):
        for beta in range(2):
            for rho in range(2):
                delta = ladder[order][beta][rho] - ladder[order - 1][beta][rho]
                if delta == 0:
                    continue
                # a change requires a series term of this exact total order
                # whose derivative exponent lands inside I'
                witnesses = [
                    expo for (r, expo), c in series.coefficients.items()
                    if r == rho and sum(expo) == order and expo[beta] > 0
                    and all(a in prime or e == 0
                            for a, e in enumerate(
                                expo[:beta] + (expo[beta] - 1,) + expo[beta + 1:]))
                ]
                assert witnesses
    assert ladder[6][0][0] != ladder[2][0][0]


# -- deformation evaluators ------------------------------------------------------------

def test_expansion_constant_for_trivial_gamma(cubic_dwork, cubic_presentation):
    dd = build_deformation(cubic_dwork, [SuperElement.zero(cubic_dwork.ctx)])
    u = parse("y1*x0*x1*x2", cubic_dwork.ctx)
    seq = expansion_coefficients(dd, cubic_presentation, u, 5)
    assert len(seq) == 6
    assert all(v == seq[0] for v in seq)
    reduced = cubic_presentation.reduce(u).coefficients
    assert seq[0] == tuple(reduced.get(rho, 0) for rho in range(cubic_presentation.dimension))


def test_expansion_hesse_partial_sums(cubic_presentation, hesse):
    ctx = cubic_presentation.dwork.ctx
    seq = expansion_coefficients(hesse, cubic_presentation, SuperElement.one(ctx), 4)
    assert seq[0] == (Fraction(1), Fraction(0))
    assert seq[1] == (Fraction(1), Fraction(1))
    assert seq[2] == (Fraction(1), Fraction(1))
    assert seq[3] == (Fraction(1) - Fraction(1, 162), Fraction(1))
    assert seq[4] == (Fraction(161, 162), Fraction(1) - Fraction(1, 81))


def test_expansion_basis_start(cubic_presentation, hesse):
    ctx = cubic_presentation.dwork.ctx
    u = parse("y1*x0*x1*x2", ctx)
    seq = expansion_coefficients(hesse, cubic_presentation, u, 2)
    assert seq[0] == (Fraction(0), Fraction(1))


def test_expansion_rejects_wrong_charge(cubic_presentation, hesse):
    with pytest.raises(InputError):
        expansion_coefficients(hesse, cubic_presentation,
                          parse("x0", cubic_presentation.dwork.ctx), 3)


def test_bell_expansion_order_one_identity(cubic_dwork, cubic_presentation, hesse):
    ctx = cubic_dwork.ctx
    rng = random.Random(83)
    for _ in range(10):
        row = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        f = reduction_functional(cubic_presentation, row)
        u = SuperElement.one(ctx)
        sums = bell_expansion(f, hesse.gamma, u, 1)
        assert sums[0] == f(u)
        assert sums[1] == f(u) + f(u * hesse.gamma)


def test_bell_expansion_route_equivalence(cubic_dwork, cubic_presentation, hesse):
    ctx = cubic_dwork.ctx
    rng = random.Random(84)
    basis_elements = cubic_presentation.basis_elements()
    for trial in range(10):
        row = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        f = reduction_functional(cubic_presentation, row)
        for u in basis_elements:
            bell_route = bell_expansion(f, hesse.gamma, u, 5)
            run = Fraction(0)
            direct = []
            for m in range(6):
                run += f((u * hesse.gamma ** m).scale(Fraction(1, math.factorial(m))))
                direct.append(run)
            assert bell_route == direct


def test_bell_expansion_gamma_zero(cubic_dwork, cubic_presentation):
    ctx = cubic_dwork.ctx
    f = reduction_functional(cubic_presentation, (Fraction(1), Fraction(2)))
    u = parse("y1*x0*x1*x2", ctx)
    sums = bell_expansion(f, SuperElement.zero(ctx), u, 4)
    assert all(s == f(u) for s in sums)


def test_bell_expansion_requires_cochain_flag(cubic_dwork, cubic_presentation, hesse):
    from dworkbox import LinearFunctional

    f = LinearFunctional(lambda a: Fraction(0), cochain=False)
    with pytest.raises(InputError):
        bell_expansion(f, hesse.gamma, SuperElement.one(cubic_dwork.ctx), 2)


# -- period transport ---------------------------------------------------------------

def test_transport_identity():
    omega = PeriodMatrix(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = BaseChange(((1, 0), (0, 1)))
    out = period_transport({1: eye}, omega, b)[1]
    assert out.entries == omega.entries


def test_transport_exact_arithmetic():
    omega = PeriodMatrix(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
    d = [[Fraction(1), Fraction(0)], [Fraction(-1, 54), Fraction(1)]]
    b = BaseChange(((1, 0), (0, 1)))
    out = period_transport({1: d}, omega, b)[1]
    assert out.entries == (
        (Fraction(1), Fraction(2)),
        (Fraction(3) - Fraction(1, 54), Fraction(4) - Fraction(2, 54)),
    )
    assert out.exact


def test_transport_floating_entries():
    omega = PeriodMatrix(((0.5, 1.25), (2.0, -3.0)))
    d = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    b = BaseChange(((0, 1), (1, 0)))
    out = period_transport({1: d}, omega, b)[1]
    assert not out.exact
    assert out.entries[0][0] == pytest.approx(2.5)


def test_transport_size_mismatch():
    omega = PeriodMatrix(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    b = BaseChange(((1, 0), (0, 1)))
    with pytest.raises(InputError):
        period_transport({1: [[Fraction(1)]]}, omega, b)
    with pytest.raises(InputError):
        PeriodMatrix(((Fraction(1), Fraction(2)),))


def _random_exact(rng, size, bits):
    """Entries over three random denominators below 2^bits, so that the
    Fraction products of the oracle stay cheap at size 21."""
    dens = [rng.randint(1, 2 ** bits) for _ in range(3)]
    return [[Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.choice(dens))
             for _ in range(size)] for _ in range(size)]


def _random_unimodular(rng, size):
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2 * size if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    r = rng.randrange(size)
    m[r] = [-v for v in m[r]]
    return BaseChange(tuple(map(tuple, m)))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(deformation, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(deformation, name, spy)
    return calls


def _ladder_shaped(rng, size, bits):
    """A D shaped like a ladder matrix: one or two nonzeros per row, the last
    row zero when size > 1, int entries beside Fractions."""
    rows = [[0] * size for _ in range(size)]
    for row in rows[:max(size - 1, 1)]:
        for t in rng.sample(range(size), min(size, rng.randint(1, 2))):
            row[t] = rng.choice((rng.choice((-2, -1, 1, 3)),
                                 Fraction(rng.randint(-2 ** bits, 2 ** bits),
                                          rng.randint(1, 2 ** bits))))
    return rows


@pytest.mark.parametrize("size", range(1, 22))
def test_transport_matches_plain_product(size, monkeypatch):
    """The integer route equals the Fraction product (D * Omega) * B, with
    2^70 denominators, a zero D and ladder-shaped sparse D, and forms
    Omega * B once per call."""
    rng = random.Random(size)
    omega = PeriodMatrix(tuple(map(tuple, _random_exact(rng, size, 70))))
    base = _random_unimodular(rng, size)
    ladder = {1: _random_exact(rng, size, 70), 2: _random_exact(rng, size, 70),
              3: [[Fraction(0)] * size for _ in range(size)],
              4: _ladder_shaped(rng, size, 70), 5: _ladder_shaped(rng, size, 70)}
    products = _count_calls(monkeypatch, "_matmul")
    out = period_transport(ladder, omega, base)
    assert len(products) == 1
    assert list(out) == list(ladder)
    for m, d in ladder.items():
        assert out[m].exact
        assert out[m].entries == tuple(map(tuple, plain_transport(d, omega.entries,
                                                                  base.matrix)))
    assert all(v == 0 for row in out[3].entries for v in row)


@pytest.mark.parametrize("name", ["cubic_curve", "sextic_curve", "two_quadrics", "quartic_k3"])
def test_transport_of_real_ladders_matches_plain_product(name):
    """On the benchmark geometries' ladders, transport of a seeded exact
    Omega and unimodular B is the Fraction product at every order."""
    *texts, order = SERIES_CASES[name]
    P, dd, basis_u = _deformation_case(*texts)
    ladder = d_ladder(dd, P, basis_u, order)
    rng = random.Random(f"transport:{name}")
    omega = PeriodMatrix(tuple(map(tuple, _random_exact(rng, P.dimension, 40))))
    base = _random_unimodular(rng, P.dimension)
    out = period_transport(ladder, omega, base)
    assert list(out) == list(range(1, order + 1))
    for m, d in ladder.items():
        assert out[m].entries == tuple(map(tuple, plain_transport(d, omega.entries,
                                                                  base.matrix)))


def test_transport_fraction_base_change_takes_the_integer_route(monkeypatch):
    rng = random.Random(5)
    omega = PeriodMatrix(tuple(map(tuple, _random_exact(rng, 4, 70))))
    base = BaseChange(tuple(map(tuple, _random_exact(rng, 4, 70))), integral=False)
    ladder = {m: _random_exact(rng, 4, 70) for m in (1, 2)}
    scaled = _count_calls(monkeypatch, "_scaled")
    out = period_transport(ladder, omega, base)
    assert scaled
    for m, d in ladder.items():
        assert out[m].entries == tuple(map(tuple, plain_transport(d, omega.entries,
                                                                  base.matrix)))


def test_transport_floats_take_the_plain_route(monkeypatch):
    rng = random.Random(6)
    size = 5
    floats = [[rng.uniform(-9, 9) for _ in range(size)] for _ in range(size)]
    exact = PeriodMatrix(tuple(map(tuple, _random_exact(rng, size, 70))))
    ladder = {m: _random_exact(rng, size, 70) for m in (1, 2)}
    cases = [(PeriodMatrix(tuple(map(tuple, floats))), _random_unimodular(rng, size)),
             (exact, BaseChange(tuple(map(tuple, floats)), integral=False))]
    scaled = _count_calls(monkeypatch, "_scaled")
    for omega, base in cases:
        out = period_transport(ladder, omega, base)
        for m, d in ladder.items():
            assert not out[m].exact
            expected = plain_transport(d, omega.entries, base.matrix)
            for got_row, want_row in zip(out[m].entries, expected):
                assert list(got_row) == pytest.approx(want_row)
    assert not scaled


def test_transport_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="finite"):
            PeriodMatrix(((bad, 1.0), (0.0, 1.0)))
        with pytest.raises(InputError, match="finite"):
            BaseChange(((bad, 1.0), (0.0, 1.0)), integral=False)


def test_base_change_unimodularity():
    with pytest.raises(InputError):
        BaseChange(((2, 0), (0, 1)))
    BaseChange(((2, 0), (0, 1)), integral=False)  # non-integral: no check
    with pytest.raises(InputError):
        BaseChange(((1, 0),))


# -- nonzero background charge series ------------------------------------------------

def _nonzero_charge_series_case(ctx, D, P, dd, basis_u, series, prefactor):
    """Check the recorded right side and the defining identity of the
    series at every recorded exponent."""
    prime = set(p - 1 for p in series.prime_indices)
    gamma_parts = {p - 1: SuperElement(ctx, {}) for p in series.prime_indices}
    for pos, i in zip(series.prime_indices, dd.nonzero_indices):
        gamma_parts[pos - 1] = \
            SuperElement.variable(ctx, i) * dd.H[i - 1]
    basis_elements = P.basis_elements()
    assert series.rhs
    assert {e for (_, e) in series.coefficients} <= set(series.rhs)
    for expo in series.rhs:
        outside = [a for a, e in enumerate(expo) if e and a not in prime]
        if len(outside) > 1 or (outside and expo[outside[0]] > 1):
            rhs = SuperElement.zero(ctx)
        else:
            rhs = prefactor if not outside else basis_u.elements[outside[0]]
            for a in prime:
                e = expo[a]
                if e:
                    rhs = rhs * gamma_parts[a] ** e
                    rhs = rhs.scale(Fraction(1, math.factorial(e)))
        assert series.rhs[expo] == rhs
        normal = SuperElement.zero(ctx)
        for rho, elem in enumerate(basis_elements):
            c = series.coefficient(rho, expo)
            if c:
                normal = normal + elem.scale(c)
        cert = series_certificate(P, series, expo)
        assert rhs - normal == apply_k(P.dwork, cert)


def test_series_positive_charge_quintic():
    ctx = VariableContext(2, 1, (5,))
    D = dwork_potential(ctx, [parse("x0^5 + x1^5 + x2^5", ctx)])
    P = build_presentation(D)
    dd = build_deformation(D, [parse("x0^5", ctx)])
    PU = build_presentation(dd.deformed)
    basis_u = u_basis(dd, P, PU)
    series = t_series(dd, P, basis_u, 2)
    # the t = 0 coefficient is reduce(h): h = x2^2 is itself a basis monomial
    zero_expo = (0,) * 12
    nonzero = {rho: series.coefficient(rho, zero_expo)
               for rho in range(12) if series.coefficient(rho, zero_expo)}
    assert list(nonzero.values()) == [Fraction(1)]
    _nonzero_charge_series_case(ctx, D, P, dd, basis_u, series, basis_u.prefactor)


def test_series_negative_charge_cubic_surface():
    ctx = VariableContext(3, 1, (3,))
    D = dwork_potential(ctx, [parse("x0^3 + x1^3 + x2^3 + x3^3", ctx)])
    P = build_presentation(D)
    dd = build_deformation(D, [parse("x0*x1*x2", ctx)])
    PU = build_presentation(dd.deformed)
    basis_u = u_basis(dd, P, PU, h=parse("x2^2", ctx))
    series = t_series(dd, P, basis_u, 2)
    _nonzero_charge_series_case(ctx, D, P, dd, basis_u, series, basis_u.prefactor)


# -- concurrency: shared immutable presentation --------------------------------------

def test_concurrent_reduce_is_pure(cubic_dwork, cubic_presentation):
    from concurrent.futures import ThreadPoolExecutor

    from dworkbox.verify import random_charge_element

    rng = random.Random(99)
    inputs = [random_charge_element(cubic_dwork, rng, 0, 0, max_weight=3)
              for _ in range(24)]
    assert sum(1 for f in inputs if not f.is_zero()) >= 20
    baseline = [cubic_presentation.reduce(f).coefficients for f in inputs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda f: cubic_presentation.reduce(f).coefficients, inputs))
    assert results == baseline


def test_two_quadrics_deformation_series(quadrics_dwork, quadrics_presentation,
                                          quadrics_deformation):
    """k = 2 deformation: values certified by the K-certificates of the
    recorded right sides.

    The deformation class y1*x0*x1 is exact modulo the undeformed kernel, so
    the series starts at quadratic order in its direction.
    """
    ctx = quadrics_dwork.ctx
    dd, pres_U, basis_u = quadrics_deformation
    assert [render_u for render_u in basis_u.elements] == [
        parse("y1*x0*x1", ctx), SuperElement.one(ctx)]
    assert quadrics_presentation.reduce(parse("y1*x0*x1", ctx)).coefficients == {}
    series = t_series(dd, quadrics_presentation, basis_u, 4)
    assert series.coefficient(0, (1, 0)) == 0
    assert series.coefficient(1, (1, 0)) == 0
    assert series.coefficient(0, (2, 0)) == Fraction(9, 8)
    assert series.coefficient(1, (2, 0)) == Fraction(13, 4)
    assert series.coefficient(0, (4, 0)) == Fraction(25, 64)
    assert series.coefficient(1, (4, 0)) == Fraction(79, 192)
    # exactness of every recorded residual
    basis_elements = quadrics_presentation.basis_elements()
    u1, u2 = basis_u.elements
    assert {e for (_, e) in series.coefficients} <= set(series.rhs)
    for expo in series.rhs:
        m1, m2 = expo
        rhs = (u1 ** m1 * u2 ** m2).scale(
            Fraction(1, math.factorial(m1) * math.factorial(m2)))
        assert series.rhs[expo] == rhs
        normal = SuperElement.zero(ctx)
        for rho, e in enumerate(basis_elements):
            c = series.coefficient(rho, expo)
            if c:
                normal = normal + e.scale(c)
        cert = series_certificate(quadrics_presentation, series, expo)
        assert rhs - normal == apply_k(quadrics_dwork, cert)
    ladder = d_matrix(series)
    assert ladder[1][0] == [Fraction(0), Fraction(0)]
    assert ladder[2][0] == [Fraction(9, 4), Fraction(13, 2)]
    assert ladder[4][0] == [Fraction(61, 16), Fraction(391, 48)]


def test_d_ladder_matches_direct_expansion_route(hesse_setup):
    """Two independent routes to the same data must agree at every order.

    Row beta of the order-M ladder evaluates derivatives of the multivariate
    series at the deformation point; the direct route cumulatively reduces
    u_beta * Gamma^j / j!.  Multinomial bookkeeping makes them equal exactly.
    """
    hesse, pres_G, pres_U, basis_u = hesse_setup
    series = t_series(hesse, pres_G, basis_u, 6)
    ladder = d_matrix(series)
    for beta, u in enumerate(basis_u.elements):
        direct = expansion_coefficients(hesse, pres_G, u, 5)
        for order in range(1, 7):
            assert list(ladder[order][beta]) == list(direct[order - 1])


def test_d_ladder_matches_direct_expansion_route_k2(quadrics_presentation,
                                                    quadrics_deformation):
    dd, pres_U, basis_u = quadrics_deformation
    series = t_series(dd, quadrics_presentation, basis_u, 4)
    ladder = d_matrix(series)
    for beta, u in enumerate(basis_u.elements):
        direct = expansion_coefficients(dd, quadrics_presentation, u, 3)
        for order in range(1, 5):
            assert list(ladder[order][beta]) == list(direct[order - 1])


# (n, degrees, G, H, h factor, order): c_G = 0, c_G = 2, c_G = -1, k = 2 and
# the trivial deformation H = 0
LADDER_CASES = {
    "cubic_curve": (2, (3,), ["x0^3 + x1^3 + x2^3"], ["x0*x1*x2"], None, 6),
    "quintic_curve": (2, (5,), ["x0^5 + x1^5 + x2^5"], ["x0^2*x1^2*x2"], None, 4),
    "cubic_surface": (3, (3,), ["x0^3 + x1^3 + x2^3 + x3^3"], ["x0*x1*x2"],
                      "x2^2", 3),
    "two_quadrics": (3, (2, 2), ["x0^2 + x1^2 + x2^2 + x3^2",
                                 "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"],
                     ["x0*x1", "0"], None, 4),
    "trivial": (2, (3,), ["x0^3 + x1^3 + x2^3"], ["0"], None, 6),
}


def _deformation_case(n, degrees, G, H, h):
    """(base presentation, deformation, u basis) of one case's texts."""
    ctx = VariableContext(n, len(degrees), degrees)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    P = build_presentation(D)
    dd = build_deformation(D, [parse(t, ctx) for t in H])
    PU = build_presentation(dd.deformed)
    return P, dd, u_basis(dd, P, PU, h=parse(h, ctx) if h else None)


@pytest.mark.parametrize("name", sorted(LADDER_CASES))
def test_d_ladder_equals_series_route(name):
    """d_ladder and d_matrix(t_series) agree exactly at every order."""
    *texts, order = LADDER_CASES[name]
    P, dd, basis_u = _deformation_case(*texts)
    ladder = d_ladder(dd, P, basis_u, order)
    assert set(ladder) == set(range(1, order + 1))
    assert ladder == d_matrix(t_series(dd, P, basis_u, order))
    if not dd.nonzero_indices:
        identity = [[Fraction(int(i == j)) for j in range(P.dimension)]
                    for i in range(P.dimension)]
        assert all(matrix == identity for matrix in ladder.values())


# -- the paper's Bell formula as the oracle of the D ladder -----------------------

# LADDER_CASES and the genus-4 curve (c_G = 1, so u_basis takes an h
# factor) deformed in both equations, so that G + H is not diagonal
BELL_CASES = {
    **LADDER_CASES,
    "genus_four_curve": (3, (2, 3), ["x0^2 + x1^2 + x2^2 + x3^2",
                                     "x0^3 + x1^3 + x2^3 + x3^3"],
                         ["x0*x1", "x1*x2*x3"], None, 4),
}


def _position_functionals(P):
    """f_rho = e_rho* . reduce for each basis position rho, as cochain
    functionals sharing one memo of reductions."""
    memo = {}

    def coefficients(x):
        found = memo.get(x)
        if found is None:
            found = memo[x] = P.reduce(x).coefficients
        return found

    return [LinearFunctional(lambda x, rho=rho: coefficients(x).get(rho, Fraction(0)),
                             cochain=True, name=f"e_{rho}* . reduce")
            for rho in range(P.dimension)]


@pytest.mark.parametrize("name", list(BELL_CASES))
def test_bell_expansion_is_the_d_ladder(name):
    """The paper's formula: D[beta][rho] at order M is the Bell expansion
    of f_rho = e_rho* . reduce at u_beta to order M - 1, at every order, and
    both ladders transport one seeded exact Omega and unimodular B alike."""
    *texts, order = BELL_CASES[name]
    P, dd, basis_u = _deformation_case(*texts)
    ladder = d_ladder(dd, P, basis_u, order)
    functionals = _position_functionals(P)
    rows = []
    for u in basis_u.elements:
        sums = [bell_expansion(f, dd.gamma, u, order - 1) for f in functionals]
        rows.append(list(zip(*sums)))
    bell_ladder = {m: [list(row[m - 1]) for row in rows] for m in range(1, order + 1)}
    assert bell_ladder == ladder
    rng = random.Random(f"bell:{name}")
    omega = PeriodMatrix(tuple(map(tuple, _random_exact(rng, P.dimension, 40))))
    base = _random_unimodular(rng, P.dimension)
    assert period_transport(bell_ladder, omega, base) == period_transport(ladder, omega, base)


# -- the memoised T series against the unmemoised route --------------------------

# (n, degrees, G, H, h factor, order): the four benchmark geometries, c_G = 2
# and c_G = -1 as in the tests above, k = 2 with both H_i nonzero at c_G = 1,
# and H with several terms at c_G = 0, 2 and -1, so that a value's terms are
# reduced apart and summed, each over its own memo denominator
SERIES_CASES = {
    "cubic_curve": LADDER_CASES["cubic_curve"],
    "sextic_curve": (2, (6,), ["x0^6 + x1^6 + x2^6"], ["x0^2*x1^2*x2^2"], None, 6),
    "two_quadrics": LADDER_CASES["two_quadrics"][:-1] + (3,),
    "quartic_k3": (3, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"], ["x0*x1*x2*x3"], None, 3),
    "quintic_curve": (2, (5,), ["x0^5 + x1^5 + x2^5"], ["x0^5"], None, 2),
    "cubic_surface": LADDER_CASES["cubic_surface"][:-1] + (2,),
    "cubic_several_terms": (2, (3,), ["x0^3 + x1^3 + x2^3"],
                            ["x0*x1*x2 + 2*x0^2*x1 - 1/3*x2^3"], None, 5),
    "quintic_several_terms": (2, (5,), ["x0^5 + x1^5 + x2^5"],
                              ["x0^2*x1^2*x2 - 3/2*x0*x1^4"], None, 3),
    "genus4_both_H": BELL_CASES["genus_four_curve"][:3] + (["x0*x1", "x0*x1*x2"], None, 3),
    "cubic_surface_several_terms": LADDER_CASES["cubic_surface"][:3] + (
        ["x0*x1*x2 + 2*x1*x2*x3 - 1/3*x0^3"], "x2^2", 2),
    "genus4_several_terms": BELL_CASES["genus_four_curve"][:3] + (
        ["x0*x1 + x2*x3", "x0*x1*x2 - x2^2*x3"], "x2 + 2*x3", 3),
}


@pytest.fixture(scope="module")
def series_case():
    """(presentation, deformation, u basis, order) of a SERIES_CASES name,
    each built once per module."""
    built = {}

    def get(name):
        if name not in built:
            *texts, order = SERIES_CASES[name]
            built[name] = _deformation_case(*texts) + (order,)
        return built[name]
    return get


@pytest.mark.parametrize("name", list(SERIES_CASES))
def test_t_series_equals_the_unmemoised_route(series_case, name):
    """Reducing each distinct monomial once and summing the scaled results
    gives the coefficients (in the same dict order) of reducing each
    t-coefficient whole; the recorded right sides are the t-coefficients,
    in order, each with the key order of its element products, and the
    certificate of reducing each settles its value:
    K(certificate) + sum c_rho e_rho == value."""
    P, dd, basis_u, order = series_case(name)
    series = t_series(dd, P, basis_u, order)
    plain = plain_t_series(dd, P, basis_u, order)
    assert list(series.coefficients.items()) == list(plain.coefficients.items())
    values = list(t_series_values(dd, basis_u, P.dimension, order))
    assert list(series.rhs.items()) == values
    assert [(expo, list(value._num)) for expo, value in series.rhs.items()] == list(
        t_series_key_orders(dd, basis_u, P.dimension, order))
    basis = P.basis_elements()
    zero = SuperElement.zero(P.dwork.ctx)
    several = False
    for expo, value in values:
        several |= len(value.terms) > 1
        normal = zero
        for rho, e in enumerate(basis):
            normal = normal + e.scale(series.coefficient(rho, expo))
        assert apply_k(P.dwork, series_certificate(P, series, expo)) + normal == value
    assert several == name.endswith("several_terms")


class _PoisonedCertificate:
    """A certificate that raises on any use."""

    def _used(self, *args):
        raise AssertionError("t_series used a reduction certificate")

    __getattr__ = __bool__ = __eq__ = __hash__ = _used
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _used


@pytest.mark.parametrize("name", ["cubic_curve", "sextic_curve", "two_quadrics", "quartic_k3",
                                  "genus4_both_H", "cubic_surface_several_terms"])
def test_t_series_never_reads_a_certificate(series_case, monkeypatch, name):
    """`reduce` is the one producer of certificates and t_series reads none:
    with every certificate poisoned, it still gives the coefficients and
    right sides of the unmemoised route, in order."""
    P, dd, basis_u, order = series_case(name)
    plain = plain_t_series(dd, P, basis_u, order)
    original = QuotientPresentation.reduce

    def poisoned(pres, f):
        return dataclasses.replace(original(pres, f), certificate=_PoisonedCertificate())

    monkeypatch.setattr(QuotientPresentation, "reduce", poisoned)
    with pytest.raises(AssertionError, match="used a reduction certificate"):
        P.reduce(SuperElement.one(P.dwork.ctx)).certificate.is_zero()
    series = t_series(dd, P, basis_u, order)
    assert list(series.coefficients.items()) == list(plain.coefficients.items())
    assert list(series.rhs.items()) == list(plain.rhs.items())


def test_t_series_memo_lives_for_one_call(series_case, monkeypatch):
    """On the K3 at order 3 the 2023 t-coefficients are scaled monomials
    over 441 distinct ones: t_series reduces each once, and again on a
    second call, so no memo outlives a call, and the presentation gains or
    loses no attribute."""
    P, dd, basis_u, order = series_case("quartic_k3")
    original = QuotientPresentation.reduce
    inputs = []

    def spy(pres, f):
        inputs.append(f)
        return original(pres, f)

    monkeypatch.setattr(QuotientPresentation, "reduce", spy)
    attributes = set(vars(P))
    counts = []
    for route in (t_series, t_series, plain_t_series):
        inputs.clear()
        route(dd, P, basis_u, order)
        counts.append(len(inputs))
        assert set(vars(P)) == attributes
    assert counts == [441, 441, 2023]


def _spied_products(monkeypatch):
    """Counts of the SuperElement.__mul__ and .scale calls made from now on."""
    calls = {"__mul__": 0, "scale": 0}
    for name in calls:
        original = getattr(SuperElement, name)

        def spy(self, other, name=name, original=original):
            calls[name] += 1
            return original(self, other)
        monkeypatch.setattr(SuperElement, name, spy)
    return calls


@pytest.mark.parametrize("name", [name for name, case in SERIES_CASES.items()
                                  if sum(case[1]) != case[0] + 1])
def test_t_series_multiplies_elements_only_for_gamma(series_case, monkeypatch, name):
    """t_series expands on int numerators through the product kernel: at
    c_G != 0 the only element products are the |I'| parts y_i H_i of Gamma,
    and no element is scaled."""
    P, dd, basis_u, order = series_case(name)
    calls = _spied_products(monkeypatch)
    series = t_series(dd, P, basis_u, order)
    assert calls == {"__mul__": len(dd.nonzero_indices), "scale": 0}
    assert len(series.rhs) > calls["__mul__"]


def test_t_series_makes_no_element_product_on_the_k3(series_case, monkeypatch):
    """On the K3 at order 3 (c_G = 0) t_series calls neither
    SuperElement.__mul__ nor .scale over its 2023 exponents; the 441
    reductions of distinct monomials make none either."""
    P, dd, basis_u, order = series_case("quartic_k3")
    calls = _spied_products(monkeypatch)
    series = t_series(dd, P, basis_u, order)
    assert calls == {"__mul__": 0, "scale": 0}
    assert len(series.rhs) == 2023


def test_d_ladder_rejects_bad_order(hesse_setup):
    hesse, pres_G, _, basis_u = hesse_setup
    with pytest.raises(InputError, match="truncation order must be >= 1"):
        d_ladder(hesse, pres_G, basis_u, 0)


def test_u_basis_rejects_malformed_h():
    ctx = VariableContext(2, 1, (5,))
    D = dwork_potential(ctx, [parse("x0^5 + x1^5 + x2^5", ctx)])
    P = build_presentation(D)
    dd = build_deformation(D, [parse("x0^5", ctx)])
    PU = build_presentation(dd.deformed)
    with pytest.raises(InputError):
        u_basis(dd, P, PU, h=parse("x0", ctx))  # degree 1, needs 2
    with pytest.raises(InputError):
        u_basis(dd, P, PU, h=parse("y1*x0^2", ctx))  # y variable
    with pytest.raises(InputError):
        u_basis(dd, P, PU, h=parse("0", ctx))


def test_u_basis_rejects_overrides_the_charge_does_not_use(hesse_setup):
    """h enters only at nonzero background charge and y_choice only at
    negative charge; an unused override is an error, not silently dropped."""
    hesse, P, PU, _ = hesse_setup
    ctx = P.dwork.ctx
    with pytest.raises(InputError, match="h override"):
        u_basis(hesse, P, PU, h=parse("x0^7 + x1", ctx))
    with pytest.raises(InputError, match=r"y power override \(1, 3\)"):
        u_basis(hesse, P, PU, y_choice=(1, 3))
    ctx = VariableContext(2, 1, (5,))  # c_G = 2
    D = dwork_potential(ctx, [parse("x0^5 + x1^5 + x2^5", ctx)])
    dd = build_deformation(D, [parse("x0^5", ctx)])
    P5 = build_presentation(D)
    with pytest.raises(InputError, match=r"y power override \(1, 1\)"):
        u_basis(dd, P5, build_presentation(dd.deformed), y_choice=(1, 1))
