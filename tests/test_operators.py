"""Differentials, brackets, descendants and Bell polynomials.

Derived expected values are computed through independent oracles: direct
symbolic expansion of the defining formulas for the differentials, the
partition expansion for phi_3, and truncated exponential series for the Bell
recurrences.
"""

import gc
import math
import random
from fractions import Fraction

import pytest

from dworkbox import (
    InputError,
    LinearFunctional,
    SuperElement,
    VariableContext,
    apply_delta,
    apply_k,
    apply_q,
    bell_complete,
    bell_partial,
    dwork_potential,
    ell2,
    ell_n,
    exp_identity_lhs,
    exp_identity_rhs,
    grade,
    k_gamma,
    parse,
    phi_n,
)
from dworkbox.errors import ContextMismatchError
from dworkbox.superalgebra import partial_eta, partial_q
from dworkbox.verify import random_charge_element, random_element, random_homogeneous
from tests.oracles import (
    frac_apply_delta,
    frac_apply_k,
    frac_apply_q,
    phi_n_by_definition,
    tower_exp_identity_rhs,
)


def oracle_delta(a):
    """Direct expansion of sum_i d/dq_i d/deta_i, term by term."""
    ctx = a.ctx
    out = SuperElement.zero(ctx)
    for i in range(1, ctx.nvars + 1):
        out = out + partial_q(i, partial_eta(i, a))
    return out


def oracle_q(D, a):
    ctx = a.ctx
    out = SuperElement.zero(ctx)
    for i in range(1, ctx.nvars + 1):
        out = out + partial_q(i, D.S) * partial_eta(i, a)
    return out


# -- potential construction ---------------------------------------------------

def test_dwork_potential_single(cubic_ctx):
    D = dwork_potential(cubic_ctx, [parse("x0^3 + x1^3 + x2^3", cubic_ctx)])
    assert D.S == parse("y1*x0^3 + y1*x1^3 + y1*x2^3", cubic_ctx)
    # gradient table rows: dS/dy1 = G, dS/dx_j = 3 y1 x_j^2
    grad = [SuperElement(cubic_ctx, {cubic_ctx.unpack(key): Fraction(v, D.grad_den)
                                     for key, v in row})
            for row in D.grad_num]
    assert grad[0] == parse("x0^3 + x1^3 + x2^3", cubic_ctx)
    assert grad[1] == parse("3*y1*x0^2", cubic_ctx)
    assert grad == [partial_q(i, D.S) for i in range(1, cubic_ctx.nvars + 1)]


def test_dwork_potential_two_blocks():
    ctx = VariableContext(3, 2, (2, 2))
    D = dwork_potential(ctx, [parse("x0^2 + x1^2", ctx), parse("x2^2 + x3^2", ctx)])
    assert D.S == parse("y1*x0^2 + y1*x1^2 + y2*x2^2 + y2*x3^2", ctx)


def test_dwork_potential_rejects_bad_input(cubic_ctx):
    with pytest.raises(InputError):
        dwork_potential(cubic_ctx, [parse("y1*x0^3", cubic_ctx)])
    with pytest.raises(InputError):
        dwork_potential(cubic_ctx, [parse("x0^2", cubic_ctx)])
    with pytest.raises(InputError):
        dwork_potential(cubic_ctx, [parse("x0^3 + x1^2", cubic_ctx)])
    with pytest.raises(InputError):
        dwork_potential(cubic_ctx, [parse("0", cubic_ctx)])


# -- differentials -------------------------------------------------------------

def test_delta_examples(cubic_ctx):
    assert apply_delta(parse("y1*e1", cubic_ctx)) == SuperElement.one(cubic_ctx)
    assert apply_delta(parse("x0^3", cubic_ctx)).is_zero()
    assert apply_delta(parse("x0*e2", cubic_ctx)) == SuperElement.one(cubic_ctx)


def test_q_examples(cubic_dwork):
    ctx = cubic_dwork.ctx
    assert apply_q(cubic_dwork, parse("x0*e2", ctx)) == parse("3*y1*x0^3", ctx)
    assert apply_q(cubic_dwork, parse("y1^2*x0*x1", ctx)).is_zero()
    assert apply_q(cubic_dwork, parse("e1", ctx)) == parse("x0^3 + x1^3 + x2^3", ctx)


def test_k_examples(cubic_dwork):
    ctx = cubic_dwork.ctx
    assert apply_k(cubic_dwork, parse("1/3*x0*e2", ctx)) == parse("1/3 + y1*x0^3", ctx)
    assert apply_k(cubic_dwork, parse("5", ctx)).is_zero()


def test_differentials_against_direct_expansion(cubic_dwork):
    rng = random.Random(50)
    ctx = cubic_dwork.ctx
    for _ in range(150):
        a = random_element(ctx, rng)
        assert apply_delta(a) == oracle_delta(a)
        assert apply_q(cubic_dwork, a) == oracle_q(cubic_dwork, a)
        assert apply_k(cubic_dwork, a) == oracle_delta(a) + oracle_q(cubic_dwork, a)


# the two extra geometries are conftest fixtures under these test ids
EXTRA_DWORK = {"grevlex K3": "grevlex_k3_dwork", "fractional cubic": "fractional_cubic_dwork"}


@pytest.mark.parametrize("geometry", ["cubic_dwork", "quartic_dwork", "quadrics_dwork",
                                      "grevlex K3", "fractional cubic"])
def test_one_pass_k_matches_q_plus_delta(geometry, request):
    """apply_k, apply_q and apply_delta share one kernel, so each is checked
    against its own Fraction reference as well as K against Q + delta, also
    when the gradient denominators are not 1."""
    D = request.getfixturevalue(EXTRA_DWORK.get(geometry, geometry))
    ctx, S = D.ctx, D.S.terms
    if geometry == "fractional cubic":
        assert max(partial_q(i, D.S)._den for i in range(1, ctx.nvars + 1)) == 6
    rng = random.Random(53)
    c_G = ctx.background_charge()
    for _ in range(40):
        a = random_element(ctx, rng, max_eta=3)
        b = random_charge_element(D, rng, c_G + rng.randint(-1, 1), -rng.randint(1, 2))
        for x in (a, b, a * b):
            image, q_image, delta_image = apply_k(D, x), apply_q(D, x), apply_delta(x)
            assert image == q_image + delta_image
            assert image.terms == frac_apply_k(S, ctx.nvars, x.terms)
            assert q_image.terms == frac_apply_q(S, ctx.nvars, x.terms)
            assert delta_image.terms == frac_apply_delta(ctx.nvars, x.terms)
            for y in (image, q_image, delta_image):
                assert math.gcd(y._den, *y._num.values()) == 1


def test_one_pass_k_rejects_another_context(cubic_dwork, quadrics_dwork):
    with pytest.raises(ContextMismatchError):
        apply_k(cubic_dwork, SuperElement.eta(quadrics_dwork.ctx, 1))


def test_squares_and_anticommutator(cubic_dwork, quadrics_dwork):
    rng = random.Random(51)
    for D in (cubic_dwork, quadrics_dwork):
        for _ in range(100):
            a = random_element(D.ctx, rng)
            assert apply_delta(apply_delta(a)).is_zero()
            assert apply_q(D, apply_q(D, a)).is_zero()
            assert apply_k(D, apply_k(D, a)).is_zero()
            assert (apply_delta(apply_q(D, a)) + apply_q(D, apply_delta(a))).is_zero()


def test_delta_weight_drop(cubic_dwork):
    rng = random.Random(52)
    ctx = cubic_dwork.ctx
    for _ in range(80):
        a = random_element(ctx, rng)
        for _, w, _, part in grade(a):
            image = apply_delta(part)
            assert {wt for _, wt, _, _ in grade(image)} <= {w - 1}
            q_image = apply_q(cubic_dwork, part)
            assert {wt for _, wt, _, _ in grade(q_image)} <= {w}


# -- the bracket ----------------------------------------------------------------

def test_ell2_examples(cubic_dwork):
    ctx = cubic_dwork.ctx
    # K(x0 eta_x0) = 1 + 3 y1 x0^3, K(eta_x0) x0 = 3 y1 x0^3
    assert ell2(cubic_dwork, parse("e2", ctx), parse("x0", ctx)) == SuperElement.one(ctx)
    assert ell2(cubic_dwork, parse("x0^2", ctx), parse("y1*x1", ctx)).is_zero()


def test_ell2_definition_expansion(cubic_dwork):
    rng = random.Random(53)
    ctx = cubic_dwork.ctx
    for _ in range(120):
        a = random_homogeneous(ctx, rng)
        b = random_element(ctx, rng)
        sign = -1 if a.homogeneous_degree() % 2 else 1
        expected = (apply_k(cubic_dwork, a * b)
                    - apply_k(cubic_dwork, a) * b
                    - (a * apply_k(cubic_dwork, b)).scale(sign))
        assert ell2(cubic_dwork, a, b) == expected


def test_ell2_charge_scaling(cubic_dwork):
    # l2(R, f) = charge(f) * f for charge-homogeneous f
    from dworkbox import charge_generator

    ctx = cubic_dwork.ctx
    R = charge_generator(cubic_dwork)
    for text, lam in (("x0", 1), ("y1", -3), ("y1*x0*x1", -1), ("x0*x1*x2", 3)):
        f = parse(text, ctx)
        assert ell2(cubic_dwork, R, f) == f.scale(lam)


def test_ell_n_base_and_pair_agree(cubic_dwork):
    rng = random.Random(54)
    ctx = cubic_dwork.ctx
    for _ in range(60):
        a = random_homogeneous(ctx, rng)
        b = random_homogeneous(ctx, rng)
        assert ell_n(cubic_dwork, [a]) == apply_k(cubic_dwork, a)
        assert ell_n(cubic_dwork, [a, b]) == ell2(cubic_dwork, a, b)


def test_ell_3_and_above_vanish(cubic_dwork, quadrics_dwork):
    rng = random.Random(55)
    for D in (cubic_dwork, quadrics_dwork):
        for _ in range(40):
            args = [random_homogeneous(D.ctx, rng) for _ in range(3)]
            assert ell_n(D, args).is_zero()
        args4 = [random_homogeneous(D.ctx, rng) for _ in range(4)]
        assert ell_n(D, args4).is_zero()
    with pytest.raises(InputError):
        ell_n(cubic_dwork, [])


def test_ell3_vanishes_on_degree_zero(cubic_dwork):
    ctx = cubic_dwork.ctx
    args = [parse("y1*x0^3", ctx), parse("x0*x1*x2*y1", ctx), parse("y1*x2^3", ctx)]
    assert ell_n(cubic_dwork, args).is_zero()


# -- descendant maps -------------------------------------------------------------

def _sum_functional(ctx):
    """f = sum of coefficients of the eta-free part; linear, degree-0 only."""

    def evaluate(a):
        return sum((c for m, c in a.terms.items() if not m.eta), Fraction(0))

    return LinearFunctional(evaluate, cochain=False, name="coeff-sum")


def test_phi_1_and_2(cubic_dwork):
    ctx = cubic_dwork.ctx
    f = _sum_functional(ctx)
    rng = random.Random(56)
    for _ in range(60):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        assert phi_n(f, [a]) == f(a)
        assert phi_n(f, [a, b]) == f(a * b) - f(a) * f(b)


def test_phi_3_partition_expansion(cubic_dwork):
    ctx = cubic_dwork.ctx
    f = _sum_functional(ctx)
    rng = random.Random(57)
    for _ in range(40):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        expected = (f(a * b * c)
                    - f(a) * f(b * c)
                    - f(b) * f(a * c)
                    - f(a * b) * f(c)
                    + 2 * f(a) * f(b) * f(c))
        assert phi_n(f, [a, b, c]) == expected


def test_phi_n_matches_its_definition(cubic_dwork, cubic_presentation):
    """phi_n equals the memo-free recursion for n = 1..5 on seeded cubic
    elements with odd parts, under an ad-hoc functional that keeps its memo
    across draws, and on the shapes bell_expansion evaluates,
    (Gamma,)*k + (u,) for k = 0..5, under a reduction functional."""
    from dworkbox import reduction_functional

    ctx = cubic_dwork.ctx
    f = _sum_functional(ctx)
    rng = random.Random(91)
    for n in range(1, 6):
        for _ in range(3):
            args = [random_element(ctx, rng, max_eta=3, max_weight=1, max_xdeg=2)
                    for _ in range(n)]
            assert any(m.eta for a in args for m in a.terms)
            assert phi_n(f, args) == phi_n_by_definition(f, args)
    gamma = parse("y1*x0*x1*x2", ctx)
    g = reduction_functional(cubic_presentation, (Fraction(2, 3), Fraction(-5)))
    for u in cubic_presentation.basis_elements():
        for k in range(6):
            args = (gamma,) * k + (u,)
            assert phi_n(g, args) == phi_n_by_definition(g, args)


def test_phi_n_is_memoized_on_the_functional(cubic_presentation):
    """The functional owns the memo: a repeated phi_n calls it no more, and
    a second bell_expansion on it calls it less than the first, because the
    phi_j(Gamma..Gamma) are shared; the values stay those of fresh
    functionals."""
    from dworkbox import bell_expansion, reduction_functional

    ctx = cubic_presentation.dwork.ctx
    gamma = parse("y1*x0*x1*x2", ctx)
    row = (Fraction(1, 2), Fraction(-3))
    reduce_row = reduction_functional(cubic_presentation, row)
    calls = []

    def counted(a):
        calls.append(a)
        return reduce_row(a)

    f = LinearFunctional(counted, cochain=True)
    u0, u1 = cubic_presentation.basis_elements()
    args = (gamma, gamma, u0)
    value = phi_n(f, args)
    before = len(calls)
    assert phi_n(f, args) == value and len(calls) == before
    made = []
    for u in (u0, u1):
        start = len(calls)
        sums = bell_expansion(f, gamma, u, 5)
        made.append(len(calls) - start)
        fresh = reduction_functional(cubic_presentation, row)
        assert sums == bell_expansion(fresh, gamma, u, 5)
    assert made[1] < made[0]


def test_phi_rejects_empty(cubic_dwork):
    f = _sum_functional(cubic_dwork.ctx)
    with pytest.raises(InputError):
        phi_n(f, [])


# -- Bell polynomials -------------------------------------------------------------

def test_bell_small_values():
    x = [Fraction(v) for v in (2, 5, 7, 11)]
    assert bell_complete(0, []) == 1
    assert bell_complete(1, x[:1]) == x[0]
    assert bell_complete(2, x[:2]) == x[0] ** 2 + x[1]
    assert bell_complete(3, x[:3]) == x[0] ** 3 + 3 * x[0] * x[1] + x[2]


def test_bell_partial_boundaries():
    assert bell_partial(0, 0, []) == 1
    for n in range(1, 7):
        assert bell_partial(n, 0, [1] * n) == 0
    with pytest.raises(InputError):
        bell_partial(2, 3, [1, 1])


def test_bell_partial_sums_to_complete():
    rng = random.Random(58)
    for n in range(1, 7):
        xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        total = sum(bell_partial(n, j, xs) for j in range(1, n + 1))
        assert total == bell_complete(n, xs)


def test_bell_partial_leaves_no_cyclic_garbage():
    """A call frees its table by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        assert bell_partial(5, 2, [1, 2, 3, 4]) == 5 * 1 * 4 + 10 * 2 * 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def _series_exp(coeffs, order):
    """Truncated exp of sum x_i t^i / i! as a coefficient list, the oracle."""
    p = [Fraction(0)] * (order + 1)
    for i, x in enumerate(coeffs, start=1):
        if i <= order:
            p[i] = Fraction(x, math.factorial(i))
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for j in range(1, order + 1):
        nxt = [Fraction(0)] * (order + 1)
        for a, ca in enumerate(power):
            if ca == 0:
                continue
            for b in range(1, order + 1 - a):
                if p[b]:
                    nxt[a + b] += ca * p[b]
        power = nxt
        for m in range(order + 1):
            out[m] += power[m] / math.factorial(j)
    return out


def test_bell_matches_generating_function_to_order_8():
    rng = random.Random(59)
    xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
    series = _series_exp(xs, 8)
    for n in range(0, 9):
        assert bell_complete(n, xs[:n]) == series[n] * math.factorial(n)


def test_partial_bell_matches_bivariate_expansion():
    rng = random.Random(60)
    xs = [Fraction(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(8)]
    order = 8
    # exp(u P(t)) = sum_k u^k P(t)^k / k!; collect t^n coefficients per k
    p = [Fraction(0)] * (order + 1)
    for i, x in enumerate(xs, start=1):
        if i <= order:
            p[i] = Fraction(x, math.factorial(i))
    power = [Fraction(1)] + [Fraction(0)] * order
    for k in range(0, order + 1):
        if k:
            nxt = [Fraction(0)] * (order + 1)
            for a, ca in enumerate(power):
                if ca == 0:
                    continue
                for b in range(1, order + 1 - a):
                    if p[b]:
                        nxt[a + b] += ca * p[b]
            power = nxt
        for n in range(k, order + 1):
            expected = power[n] / math.factorial(k) * math.factorial(n)
            assert bell_partial(n, k, xs[:max(n - k + 1, 0)]) == expected


# -- exponential identities -------------------------------------------------------

def test_exp_identity_eta_free_gamma(cubic_dwork):
    """With an eta-free Gamma and an lam whose bracket with it is nonzero,
    both sides agree and neither is zero."""
    ctx = cubic_dwork.ctx
    gamma = parse("y1*x0*x1*x2", ctx)
    lam = parse("y1*x0^2*e2 - 2*x1*e1*e3", ctx)
    assert not ell2(cubic_dwork, gamma, lam).is_zero()
    for order in range(1, 6):
        lhs = exp_identity_lhs(cubic_dwork, gamma, lam, order)
        assert not lhs.is_zero()
        assert lhs == exp_identity_rhs(cubic_dwork, gamma, lam, order)


def test_exp_identity_order_one_is_k(cubic_dwork):
    """At order 1 the left side is K(lam) + K(lam Gamma) and the right side
    is K_Gamma(lam) + K(lam) Gamma."""
    rng = random.Random(61)
    ctx = cubic_dwork.ctx
    gamma = random_element(ctx, rng, homogeneous_degree=0)
    lam = random_element(ctx, rng, homogeneous_degree=1)
    assert exp_identity_lhs(cubic_dwork, gamma, lam, 1) == \
        apply_k(cubic_dwork, lam) + apply_k(cubic_dwork, lam * gamma)
    assert exp_identity_rhs(cubic_dwork, gamma, lam, 1) == \
        k_gamma(cubic_dwork, gamma, lam) + apply_k(cubic_dwork, lam) * gamma


def test_exp_identities_random_gamma(cubic_dwork):
    rng = random.Random(62)
    ctx = cubic_dwork.ctx
    for _ in range(8):
        gamma = random_element(ctx, rng, homogeneous_degree=0, terms=2, max_xdeg=2)
        lam = random_homogeneous(ctx, rng, terms=2, max_xdeg=2)
        for order in range(1, 6):
            assert exp_identity_lhs(cubic_dwork, gamma, lam, order) == \
                exp_identity_rhs(cubic_dwork, gamma, lam, order)


@pytest.mark.parametrize("name", ["cubic_dwork", "quartic_dwork", "quadrics_dwork"])
def test_exp_identity_rhs_matches_the_tower_form(name, request):
    """The closed form K_Gamma(lam) e^Gamma of the right side equals its
    descendant-tower form, `tests/oracles.tower_exp_identity_rhs`, on seeded
    draws: orders 1..5, lam of eta degree 1 and 2, 180 comparisons per
    geometry, most of them nonzero."""
    D = request.getfixturevalue(name)
    ctx = D.ctx
    rng = random.Random(f"exp-rhs:{name}")
    nonzero = 0
    for eta_degree in (1, 2):
        for _ in range(18):
            gamma = random_element(ctx, rng, homogeneous_degree=0, terms=2, max_xdeg=2)
            lam = random_element(ctx, rng, homogeneous_degree=eta_degree, terms=2,
                                 max_xdeg=2)
            for order in range(1, 6):
                rhs = exp_identity_rhs(D, gamma, lam, order)
                assert rhs == tower_exp_identity_rhs(D, gamma, lam, order)
                nonzero += not rhs.is_zero()
    assert nonzero > 150


def test_exp_identity_rejects_bad_order(cubic_dwork):
    gamma = parse("y1*x0*x1*x2", cubic_dwork.ctx)
    lam = SuperElement.eta(cubic_dwork.ctx, 1)
    with pytest.raises(InputError):
        exp_identity_lhs(cubic_dwork, gamma, lam, 0)
    with pytest.raises(InputError):
        exp_identity_rhs(cubic_dwork, gamma, lam, 0)


def test_functional_exponential_identities(cubic_dwork, cubic_presentation):
    """Scalar analogues of the exponential identities, per Gamma-order.

    f(Gamma^m) = B_m(phi_1(Gamma), .., phi_m(Gamma..Gamma)) and
    f(lam Gamma^m)/m! = sum_{r+s=m} (Phi_Gamma lam)_r [e^Phi]_s, both for
    every order <= 5; the descendant recursion is the only thing on trial.
    """
    from dworkbox import reduction_functional

    ctx = cubic_dwork.ctx
    rng = random.Random(63)
    gamma = parse("y1*x0*x1*x2", ctx)
    for _ in range(6):
        row = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
        f = reduction_functional(cubic_presentation, row)
        phis = [None] + [phi_n(f, (gamma,) * m) for m in range(1, 6)]
        for m in range(1, 6):
            direct = f(gamma ** m)
            assert direct == bell_complete(m, phis[1:m + 1])
        lam = parse("y1*x0^3", ctx)
        # [e^Phi]_s = B_s(phi_1..phi_s)/s!, (Phi_Gamma lam)_r = phi_{r+1}/r!
        exp_parts = [Fraction(1)] + [
            bell_complete(s, phis[1:s + 1]) / math.factorial(s) for s in range(1, 6)]
        for m in range(0, 6):
            lhs = f(lam * gamma ** m) / math.factorial(m)
            rhs = Fraction(0)
            for r in range(0, m + 1):
                part = f(lam) if r == 0 else \
                    phi_n(f, (gamma,) * r + (lam,)) / math.factorial(r)
                rhs += part * exp_parts[m - r]
            assert lhs == rhs
