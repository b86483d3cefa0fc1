"""Core algebra: products, odd signs, derivatives, gradings.

The sign oracle used below is independent of the library's merge-based
implementation: it represents eta words as explicit lists and sorts them by
adjacent transpositions, counting swaps.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from dworkbox import (
    ContextMismatchError,
    InputError,
    SuperElement,
    SuperMonomial,
    VariableContext,
    apply_delta,
    apply_k,
    apply_q,
    grade,
    partial_eta,
    partial_q,
    parse,
)
from dworkbox.superalgebra import monomial_charge, monomial_sort_key, monomial_weight
from dworkbox.verify import random_element, random_homogeneous
from tests.oracles import (
    frac_add,
    frac_apply_delta,
    frac_apply_k,
    frac_apply_q,
    frac_mul,
    frac_partial_eta,
    frac_partial_q,
    table_charge,
    table_weight,
)


def bubble_sign(word):
    """Sort an eta word by adjacent swaps; None if an index repeats."""
    word = list(word)
    sign = 1
    for i in range(len(word)):
        for j in range(len(word) - 1 - i):
            if word[j] == word[j + 1]:
                return None, None
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
    if len(set(word)) != len(word):
        return None, None
    return sign, tuple(word)


def oracle_product(a: SuperElement, b: SuperElement) -> SuperElement:
    acc = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            sign, eta = bubble_sign(list(ma.eta) + list(mb.eta))
            if sign is None:
                continue
            qexp = tuple(x + y for x, y in zip(ma.qexp, mb.qexp))
            mono = SuperMonomial(qexp, eta)
            acc[mono] = acc.get(mono, Fraction(0)) + sign * ca * cb
    return SuperElement(a.ctx, acc)


@pytest.fixture
def ctx():
    return VariableContext(2, 1, (3,))


def test_eta_sign_rule(ctx):
    e1, e2 = SuperElement.eta(ctx, 1), SuperElement.eta(ctx, 2)
    assert e1 * e2 == parse("e1*e2", ctx)
    assert e2 * e1 == -parse("e1*e2", ctx)
    assert (e1 * e1).is_zero()


def test_mixed_product_sign(ctx):
    a = parse("y1*e1", ctx)
    b = parse("x0*e2", ctx)
    expected = parse("y1*x0*e1*e2", ctx)
    assert a * b == expected
    assert a * b == oracle_product(a, b)


def test_product_against_sign_oracle_random(ctx):
    rng = random.Random(40)
    for _ in range(150):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        assert a * b == oracle_product(a, b)


def test_super_commutativity_random(ctx):
    rng = random.Random(41)
    for _ in range(200):
        a = random_homogeneous(ctx, rng)
        b = random_homogeneous(ctx, rng)
        sign = -1 if (a.homogeneous_degree() * b.homogeneous_degree()) % 2 else 1
        assert a * b == (b * a).scale(sign)


def test_associativity_and_bilinearity_random(ctx):
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert (a.scale(s) + b) * c == (a * c).scale(s) + b * c


def test_gradings_additive_under_product(ctx):
    rng = random.Random(43)
    hits = 0
    for _ in range(300):
        a = random_element(ctx, rng, terms=1)
        b = random_element(ctx, rng, terms=1)
        prod = a * b
        if prod.is_zero() or a.is_zero() or b.is_zero():
            continue
        (ca, wa, da, _), = grade(a)
        (cb, wb, db, _), = grade(b)
        (cp, wp, dp, _), = grade(prod)
        assert (cp, wp, dp) == (ca + cb, wa + wb, da + db)
        hits += 1
    assert hits > 150


def test_partial_q_basics(ctx):
    assert partial_q(2, parse("x0^3", ctx)) == parse("3*x0^2", ctx)
    assert partial_q(1, parse("y1*x0*e1", ctx)) == parse("x0*e1", ctx)
    assert partial_q(3, parse("y1*x0^3", ctx)).is_zero()
    with pytest.raises(InputError):
        partial_q(5, parse("x0", ctx))


def test_partial_eta_signs(ctx):
    e12 = parse("e1*e2", ctx)
    assert partial_eta(1, e12) == parse("e2", ctx)
    assert partial_eta(2, e12) == -parse("e1", ctx)
    assert partial_eta(3, e12).is_zero()
    # position sign via the independent transposition count: moving eta_i to
    # the front of the word costs (position - 1) swaps
    rng = random.Random(44)
    for _ in range(100):
        a = random_element(ctx, rng)
        i = rng.randint(1, ctx.nvars)
        expected = {}
        for mono, coeff in a.terms.items():
            if i not in mono.eta:
                continue
            rest = tuple(x for x in mono.eta if x != i)
            sign, _ = bubble_sign((i,) + rest)
            # moving i back to its sorted slot from the front
            front_sign, _ = bubble_sign(mono.eta)
            pos_sign = sign if front_sign else None
            expected_mono = SuperMonomial(mono.qexp, rest)
            expected[expected_mono] = expected.get(expected_mono, Fraction(0)) + coeff * sign
        assert partial_eta(i, a) == SuperElement(ctx, expected)


def test_partial_eta_square_and_anticommute(ctx):
    rng = random.Random(45)
    for _ in range(150):
        a = random_element(ctx, rng)
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        assert partial_eta(i, partial_eta(i, a)).is_zero()
        assert partial_eta(i, partial_eta(j, a)) == -partial_eta(j, partial_eta(i, a))
        assert partial_q(i, partial_q(j, a)) == partial_q(j, partial_q(i, a))
        assert partial_q(i, partial_eta(j, a)) == partial_eta(j, partial_q(i, a))


def test_grade_examples(ctx):
    S = parse("y1*(x0^3 + x1^3 + x2^3)", ctx)
    components = grade(S)
    assert len(components) == 1
    charge, weight, degree, comp = components[0]
    assert (charge, weight, degree) == (0, 1, 0)
    assert comp == S

    one = SuperElement.one(ctx)
    assert grade(one) == [(0, 0, 0, one)]

    mixed = parse("y1 + x0", ctx)
    keys = {(c, w, d) for c, w, d, _ in grade(mixed)}
    assert keys == {(-3, 1, 0), (1, 0, 0)}
    assert sum((comp for *_, comp in grade(mixed)), SuperElement.zero(ctx)) == mixed


def test_monomial_gradings(ctx):
    m = SuperMonomial((2, 1, 0, 0), (1, 3))
    # y1^2 x0 eta_y1 eta_x1: charge -6 + 1 + 3 - 1, weight 2 + 0 + 1
    assert monomial_charge(ctx, ctx.pack(m)) == -3
    assert monomial_weight(ctx, ctx.pack(m)) == 3
    assert m.degree() == -2


@pytest.mark.parametrize("n,k,degrees,bound", [
    (2, 1, (3,), 2), (3, 2, (2, 3), 2), (2, 2, (1, 2), 2), (4, 3, (1, 2, 3), 1)])
def test_gradings_match_the_per_variable_table(n, k, degrees, bound):
    """monomial_charge and monomial_weight against the docstring's table,
    summed factor by factor, on every exponent vector with entries <= bound
    and every eta subset."""
    ctx = VariableContext(n, k, degrees)
    etas = [eta for size in range(ctx.nvars + 1)
            for eta in combinations(range(1, ctx.nvars + 1), size)]
    monos = [SuperMonomial(qexp, eta)
             for qexp in product(range(bound + 1), repeat=ctx.nvars) for eta in etas]
    for graded, table in ((monomial_charge, table_charge), (monomial_weight, table_weight)):
        wrong = [m for m in monos if graded(ctx, ctx.pack(m)) != table(ctx, m)]
        assert not wrong, (graded.__name__, wrong[:3])


def test_canonical_order_is_total_and_weight_major(ctx):
    rng = random.Random(46)
    monos = set()
    for _ in range(200):
        e = random_element(ctx, rng, terms=1)
        monos.update(e.terms)
    monos = list(monos)
    keys = [monomial_sort_key(ctx, ctx.pack(m)) for m in monos]
    assert len(set(keys)) == len(monos)
    for m, key in zip(monos, keys):
        assert key[0] == monomial_weight(ctx, ctx.pack(m))


def test_grevlex_order_differs_but_stays_graded():
    ctx_lex = VariableContext(2, 1, (3,), "graded-lex")
    ctx_grevlex = VariableContext(2, 1, (3,), "grevlex")
    a = parse("x0^2*x2", ctx_lex)
    b = parse("x0*x1^2", ctx_lex)
    ka = monomial_sort_key(ctx_lex, ctx_lex.pack(next(iter(a.terms))))
    kb = monomial_sort_key(ctx_lex, ctx_lex.pack(next(iter(b.terms))))
    assert ka > kb  # lex: higher power of x0 wins
    a2 = parse("x0^2*x2", ctx_grevlex)
    b2 = parse("x0*x1^2", ctx_grevlex)
    ka2 = monomial_sort_key(ctx_grevlex, ctx_grevlex.pack(next(iter(a2.terms))))
    kb2 = monomial_sort_key(ctx_grevlex, ctx_grevlex.pack(next(iter(b2.terms))))
    assert ka2 < kb2  # grevlex: smaller last exponent wins


def test_context_mismatch_rejected():
    a = parse("x0", VariableContext(2, 1, (3,)))
    b = parse("x0", VariableContext(3, 1, (3,)))
    with pytest.raises(ContextMismatchError):
        a * b
    with pytest.raises(ContextMismatchError):
        a + b


def test_context_validation():
    with pytest.raises(InputError):
        VariableContext(1, 2, (2, 2))  # n < k
    with pytest.raises(InputError):
        VariableContext(2, 1, (0,))
    with pytest.raises(InputError):
        VariableContext(2, 1, (3, 3))
    with pytest.raises(InputError):
        VariableContext(2, 1, (3,), "mystery-order")


@pytest.mark.parametrize("shape", [(2, 1, (3.7,)), (2, 1, (3.0,)), (True, 1, (3,)),
                                   (2, True, (3,)), (2, 1, (True,)), (2, 1, ("3",))],
                         ids=["float-degree", "integral-float-degree", "bool-n", "bool-k",
                              "bool-degree", "string-degree"])
def test_context_refuses_non_int_shapes(shape):
    """n, k and the degrees are ints; nothing is coerced."""
    with pytest.raises(InputError, match="must be integers"):
        VariableContext(*shape)


def test_exact_scalar_invariants():
    # lowest terms and positive denominator are guaranteed by the scalar type
    c = Fraction(6, -4)
    assert c.numerator == -3 and c.denominator == 2
    e = SuperElement.scalar(VariableContext(2, 1, (3,)), "7/21")
    assert list(e.terms.values()) == [Fraction(1, 3)]


def test_zero_terms_dropped(ctx):
    a = parse("x0 - x0", ctx)
    assert a.is_zero() and a.terms == {}
    assert a == SuperElement.zero(ctx)
    b = parse("x0", ctx) + parse("-1*x0", ctx)
    assert b.terms == {}


# -- the integer kernel against the Fraction reference --------------------------

BIG = 2 ** 70


def assert_canonical(e: SuperElement):
    """Lowest terms: den > 0, no zero numerator, gcd 1, zero has den 1."""
    assert isinstance(e._den, int) and e._den > 0
    assert all(isinstance(v, int) and v for v in e._num.values())
    assert gcd(e._den, *e._num.values()) == 1
    if not e._num:
        assert e._den == 1


def big_element(ctx, rng, terms=4):
    """Random monomials with coefficients whose denominators exceed 2^70."""
    monos = list(random_element(ctx, rng, terms=terms).terms) or \
        [SuperMonomial((0,) * ctx.nvars, ())]
    return SuperElement(ctx, {m: Fraction(rng.randint(-BIG, BIG) or 1,
                                          rng.randint(BIG + 1, 4 * BIG))
                              for m in monos})


def draw(ctx, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return random_element(ctx, rng, terms=4)
    if kind == 1:
        return big_element(ctx, rng)
    # a sum whose big terms cancel exactly, leaving a small element
    big = big_element(ctx, rng)
    return (random_element(ctx, rng, terms=3) + big) - big


@pytest.mark.parametrize("dwork", ["cubic_dwork", "quadrics_dwork", "quartic_dwork"])
def test_kernel_matches_fraction_reference(dwork, request):
    D = request.getfixturevalue(dwork)
    ctx, nvars = D.ctx, D.ctx.nvars
    S = D.S.terms
    rng = random.Random(70)
    big_denominators = 0
    for _ in range(25):
        a, b = draw(ctx, rng), draw(ctx, rng)
        big_denominators += (a._den > BIG) + (b._den > BIG)
        results = [
            (a * b, frac_mul(a.terms, b.terms)),
            (a + b, frac_add(a.terms, b.terms)),
            (apply_q(D, a), frac_apply_q(S, nvars, a.terms)),
            (apply_delta(a), frac_apply_delta(nvars, a.terms)),
            (apply_k(D, a), frac_apply_k(S, nvars, a.terms)),
        ]
        for i in range(1, nvars + 1):
            results.append((partial_q(i, a), frac_partial_q(i, a.terms)))
            results.append((partial_eta(i, a), frac_partial_eta(i, a.terms)))
        for got, expected in results:
            assert got.terms == expected
            assert_canonical(got)
    assert big_denominators > 10


def test_exact_cancellation_in_the_kernel(quadrics_dwork):
    ctx = quadrics_dwork.ctx
    rng = random.Random(71)
    for _ in range(20):
        p, q = big_element(ctx, rng), big_element(ctx, rng)
        p = SuperElement(ctx, {m._replace(eta=()): c for m, c in p.terms.items()})
        q = SuperElement(ctx, {m._replace(eta=()): c for m, c in q.terms.items()})
        # even elements commute: the cross terms of (p + q)(p - q) cancel
        lhs = (p + q) * (p - q)
        assert lhs.terms == frac_add(frac_mul(p.terms, p.terms),
                                     {m: -c for m, c in frac_mul(q.terms, q.terms).items()})
        assert lhs == p * p - q * q
        assert_canonical(lhs)
        zero = p * q - q * p
        assert zero.is_zero() and zero.terms == {}
        assert_canonical(zero)
        assert_canonical((p - p).scale(3))


def test_canonical_form_and_value_equality(ctx):
    rng = random.Random(72)
    for _ in range(30):
        a, b = draw(ctx, rng), draw(ctx, rng)
        c = Fraction(rng.randint(1, BIG), rng.randint(1, BIG)) * rng.choice((-1, 1))
        built = SuperElement(ctx, a.terms)
        via_sum = (a + b) - b
        via_scale = a.scale(c).scale(1 / c)
        for e in (a, built, via_sum, via_scale):
            assert_canonical(e)
            assert e == a and hash(e) == hash(a)
    # a constructor fed ints, Fractions and strings lands in the same form
    m1, m2 = SuperMonomial((1, 0, 0, 0), ()), SuperMonomial((0, 2, 0, 1), (1,))
    e = SuperElement(ctx, {m1: "6/4", m2: Fraction(3, 2), SuperMonomial((0,) * 4): 0})
    assert (e._num, e._den) == ({ctx.pack(m1): 3, ctx.pack(m2): 3}, 2)
    assert SuperElement(ctx, {m1: 4, m2: 2})._den == 1
    assert_canonical(SuperElement.zero(ctx))


def test_terms_is_a_fresh_copy(ctx):
    m = SuperMonomial((1, 1, 0, 0), ())
    e = SuperElement(ctx, {m: Fraction(2, 3)})
    view = e.terms
    view[m] = Fraction(5)
    view[SuperMonomial((0, 0, 0, 1), ())] = Fraction(1)
    assert e.terms == {m: Fraction(2, 3)}
    assert e.coefficient(m) == Fraction(2, 3)
    assert e.terms is not e.terms
