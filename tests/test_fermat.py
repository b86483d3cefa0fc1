"""`reduce` and the D ladder on Fermat hypersurfaces against Dwork's closed
form (`tests.oracles.fermat_reduce`), which uses nothing of the library."""

import itertools
import random
from fractions import Fraction

import pytest

from dworkbox import (
    SuperElement,
    SuperMonomial,
    VariableContext,
    apply_k,
    build_deformation,
    build_presentation,
    d_ladder,
    dwork_potential,
    parse,
    u_basis,
)
from tests.oracles import fermat_ladder, fermat_reduce

# (n, d): curves, K3, c_G = 3 (sextic curve), c_G = -2 (cubic threefold),
# c_G = -1 (cubic surface) and the quintic threefold
FERMAT = [(2, 3), (3, 4), (2, 6), (4, 3), (3, 3), (4, 5)]
ORDERS = ("graded-lex", "grevlex")
PER_WEIGHT = 5


def fermat_dwork(n, d, order="graded-lex", c=None):
    """The Dwork data of sum_i c_i x_i^d, all c_i = 1 when `c` is None."""
    ctx = VariableContext(n, 1, (d,), order)
    c = (1,) * (n + 1) if c is None else c
    return dwork_potential(ctx, [parse(" + ".join(f"{c_i}*x{i}^{d}" for i, c_i in enumerate(c)),
                                       ctx)])


def monomial(s, b):
    return SuperMonomial((s, *b))


def random_exponents(rng, total, parts):
    """A composition of `total` into `parts` nonnegative parts."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))


def check_reduce_against_the_closed_form(n, d, order, c=None):
    """Seeded charge-c_G monomials of every weight 0..top + 3, so weights
    top + 2 and top + 3 go through the lift: coefficients agree basis
    monomial by basis monomial, and every certificate is sound."""
    D = fermat_dwork(n, d, order, c)
    ctx = D.ctx
    pres = build_presentation(D)
    c_G = pres.c_G
    fermat_basis = {monomial(s, r) for s in range(n)
                    for r in itertools.product(range(d - 1), repeat=n + 1)
                    if sum(r) - d * s == c_G}
    assert set(pres.basis) == fermat_basis
    rng = random.Random(f"fermat:{n}:{d}:{order}" + ("" if c is None else f":{c}"))
    top = n - 1
    checked = 0
    for s in range(top + 4):
        xdeg = c_G + d * s
        if xdeg < 0:
            continue
        for _ in range(PER_WEIGHT):
            b = random_exponents(rng, xdeg, n + 1)
            f = SuperElement(ctx, {monomial(s, b): 1})
            result = pres.reduce(f)
            got = {pres.basis[i]: c for i, c in result.coefficients.items()}
            expected = {monomial(*key): c for key, c in fermat_reduce(n, d, s, b, c).items()}
            assert got == expected, (s, b)
            assert apply_k(D, result.certificate) + result.as_element(pres) == f
            checked += 1
    assert checked >= 3 * PER_WEIGHT


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n,d", FERMAT, ids=[f"n{n}_d{d}" for n, d in FERMAT])
def test_reduce_matches_the_fermat_closed_form(n, d, order):
    check_reduce_against_the_closed_form(n, d, order)


# sum c_i x_i^d with coefficients other than 1: each reduction step divides
# by c_i, so the gradient numerators are not all d and the content of the
# kernel's numerators is divided out
DIAGONAL = {(2, 3): (2, Fraction(-3, 5), 7), (3, 4): (Fraction(1, 2), 3, Fraction(5, 7), -2)}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n,d", list(DIAGONAL), ids=[f"n{n}_d{d}" for n, d in DIAGONAL])
def test_reduce_matches_the_diagonal_closed_form(n, d, order):
    check_reduce_against_the_closed_form(n, d, order, DIAGONAL[n, d])


@pytest.mark.parametrize("n", [2, 3, 4], ids=["cubic_curve", "quartic_k3", "quintic_threefold"])
def test_dwork_pencil_ladder_matches_the_fermat_closed_form(n):
    """D_M[beta][rho] = sum_{m < M} fermat_reduce(u_beta Gamma^m) / m! for
    Gamma = y x_0 ... x_n, the ladder of the Dwork pencil, to order 6; on
    the quintic threefold the ladder is 204 x 204."""
    d = n + 1
    D = fermat_dwork(n, d)
    ctx = D.ctx
    pres = build_presentation(D)
    dd = build_deformation(D, [parse("*".join(f"x{i}" for i in range(n + 1)), ctx)])
    basis_u = u_basis(dd, pres, build_presentation(dd.deformed))
    rows = []
    for u in basis_u.elements:
        (mono,) = u.terms
        assert u.coefficient(mono) == 1 and not mono.eta
        rows.append((mono.qexp[0], mono.qexp[1:]))
    ladder = d_ladder(dd, pres, basis_u, 6)
    expected = fermat_ladder(n, d, rows, 6)
    assert sorted(ladder) == sorted(expected) == list(range(1, 7))
    for m, matrix in ladder.items():
        for row, want in zip(matrix, expected[m]):
            assert {pres.basis[rho]: c for rho, c in enumerate(row) if c} == \
                {monomial(*key): c for key, c in want.items()}
    if n == 2:
        # the Hesse value: the m = 2 term of row y x0 x1 x2 is (-1/3)^3 / 2!
        assert expected[3][0][(0, (0, 0, 0))] == Fraction(-1, 54)
        assert ladder[3][0][0] == Fraction(-1, 54)
    if n == 4:
        # the quintic analogue: of m < 6 only m = 4 takes row y x0...x4 to the
        # class of 1, with (-1/5)^5 / 4!
        assert pres.dimension == 204 and pres.basis[0] == monomial(0, (0,) * 5)
        assert [ladder[m][0][0] for m in range(1, 7)] == \
            [0] * 4 + [Fraction(-1, 75000)] * 2
