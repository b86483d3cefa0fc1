"""The closed-form bracket kernel `operators.ell2` against its definition
K(ab) - K(a)b - (-1)^|a| a K(b), computed by the Fraction reference in
`tests/oracles.py`, the descendant tower built on it, and the deformed
differential it feeds."""

import random
from itertools import product

import pytest

from dworkbox import (
    InputError,
    SuperElement,
    VariableContext,
    apply_k,
    build_deformation,
    dwork_potential,
    ell2,
    ell_n,
    operators,
    parse,
)
from dworkbox.deformation import k_gamma, mc_check
from dworkbox.errors import ContextMismatchError
from dworkbox.verify import random_element, random_homogeneous
from tests.oracles import ell_n_by_definition, frac_ell2

# (n, k, degrees, G, H): the deform geometries of the benchmark, the
# genus-4 curve, and a genus-4 curve with non-diagonal equations
GEOMETRIES = {
    "cubic_curve": (2, 1, (3,), ["x0^3 + x1^3 + x2^3"], ["x0*x1*x2"]),
    "sextic_curve": (2, 1, (6,), ["x0^6 + x1^6 + x2^6"], ["x0^2*x1^2*x2^2"]),
    "quartic_k3": (3, 1, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"], ["x0*x1*x2*x3"]),
    "two_quadrics": (3, 2, (2, 2), ["x0^2 + x1^2 + x2^2 + x3^2",
                                    "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"], ["x0*x1", "0"]),
    "genus_four_curve": (3, 2, (2, 3), ["x0^2 + x1^2 + x2^2 + x3^2",
                                        "x0^3 + x1^3 + x2^3 + x3^3"], ["x0*x1", "0"]),
    "genus_four_non_diagonal": (3, 2, (2, 3), ["x0^2 + x1^2 + x2^2 + x3^2 + x0*x1",
                                               "x0^3 + x1^3 + x2^3 + x3^3 + x1*x2*x3"],
                                ["x0*x1", "x1*x2*x3"]),
}
DIFFERENTIAL = ["cubic_curve", "quartic_k3", "two_quadrics", "genus_four_non_diagonal"]
# an argument is drawn with this many etas, None for mixed degrees, or "zero"
A_KINDS = (0, 1, 2, 3, "zero")
B_KINDS = (0, 1, 2, 3, None, "zero")
ROUNDS = 9


def _geometry(name, order="graded-lex"):
    n, k, degrees, G, H = GEOMETRIES[name]
    ctx = VariableContext(n, k, degrees, order)
    return dwork_potential(ctx, [parse(g, ctx) for g in G]), [parse(h, ctx) for h in H]


def _draw(ctx, rng, kind):
    if kind == "zero":
        return SuperElement.zero(ctx)
    if kind is None:
        return random_element(ctx, rng, max_eta=3, max_xdeg=3)
    return random_element(ctx, rng, homogeneous_degree=kind, max_xdeg=3)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_ell2_matches_the_definition(name):
    """On 270 seeded pairs per geometry, every degree-parity pair, a zero
    argument on either side and a mixed-degree second argument, the kernel
    equals the definition through K."""
    D, _ = _geometry(name)
    ctx, S = D.ctx, D.S.terms
    rng = random.Random(f"ell2:{name}")
    parities = set()
    mixed = 0
    for _ in range(ROUNDS):
        for kind_a, kind_b in product(A_KINDS, B_KINDS):
            a, b = _draw(ctx, rng, kind_a), _draw(ctx, rng, kind_b)
            assert ell2(D, a, b).terms == frac_ell2(S, ctx.nvars, a.terms, b.terms)
            if a and b and b.homogeneous_degree() is not None:
                parities.add((a.homogeneous_degree() % 2, b.homogeneous_degree() % 2))
            mixed += b.homogeneous_degree() is None
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert mixed >= ROUNDS


def test_ell2_keeps_its_errors(cubic_dwork, quadrics_ctx):
    """A mixed-degree first argument raises InputError; an argument over
    another context raises ContextMismatchError on either side."""
    D = cubic_dwork
    ctx = D.ctx
    mixed, x1 = parse("x0 + e1", ctx), parse("x1", ctx)
    with pytest.raises(InputError, match="degree-homogeneous"):
        ell2(D, mixed, x1)
    assert ell2(D, x1, mixed) == SuperElement.zero(ctx)
    other = parse("x0*e1", quadrics_ctx)
    for a, b in ((other, x1), (x1, other), (other, other),
                 (SuperElement.zero(quadrics_ctx), x1)):
        with pytest.raises(ContextMismatchError):
            ell2(D, a, b)


def test_ell2_makes_no_k_pass(cubic_dwork, monkeypatch):
    """The kernel needs neither K nor S: with the one differential kernel
    patched to raise, it still gives the definition's values."""
    D = cubic_dwork
    ctx = D.ctx
    rng = random.Random("ell2:no-k")
    pairs = [(random_element(ctx, rng, homogeneous_degree=rng.randint(0, 2)),
              random_element(ctx, rng)) for _ in range(20)]
    expected = [frac_ell2(D.S.terms, ctx.nvars, a.terms, b.terms) for a, b in pairs]

    def forbidden(*_args):
        raise AssertionError("ell2 made a differential pass")

    monkeypatch.setattr(operators, "_differential", forbidden)
    with pytest.raises(AssertionError, match="differential pass"):
        apply_k(D, pairs[0][0])
    assert [ell2(D, a, b).terms for a, b in pairs] == expected


@pytest.mark.parametrize("name, order", [
    ("cubic_curve", "graded-lex"), ("quartic_k3", "graded-lex"),
    ("two_quadrics", "graded-lex"), ("genus_four_curve", "grevlex")])
def test_ell_n_tower_matches_the_k_recursion(name, order, monkeypatch):
    """On seeded homogeneous arguments, 2 to 5 of them, the tower equals
    the recursion through K of `tests/oracles.py`, with K and the one
    differential kernel patched to raise: l_2 is `ell2` and every longer
    bracket is zero without a K pass."""
    D, _ = _geometry(name, order)
    ctx, S = D.ctx, D.S.terms
    rng = random.Random(f"ell_n:{name}")
    tuples = [tuple(random_homogeneous(ctx, rng, terms=2, max_xdeg=3) for _ in range(n))
              for n in (2, 3, 4, 5) for _ in range(6)]
    expected = [ell_n_by_definition(S, ctx.nvars, tuple(a.terms for a in args))
                for args in tuples]
    assert any(expected)

    def forbidden(*_args):
        raise AssertionError("the tower made a K pass")

    monkeypatch.setattr(operators, "apply_k", forbidden)
    monkeypatch.setattr(operators, "_differential", forbidden)
    with pytest.raises(AssertionError, match="K pass"):
        ell_n(D, tuples[0][:1])
    assert [ell_n(D, args).terms for args in tuples] == expected


def test_ell_n_keeps_its_contract(cubic_dwork, quadrics_ctx):
    """Beyond two arguments the bracket is zero, with the argument checks
    of the K recursion: each argument over D's context
    (ContextMismatchError), each but the last degree-homogeneous
    (InputError); a mixed-degree last argument is accepted.  No argument
    at all raises InputError."""
    D = cubic_dwork
    ctx = D.ctx
    x, e, mixed = parse("x0*x1", ctx), parse("y1*e2", ctx), parse("x0 + e1", ctx)
    assert ell_n(D, (x, e, x, e, x)).is_zero()
    assert ell_n(D, (e, x, mixed)).is_zero()
    assert ell_n(D, (x, e, x, e, mixed)).is_zero()
    for args in ((mixed, x, e), (x, mixed, e), (x, e, mixed, x, e)):
        with pytest.raises(InputError,
                           match="^descendant brackets need degree-homogeneous arguments$"):
            ell_n(D, args)
    other = parse("x0*e1", quadrics_ctx)
    for args in ((other, x, e), (x, other, e), (x, e, other), (x, e, x, e, other)):
        with pytest.raises(ContextMismatchError):
            ell_n(D, args)
    with pytest.raises(InputError):
        ell_n(D, [])


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_deformation_runs_on_the_kernel(name):
    """mc_check passes for Gamma = sum_i y_i H_i on every deform geometry,
    and K_Gamma = K + l2(Gamma, .) is the differential of S + Gamma."""
    D, H = _geometry(name)
    deform = build_deformation(D, H)
    mc_check(D, deform.gamma)
    rng = random.Random(f"k_gamma:{name}")
    for _ in range(20):
        lam = random_element(D.ctx, rng, max_eta=3, max_xdeg=3)
        assert k_gamma(D, deform.gamma, lam) == apply_k(deform.deformed, lam)
