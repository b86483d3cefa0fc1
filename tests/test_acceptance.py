"""Acceptance criteria, one test per criterion.

Every check is exact (rational equality, no tolerances) and carries the
stated wall-clock budget.  Each test prints a single pass line with its
timing; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from dworkbox import cli
from dworkbox import (
    SuperElement,
    VariableContext,
    apply_delta,
    apply_k,
    apply_q,
    build_presentation,
    charge_generator,
    dwork_potential,
    ell2,
    ell_n,
    parse,
)
from dworkbox.deformation import (
    build_deformation,
    d_ladder,
    d_matrix,
    k_gamma,
    mc_check,
    t_series,
    expansion_coefficients,
    bell_expansion,
    u_basis,
)
from dworkbox.verify import (
    random_charge_element,
    random_element,
    random_homogeneous,
    reduction_functional,
)
from tests.oracles import (
    griffiths_hodge_numbers,
    series_certificate,
    two_quadrics_weight_coranks,
)


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s / budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, (
        f"{name} exceeded its runtime budget: {elapsed:.2f}s >= {budget_seconds}s")


def test_algebraic_law_suite(cubic_dwork, quadrics_dwork):
    """Differential, product and bracket laws on 200 seeded elements each."""
    with criterion("algebraic-law suite (cubic + two quadrics)", 10.0):
        for D, seed in ((cubic_dwork, 1001), (quadrics_dwork, 1002)):
            ctx = D.ctx
            rng = random.Random(seed)
            for i in range(200):
                a = random_element(ctx, rng, max_xdeg=3)
                assert apply_delta(apply_delta(a)).is_zero()
                assert apply_q(D, apply_q(D, a)).is_zero()
                assert apply_k(D, apply_k(D, a)).is_zero()
                assert (apply_delta(apply_q(D, a)) +
                        apply_q(D, apply_delta(a))).is_zero()
                b = random_homogeneous(ctx, rng, max_xdeg=3)
                c = random_homogeneous(ctx, rng, max_xdeg=3)
                ha = random_homogeneous(ctx, rng, max_xdeg=3)
                da, db = ha.homogeneous_degree(), b.homogeneous_degree()
                sign = -1 if (da * db) % 2 else 1
                assert ha * b == (b * ha).scale(sign)
                assert (ha * b) * c == ha * (b * c)
                assert ell2(D, ha, b) == ell2(D, b, ha).scale(sign)
                if i % 2 == 0:
                    s1 = -1 if (da + 1) % 2 else 1
                    s2 = -1 if ((da + 1) * (db + 1)) % 2 else 1
                    lhs = ell2(D, ha, ell2(D, b, c))
                    rhs = ell2(D, ell2(D, ha, b), c).scale(s1) + \
                        ell2(D, b, ell2(D, ha, c)).scale(s2)
                    assert lhs == rhs
                else:
                    sp = -1 if ((da + 1) * db) % 2 else 1
                    assert ell2(D, ha, b * c) == \
                        ell2(D, ha, b) * c + (b * ell2(D, ha, c)).scale(sp)
                if i % 3 == 0:
                    assert ell_n(D, (ha, b, c)).is_zero()


def test_quotient_dimensions_against_jacobian_oracle(
        cubic_dwork, cubic_presentation, quadrics_dwork, quadrics_presentation,
        quartic_dwork):
    """Exact dimension / Hodge profile equality with brute-force ranks."""
    with criterion("quotient dimensions vs Jacobian-ring oracle", 60.0):
        # Fermat cubic curve
        assert cubic_presentation.dimension == 2
        assert cubic_presentation.hodge_numbers() == [1, 1]
        assert cubic_presentation.hodge_numbers() == griffiths_hodge_numbers(
            cubic_dwork.ctx, parse("x0^3 + x1^3 + x2^3", cubic_dwork.ctx))
        # two quadrics in P^3
        assert quadrics_presentation.dimension == 2
        assert list(quadrics_presentation.weight_counts) == \
            two_quadrics_weight_coranks(quadrics_dwork)
        # Fermat quartic surface
        quartic_pres = build_presentation(quartic_dwork)
        assert quartic_pres.dimension == 21
        assert quartic_pres.hodge_numbers() == [1, 19, 1]
        assert quartic_pres.hodge_numbers() == griffiths_hodge_numbers(
            quartic_dwork.ctx,
            parse("x0^4 + x1^4 + x2^4 + x3^4", quartic_dwork.ctx))
        # cubic surface
        ctx3 = VariableContext(3, 1, (3,))
        G3 = parse("x0^3 + x1^3 + x2^3 + x3^3", ctx3)
        pres3 = build_presentation(dwork_potential(ctx3, [G3]))
        assert pres3.dimension == 6
        assert pres3.hodge_numbers() == [0, 6, 0]
        assert pres3.hodge_numbers() == griffiths_hodge_numbers(ctx3, G3)


def test_reduction_soundness(cubic_dwork, cubic_presentation,
                             quadrics_dwork, quadrics_presentation):
    """Certificates rebuild inputs bit-exactly; reduce kills K images."""
    with criterion("reduction soundness and kernel", 30.0):
        for D, P, seed in ((cubic_dwork, cubic_presentation, 2001),
                           (quadrics_dwork, quadrics_presentation, 2002)):
            rng = random.Random(seed)
            c_G = D.ctx.background_charge()
            for _ in range(100):
                f = random_charge_element(D, rng, c_G, 0, max_weight=3)
                result = P.reduce(f)
                assert apply_k(D, result.certificate) + result.as_element(P) == f
            for _ in range(100):
                xi = random_charge_element(D, rng, c_G, -1, max_weight=3)
                result = P.reduce(apply_k(D, xi))
                assert result.coefficients == {}
                rebuilt = apply_k(D, result.certificate)
                assert rebuilt == apply_k(D, xi)


def test_hesse_pencil_series(cubic_dwork, cubic_presentation):
    """Hand-derived certificate-chain coefficients of the Hesse deformation."""
    with criterion("Hesse-pencil deformation series (order 6)", 10.0):
        hesse = build_deformation(
            cubic_dwork, [parse("x0*x1*x2", cubic_dwork.ctx)])
        pres_U = build_presentation(hesse.deformed)
        basis_u = u_basis(hesse, cubic_presentation, pres_U)
        series = t_series(hesse, cubic_presentation, basis_u, 6)
        assert series.coefficient(1, (1, 0)) == 1
        assert series.coefficient(0, (1, 0)) == 0
        assert series.coefficient(0, (2, 0)) == 0
        assert series.coefficient(1, (2, 0)) == 0
        assert series.coefficient(0, (3, 0)) == Fraction(-1, 162)
        assert series.coefficient(1, (4, 0)) == Fraction(-1, 81)
        # every recorded right side is the t-coefficient, and its residual
        # is exactly K-exact
        ctx = cubic_dwork.ctx
        u1, u2 = basis_u.elements
        basis_elements = cubic_presentation.basis_elements()
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
            cert = series_certificate(cubic_presentation, series, expo)
            assert rhs - normal == apply_k(cubic_dwork, cert)


def test_maurer_cartan_and_deformed_operator(cubic_dwork, quadrics_dwork):
    """MC equation exact; K_Gamma = K_U on 200 random elements per case."""
    with criterion("Maurer-Cartan and deformed-operator consistency", 20.0):
        cases = [
            (cubic_dwork, [parse("x0*x1*x2", cubic_dwork.ctx)], 3001),
            (quadrics_dwork,
             [parse("x0*x1", quadrics_dwork.ctx),
              SuperElement.zero(quadrics_dwork.ctx)], 3002),
        ]
        for D, H, seed in cases:
            deform = build_deformation(D, H)
            mc_check(D, deform.gamma)  # exact zero of both summands
            assert apply_k(D, deform.gamma).is_zero()
            assert ell2(D, deform.gamma, deform.gamma).is_zero()
            rng = random.Random(seed)
            for _ in range(200):
                lam = random_element(D.ctx, rng, max_xdeg=3)
                assert k_gamma(D, deform.gamma, lam) == \
                    apply_k(deform.deformed, lam)


def test_bell_route_equivalence(cubic_dwork, cubic_presentation):
    """20 random cochain functionals: Bell expansion = direct expansion."""
    with criterion("deformation expansion route equivalence (orders <= 5)", 30.0):
        hesse = build_deformation(
            cubic_dwork, [parse("x0*x1*x2", cubic_dwork.ctx)])
        rng = random.Random(4001)
        basis_elements = cubic_presentation.basis_elements()
        for _ in range(20):
            row = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(cubic_presentation.dimension))
            f = reduction_functional(cubic_presentation, row)
            for u in basis_elements:
                bell_route = bell_expansion(f, hesse.gamma, u, 5)
                running = Fraction(0)
                direct = []
                for m in range(6):
                    term = (u * hesse.gamma ** m).scale(
                        Fraction(1, math.factorial(m)))
                    running += f(term)
                    direct.append(running)
                assert bell_route == direct


def test_charge_concentration(cubic_dwork):
    """R-witness produces exact K-preimages off the background charge."""
    with criterion("charge concentration witnesses", 10.0):
        rng = random.Random(5001)
        R = charge_generator(cubic_dwork)
        c_G = cubic_dwork.ctx.background_charge()
        produced = 0
        while produced < 50:
            lam = c_G + rng.choice([-3, -2, -1, 1, 2, 3])
            xi = random_charge_element(cubic_dwork, rng, lam, -1, max_weight=3)
            f = apply_k(cubic_dwork, xi)
            if f.is_zero():
                continue
            witness = (f * R).scale(Fraction(1, lam - c_G))
            assert apply_k(cubic_dwork, witness) == f
            produced += 1


def test_trivial_deformation_degeneracy(cubic_dwork, cubic_presentation):
    """H = 0: identity D ladder at all orders, constant coefficient seq."""
    with criterion("degenerate deformation H = 0", 5.0):
        trivial = build_deformation(
            cubic_dwork, [SuperElement.zero(cubic_dwork.ctx)])
        basis_u = u_basis(trivial, cubic_presentation, cubic_presentation)
        assert [u for u in basis_u.elements] == cubic_presentation.basis_elements()
        series = t_series(trivial, cubic_presentation, basis_u, 6)
        dim = cubic_presentation.dimension
        identity = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
                    for i in range(dim)]
        # the library route and the series route
        for ladder in (d_ladder(trivial, cubic_presentation, basis_u, 6),
                       d_matrix(series)):
            for order in range(1, 7):
                assert ladder[order] == identity
        for u in cubic_presentation.basis_elements():
            seq = expansion_coefficients(trivial, cubic_presentation, u, 6)
            assert all(v == seq[0] for v in seq)


QUADRICS_CONFIG = {
    "n": 3, "k": 2, "degrees": [2, 2],
    "G": ["x0^2 + x1^2 + x2^2 + x3^2", "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"],
    "H": ["x0*x1", "0"],
}


def _verify_quadrics(tmp_path, capsys, *extra):
    path = tmp_path / "quadrics.json"
    path.write_text(json.dumps(QUADRICS_CONFIG))
    code = cli.main(["verify", str(path), "--seed", "1", *extra])
    capsys.readouterr()
    return code


def test_two_quadrics_verify(tmp_path, capsys):
    """The full verify suite on two quadrics: its descendant checks reduce
    far above weight n - k."""
    with criterion("two-quadrics verify (seed 1, 200 iterations)", 30.0):
        assert _verify_quadrics(tmp_path, capsys, "--iterations", "200") == cli.EXIT_OK


def test_two_quadrics_fault_injection(tmp_path, capsys):
    """A flipped bracket sign is caught on two quadrics, and quickly."""
    with criterion("two-quadrics verify catches bracket-sign", 10.0):
        code = _verify_quadrics(tmp_path, capsys, "--iterations", "2",
                                "--inject-fault", "bracket-sign")
        assert code == cli.EXIT_INTERNAL
