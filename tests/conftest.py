import pytest

from dworkbox import (
    VariableContext,
    build_presentation,
    dwork_potential,
    parse,
)


@pytest.fixture(scope="session")
def cubic_ctx():
    return VariableContext(2, 1, (3,))


@pytest.fixture(scope="session")
def cubic_dwork(cubic_ctx):
    return dwork_potential(cubic_ctx, [parse("x0^3 + x1^3 + x2^3", cubic_ctx)])


@pytest.fixture(scope="session")
def cubic_presentation(cubic_dwork):
    return build_presentation(cubic_dwork)


@pytest.fixture(scope="session")
def quadrics_ctx():
    return VariableContext(3, 2, (2, 2))


@pytest.fixture(scope="session")
def quadrics_dwork(quadrics_ctx):
    G1 = parse("x0^2 + x1^2 + x2^2 + x3^2", quadrics_ctx)
    G2 = parse("x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2", quadrics_ctx)
    return dwork_potential(quadrics_ctx, [G1, G2])


@pytest.fixture(scope="session")
def quadrics_presentation(quadrics_dwork):
    return build_presentation(quadrics_dwork)


@pytest.fixture(scope="session")
def quadrics_deformation(quadrics_dwork, quadrics_presentation):
    """The k = 2 deformation H = (x0*x1, 0) with its deformed machinery."""
    from dworkbox import SuperElement, build_deformation, u_basis

    ctx = quadrics_dwork.ctx
    dd = build_deformation(
        quadrics_dwork, [parse("x0*x1", ctx), SuperElement.zero(ctx)])
    pres_U = build_presentation(dd.deformed)
    basis_u = u_basis(dd, quadrics_presentation, pres_U)
    return dd, pres_U, basis_u


@pytest.fixture(scope="session")
def quartic_ctx():
    return VariableContext(3, 1, (4,))


@pytest.fixture(scope="session")
def quartic_dwork(quartic_ctx):
    return dwork_potential(
        quartic_ctx, [parse("x0^4 + x1^4 + x2^4 + x3^4", quartic_ctx)])


@pytest.fixture(scope="session")
def fractional_cubic_dwork():
    """A cubic whose gradient has denominators up to 6."""
    ctx = VariableContext(2, 1, (3,))
    return dwork_potential(ctx, [parse("x0^3 + 1/2*x1^3 + 2/3*x2^3", ctx)])


@pytest.fixture(scope="session")
def grevlex_k3_dwork():
    ctx = VariableContext(3, 1, (4,), "grevlex")
    return dwork_potential(ctx, [parse("x0^4 + x1^4 + x2^4 + x3^4", ctx)])
