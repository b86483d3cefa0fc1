"""The verification harness itself: determinism, fault capture, generators."""

import random
from fractions import Fraction

import pytest

from dworkbox import (
    LinearFunctional,
    QuotientPresentation,
    SuperElement,
    VariableContext,
    apply_k,
    cohomology,
    deformation,
    dwork_potential,
    grade,
    operators,
    parse,
    reduction_functional,
)
from dworkbox import verify
from dworkbox.verify import (
    FAULT_HOOKS,
    fault_injection,
    random_charge_element,
    random_element,
    random_homogeneous,
    run_suite,
)
from tests.oracles import enumerating_charge_element, fraction_random_element


def test_suite_passes_on_good_build(cubic_dwork, cubic_presentation):
    report = run_suite(cubic_dwork, cubic_presentation, seed=3, iterations=30)
    assert report.ok
    assert all(c.passed for c in report.checks)
    assert len(report.checks) >= 19


def test_suite_deterministic(cubic_dwork, cubic_presentation):
    a = run_suite(cubic_dwork, cubic_presentation, seed=5, iterations=20)
    b = run_suite(cubic_dwork, cubic_presentation, seed=5, iterations=20)
    assert a.lines() == b.lines()
    c = run_suite(cubic_dwork, cubic_presentation, seed=6, iterations=20)
    assert a.lines()[0] != c.lines()[0]


@pytest.mark.parametrize("hook", FAULT_HOOKS)
def test_fault_injection_caught(cubic_dwork, cubic_presentation, hook):
    with fault_injection(hook):
        report = run_suite(cubic_dwork, cubic_presentation, seed=3, iterations=25)
    assert not report.ok
    failing = [c for c in report.checks if not c.passed]
    assert failing and all(c.detail for c in failing)
    # operators restored after the context exits
    clean = run_suite(cubic_dwork, cubic_presentation, seed=3, iterations=10)
    assert clean.ok


def test_delta_fault_is_caught_by_the_delta_checks(cubic_dwork, cubic_presentation):
    """apply_k does not call the delta kernel `_delta_numerators`, so the
    dropped delta term never shows through K; it shows in the delta checks (delta^2 = 0, delta Q +
    Q delta = 0), and in the reduce families, whose `reduce` subtracts
    delta(xi) per weight slice."""
    with fault_injection("delta-drop-term"):
        report = run_suite(cubic_dwork, cubic_presentation, seed=3, iterations=25)
    failing = {c.name: c.detail for c in report.checks if not c.passed}
    assert failing["differentials: squares and anticommutator vanish"].startswith(
        ("delta^2: ", "delta Q + Q delta: "))


# (n, k, degrees, G, H) of the geometries a fault hook is run on
FAULT_GEOMETRIES = {
    "cubic_curve": (2, 1, (3,), ["x0^3 + x1^3 + x2^3"], ["x0*x1*x2"]),
    "quartic_k3": (3, 1, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"], ["x0*x1*x2*x3"]),
    "two_quadrics": (3, 2, (2, 2), ["x0^2 + x1^2 + x2^2 + x3^2",
                                    "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"], ["x0*x1", "0"]),
}
# hook -> the module globals that hold its operator
FAULT_HOLDERS = {
    "delta-drop-term": [(operators, "_delta_numerators"), (cohomology, "_delta_numerators")],
    "bracket-sign": [(operators, "ell2"), (deformation, "ell2")],
}
DELTA_FAMILIES = {"differentials: squares and anticommutator vanish",
                  "reduce: certificate soundness", "reduce: vanishes on the image of K",
                  "reduce: linearity"}
BRACKET_FAMILIES = {"bracket: defining expansion against K",
                    "deformation: K_Gamma equals the deformed K"}
EXP_FAMILY = "exponential identities at truncation orders <= 3"
# (geometry, hook) -> the families that fail at seed 3, 40 iterations; each
# holds the families that reach the hooked operator, DELTA_FAMILIES or
# BRACKET_FAMILIES | {EXP_FAMILY}, and on the K3 a delta fault also shows
# in a reduction functional that no longer kills K(xi)
FAULT_FAILURES = {
    ("cubic_curve", "delta-drop-term"): DELTA_FAMILIES,
    ("cubic_curve", "bracket-sign"): BRACKET_FAMILIES | {EXP_FAMILY},
    ("quartic_k3", "delta-drop-term"):
        DELTA_FAMILIES | {"reduction functionals kill the image of K"},
    ("quartic_k3", "bracket-sign"): BRACKET_FAMILIES | {EXP_FAMILY},
    ("two_quadrics", "delta-drop-term"): DELTA_FAMILIES,
    ("two_quadrics", "bracket-sign"): BRACKET_FAMILIES | {EXP_FAMILY},
}


@pytest.mark.parametrize("name", list(FAULT_GEOMETRIES))
@pytest.mark.parametrize("hook", FAULT_HOOKS)
def test_fault_reaches_every_holder(name, hook):
    """Inside the block every module global holding the hooked operator is
    the corrupted object, however the module imported it; after the block,
    also one left by an exception, every holder is the original again.
    The failing families are the pinned ones, and they include those of
    the corrupted operator's callers."""
    n, k, degrees, G, H = FAULT_GEOMETRIES[name]
    ctx = VariableContext(n, k, degrees)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    pres = QuotientPresentation(D)
    holders = FAULT_HOLDERS[hook]
    originals = [getattr(module, attr) for module, attr in holders]
    assert len(set(originals)) == 1
    with fault_injection(hook):
        corrupted = {getattr(module, attr) for module, attr in holders}
        report = run_suite(D, pres, seed=3, iterations=40,
                           deformation_H=[parse(h, ctx) for h in H])
    assert len(corrupted) == 1 and corrupted != set(originals)
    assert [getattr(module, attr) for module, attr in holders] == originals
    with pytest.raises(RuntimeError, match="inside the block"):
        with fault_injection(hook):
            raise RuntimeError("inside the block")
    assert [getattr(module, attr) for module, attr in holders] == originals
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == FAULT_FAILURES[name, hook]
    assert failing >= (DELTA_FAMILIES if hook == "delta-drop-term"
                       else BRACKET_FAMILIES | {EXP_FAMILY})


@pytest.mark.parametrize("name", list(FAULT_GEOMETRIES))
def test_bracket_fault_fails_the_exponential_identity_at_every_seed(name):
    """At 12 iterations the exponential-identity family makes one check.
    Its pair (Gamma, lam) is drawn again while l2(Gamma, lam) = 0, so the
    check sees the bracket and `bracket-sign` fails it at every seed."""
    n, k, degrees, G, _ = FAULT_GEOMETRIES[name]
    ctx = VariableContext(n, k, degrees)
    D = dwork_potential(ctx, [parse(g, ctx) for g in G])
    pres = QuotientPresentation(D)
    for seed in range(8):
        with fault_injection("bracket-sign"):
            report = run_suite(D, pres, seed=seed, iterations=12)
        assert {c.name: c.passed for c in report.checks}[EXP_FAMILY] is False, seed


def test_gradings_family_catches_a_non_additive_grading(cubic_dwork, cubic_presentation,
                                                       monkeypatch):
    """With every charge shifted by one, the charge of a product is not the
    sum of its factors' charges; the family must say so."""
    from dworkbox import verify

    real = verify.grade
    monkeypatch.setattr(verify, "grade", lambda a: [(ch + 1, w, deg, part)
                                                   for ch, w, deg, part in real(a)])
    report = run_suite(cubic_dwork, cubic_presentation, seed=3, iterations=20)
    verdicts = {c.name: c.passed for c in report.checks}
    assert verdicts["product: gradings additive"] is False


def test_suite_passes_on_two_quadrics(quadrics_dwork, quadrics_presentation):
    """k = 2 with a deformation whose second component is zero."""
    ctx = quadrics_dwork.ctx
    H = [parse("x0*x1", ctx), SuperElement.zero(ctx)]
    report = run_suite(quadrics_dwork, quadrics_presentation, seed=0, iterations=20,
                       deformation_H=H)
    assert report.ok
    assert all(c.passed for c in report.checks)
    assert any("deformed" in c.name for c in report.checks)


def test_fault_injection_unknown_hook():
    with pytest.raises(ValueError):
        fault_injection("no-such-hook")


def test_random_element_homogeneity(cubic_ctx):
    rng = random.Random(8)
    for _ in range(50):
        e = random_element(cubic_ctx, rng, homogeneous_degree=1)
        assert {deg for _, _, deg, _ in grade(e)} <= {-1}
        h = random_homogeneous(cubic_ctx, rng)
        assert h.homogeneous_degree() is not None


@pytest.mark.parametrize("kw", [{"max_eta": -1}, {"max_weight": -1}, {"max_xdeg": -1},
                                {"homogeneous_degree": 5}, {"homogeneous_degree": -1}])
def test_random_element_rejects_an_empty_range(cubic_ctx, kw):
    """A bound that leaves no value to draw raises, as `randint` and
    `sample` raise on it, instead of drawing forever; with no term to draw
    nothing is checked."""
    with pytest.raises(ValueError):
        random_element(cubic_ctx, random.Random(0), **kw)
    assert random_element(cubic_ctx, random.Random(0), terms=0, **kw).is_zero()


DRAW_GEOMETRIES = ["cubic_dwork", "quartic_dwork", "quadrics_dwork", "grevlex sextic"]


def _draw_geometry(geometry, request):
    if geometry == "grevlex sextic":
        ctx = VariableContext(2, 1, (6,), "grevlex")
        return dwork_potential(ctx, [parse("x0^6 + x1^6 + x2^6", ctx)])
    return request.getfixturevalue(geometry)


@pytest.mark.parametrize("geometry", DRAW_GEOMETRIES)
def test_random_charge_element_draws_as_the_enumerating_sampler(geometry, request,
                                                                monkeypatch):
    """Drawing from the cached listings makes the same elements, and leaves
    the generator in the same state, as sampling the listed pieces.  The grid
    takes every walk of `random.sample`: one position of one, the pool walk
    (2 to 21 positions) and the rejection walk (more than 21)."""
    D = _draw_geometry(geometry, request)
    top = D.ctx.n - D.ctx.k
    c_G = D.ctx.background_charge()
    walks = set()

    def counting_sample(getrandbits, n, k):
        walks.add("one" if n == 1 else "pool" if n <= 21 else "rejection")
        return sample(getrandbits, n, k)

    sample = verify._sample
    monkeypatch.setattr(verify, "_sample", counting_sample)
    for seed in range(4):
        # charge 0 at weight 0 is the piece {1}, also where c_G is not 0
        for charge in dict.fromkeys((c_G - 1, c_G, c_G + 2, 0)):
            for eta_degree in (0, -1):
                for max_weight in range(top + 3):
                    rng, ref = random.Random(seed), random.Random(seed)
                    for _ in range(3):
                        drawn = random_charge_element(D, rng, charge, eta_degree, max_weight)
                        expected = enumerating_charge_element(D, ref, charge, eta_degree,
                                                              max_weight)
                        assert drawn == expected
                        # the key order decides which term delta-drop-term drops
                        assert list(drawn._num) == list(expected._num)
                    assert rng.getstate() == ref.getstate()
    assert walks == {"one", "pool", "rejection"}


def test_suite_lists_each_piece_once(cubic_dwork, cubic_presentation, monkeypatch):
    """From a cleared cache, one suite on the cubic lists each (charge,
    weight, eta degree) piece at most once, and every charge draw is the
    enumerating sampler's, generator state included."""
    listed = []
    list_piece = verify.enumerate_piece

    def counting_listing(ctx, charge, weight, eta_degree):
        listed.append((charge, weight, eta_degree))
        return list_piece(ctx, charge, weight, eta_degree)

    draw = verify.random_charge_element
    draws = 0

    def checked_draw(D, rng, charge, eta_degree, max_weight=3):
        nonlocal draws
        ref = random.Random()
        ref.setstate(rng.getstate())
        drawn = draw(D, rng, charge, eta_degree, max_weight)
        expected = enumerating_charge_element(D, ref, charge, eta_degree, max_weight)
        assert drawn == expected and list(drawn._num) == list(expected._num)
        assert rng.getstate() == ref.getstate()
        draws += 1
        return drawn

    monkeypatch.setattr(verify, "enumerate_piece", counting_listing)
    monkeypatch.setattr(verify, "random_charge_element", checked_draw)
    verify._piece.cache_clear()
    assert run_suite(cubic_dwork, cubic_presentation, seed=0, iterations=40).ok
    assert draws > 40
    assert listed and len(listed) == len(set(listed))


# bounds of one to nine bits, and past the 32-bit words of MT19937
BELOW_BOUNDS = [*range(1, 301), 2 ** 31, 2 ** 61 - 1, 2 ** 64 + 1]


def test_below_is_the_randrange_stream():
    """`_below(rng.getrandbits, n)` draws what `randrange(n)` draws, and
    leaves the generator in the same state, on every bound."""
    rng, ref = random.Random(11), random.Random(11)
    for n in BELOW_BOUNDS:
        for _ in range(4):
            assert verify._below(rng.getrandbits, n) == ref.randrange(n)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [1, 2, 5, 6, 21, 22, 84, 85, 86, 500])
@pytest.mark.parametrize("k", [1, 2, 5, 6])
def test_sample_walks_are_the_random_sample_stream(n, k):
    """`_sample(rng.getrandbits, n, k)` draws the positions, in order, that
    `random.sample(range(n), k)` draws, through the pool walk and the
    rejection walk, whose boundary is n = 21 up to k = 5 and n = 85 for
    k = 6; a k above n raises in both."""
    rng, ref = random.Random(n * 10 + k), random.Random(n * 10 + k)
    for _ in range(5):
        if k > n:
            with pytest.raises(ValueError):
                verify._sample(rng.getrandbits, n, k)
            with pytest.raises(ValueError):
                ref.sample(range(n), k)
        else:
            assert verify._sample(rng.getrandbits, n, k) == ref.sample(range(n), k)
        assert rng.getstate() == ref.getstate()


# every keyword shape `run_suite` draws `random_element` with, and one more
RUN_SUITE_DRAWS = [{}, {"terms": 4}, {"homogeneous_degree": 0, "terms": 2, "max_xdeg": 2},
                   {"homogeneous_degree": 1, "terms": 2, "max_xdeg": 2},
                   {"homogeneous_degree": 2, "terms": 2, "max_xdeg": 2},
                   # few keys, so terms collide; on each geometry below, seeds 0-2
                   # make a sum cancel
                   {"max_eta": 0, "max_weight": 0, "max_xdeg": 1, "terms": 16}]


@pytest.mark.parametrize("geometry", DRAW_GEOMETRIES)
def test_draws_make_int_numerators_as_the_fraction_reference(geometry, request, monkeypatch):
    """The draws build no Fraction, and make the same value, key order and
    generator state as the Fraction route of `oracles.fraction_random_element`
    and `oracles.enumerating_charge_element`."""
    D = _draw_geometry(geometry, request)
    ctx = D.ctx
    c_G = ctx.background_charge()

    def forbidden(*args):
        raise AssertionError("a verify draw built a Fraction")

    monkeypatch.setattr(verify, "Fraction", forbidden)

    def same(drawn, expected):
        assert drawn == expected
        assert list(drawn._num) == list(expected._num)

    def homogeneous_reference(rng, **kw):
        deg = rng.randint(0, min(2, ctx.nvars))
        e = fraction_random_element(ctx, rng, homogeneous_degree=deg, **kw)
        if e.is_zero():
            return SuperElement.one(ctx) if deg == 0 else SuperElement.eta(ctx, 1)
        return e

    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        for kw in RUN_SUITE_DRAWS:
            for _ in range(4):
                same(random_element(ctx, rng, **kw), fraction_random_element(ctx, ref, **kw))
            same(random_homogeneous(ctx, rng), homogeneous_reference(ref))
            same(random_homogeneous(ctx, rng, terms=2, max_xdeg=2),
                 homogeneous_reference(ref, terms=2, max_xdeg=2))
        for charge in range(c_G - 2, c_G + 4):
            for eta_degree in (0, -1):
                same(random_charge_element(D, rng, charge, eta_degree),
                     enumerating_charge_element(D, ref, charge, eta_degree))
        assert rng.getstate() == ref.getstate()


def test_random_charge_element_slices(cubic_dwork):
    rng = random.Random(9)
    for lam in (-3, 0, 1):
        for s in (0, -1):
            e = random_charge_element(cubic_dwork, rng, lam, s, max_weight=2)
            assert {ch for ch, _, _, _ in grade(e)} <= {lam}
            assert {deg for _, _, deg, _ in grade(e)} <= {s}


def test_reduction_functional_contract(cubic_dwork, cubic_presentation):
    rng = random.Random(10)
    row = (Fraction(3), Fraction(-1, 2))
    f = reduction_functional(cubic_presentation, row)
    assert isinstance(f, LinearFunctional) and f.cochain
    # linearity spot-check
    a = random_charge_element(cubic_dwork, rng, 0, 0)
    b = random_charge_element(cubic_dwork, rng, 0, 0)
    assert f(a.scale(Fraction(2, 3)) + b) == Fraction(2, 3) * f(a) + f(b)
    # vanishes outside degree 0 and off the background charge
    assert f(random_charge_element(cubic_dwork, rng, 0, -1)) == 0
    assert f(random_charge_element(cubic_dwork, rng, 2, 0)) == 0
    # kills the image of K
    xi = random_charge_element(cubic_dwork, rng, 0, -1)
    assert f(apply_k(cubic_dwork, xi)) == 0


def test_reduction_functional_memo_is_per_functional(cubic_presentation, monkeypatch):
    """One functional reduces an element once; another shares no memo."""
    calls = []
    original = QuotientPresentation.reduce

    def counting_reduce(pres, f):
        calls.append(f)
        return original(pres, f)

    monkeypatch.setattr(QuotientPresentation, "reduce", counting_reduce)
    ctx = cubic_presentation.dwork.ctx
    row = (Fraction(3), Fraction(-1, 2))
    x = parse("y1*x0^3 + 2*y1*x0*x1*x2", ctx)
    f = reduction_functional(cubic_presentation, row)
    value = f(x)
    assert f(x) == value
    assert len(calls) == 1
    g = reduction_functional(cubic_presentation, row)
    assert g(x) == value
    assert len(calls) == 2
    # the memo is keyed by the projection to degree 0 and charge c_G
    assert f(x + parse("e1 + x0", ctx)) == value
    assert len(calls) == 2


def test_reduction_functional_row_length(cubic_presentation):
    with pytest.raises(ValueError):
        reduction_functional(cubic_presentation, (Fraction(1),))
