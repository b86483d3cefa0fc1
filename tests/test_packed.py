"""Packed monomial keys: the int kernel against the tuple/Fraction reference
in `tests/oracles.py`, the exponent limit, the order of a piece, and seeded
outputs pinned to the values the tuple-keyed kernel gave."""

import contextlib
import hashlib
import json
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from dworkbox import (
    InputError,
    QuotientPresentation,
    SuperElement,
    SuperMonomial,
    VariableContext,
    apply_delta,
    apply_k,
    apply_q,
    build_presentation,
    dwork_potential,
    parse,
    partial_eta,
    partial_q,
    render,
)
from dworkbox import verify
from dworkbox.cli import EXIT_INPUT, EXIT_OK, main
from dworkbox.cohomology import PieceView
from dworkbox.operators import _delta_numerators
from dworkbox.superalgebra import MAX_EXPONENT, make_monomial, monomial_sort_key
from dworkbox.verify import (
    FAULT_HOOKS,
    _drop_first_term,
    fault_injection,
    random_charge_element,
    run_suite,
)
from tests.oracles import (
    brute_force_piece,
    frac_apply_delta,
    frac_apply_k,
    frac_apply_q,
    frac_mul,
    frac_partial_eta,
    frac_partial_q,
)

GEOMETRY_FIXTURES = ["cubic_dwork", "quartic_dwork", "quadrics_dwork", "grevlex_k3_dwork",
                     "fractional_cubic_dwork"]


def test_pack_round_trips(quadrics_ctx):
    ctx = quadrics_ctx
    rng = random.Random(80)
    for size in range(ctx.nvars + 1):
        for eta in combinations(range(1, ctx.nvars + 1), size):
            qexp = tuple(rng.choice((0, 1, 7, MAX_EXPONENT - 1, MAX_EXPONENT))
                         for _ in range(ctx.nvars))
            mono = SuperMonomial(qexp, eta)
            key = ctx.pack(mono)
            assert ctx.unpack(key) == mono and ctx.exponents(key) == qexp
            assert key & ctx.eta_mask == sum(1 << (mu - 1) for mu in eta)
            assert not key & ctx.guard_mask
    element = SuperElement(ctx, {SuperMonomial((1, 2, 0, 0, 3, 0), (2, 5)): Fraction(2, 3)})
    assert pickle.loads(pickle.dumps(element)) == element


def masked_element(ctx, rng, eta, near_limit):
    """Three terms, each with the eta subset `eta` and exponents up to 4;
    with `near_limit` one y exponent of each term is MAX_EXPONENT - 1, which
    a factor of exponents <= 1 and the Q terms (they raise a y exponent by
    at most 1) keep within the limit."""
    terms = {}
    for _ in range(3):
        qexp = [rng.randint(0, 4) for _ in range(ctx.nvars)]
        if near_limit:
            qexp[rng.randrange(ctx.k)] = MAX_EXPONENT - 1
        terms[SuperMonomial(tuple(qexp), eta)] = Fraction(rng.randint(-5, 5) or 1,
                                                          rng.randint(1, 4))
    return SuperElement(ctx, terms)


def small_element(ctx, rng):
    """Three terms with exponents <= 1 and random eta subsets."""
    terms = {}
    for _ in range(3):
        eta = tuple(sorted(rng.sample(range(1, ctx.nvars + 1), rng.randint(0, ctx.nvars))))
        qexp = tuple(rng.randint(0, 1) for _ in range(ctx.nvars))
        terms[SuperMonomial(qexp, eta)] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
    return SuperElement(ctx, terms)


@pytest.mark.parametrize("geometry", GEOMETRY_FIXTURES)
def test_kernel_matches_the_reference_on_every_eta_mask(geometry, request):
    """The product both ways, partial_q, partial_eta, apply_q, apply_delta
    and apply_k equal the tuple/Fraction reference on elements with every
    eta subset of the N odd variables, with small exponents and with
    exponents at the limit minus 1."""
    D = request.getfixturevalue(geometry)
    ctx, S, nvars = D.ctx, D.S.terms, D.ctx.nvars
    rng = random.Random(f"packed:{geometry}")
    checked = 0
    for size in range(nvars + 1):
        for eta in combinations(range(1, nvars + 1), size):
            for near_limit in (False, True):
                a, b = masked_element(ctx, rng, eta, near_limit), small_element(ctx, rng)
                results = [(a * b, frac_mul(a.terms, b.terms)),
                           (b * a, frac_mul(b.terms, a.terms)),
                           (apply_q(D, a), frac_apply_q(S, nvars, a.terms)),
                           (apply_delta(a), frac_apply_delta(nvars, a.terms)),
                           (apply_k(D, a), frac_apply_k(S, nvars, a.terms))]
                for i in range(1, nvars + 1):
                    results.append((partial_q(i, a), frac_partial_q(i, a.terms)))
                    results.append((partial_eta(i, a), frac_partial_eta(i, a.terms)))
                for got, expected in results:
                    assert got.terms == expected
                checked += 1
    assert checked == 2 ** (nvars + 1)


def test_every_pair_of_eta_masks_multiplies_as_the_reference(cubic_ctx):
    """All 2^N x 2^N pairs of eta subsets of the cubic: the Koszul sign of
    the bitmask kernel is the reference's inversion count, and a repeated
    index kills the term."""
    ctx = cubic_ctx
    subsets = [eta for size in range(ctx.nvars + 1)
               for eta in combinations(range(1, ctx.nvars + 1), size)]
    for ea in subsets:
        for eb in subsets:
            a = SuperElement(ctx, {SuperMonomial((1, 0, 2, 0), ea): 2,
                                   SuperMonomial((0, 1, 0, 0), ()): Fraction(1, 3)})
            b = SuperElement(ctx, {SuperMonomial((0, 0, 1, 1), eb): -1})
            assert (a * b).terms == frac_mul(a.terms, b.terms)


def test_exponents_past_the_limit_raise(cubic_dwork):
    """Packing, the product and the Q terms raise InputError past
    MAX_EXPONENT instead of carrying into the next field; the limit itself
    is reachable."""
    D = cubic_dwork
    ctx = D.ctx
    at_limit = parse(f"x0^{MAX_EXPONENT}", ctx)
    assert at_limit.terms == {SuperMonomial((0, MAX_EXPONENT, 0, 0)): 1}
    assert (parse(f"y1^{MAX_EXPONENT - 1}", ctx) * parse("y1", ctx)).terms == \
        {SuperMonomial((MAX_EXPONENT, 0, 0, 0)): 1}
    x0 = parse("x0", ctx)
    for product in (lambda: at_limit * x0, lambda: x0 * at_limit,
                    lambda: at_limit * at_limit,
                    lambda: parse(f"x2^{MAX_EXPONENT}*e1", ctx) * parse("x1*x2*e2", ctx),
                    lambda: parse(f"x0^{MAX_EXPONENT + 1}", ctx)):
        with pytest.raises(InputError, match=f"limit {MAX_EXPONENT}"):
            product()
    # the Q term of e2 is dS/dx0 = 3*y1*x0^2, which raises y1 past the limit
    odd = SuperElement(ctx, {SuperMonomial((MAX_EXPONENT, 0, 0, 0), (2,)): 1})
    for differential in (lambda: apply_q(D, odd), lambda: apply_k(D, odd)):
        with pytest.raises(InputError, match=f"limit {MAX_EXPONENT}"):
            differential()
    assert apply_delta(odd).is_zero()
    for bad in (SuperMonomial((MAX_EXPONENT + 1, 0, 0, 0)), SuperMonomial((0, 2 ** 40, 0, 0))):
        with pytest.raises(InputError, match=f"limit {MAX_EXPONENT}"):
            SuperElement(ctx, {bad: 1})
        with pytest.raises(InputError, match=f"limit {MAX_EXPONENT}"):
            make_monomial(ctx, bad.qexp)
    for bad in (SuperMonomial((-1, 0, 0, 0)), SuperMonomial((0, 0, 0)),
                SuperMonomial((0, 0, 0, 0), (2, 1)), SuperMonomial((0, 0, 0, 0), (5,))):
        with pytest.raises(InputError):
            SuperElement(ctx, {bad: 1})


def test_cli_reduce_states_the_exponent_limit(capsys, tmp_path):
    """An exponent past the limit exits 2 with the limit in the message; the
    large exponent the tuple kernel reduced exactly still reduces."""
    config = tmp_path / "cubic.json"
    config.write_text(json.dumps({"n": 2, "k": 1, "degrees": [3],
                                  "G": ["x0^3 + x1^3 + x2^3"]}))
    for text in (f"x0^{MAX_EXPONENT + 1}", f"y1*x0^{MAX_EXPONENT}*x1", "x0^99999999999999999999"):
        assert main(["reduce", str(config), text]) == EXIT_INPUT
        assert f"limit {MAX_EXPONENT}" in capsys.readouterr().err
    assert main(["--format", "json", "reduce", str(config), "y1^3*x0^40000*x1^2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    ctx = VariableContext(2, 1, (3,))
    D = dwork_potential(ctx, [parse("x0^3 + x1^3 + x2^3", ctx)])
    f = parse(payload["input"], ctx)
    assert payload["coefficients"] == ["0/1", "0/1"]
    assert apply_k(D, parse(payload["certificate"], ctx)) == f


@pytest.mark.parametrize("order", ["graded-lex", "grevlex"])
@pytest.mark.parametrize("n,k,degrees,bound,pieces", [
    (2, 1, (3,), 9, [(0, 1, 0), (0, 2, -1), (-1, 2, -2), (1, 2, -1), (3, 2, 0), (2, 1, -2)]),
    (3, 2, (2, 2), 3, [(0, 1, 0), (0, 2, -1), (-1, 2, -2), (1, 1, -1), (2, 1, -2)]),
], ids=["cubic", "two_quadrics"])
def test_piece_view_walks_the_brute_force_piece_in_order(n, k, degrees, bound, pieces,
                                                         order):
    """PieceView walks, as many as `len` counts, the packed keys of the
    brute-force piece sorted by monomial_sort_key, largest first.  `bound`
    is the largest exponent in these pieces, so the box scan is complete."""
    ctx = VariableContext(n, k, degrees, order)
    for charge, weight, eta_degree in pieces:
        expected = sorted(brute_force_piece(ctx, charge, weight, eta_degree, exp_bound=bound),
                          key=lambda m: monomial_sort_key(ctx, ctx.pack(m)), reverse=True)
        view = PieceView(ctx, charge, weight, eta_degree)
        assert len(view) == len(expected) > 1
        assert [ctx.unpack(key) for key in view] == expected


# -- outputs pinned to the tuple-keyed kernel -----------------------------------------

PINNED = {
    "cubic_curve": (2, 1, (3,), ["x0^3 + x1^3 + x2^3"]),
    "quartic_k3": (3, 1, (4,), ["x0^4 + x1^4 + x2^4 + x3^4"]),
    "two_quadrics": (3, 2, (2, 2), ["x0^2 + x1^2 + x2^2 + x3^2",
                                    "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"]),
}
# sha256 of the report lines of run_suite(seed=0, iterations=12), with each
# fault hook.  The fault-free reports are as the tuple-keyed kernel wrote
# them, less the rows "descendants: l_n = 0 for n >= 3" and "Bell
# polynomials: partial sums match complete", which the suite no longer
# checks.  Their draws are gone from the stream, so every counterexample
# after the differentials line moved: under delta-drop-term the reduce
# families fail (two quadrics now also fail linearity), under bracket-sign
# the defining expansion and the exponential identity.  That family draws
# (Gamma, lam) again while l2(Gamma, lam) = 0, which moved two reports:
# the cubic's under delta-drop-term, whose one draw had a zero bracket and
# shifted the reduce draws after it, and two quadrics' under bracket-sign,
# whose one draw had Gamma = 0 and passed.
PINNED_REPORTS = {
    ("cubic_curve", None): "1aef01a12b873f9f7049f547dc9d04f49234fefec0daea929c10785913916530",
    ("cubic_curve", "delta-drop-term"):
        "c801fb2dd94b23ebce29689e1e41932e8bc599b1e21621f681093b6a32ccdf7b",
    ("cubic_curve", "bracket-sign"):
        "f54ad8ba9ed0c6e4294e132c9e3a0e8ba1a98bcd0749ab077fab78ab808f9ec7",
    ("quartic_k3", None): "1aef01a12b873f9f7049f547dc9d04f49234fefec0daea929c10785913916530",
    ("quartic_k3", "delta-drop-term"):
        "181a64af86657ac63897b8fd560c05ef3be73e828383007adc063cf763b769e4",
    ("quartic_k3", "bracket-sign"):
        "39d2cf6f4f6a856db6218452482b400b3aa69d6728806e7e111ec989b8425ca6",
    ("two_quadrics", None): "1aef01a12b873f9f7049f547dc9d04f49234fefec0daea929c10785913916530",
    ("two_quadrics", "delta-drop-term"):
        "744473ba2e1118c90175bad870db1c5eff57d2b7cc080f7ad84a2381d2bebb62",
    ("two_quadrics", "bracket-sign"):
        "b6e5df598f4113897ae919820cf0458a9c14462d1deb3b2f715a4ee2ed40b45b",
}
PINNED_FAILURE = {
    "cubic_curve": "FAIL  differentials: squares and anticommutator vanish  [delta Q + Q delta: "
                   "3*y1^2*x0*x1^4*x2^3*e2*e4 + 2*y1*x1^2*x2^4*e2*e4 + 4*x0*x1^3*x2^2*e1*e3]",
}


def _pinned_dwork(name):
    n, k, degrees, G = PINNED[name]
    ctx = VariableContext(n, k, degrees)
    return dwork_potential(ctx, [parse(g, ctx) for g in G])


@pytest.mark.parametrize("name", list(PINNED))
def test_seeded_verify_reports_are_unchanged(name):
    """The seeded draws make the same report lines, counterexamples
    included, as before the keys were packed, and each fault hook makes its
    pinned report; under `delta-drop-term` the cubic's differentials line
    names the same counterexample."""
    D = _pinned_dwork(name)
    pres = build_presentation(D)
    for fault in (None, "delta-drop-term", "bracket-sign"):
        if fault is None:
            report = run_suite(pres, seed=0, iterations=12)
        else:
            with fault_injection(fault):
                report = run_suite(pres, seed=0, iterations=12)
        assert report.ok == (fault is None)
        lines = report.lines()
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            PINNED_REPORTS[name, fault]
        if fault == "delta-drop-term" and name in PINNED_FAILURE:
            assert PINNED_FAILURE[name] in lines


def test_seeded_verify_draws_call_no_random_method(monkeypatch):
    """Every draw of `run_suite` takes `getrandbits` words: with `randint`,
    `randrange`, `sample` and `choice` of `random.Random` made to raise,
    the cubic's report, fault-free and under each fault hook, keeps its
    pinned hash."""
    D = _pinned_dwork("cubic_curve")
    pres = build_presentation(D)

    def forbidden(*args, **kwargs):
        raise AssertionError("a verify draw went through a random.Random method")

    for method in ("randint", "randrange", "sample", "choice"):
        monkeypatch.setattr(random.Random, method, forbidden)
    for fault in (None, *FAULT_HOOKS):
        with fault_injection(fault) if fault else contextlib.nullcontext():
            report = run_suite(pres, seed=0, iterations=12)
        assert hashlib.sha256("\n".join(report.lines()).encode()).hexdigest() == \
            PINNED_REPORTS["cubic_curve", fault]


# sha256 of the draws of run_suite(seed=0, iterations=12) on the cubic, as
# `randint`, `sample` and `choice` made them: each drawn element with its
# arguments, the derivative indices, the inputs of reduce, the rows of the
# reduction functionals and the arguments of the complete Bell polynomials
# of the descendant moments.  Re-pinned when the descendants and Bell
# families and their draws left the suite.  A passing family's draws show
# in no report line.
PINNED_DRAWS = "dfe1523e73319049354673c0fe9f715a8f10e7e803e048d8b9cdb4e7ec6e4d11"


def _shown(value):
    if isinstance(value, SuperElement):
        return render(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(map(_shown, value)) + ")"
    if isinstance(value, (int, Fraction)):
        return str(value)
    return type(value).__name__


def test_seeded_verify_draws_are_unchanged(monkeypatch):
    """`run_suite` draws every value it checks as the `random.Random`
    methods drew it, also where a family passes and its report line shows
    no draw."""
    D = _pinned_dwork("cubic_curve")
    pres = build_presentation(D)
    log = []

    def spy(holder, name):
        function = getattr(holder, name)

        def recorded(*args, **kwargs):
            out = function(*args, **kwargs)
            log.append(f"{name}{_shown(args)} {sorted(kwargs.items())} -> {_shown(out)}")
            return out
        monkeypatch.setattr(holder, name, recorded)

    for name in ("random_element", "random_homogeneous", "random_charge_element",
                 "partial_eta", "partial_q", "reduction_functional"):
        spy(verify, name)
    spy(verify.ops, "bell_complete")
    spy(QuotientPresentation, "reduce")
    assert run_suite(pres, seed=0, iterations=12).ok
    assert hashlib.sha256("\n".join(log).encode()).hexdigest() == PINNED_DRAWS


def test_reduce_stream_draws_are_unchanged():
    """The seeded `random_charge_element` draws of the benchmark's reduce
    stream (seed 1: 200 per geometry, cubic then K3, weights up to n - k +
    2) render as before the keys were packed."""
    rng = random.Random("dworkbox-bench:1:stream")
    texts = []
    for name in ("cubic_curve", "quartic_k3"):
        D = _pinned_dwork(name)
        top = D.ctx.n - D.ctx.k + 2
        texts += [render(random_charge_element(D, rng, D.ctx.background_charge(), 0,
                                               max_weight=top))
                  for _ in range(200)]
    assert texts[0] == "-2/3*y1^3*x0^2*x1^5*x2^2 + y1^3*x1^8*x2 - y1^2*x0^5*x2 " \
                       "- 4/3*y1^2*x0^2*x1^3*x2 + y1*x2^3 + 1/3"
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == \
        "c46a8f7222bd9c478429cb1261aa2123f51a6733ff5e1930ea2c9edee726fa75"


def test_delta_drop_term_drops_the_same_monomial():
    """`_drop_first_term` pops the first key with a nonzero numerator that
    `_differential` inserted: the delta term of the lowest eta of the first
    term."""
    ctx = VariableContext(2, 1, (3,))
    a = parse("3*y1^2*x0*x1*e1*e2 - 2/3*x0^2*e2*e4 + y1*x2^3*e1*e3*e4 + 5*x1*e3", ctx)
    full = apply_delta(a)
    num = dict(a._num)
    dropped = SuperElement._make(ctx, _drop_first_term(_delta_numerators)(ctx, num), a._den)
    assert num == a._num
    assert render(full - dropped) == "6*y1*x0*x1*e2"
    assert render(dropped) == "-3*y1^2*x1*e1 + 3*y1*x2^2*e1*e3 + x2^3*e3*e4 - 4/3*x0*e4 + 5"
