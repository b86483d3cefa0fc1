"""Seeded random verification of the algebraic invariants.

Each check family draws random elements from a fixed-seed generator and
confirms an exact identity; any counterexample is rendered in the report.
The CLI `verify` command runs every family and fails loudly on the first
broken invariant, so a corrupted build cannot slip through quietly.

Every draw takes the generator's `getrandbits` words through `_below` and
`_sample`, which make the same stream as `randint`, `choice` and `sample`
do on CPython 3.10+, without their Python frames: each element, its key
order and the generator state after it are theirs.  `tests/oracles.py`
keeps the `randint` route as the reference the draws are tested against.

The truncated exponential identity K(lam e^Gamma) = K_Gamma(lam) e^Gamma,
with K_Gamma = K + l2(Gamma, .), ties K to the bracket (`exp_identity_lhs`
/ `exp_identity_rhs`).  The suite checks only what can fail: K and l2
vanish on the eta-free Gamma, so lam carries an eta, and (Gamma, lam) is
drawn again, a bounded number of times, while l2(Gamma, lam) = 0; the
vanishing of l_n for n >= 3 (at n = 3 the Poisson rule) and the Bell sums
are Tier-1 tests, not families.

`operators.ell2` is a closed-form kernel that never applies K, so the
family "bracket: defining expansion against K", which compares it with
K(ab) - K(a)b - (-1)^|a| a K(b), is the independent check of the kernel.

A fault-injection hook exists purely so the harness itself can be tested:
it deliberately corrupts one operator for the duration of a run and the
suite is expected to catch it.  The hook rebinds the operator in every
loaded `dworkbox` module that holds it, so a module that imported it by
name sees the fault too; it is not thread-safe.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import operators as ops
from .cohomology import QuotientPresentation, charge_witness, enumerate_piece
from .deformation import build_deformation, k_gamma
from .errors import InputError
from .operators import DworkData, LinearFunctional
from .polyparse import render
from .superalgebra import (
    SuperElement,
    VariableContext,
    grade,
    monomial_charge,
    partial_eta,
    partial_q,
)


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), n > 0, as `random.Random` makes it.

    This is CPython's `Random._randbelow_with_getrandbits`: n.bit_length()
    bits at a time (not (n - 1).bit_length()), drawn again while not below
    n.  `randint(a, b)` is a + _below(g, b - a + 1) and `choice(seq)` is
    seq[_below(g, len(seq))], call for call on the generator.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits, n: int, k: int) -> list:
    """The positions `random.Random.sample(range(n), k)` draws, in its order.

    Both of CPython's walks are reproduced: while an n-list is smaller than
    a k-set (n <= 21 for k <= 5) the pool walk, which moves the last
    unchosen position into each vacancy; otherwise the rejection walk,
    which draws below n again while the position is taken.  A draw of one
    from one position still takes a `_below(g, 1)`.
    """
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    out = []
    if n <= setsize:
        moved = {}  # the pool's entries that differ from their position
        for i in range(k):
            last = n - i - 1
            j = _below(getrandbits, last + 1)
            out.append(moved.get(j, j))
            moved[j] = moved.get(last, last)
        return out
    for _ in range(k):
        j = _below(getrandbits, n)
        while j in out:
            j = _below(getrandbits, n)
        out.append(j)
    return out


def random_element(ctx: VariableContext, rng: random.Random, *, max_eta: int = 2,
                   max_weight: int = 2, max_xdeg: int = 4, terms: int = 3,
                   homogeneous_degree: Optional[int] = None) -> SuperElement:
    """A small random element; degree-homogeneous when requested.

    Each term is drawn as a packed key: the bits of an eta subset, then an
    exponent of at most max_weight per y and max_xdeg per x, times the unit
    of its field.  Its coefficient p/q, p in -6..6 and q in 1..4, is kept
    as the int numerator p * (12 // q) over 12, the lcm of every q.

    Every draw takes `rng.getrandbits` words through `_below` and `_sample`
    (the exponents through the same loop, written out), the same stream as
    `randint` and `sample` make on CPython 3.10+: each element, its key
    order and the generator state after it are theirs.
    `tests/oracles.fraction_random_element` keeps the `randint` route as
    the reference.
    """
    if terms > 0 and min(max_weight, max_xdeg,
                         max_eta if homogeneous_degree is None else 0) < 0:
        raise ValueError("the bounds of a random element must be nonnegative")
    getrandbits = rng.getrandbits
    nvars = ctx.nvars
    bounds = [max_weight + 1] * ctx.k + [max_xdeg + 1] * (nvars - ctx.k)
    fields = [(bound, bound.bit_length(), unit) for bound, unit in zip(bounds, ctx.q_units)]
    acc = {}
    for _ in range(terms):
        size = homogeneous_degree if homogeneous_degree is not None \
            else _below(getrandbits, max_eta + 1)
        key = 0
        if size:
            for j in _sample(getrandbits, nvars, size):
                key += 1 << j
        for bound, bits, unit in fields:
            r = getrandbits(bits)
            while r >= bound:
                r = getrandbits(bits)
            key += r * unit
        p, q = _below(getrandbits, 13) - 6, _below(getrandbits, 4) + 1  # p drawn before q
        if p:
            acc[key] = acc.get(key, 0) + p * (12 // q)
    return SuperElement._make(ctx, acc, 12)


def random_homogeneous(ctx: VariableContext, rng: random.Random, **kw) -> SuperElement:
    """Random element homogeneous in cohomological degree (possibly zero)."""
    deg = _below(rng.getrandbits, min(2, ctx.nvars) + 1)
    e = random_element(ctx, rng, homogeneous_degree=deg, **kw)
    if e.is_zero():
        return SuperElement.one(ctx) if deg == 0 else SuperElement.eta(ctx, 1)
    return e


@functools.lru_cache(maxsize=256)
def _piece(ctx: VariableContext, charge: int, weight: int, eta_degree: int) -> tuple:
    """The listed piece: it depends only on its gradings, so each is
    listed once, not per draw."""
    return enumerate_piece(ctx, charge, weight, eta_degree).monomials


def random_charge_element(D: DworkData, rng: random.Random, charge: int,
                          eta_degree: int, max_weight: int = 3) -> SuperElement:
    """Random element inside the (charge, eta_degree) slice, weights <= max_weight.

    Two monomials per weight are drawn from the piece's cached listing,
    as packed keys at the positions `_sample` draws.  Each coefficient
    p/q, p in -4..4 and q in 1..3, is kept as the int numerator
    p * (6 // q) over 6, the lcm of every q.

    The draws take `rng.getrandbits` words through `_below` and `_sample`,
    the same stream as `random.sample` of the listed piece and `randint`
    make on CPython 3.10+; `tests/oracles.enumerating_charge_element` keeps
    the `randint` route as the reference.
    """
    ctx = D.ctx
    getrandbits = rng.getrandbits
    acc = {}
    for w in range(0, max_weight + 1):
        piece = _piece(ctx, charge, w, eta_degree)
        size = len(piece)
        if not size:
            continue
        for j in _sample(getrandbits, size, min(2, size)):
            key = piece[j]
            p, q = _below(getrandbits, 9) - 4, _below(getrandbits, 3) + 1  # p drawn before q
            if p:
                acc[key] = acc.get(key, 0) + p * (6 // q)
    return SuperElement._make(ctx, acc, 6)


@dataclass
class CheckReport:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    seed: int
    iterations: int
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckReport(name, passed, detail))

    def lines(self):
        out = [f"verification seed={self.seed} iterations={self.iterations}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if (c.detail and not c.passed) else ""
            out.append(f"{status}  {c.name}{suffix}")
        out.append("result: " + ("all invariants hold" if self.ok else "INVARIANT FAILURE"))
        return out


def _counterexample(*elements) -> str:
    return " ; ".join(render(e) for e in elements)


def _check_loop(report: VerifyReport, name: str, iterations: int, body) -> None:
    """Run `body(i)` until it returns a failure detail or all iterations pass."""
    for i in range(iterations):
        detail = body(i)
        if detail:
            report.add(name, False, detail)
            return
    report.add(name, True)


# -- truncated exponential identity ------------------------------------------

def _gamma_powers(gamma: SuperElement, order: int):
    """1, Gamma, ..., Gamma^order, after checking the truncation order and
    that Gamma has cohomological degree 0."""
    if order < 1:
        raise InputError("truncation order must be >= 1")
    if gamma.homogeneous_degree() != 0:
        raise InputError("Gamma must have cohomological degree 0")
    powers = [SuperElement.one(gamma.ctx)]
    for _ in range(order):
        powers.append(powers[-1] * gamma)
    return powers


def exp_identity_lhs(D: DworkData, gamma: SuperElement, lam: SuperElement,
                     order: int) -> SuperElement:
    """Left side of K(lam e^Gamma) = K_Gamma(lam) e^Gamma, truncated at
    Gamma-order `order`:

        sum_{m=0..order} K(lam Gamma^m) / m!
    """
    powers = _gamma_powers(gamma, order)
    out = SuperElement.zero(D.ctx)
    for m, power in enumerate(powers):
        out = out + ops.apply_k(D, lam * power).scale(Fraction(1, math.factorial(m)))
    return out


def exp_identity_rhs(D: DworkData, gamma: SuperElement, lam: SuperElement,
                     order: int) -> SuperElement:
    """Right side of the same identity, truncated at the same Gamma-order:

        sum_{s<=order} K(lam) Gamma^s / s!  +  sum_{s<order} l2(Gamma, lam) Gamma^s / s!

    With Gamma of degree 0, K(Gamma^m) = 0 and l2(Gamma^m, lam) =
    m Gamma^(m-1) l2(Gamma, lam), so K(lam Gamma^m)/m! splits into the two
    terms of Gamma-order m; a disagreement is a bug in K or in l2.
    """
    powers = _gamma_powers(gamma, order)
    k_lam = ops.apply_k(D, lam)
    k_gamma_lam = k_lam + ops.ell2(D, gamma, lam)
    out = SuperElement.zero(D.ctx)
    for s, power in enumerate(powers):
        part = k_lam if s == order else k_gamma_lam
        out = out + (part * power).scale(Fraction(1, math.factorial(s)))
    return out


# how many times the exponential-identity family draws (Gamma, lam) at most
_EXP_DRAWS = 8


def run_suite(D: DworkData, presentation: QuotientPresentation,
              seed: int = 0, iterations: int = 200,
              deformation_H=None) -> VerifyReport:
    """All invariant families on one geometry; deterministic under the seed."""
    ctx = D.ctx
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    report = VerifyReport(seed, iterations)

    def rand():
        return random_element(ctx, rng)

    def rand_h():
        return random_homogeneous(ctx, rng)

    def index():
        return _below(getrandbits, ctx.nvars) + 1

    def scalar(top):
        # p/q with p in -top..top and q in 1..3, p drawn before q
        return Fraction(_below(getrandbits, 2 * top + 1) - top, _below(getrandbits, 3) + 1)

    # --- super-algebra laws -------------------------------------------------
    def super_comm(_):
        a, b = rand_h(), rand_h()
        da, db = a.homogeneous_degree(), b.homogeneous_degree()
        sign = -1 if (da * db) % 2 else 1
        if a * b != (b * a).scale(sign):
            return _counterexample(a, b)
    _check_loop(report, "product: graded commutativity", iterations, super_comm)

    def assoc(_):
        a, b, c = rand(), rand(), rand()
        if (a * b) * c != a * (b * c):
            return _counterexample(a, b, c)
    _check_loop(report, "product: associativity", iterations, assoc)

    def grading(_):
        # one tri-homogeneous component of each draw; a draw is never zero
        (ca, wa, da, a), (cb, wb, db, b) = grade(rand_h())[0], grade(rand_h())[0]
        for cp, wp, dp, _p in grade(a * b):
            if (cp, wp, dp) != (ca + cb, wa + wb, da + db):
                return _counterexample(a, b)
    _check_loop(report, "product: gradings additive", iterations, grading)

    def eta_sq(_):
        a = rand()
        i, j = index(), index()
        if not partial_eta(i, partial_eta(i, a)).is_zero():
            return _counterexample(a)
        lhs = partial_eta(i, partial_eta(j, a))
        rhs = partial_eta(j, partial_eta(i, a))
        if lhs != -rhs:
            return _counterexample(a)
    _check_loop(report, "odd derivatives: square zero / anticommute", iterations, eta_sq)

    def q_comm(_):
        a = rand()
        i, j = index(), index()
        if partial_q(i, partial_q(j, a)) != partial_q(j, partial_q(i, a)):
            return _counterexample(a)
        if partial_q(i, partial_eta(j, a)) != partial_eta(j, partial_q(i, a)):
            return _counterexample(a)
    _check_loop(report, "even derivatives: commute (also with odd)", iterations, q_comm)

    # --- differential laws ---------------------------------------------------
    def differentials(_):
        a = rand()
        if not ops.apply_delta(ops.apply_delta(a)).is_zero():
            return "delta^2: " + _counterexample(a)
        if not ops.apply_q(D, ops.apply_q(D, a)).is_zero():
            return "Q^2: " + _counterexample(a)
        if not ops.apply_k(D, ops.apply_k(D, a)).is_zero():
            return "K^2: " + _counterexample(a)
        anti = ops.apply_delta(ops.apply_q(D, a)) + ops.apply_q(D, ops.apply_delta(a))
        if not anti.is_zero():
            return "delta Q + Q delta: " + _counterexample(a)
    _check_loop(report, "differentials: squares and anticommutator vanish",
                iterations, differentials)

    def q_derivation(_):
        a, b = rand_h(), rand()
        sign = -1 if a.homogeneous_degree() % 2 else 1
        lhs = ops.apply_q(D, a * b)
        rhs = ops.apply_q(D, a) * b + (a * ops.apply_q(D, b)).scale(sign)
        if lhs != rhs:
            return _counterexample(a, b)
    _check_loop(report, "Q: derivation of the product", iterations, q_derivation)

    # --- bracket laws ---------------------------------------------------------
    def l2_sym(_):
        a, b = rand_h(), rand_h()
        da, db = a.homogeneous_degree(), b.homogeneous_degree()
        sign = -1 if (da * db) % 2 else 1
        if ops.ell2(D, a, b) != ops.ell2(D, b, a).scale(sign):
            return _counterexample(a, b)
    _check_loop(report, "bracket: graded symmetry", iterations, l2_sym)

    def l2_definition(_):
        a, b = rand_h(), rand_h()
        sign = -1 if a.homogeneous_degree() % 2 else 1
        expected = (ops.apply_k(D, a * b) - ops.apply_k(D, a) * b
                    - (a * ops.apply_k(D, b)).scale(sign))
        if ops.ell2(D, a, b) != expected:
            return _counterexample(a, b)
    _check_loop(report, "bracket: defining expansion against K", iterations,
                l2_definition)

    def l2_jacobi(_):
        a, b, c = rand_h(), rand_h(), rand_h()
        da, db = a.homogeneous_degree(), b.homogeneous_degree()
        lhs = ops.ell2(D, a, ops.ell2(D, b, c))
        s1 = -1 if (da + 1) % 2 else 1
        s2 = -1 if ((da + 1) * (db + 1)) % 2 else 1
        rhs = ops.ell2(D, ops.ell2(D, a, b), c).scale(s1) + \
            ops.ell2(D, b, ops.ell2(D, a, c)).scale(s2)
        if lhs != rhs:
            return _counterexample(a, b, c)
    _check_loop(report, "bracket: graded Jacobi", max(iterations // 2, 1), l2_jacobi)

    def l2_poisson(_):
        a, b, c = rand_h(), rand_h(), rand_h()
        da, db = a.homogeneous_degree(), b.homogeneous_degree()
        sign = -1 if ((da + 1) * db) % 2 else 1
        lhs = ops.ell2(D, a, b * c)
        rhs = ops.ell2(D, a, b) * c + (b * ops.ell2(D, a, c)).scale(sign)
        if lhs != rhs:
            return _counterexample(a, b, c)
    _check_loop(report, "bracket: Poisson rule", max(iterations // 2, 1), l2_poisson)

    def exp_identities(_):
        # Gamma is eta-free, so lam carries an eta for K and l2 to be tested;
        # the pair is drawn again while l2(Gamma, lam) = 0, which checks K
        # alone (no lam helps a zero or constant Gamma)
        for _ in range(_EXP_DRAWS):
            gamma = random_element(ctx, rng, homogeneous_degree=0, terms=2, max_xdeg=2)
            lam = random_element(ctx, rng, homogeneous_degree=_below(getrandbits, 2) + 1,
                                 terms=2, max_xdeg=2)
            if lam.is_zero():
                lam = SuperElement.eta(ctx, 1)
            if not ops.ell2(D, gamma, lam).is_zero():
                break
        for order in (1, 2, 3):
            if exp_identity_lhs(D, gamma, lam, order) != \
                    exp_identity_rhs(D, gamma, lam, order):
                return f"order {order} with argument: " + _counterexample(gamma, lam)
    _check_loop(report, "exponential identities at truncation orders <= 3",
                max(iterations // 20, 1), exp_identities)

    # --- reduction machinery ---------------------------------------------------
    c_G = ctx.background_charge()

    def reduce_sound(_):
        f = random_charge_element(D, rng, c_G, 0)
        result = presentation.reduce(f)
        rebuilt = ops.apply_k(D, result.certificate) + result.as_element(presentation)
        if rebuilt != f:
            return _counterexample(f)
    _check_loop(report, "reduce: certificate soundness", iterations, reduce_sound)

    def reduce_kernel(_):
        xi = random_charge_element(D, rng, c_G, -1)
        image = ops.apply_k(D, xi)
        if image.is_zero():
            return None
        result = presentation.reduce(image)
        if result.coefficients:
            return _counterexample(xi)
    _check_loop(report, "reduce: vanishes on the image of K", iterations, reduce_kernel)

    basis = presentation.basis_elements()

    def reduce_idem(i):
        rho = i % presentation.dimension
        e = basis[rho]
        result = presentation.reduce(e)
        if result.coefficients != {rho: 1} or not result.certificate.is_zero():
            return render(e)
    _check_loop(report, "reduce: basis idempotence",
                min(iterations, presentation.dimension), reduce_idem)

    def reduce_linear(_):
        f, g = (random_charge_element(D, rng, c_G, 0) for _ in range(2))
        a, b = scalar(5), scalar(5)
        lhs, rf, rg = (presentation.reduce(x).as_element(presentation)
                       for x in (f.scale(a) + g.scale(b), f, g))
        if lhs != rf.scale(a) + rg.scale(b):
            return _counterexample(f, g)
    _check_loop(report, "reduce: linearity", max(iterations // 2, 1), reduce_linear)

    def concentration(_):
        lam = c_G + (-2, -1, 1, 2, 3)[_below(getrandbits, 5)]
        xi = random_charge_element(D, rng, lam, -1)
        f = ops.apply_k(D, xi)  # K-closed by construction
        if f.is_zero():
            return None
        witness = charge_witness(D, f).scale(Fraction(1, lam - c_G))
        if ops.apply_k(D, witness) != f:
            return _counterexample(f)
    _check_loop(report, "charge concentration: R-witness gives exact preimages",
                max(iterations // 4, 1), concentration)

    def cochain_functional(_):
        row = tuple(scalar(5) for _ in range(presentation.dimension))
        f = reduction_functional(presentation, row)
        xi = random_element(ctx, rng)
        if f(ops.apply_k(D, xi)) != 0:
            return _counterexample(xi)
    _check_loop(report, "reduction functionals kill the image of K",
                max(iterations // 4, 1), cochain_functional)

    def descendant_moments(_):
        # moment/cumulant shape of the descendant maps: f(Gamma^m) equals the
        # complete Bell polynomial of the phi values
        row = tuple(scalar(4) for _ in range(presentation.dimension))
        f = reduction_functional(presentation, row)
        gamma = random_element(ctx, rng, homogeneous_degree=0, terms=2, max_xdeg=2)
        cache: dict = {}
        phis = [ops.phi_n(f, (gamma,) * m, _cache=cache) for m in range(1, 5)]
        for m in range(1, 5):
            if f(gamma ** m) != ops.bell_complete(m, phis[:m]):
                return f"m={m}: " + _counterexample(gamma)
    _check_loop(report, "descendant maps assemble exponentials",
                max(iterations // 20, 1), descendant_moments)

    def parse_render_round_trip(_):
        e = random_element(ctx, rng, terms=4)
        from .polyparse import parse

        if parse(render(e), ctx) != e:
            return _counterexample(e)
    _check_loop(report, "surface syntax: parse inverts render",
                max(iterations // 2, 1), parse_render_round_trip)

    # --- deformation ------------------------------------------------------------
    if deformation_H is not None:
        # no Maurer-Cartan row: build_deformation runs mc_check, and for
        # Gamma = sum y_i H_i of degree 0 both K(Gamma) and l2(Gamma, Gamma) vanish
        deform = build_deformation(D, deformation_H)

        def deformed_operator(_):
            lam = rand()
            if k_gamma(D, deform.gamma, lam) != ops.apply_k(deform.deformed, lam):
                return _counterexample(lam)
        _check_loop(report, "deformation: K_Gamma equals the deformed K",
                    iterations, deformed_operator)

    return report


def reduction_functional(presentation: QuotientPresentation, row) -> LinearFunctional:
    """The cochain functional x -> row . reduce(x), extended by zero.

    Elements are first projected to cohomological degree 0 and the
    background charge; everything else is annihilated, mirroring how the
    period functionals act.  The reductions are memoized per functional,
    keyed by the projected element, and live as long as the functional.
    """
    row = tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in row)
    if len(row) != presentation.dimension:
        raise ValueError("row length must match the basis dimension")
    ctx = presentation.dwork.ctx
    c_G = presentation.c_G
    memo: dict = {}

    def evaluate(x: SuperElement) -> Fraction:
        picked = {m: c for m, c in x._num.items()
                  if not m & ctx.eta_mask and monomial_charge(ctx, m) == c_G}
        if not picked:
            return Fraction(0)
        y = SuperElement._make(ctx, picked, x._den)
        result = memo.get(y)
        if result is None:
            result = memo[y] = presentation.reduce(y)
        return sum((row[rho] * c for rho, c in result.coefficients.items()), Fraction(0))

    return LinearFunctional(evaluate, cochain=True, name="row-dot-reduce")


# -- fault injection (harness self-test) --------------------------------------

def _drop_first_term(delta_numerators):
    def corrupted(ctx, num):
        # drop one term: breaks delta^2 = 0 and delta Q + Q delta = 0
        value = delta_numerators(ctx, num)
        value.pop(next((m for m, v in value.items() if v), None), None)
        return value
    return corrupted


def _flip_sign(ell2):
    return lambda D, a, b: ell2(D, a, b).scale(-1)


# fault name -> (global of dworkbox.operators, factory of its corrupted version)
FAULT_HOOKS = {
    "delta-drop-term": ("_delta_numerators", _drop_first_term),
    "bracket-sign": ("ell2", _flip_sign),
}


def fault_injection(name: str):
    """Return a context manager corrupting one operator; only for testing the suite.

    `name` is a key of `FAULT_HOOKS` (another raises `ValueError` at once).
    While the block runs, every global of a loaded `dworkbox` module that
    holds the named operator of `dworkbox.operators` is rebound to the
    corrupted one, however the module imported it: `bracket-sign` reaches
    `deformation.k_gamma` and the descendant tower; `delta-drop-term`, the
    delta kernel `_delta_numerators` less its first nonzero numerator,
    reaches `apply_delta` and `cohomology`'s `reduce`.  All are restored
    when the block exits, also on an exception.  `apply_k` does not call
    the kernel, so `delta-drop-term` leaves K intact.  The rebinding is
    process-wide, so the hook is not thread-safe.
    """
    if name not in FAULT_HOOKS:
        raise ValueError(f"unknown fault hook {name!r}; choose from {sorted(FAULT_HOOKS)}")
    return _rebound(*FAULT_HOOKS[name])


@contextlib.contextmanager
def _rebound(attr: str, corrupt):
    original = getattr(ops, attr)
    corrupted = corrupt(original)
    holders = [(module, name) for module_name, module in list(sys.modules.items())
               if module is not None and module_name.split(".")[0] == "dworkbox"
               for name, value in vars(module).items() if value is original]
    for module, name in holders:
        setattr(module, name, corrupted)
    try:
        yield
    finally:
        for module, name in holders:
            setattr(module, name, original)
