"""Differentials and homotopy-algebra operators attached to a Dwork potential.

For defining polynomials G_1..G_k (degrees d_1..d_k, in the x variables only)
the potential is S = sum_l y_l * G_l.  The three differentials on the
super-algebra are

    delta(a) = sum_i  d/dq_i ( d/deta_i (a) )          (second order, weight -1)
    Q(a)     = sum_i  (dS/dq_i) * d/deta_i (a)         (weight 0)
    K        = Q + delta                               (the twisted differential)

All three share one kernel, `_differential`, which strips each eta of a term
once and adds its delta and Q terms as integer numerators over one common
denominator.

K fails to be a derivation of the product; the failure is the degree-1
bracket

    l2(a, b) = K(a*b) - K(a)*b - (-1)^|a| a*K(b)
             = sum_i [d/deta_i(a) * d/dq_i(b) + (-1)^|a| d/dq_i(a) * d/deta_i(b)].

Q is a derivation, so only the second-order delta contributes to the
failure and S drops out: l2 is the BV bracket, the deviation of delta from
a derivation (Koszul, "Crochet de Schouten-Nijenhuis et cohomologie",
Asterisque 1985; Getzler, Comm. Math. Phys. 159, 1994).  `ell2` computes
the closed form, through the product kernel and without a K pass; `verify`
checks it against the definition.  It is the only implementation of l2:
the descendant tower below calls it for every two-argument bracket.

The higher descendant brackets l_n / descendant maps phi_n measure the
higher failures (of K, respectively of a linear functional) against the
product.  Because K has order two, l_n vanishes identically for n >= 3, so
`ell_n` gives the tower in closed form: K, `ell2`, then zero.  Its
recursive definition lives in `tests/oracles.ell_n_by_definition`, and the
vanishing is a Tier-1 test (`test_ell_3_and_above_vanish`), not a `verify`
family: at n = 3 it is the identity of the Poisson rule, which `verify`
checks.  The descendant maps `phi_n` of a functional do not vanish: they
run the cumulant recursion over the two-block partitions that separate the
last two arguments, memoized on the `LinearFunctional`, so all calls on
one functional share their sub-maps and no caller hands a cache around.

Complete and partial Bell polynomials close the module; they assemble the
exponential of a formal series and drive the deformation expansion of a
functional f(u * e^Gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ContextMismatchError, InputError
from .superalgebra import (
    MAX_EXPONENT,
    SuperElement,
    VariableContext,
    _check_guard,
    _products,
    partial_q,
)


@dataclass(frozen=True)
class DworkData:
    """A variable context together with S = sum y_l G_l and its gradient.

    `grad_num[i]` lists (packed key, numerator over `grad_den`) of the terms
    of dS/dq_{i+1}, eta-free keys as `SuperElement._num` holds them: the
    integer table `_differential` reads for the Q terms, and the only
    record of the gradient (`partial_q(i, D.S)` is dS/dq_i as an element).
    """

    ctx: VariableContext
    G: tuple
    S: SuperElement
    grad_num: tuple
    grad_den: int

    def __repr__(self):
        return f"DworkData(n={self.ctx.n}, k={self.ctx.k}, degrees={self.ctx.degrees})"


def dwork_potential(ctx: VariableContext, G: Sequence[SuperElement]) -> DworkData:
    """Validate the defining polynomials and build S with its gradient.

    Each G_l must be nonzero, use only x variables, carry no eta factors and
    be homogeneous of degree d_l in x.
    """
    G = tuple(G)
    if len(G) != ctx.k:
        raise InputError(f"expected {ctx.k} defining polynomials, got {len(G)}")
    for l, g in enumerate(G, start=1):
        if g.ctx != ctx:
            raise ContextMismatchError("defining polynomial over a different context")
        if g.is_zero():
            raise InputError(f"G_{l} is zero")
        check_x_homogeneous(ctx, g, ctx.degrees[l - 1], f"G_{l}")
    S = SuperElement.zero(ctx)
    for l, g in enumerate(G, start=1):
        S = S + SuperElement.variable(ctx, l) * g
    grad = tuple(partial_q(i, S) for i in range(1, ctx.nvars + 1))
    grad_den = math.lcm(*(g._den for g in grad))
    grad_num = tuple(tuple((key, v * (grad_den // g._den)) for key, v in g._num.items())
                     for g in grad)
    return DworkData(ctx, G, S, grad_num, grad_den)


def check_x_homogeneous(ctx: VariableContext, poly: SuperElement, degree: int,
                        name: str) -> None:
    """Require `poly` to be eta-free, y-free and homogeneous of `degree` in x.

    `name` (such as "G_1", "H_2" or "h factor") opens every error message.
    Whether the zero polynomial is allowed is left to the caller.
    """
    for mono in poly.terms:
        if mono.eta:
            raise InputError(f"{name} contains an eta factor")
        if any(mono.qexp[:ctx.k]):
            raise InputError(f"{name} contains a y variable")
        xdeg = sum(mono.qexp[ctx.k:])
        if xdeg != degree:
            raise InputError(f"{name} not homogeneous of degree {degree}: "
                             f"found a degree-{xdeg} monomial")


def _differential(ctx: VariableContext, num: dict, grads: tuple, grad_den: int,
                  delta: bool) -> dict:
    """sum_i (grad[i] + [delta] d/dq_i) d/deta_i (num / den) as numerators
    over den * grad_den, zeros kept, in one pass over `num`: Q for the
    gradient table (D.grad_num, D.grad_den) without delta, delta for the
    empty table ((), 1) with it, and K for both.

    For each eta_i of a term, lowest first, d/deta_i strips it with its
    sign; the delta term d/dq_i of the stripped monomial and the Q terms
    grad[i] times it go into one numerator dict, in that order.  S is
    eta-free, so a Q term keeps the stripped eta and its sign, and its key
    is the stripped key plus the gradient term's.
    """
    table = grads or [()] * ctx.nvars
    units, shifts = ctx.q_units, ctx.q_shifts
    mask = ctx.eta_mask
    acc = {}
    get = acc.get
    for key, v in num.items():
        eta = key & mask
        c = v
        while eta:
            bit = eta & -eta
            eta -= bit
            i = bit.bit_length() - 1
            rest = key - bit
            if delta:
                e = key >> shifts[i] & MAX_EXPONENT
                if e:
                    mono = rest - units[i]
                    acc[mono] = get(mono, 0) + c * e * grad_den
            for gk, gv in table[i]:
                mono = rest + gk
                acc[mono] = get(mono, 0) + c * gv
            c = -c  # the next eta sits one odd factor further in
    if grads:  # only a Q term raises an exponent
        _check_guard(ctx, acc)
    return acc


def _delta_numerators(ctx: VariableContext, num: dict) -> dict:
    """delta(num / den)'s numerators over den, zeros kept: called by
    `apply_delta` and the reduce cascade through this global."""
    return _differential(ctx, num, (), 1, True)


def apply_delta(a: SuperElement) -> SuperElement:
    """delta = sum_i d/dq_i d/deta_i; drops weight by 1, raises degree by 1."""
    return SuperElement._make(a.ctx, _delta_numerators(a.ctx, a._num), a._den)


def apply_q(D: DworkData, a: SuperElement) -> SuperElement:
    """Q = sum_i (dS/dq_i) d/deta_i; preserves charge and weight."""
    if a.ctx != D.ctx:
        raise ContextMismatchError("element over a different context")
    num = _differential(a.ctx, a._num, D.grad_num, D.grad_den, False)
    return SuperElement._make(a.ctx, num, a._den * D.grad_den)


def apply_k(D: DworkData, a: SuperElement) -> SuperElement:
    """The twisted differential K = Q + delta, in one pass; it does not call
    `apply_delta` or `_delta_numerators`."""
    if a.ctx != D.ctx:
        raise ContextMismatchError("element over a different context")
    num = _differential(a.ctx, a._num, D.grad_num, D.grad_den, True)
    return SuperElement._make(a.ctx, num, a._den * D.grad_den)


def ell2(D: DworkData, a: SuperElement, b: SuperElement) -> SuperElement:
    """The GBV bracket l2(a,b) = K(ab) - K(a)b - (-1)^|a| a K(b), in the
    closed form

        l2(a, b) = sum_i [d/deta_i(a) * d/dq_i(b) + (-1)^|a| d/dq_i(a) * d/deta_i(b)]:

    Q is a derivation, so only delta contributes and S drops out (Koszul,
    Asterisque 1985; Getzler, Comm. Math. Phys. 159, 1994).  Each side is
    split once into its d/deta_i and d/dq_i terms, and their products run
    through the product kernel into one dict; no K pass is made.

    ``a`` must be homogeneous in cohomological degree (the sign needs |a|).
    """
    deg = a.homogeneous_degree()
    if deg is None:
        raise InputError("ell2 needs the first argument degree-homogeneous")
    if a.ctx != D.ctx or b.ctx != D.ctx:
        raise ContextMismatchError("element over a different context")
    ctx = D.ctx
    eta_a, q_a = _split(ctx, a, -1 if deg % 2 else 1)
    eta_b, q_b = _split(ctx, b, 1)
    pairs = [*zip(eta_a, q_b), *zip(q_a, eta_b)]
    return SuperElement._make(ctx, _products(ctx, pairs), a._den * b._den)


def _split(ctx: VariableContext, a: SuperElement, q_sign: int):
    """The numerators of d/deta_i(a) and q_sign * d/dq_i(a), i = 1..N, as
    two lists of N lists of (packed key, int), in one pass over a."""
    size = ctx.nvars
    units, exponents = ctx.q_units, ctx.exponents
    mask = ctx.eta_mask
    eta_parts = [[] for _ in range(size)]
    q_parts = [[] for _ in range(size)]
    for key, v in a._num.items():
        eta = key & mask
        c = v
        while eta:
            bit = eta & -eta
            eta -= bit
            eta_parts[bit.bit_length() - 1].append((key - bit, c))
            c = -c  # the next eta sits one odd factor further in
        c = q_sign * v
        for i, e in enumerate(exponents(key)):
            if e:
                q_parts[i].append((key - units[i], c * e))
    return eta_parts, q_parts


def ell_n(D: DworkData, args: Sequence[SuperElement]) -> SuperElement:
    """Descendant bracket l_n, n = len(args) >= 1, in closed form.

    The tower is defined by l_1 = K and, for n >= 2,

        l_n(x_1..x_n) = l_{n-1}(x_1,..,x_{n-2}, x_{n-1} x_n)
                        - l_{n-1}(x_1,..,x_{n-1}) x_n
                        - (-1)^(|x_{n-1}|(1+|x_1|+..+|x_{n-2}|))
                              x_{n-1} l_{n-1}(x_1,..,x_{n-2}, x_n)

    (`tests/oracles.ell_n_by_definition`).  l_2 is `ell2`, and K has order
    two, so l_n = 0 for n >= 3 (Koszul, Asterisque 1985).  For n >= 3 the
    arguments are checked as that recursion needs them: every one but the
    last degree-homogeneous for the sign, then every one over D's context.
    """
    args = tuple(args)
    if len(args) < 1:
        raise InputError("ell_n needs at least one argument")
    if len(args) == 1:
        return apply_k(D, args[0])
    if len(args) == 2:
        return ell2(D, *args)
    if any(x.homogeneous_degree() is None for x in args[:-1]):
        raise InputError("descendant brackets need degree-homogeneous arguments")
    if any(x.ctx != D.ctx for x in args):
        raise ContextMismatchError("element over a different context")
    return SuperElement.zero(D.ctx)


class LinearFunctional:
    """A linear map from the super-algebra to exact scalars.

    The callable contract: linear over the rationals and vanishing outside
    cohomological degree 0.  ``cochain`` flags maps known to kill the image
    of K (the reduction-derived functionals set it; ad-hoc stand-ins may
    not).  The functional owns the memo of its descendant maps: `phi_n`
    records each value of two or more arguments in ``_phis``, keyed by the
    argument tuple, so every call on one functional shares its sub-maps and
    the memo dies with the functional.
    """

    def __init__(self, func: Callable[[SuperElement], Fraction], cochain: bool = False,
                 name: str = "functional"):
        self._func = func
        self.cochain = cochain
        self.name = name
        self._phis = {}

    def __call__(self, a: SuperElement) -> Fraction:
        value = self._func(a)
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return value

    def __repr__(self):
        return f"LinearFunctional({self.name}, cochain={self.cochain})"


def _two_block_partitions(m: int):
    """The 2^(m-2) two-block partitions of the positions 0..m-1 that put
    m-2 and m-1 in different blocks, m >= 2.

    Each of 0..m-3 joins one of the two blocks, by one bit of a mask, so no
    partition is made twice and none is rejected.  Yields (B1, B2) as
    increasing tuples, B1 ending in m-2 and B2 in m-1; the order of the two
    blocks is immaterial to `_phi_rec`, which multiplies their scalars.
    """
    head = range(m - 2)
    for mask in range(1 << (m - 2)):
        yield (tuple(i for i in head if mask >> i & 1) + (m - 2,),
               tuple(i for i in head if not mask >> i & 1) + (m - 1,))


def phi_n(f: LinearFunctional, args: Sequence[SuperElement]) -> Fraction:
    """Descendant map phi_n of a linear functional, n = len(args) >= 1.

        phi_1 = f
        phi_m(x_1..x_m) = phi_{m-1}(x_1,..,x_{m-2}, x_{m-1} x_m)
                          - sum over 2-block partitions pi of {1..m}
                            separating m-1 from m of phi(x_B1) phi(x_B2)

    (the Leonov-Shiryaev recursion for joint cumulants, Theory Probab.
    Appl. 4, 1959; `tests/oracles.phi_n_by_definition`).  Memoized on the
    functional (``f._phis``) by argument tuple: the recursion revisits
    sub-maps exponentially otherwise, and calls on one functional share them.
    """
    args = tuple(args)
    if len(args) < 1:
        raise InputError("phi_n needs at least one argument")
    return _phi_rec(f, args, f._phis)


def _phi_rec(f: LinearFunctional, args: tuple, memo: dict) -> Fraction:
    if len(args) == 1:
        return f(args[0])
    hit = memo.get(args)
    if hit is not None:
        return hit
    value = _phi_rec(f, args[:-2] + (args[-2] * args[-1],), memo)
    for b1, b2 in _two_block_partitions(len(args)):
        value -= (_phi_rec(f, tuple(args[i] for i in b1), memo)
                  * _phi_rec(f, tuple(args[i] for i in b2), memo))
    memo[args] = value
    return value


# -- Bell polynomials -------------------------------------------------------

def bell_complete(n: int, xs: Sequence) -> Fraction:
    """Complete Bell polynomial B_n(x_1..x_n), with B_0 = 1.

    Uses the recurrence B_{m+1} = sum_i C(m, i) B_{m-i} x_{i+1}.
    """
    if n < 0:
        raise InputError("bell_complete needs n >= 0")
    if len(xs) < n:
        raise InputError(f"need {n} arguments, got {len(xs)}")
    xs = [Fraction(x) if not isinstance(x, Fraction) else x for x in xs]
    b = [Fraction(1)]
    for m in range(n):
        value = Fraction(0)
        for i in range(m + 1):
            value += math.comb(m, i) * b[m - i] * xs[i]
        b.append(value)
    return b[n]


def bell_partial(n: int, j: int, xs: Sequence) -> Fraction:
    """Partial Bell polynomial B_{n,j}(x_1..x_{n-j+1}).

    Recurrence: B_{n,j} = sum_{i=1}^{n-j+1} C(n-1, i-1) x_i B_{n-i,j-1},
    with B_{0,0} = 1, B_{n,0} = 0 for n >= 1 and B_{0,j} = 0 for j >= 1.
    """
    if n < 0 or j < 0:
        raise InputError("bell_partial needs n, j >= 0")
    if j > n:
        raise InputError(f"bell_partial needs j <= n, got n={n}, j={j}")
    if j == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if len(xs) < n - j + 1:
        raise InputError(f"need {n - j + 1} arguments, got {len(xs)}")
    xs = [Fraction(x) if not isinstance(x, Fraction) else x for x in xs]
    # B_{n,j} needs only the cells with nn - jj <= n - j, so row jj of the
    # table holds B_{jj+d, jj} for d = 0..n-j and the argument list is never
    # overrun
    span = n - j
    row = [Fraction(1)] + [Fraction(0)] * span
    for jj in range(1, j + 1):
        row = [sum((math.comb(jj + d - 1, i - 1) * xs[i - 1] * row[d + 1 - i]
                    for i in range(1, d + 2) if row[d + 1 - i]), Fraction(0))
               for d in range(span + 1)]
    return row[span]
