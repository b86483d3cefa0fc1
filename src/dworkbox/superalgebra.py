"""Exact bigraded super-commutative polynomial algebra.

The algebra is C[q_1..q_N][eta_1..eta_N] where the even variables split into
q_1..q_k = y_1..y_k and q_{k+1}..q_N = x_0..x_n (so N = n + k + 1), and the
eta_mu are odd (eta_mu * eta_nu = -eta_nu * eta_mu, eta_mu^2 = 0), one paired
with each q_mu.

Every element is a finite sum of terms

    c * y^v x^u eta_{i_1} ... eta_{i_s}      (i_1 < ... < i_s)

stored as integer numerators over one positive common denominator: a dict
mapping SuperMonomial -> int and an int, in lowest terms (no zero numerator,
gcd of the denominator and all numerators 1, denominator 1 for zero).  That
form is unique, so equality of elements is equality of (denominator, dict).
The product and derivative kernels run on these ints; coefficients surface as
exact Fractions only through ``terms`` and ``coefficient``.

Three gradings, additive over the factors of a monomial:

  charge:  ch(y_i) = -d_i,  ch(x_j) = 1,   ch(eta_mu) = -ch(q_mu)
  weight:  wt(y_i) = 1,     wt(x_j) = 0,   wt(eta_mu) = 1 - wt(q_mu)
  degree:  cohomological; each eta contributes -1, so deg = -s in [-N, 0]

`monomial_charge` and `monomial_weight` are the only definitions of the
first two; everything else grades through them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import ContextMismatchError, InputError

MONOMIAL_ORDERS = ("graded-lex", "grevlex")


def as_scalar(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InputError(f"not an exact scalar: {value!r}")


@dataclass(frozen=True)
class VariableContext:
    """Shape of the variable ring: n + 1 x-variables, k y-variables.

    degrees[i] is the degree d_{i+1} attached to y_{i+1}; it drives the
    charge grading.  The monomial order is fixed per context so that basis
    choices and rendering are deterministic.
    """

    n: int
    k: int
    degrees: tuple
    order: str = "graded-lex"

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if any(type(v) is not int for v in (self.n, self.k, *self.degrees)):
            raise InputError(f"n, k and the degrees must be integers, got n={self.n!r}, "
                             f"k={self.k!r}, degrees={list(self.degrees)!r}")
        if self.k < 1 or self.n < self.k:
            raise InputError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        if len(self.degrees) != self.k:
            raise InputError(f"expected {self.k} degrees, got {len(self.degrees)}")
        if any(d < 1 for d in self.degrees):
            raise InputError("degrees must be positive")
        if self.order not in MONOMIAL_ORDERS:
            raise InputError(f"unknown monomial order {self.order!r}")

    @property
    def nvars(self) -> int:
        """Total number of even variables N = n + k + 1."""
        return self.n + self.k + 1

    def var_name(self, mu: int) -> str:
        self._check_index(mu)
        if mu <= self.k:
            return f"y{mu}"
        return f"x{mu - self.k - 1}"

    def eta_name(self, mu: int) -> str:
        self._check_index(mu)
        return f"e{mu}"

    def background_charge(self) -> int:
        """sum(d_i) - (n + 1), the only charge carrying cohomology."""
        return sum(self.degrees) - (self.n + 1)

    def _check_index(self, mu: int):
        if not 1 <= mu <= self.nvars:
            raise InputError(f"variable index {mu} out of range 1..{self.nvars}")


class SuperMonomial(NamedTuple):
    """A single monomial: exponent vector over q_1..q_N plus an eta subset.

    eta is a strictly increasing tuple of 1-based indices.
    """

    qexp: tuple
    eta: tuple = ()

    def degree(self) -> int:
        return -len(self.eta)


def make_monomial(ctx: VariableContext, qexp: Iterable[int], eta: Iterable[int] = ()) -> SuperMonomial:
    qexp = tuple(qexp)
    eta = tuple(eta)
    if any(type(e) is not int for e in qexp + eta):
        raise InputError(f"exponents and eta indices must be ints, got {qexp!r}, {eta!r}")
    if len(qexp) != ctx.nvars:
        raise InputError(f"exponent vector length {len(qexp)} != {ctx.nvars}")
    if any(e < 0 for e in qexp):
        raise InputError("negative exponent")
    if any(not 1 <= i <= ctx.nvars for i in eta):
        raise InputError("eta index out of range")
    if any(eta[i] >= eta[i + 1] for i in range(len(eta) - 1)):
        raise InputError("eta indices must be strictly increasing")
    return SuperMonomial(qexp, eta)


def monomial_charge(ctx: VariableContext, m: SuperMonomial) -> int:
    """ch(y^v x^u eta_S) = |u| - sum_i d_i v_i + sum_{mu in S, mu <= k} d_mu
    - #{mu in S : mu > k}; the one definition of the charge."""
    k, degrees = ctx.k, ctx.degrees
    # map stops after the k degrees, so it pairs d_i with v_i only
    ch = sum(m.qexp[k:]) - sum(map(operator.mul, degrees, m.qexp))
    for mu in m.eta:
        ch += degrees[mu - 1] if mu <= k else -1
    return ch


def monomial_weight(ctx: VariableContext, m: SuperMonomial) -> int:
    """wt(y^v x^u eta_S) = |v| + #{mu in S : mu > k}; the one definition of
    the weight."""
    k = ctx.k
    return sum(m.qexp[:k]) + sum(mu > k for mu in m.eta)


def monomial_sort_key(ctx: VariableContext, m: SuperMonomial):
    """Total-order key; larger key = larger monomial.

    graded-lex: weight, then total q-degree, then the exponent vector read
    with precedence y_1 > ... > y_k > x_0 > ... > x_n, then the eta index
    list.  grevlex replaces the exponent comparison by reverse lexicographic
    on negated exponents (the usual trick).
    """
    w = monomial_weight(ctx, m)
    qdeg = sum(m.qexp)
    if ctx.order == "graded-lex":
        vec = m.qexp
    else:
        vec = tuple(-e for e in reversed(m.qexp))
    return (w, qdeg, vec, m.eta)


class SuperElement:
    """Finite rational linear combination of SuperMonomials.

    Stored as ``_num`` (SuperMonomial -> nonzero int) over ``_den`` (a
    positive int), in lowest terms; ``terms`` is the Fraction view.
    Instances are immutable once constructed and hashable by value; the
    callers treat them as shared read-only data.
    """

    __slots__ = ("ctx", "_num", "_den", "_hash")

    def __init__(self, ctx: VariableContext, terms: dict):
        clean = {}
        for mono, coeff in terms.items():
            if not isinstance(coeff, Fraction):
                coeff = as_scalar(coeff)
            if coeff:
                clean[mono] = coeff
        # over the lcm of the reduced denominators the form is in lowest terms
        den = lcm(*(c.denominator for c in clean.values()))
        self.ctx = ctx
        self._num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den
        self._hash = None

    @classmethod
    def _make(cls, ctx: VariableContext, num: dict, den: int) -> "SuperElement":
        """Trusted constructor: int numerators over den > 0; owns ``num``.

        Drops zero numerators and divides out the content.
        """
        if 0 in num.values():
            num = {m: v for m, v in num.items() if v}
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: v // g for m, v in num.items()}
                den //= g
        self = object.__new__(cls)
        self.ctx = ctx
        self._num = num
        self._den = den
        self._hash = None
        return self

    @property
    def terms(self) -> dict:
        """A fresh dict SuperMonomial -> Fraction; mutating it changes nothing."""
        den = self._den
        return {m: Fraction(v, den) for m, v in self._num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VariableContext) -> "SuperElement":
        return cls._make(ctx, {}, 1)

    @classmethod
    def scalar(cls, ctx: VariableContext, value) -> "SuperElement":
        return cls(ctx, {SuperMonomial((0,) * ctx.nvars, ()): value})

    @classmethod
    def one(cls, ctx: VariableContext) -> "SuperElement":
        return cls.scalar(ctx, 1)

    @classmethod
    def variable(cls, ctx: VariableContext, mu: int) -> "SuperElement":
        """The even variable q_mu (1-based)."""
        ctx._check_index(mu)
        qexp = [0] * ctx.nvars
        qexp[mu - 1] = 1
        return cls._make(ctx, {SuperMonomial(tuple(qexp), ()): 1}, 1)

    @classmethod
    def eta(cls, ctx: VariableContext, mu: int) -> "SuperElement":
        """The odd variable eta_mu (1-based)."""
        ctx._check_index(mu)
        return cls._make(ctx, {SuperMonomial((0,) * ctx.nvars, (mu,)): 1}, 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, mono: SuperMonomial) -> Fraction:
        return Fraction(self._num.get(mono, 0), self._den)

    def homogeneous_degree(self):
        """Cohomological degree if homogeneous, else None (0 for the zero element)."""
        degs = {m.degree() for m in self._num}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_charge(self):
        chs = {monomial_charge(self.ctx, m) for m in self._num}
        if len(chs) == 1:
            return chs.pop()
        return None

    # -- arithmetic --------------------------------------------------------

    def _require_same_ctx(self, other: "SuperElement"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(
                f"mixed variable contexts: {self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperElement.scalar(self.ctx, other)
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._require_same_ctx(other)
        if not other._num:
            return self
        if not self._num:
            return other
        da, db = self._den, other._den
        if da == db:
            acc = self._num.copy()
            get = acc.get
            for mono, v in other._num.items():
                acc[mono] = get(mono, 0) + v
            return SuperElement._make(self.ctx, acc, da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        acc = {m: v * fa for m, v in self._num.items()}
        get = acc.get
        for mono, v in other._num.items():
            acc[mono] = get(mono, 0) + v * fb
        return SuperElement._make(self.ctx, acc, da * fa)

    __radd__ = __add__

    def __neg__(self):
        return SuperElement._make(self.ctx, {m: -v for m, v in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperElement.scalar(self.ctx, other)
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "SuperElement":
        c = as_scalar(c)
        p = c.numerator
        return SuperElement._make(self.ctx, {m: p * v for m, v in self._num.items()},
                                  self._den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._require_same_ctx(other)
        acc = {}
        get = acc.get
        add = operator.add
        right = list(other._num.items())
        for (qa, ea), ca in self._num.items():
            for (qb, eb), cb in right:
                if ea and eb:
                    merged = _merge_eta(ea, eb)
                    if merged is None:
                        continue
                    sign, eta = merged
                    c = ca * cb if sign > 0 else -ca * cb
                else:
                    eta = ea or eb
                    c = ca * cb
                mono = _tuple_new(SuperMonomial, (tuple(map(add, qa, qb)), eta))
                acc[mono] = get(mono, 0) + c
        return SuperElement._make(self.ctx, acc, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("power must be a non-negative integer")
        result = SuperElement.one(self.ctx)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return (self.ctx == other.ctx and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self._den, frozenset(self._num.items())))
        return self._hash

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        from . import polyparse  # deferred; polyparse depends on this module

        return f"SuperElement({polyparse.render(self)})"


# SuperMonomial(qexp, eta) without the namedtuple's Python-level __new__
_tuple_new = tuple.__new__


def _merge_eta(ea: tuple, eb: tuple):
    """Merge two increasing eta index tuples with the Koszul sign.

    Both tuples are nonempty.  Returns (sign, merged) or None if an index
    repeats (odd square = 0).  The sign is (-1)^(number of transpositions
    moving eb's entries past ea's).
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(ea) and j < len(eb):
        if ea[i] == eb[j]:
            return None
        if ea[i] < eb[j]:
            merged.append(ea[i])
            i += 1
        else:
            # eb[j] jumps over the remaining len(ea) - i odd factors
            if (len(ea) - i) % 2:
                sign = -sign
            merged.append(eb[j])
            j += 1
    merged.extend(ea[i:])
    merged.extend(eb[j:])
    return sign, tuple(merged)


def partial_q(i: int, a: SuperElement) -> SuperElement:
    """Formal partial derivative with respect to q_i (1-based); eta untouched."""
    a.ctx._check_index(i)
    idx = i - 1
    acc = {}
    # distinct monomials stay distinct, so nothing accumulates
    for (qexp, eta), v in a._num.items():
        e = qexp[idx]
        if e:
            new = qexp[:idx] + (e - 1,) + qexp[i:]
            acc[_tuple_new(SuperMonomial, (new, eta))] = v * e
    return SuperElement._make(a.ctx, acc, a._den)


def partial_eta(i: int, a: SuperElement) -> SuperElement:
    """Left odd derivative with respect to eta_i.

    On a monomial containing eta_i at (1-based) position p within the eta
    tuple this strips eta_i and multiplies by (-1)^(p-1); monomials without
    eta_i are killed.
    """
    a.ctx._check_index(i)
    acc = {}
    for (qexp, eta), v in a._num.items():
        if i in eta:
            p = eta.index(i)
            new = _tuple_new(SuperMonomial, (qexp, eta[:p] + eta[p + 1:]))
            acc[new] = -v if p % 2 else v
    return SuperElement._make(a.ctx, acc, a._den)


def grade(a: SuperElement):
    """Decompose into tri-homogeneous components.

    Returns a list of (charge, weight, degree, component) sorted by the key
    triple; the components sum back to ``a``.
    """
    buckets = {}
    for mono, v in a._num.items():
        key = (monomial_charge(a.ctx, mono), monomial_weight(a.ctx, mono), mono.degree())
        buckets.setdefault(key, {})[mono] = v
    return [
        (ch, w, deg, SuperElement._make(a.ctx, num, a._den))
        for (ch, w, deg), num in sorted(buckets.items())
    ]
