"""Exact bigraded super-commutative polynomial algebra.

The algebra is C[q_1..q_N][eta_1..eta_N] where the even variables split into
q_1..q_k = y_1..y_k and q_{k+1}..q_N = x_0..x_n (so N = n + k + 1), and the
eta_mu are odd (eta_mu * eta_nu = -eta_nu * eta_mu, eta_mu^2 = 0), one paired
with each q_mu.

Every element is a finite sum of terms

    c * y^v x^u eta_{i_1} ... eta_{i_s}      (i_1 < ... < i_s)

stored as a dict mapping SuperMonomial -> Fraction.  Coefficients are exact
rationals throughout; zero coefficients are never stored, so equality of
elements is equality of dicts.

Three gradings:

  charge:  ch(y_i) = -d_i,  ch(x_j) = 1,   ch(eta_mu) = -ch(q_mu)
  weight:  wt(y_i) = 1,     wt(x_j) = 0,   wt(eta_mu) = 1 - wt(q_mu)
  degree:  cohomological; each eta contributes -1, so deg = -s in [-N, 0]
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ContextMismatchError, InputError

# All core arithmetic is exact rational.
ExactScalar = Fraction

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
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
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

    def charge_of_var(self, mu: int) -> int:
        """Charge of q_mu (1-based index)."""
        self._check_index(mu)
        if mu <= self.k:
            return -self.degrees[mu - 1]
        return 1

    def weight_of_var(self, mu: int) -> int:
        self._check_index(mu)
        return 1 if mu <= self.k else 0

    def charge_of_eta(self, mu: int) -> int:
        return -self.charge_of_var(mu)

    def weight_of_eta(self, mu: int) -> int:
        return 1 - self.weight_of_var(mu)

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
    qexp = tuple(int(e) for e in qexp)
    eta = tuple(int(i) for i in eta)
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
    ch = 0
    for mu, e in enumerate(m.qexp, start=1):
        if e:
            ch += e * ctx.charge_of_var(mu)
    for mu in m.eta:
        ch += ctx.charge_of_eta(mu)
    return ch


def monomial_weight(ctx: VariableContext, m: SuperMonomial) -> int:
    w = sum(m.qexp[i] for i in range(ctx.k))
    for mu in m.eta:
        w += ctx.weight_of_eta(mu)
    return w


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

    Instances are immutable once constructed and hashable by value; the
    callers treat them as shared read-only data.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: VariableContext, terms: dict):
        self.ctx = ctx
        clean = {}
        for mono, coeff in terms.items():
            if not isinstance(coeff, Fraction):
                coeff = as_scalar(coeff)
            if coeff != 0:
                clean[mono] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VariableContext) -> "SuperElement":
        return cls(ctx, {})

    @classmethod
    def scalar(cls, ctx: VariableContext, value) -> "SuperElement":
        c = as_scalar(value)
        if c == 0:
            return cls.zero(ctx)
        return cls(ctx, {SuperMonomial((0,) * ctx.nvars, ()): c})

    @classmethod
    def one(cls, ctx: VariableContext) -> "SuperElement":
        return cls.scalar(ctx, 1)

    @classmethod
    def variable(cls, ctx: VariableContext, mu: int) -> "SuperElement":
        """The even variable q_mu (1-based)."""
        ctx._check_index(mu)
        qexp = [0] * ctx.nvars
        qexp[mu - 1] = 1
        return cls(ctx, {SuperMonomial(tuple(qexp), ()): Fraction(1)})

    @classmethod
    def eta(cls, ctx: VariableContext, mu: int) -> "SuperElement":
        """The odd variable eta_mu (1-based)."""
        ctx._check_index(mu)
        return cls(ctx, {SuperMonomial((0,) * ctx.nvars, (mu,)): Fraction(1)})

    @classmethod
    def from_terms(cls, ctx: VariableContext, items) -> "SuperElement":
        acc = {}
        for mono, coeff in items:
            acc[mono] = acc.get(mono, Fraction(0)) + as_scalar(coeff)
        return cls(ctx, acc)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: SuperMonomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def charges(self) -> set:
        return {monomial_charge(self.ctx, m) for m in self.terms}

    def weights(self) -> set:
        return {monomial_weight(self.ctx, m) for m in self.terms}

    def degrees(self) -> set:
        return {m.degree() for m in self.terms}

    def homogeneous_degree(self):
        """Cohomological degree if homogeneous, else None (0 for the zero element)."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_charge(self):
        chs = self.charges()
        if not chs:
            return None
        if len(chs) == 1:
            return chs.pop()
        return None

    def weight_parts(self) -> dict:
        """Split into weight-homogeneous summands: weight -> SuperElement."""
        parts = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(monomial_weight(self.ctx, mono), {})[mono] = coeff
        return {w: SuperElement(self.ctx, t) for w, t in sorted(parts.items())}

    def top_weight(self):
        if not self.terms:
            return None
        return max(monomial_weight(self.ctx, m) for m in self.terms)

    def sorted_terms(self, reverse: bool = True):
        """Terms in canonical order (largest monomial first by default)."""
        key = lambda item: monomial_sort_key(self.ctx, item[0])
        return sorted(self.terms.items(), key=key, reverse=reverse)

    # -- arithmetic --------------------------------------------------------

    def _require_same_ctx(self, other: "SuperElement"):
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                f"mixed variable contexts: {self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperElement.scalar(self.ctx, other)
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._require_same_ctx(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        return SuperElement(self.ctx, acc)

    __radd__ = __add__

    def __neg__(self):
        return SuperElement(self.ctx, {m: -c for m, c in self.terms.items()})

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
        if c == 0:
            return SuperElement.zero(self.ctx)
        return SuperElement(self.ctx, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._require_same_ctx(other)
        acc = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                merged = _merge_eta(ma.eta, mb.eta)
                if merged is None:
                    continue
                sign, eta = merged
                qexp = tuple(a + b for a, b in zip(ma.qexp, mb.qexp))
                mono = SuperMonomial(qexp, eta)
                acc[mono] = acc.get(mono, Fraction(0)) + sign * ca * cb
        return SuperElement(self.ctx, acc)

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
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from . import polyparse  # deferred; polyparse depends on this module

        return f"SuperElement({polyparse.render(self)})"


def _merge_eta(ea: tuple, eb: tuple):
    """Merge two increasing eta index tuples with the Koszul sign.

    Returns (sign, merged) or None if an index repeats (odd square = 0).
    The sign is (-1)^(number of transpositions moving eb's entries past ea's).
    """
    if not ea:
        return 1, eb
    if not eb:
        return 1, ea
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
    acc = {}
    idx = i - 1
    for mono, coeff in a.terms.items():
        e = mono.qexp[idx]
        if e == 0:
            continue
        qexp = list(mono.qexp)
        qexp[idx] = e - 1
        new = SuperMonomial(tuple(qexp), mono.eta)
        acc[new] = acc.get(new, Fraction(0)) + coeff * e
    return SuperElement(a.ctx, acc)


def partial_eta(i: int, a: SuperElement) -> SuperElement:
    """Left odd derivative with respect to eta_i.

    On a monomial containing eta_i at (1-based) position p within the eta
    tuple this strips eta_i and multiplies by (-1)^(p-1); monomials without
    eta_i are killed.
    """
    a.ctx._check_index(i)
    acc = {}
    for mono, coeff in a.terms.items():
        if i not in mono.eta:
            continue
        p = mono.eta.index(i)
        eta = mono.eta[:p] + mono.eta[p + 1:]
        sign = -1 if p % 2 else 1
        new = SuperMonomial(mono.qexp, eta)
        acc[new] = acc.get(new, Fraction(0)) + sign * coeff
    return SuperElement(a.ctx, acc)


def grade(a: SuperElement):
    """Decompose into tri-homogeneous components.

    Returns a list of (charge, weight, degree, component) sorted by the key
    triple; the components sum back to ``a``.
    """
    buckets = {}
    for mono, coeff in a.terms.items():
        key = (monomial_charge(a.ctx, mono), monomial_weight(a.ctx, mono), mono.degree())
        buckets.setdefault(key, {})[mono] = coeff
    return [
        (ch, w, deg, SuperElement(a.ctx, terms))
        for (ch, w, deg), terms in sorted(buckets.items())
    ]
