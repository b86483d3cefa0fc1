"""Exact bigraded super-commutative polynomial algebra.

The algebra is C[q_1..q_N][eta_1..eta_N] where the even variables split into
q_1..q_k = y_1..y_k and q_{k+1}..q_N = x_0..x_n (so N = n + k + 1), and the
eta_mu are odd (eta_mu * eta_nu = -eta_nu * eta_mu, eta_mu^2 = 0), one paired
with each q_mu.

Every element is a finite sum of terms

    c * y^v x^u eta_{i_1} ... eta_{i_s}      (i_1 < ... < i_s)

stored as integer numerators over one positive common denominator: a dict
mapping a packed monomial key -> int and an int, in lowest terms (no zero
numerator, gcd of the denominator and all numerators 1, denominator 1 for
zero).  That form is unique, so equality of elements is equality of
(denominator, dict).  The product and derivative kernels run on these ints;
coefficients surface as exact Fractions, and monomials as SuperMonomials,
only through ``terms`` and ``coefficient``.  Scalars are coerced (see
`as_scalar`) only by the public constructor, ``scalar`` and ``scale``; every
other producer, the kernels and the random draws of `verify` alike, hands int
numerators over one denominator to ``SuperElement._make``, the one trusted
constructor.

A packed key is one int (Monagan and Pearce, CASC 2007): bit mu - 1 is set
when eta_mu is present, and above those N bits sit N exponent fields of 32
bits, q_1 (the y's) lowest.  Each field holds an exponent of at most
MAX_EXPONENT = 2^31 - 1 below one guard bit, so the key of a product term is
the sum of the keys of its factors, and an exponent sum past the limit shows
as a set guard bit instead of spilling into the next field.  Every place an
exponent can grow (packing, the product, the Q terms of the differentials)
checks the guard bits and raises InputError past the limit.

Three gradings, additive over the factors of a monomial:

  charge:  ch(y_i) = -d_i,  ch(x_j) = 1,   ch(eta_mu) = -ch(q_mu)
  weight:  wt(y_i) = 1,     wt(x_j) = 0,   wt(eta_mu) = 1 - wt(q_mu)
  degree:  cohomological; each eta contributes -1, so deg = -s in [-N, 0]

`monomial_charge` and `monomial_weight`, on packed keys, are the only
definitions of the first two, with `even_gradings` their pair on an
eta-free key from one unpack (the charge takes its even part from it);
everything else grades through them.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import ContextMismatchError, InputError

MONOMIAL_ORDERS = ("graded-lex", "grevlex")

# value bits of an exponent field, and the largest exponent a key holds
EXPONENT_BITS = 31
MAX_EXPONENT = (1 << EXPONENT_BITS) - 1
# a field is its value bits and the guard bit above them: one struct "I"
_FIELD_BITS = EXPONENT_BITS + 1
_OVERFLOW = f"exponent past the limit {MAX_EXPONENT} (2^{EXPONENT_BITS} - 1)"


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

    The context also owns the layout of packed monomial keys (module
    docstring): `eta_mask` selects the eta bits, `q_units[mu - 1]` is the
    key of q_mu and `q_shifts[mu - 1]` the position of its field,
    `guard_mask` holds every guard bit, and `pack` / `unpack` translate
    between keys and SuperMonomials.
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
        size = self.nvars
        shifts = tuple(size + _FIELD_BITS * i for i in range(size))
        object.__setattr__(self, "eta_mask", (1 << size) - 1)
        object.__setattr__(self, "q_shifts", shifts)
        object.__setattr__(self, "q_units", tuple(1 << s for s in shifts))
        object.__setattr__(self, "guard_mask", sum(1 << (s + EXPONENT_BITS) for s in shifts))
        # the exponent fields as struct "I"s above the eta bits, so
        # `exponents` unpacks them in C: (format, shift, byte count)
        object.__setattr__(self, "_fields", (f"<{size}I", size, 4 * size))

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

    def exponents(self, key: int) -> tuple:
        """The exponent vector over q_1..q_N of a packed key."""
        fields, shift, length = self._fields
        return struct.unpack(fields, (key >> shift).to_bytes(length, "little"))

    def unpack(self, key: int) -> SuperMonomial:
        """The SuperMonomial of a packed key."""
        return _tuple_new(SuperMonomial, (self.exponents(key), _eta_indices(key & self.eta_mask)))

    def pack(self, mono) -> int:
        """The packed key of a SuperMonomial (or a (qexp, eta) pair).

        Raises InputError unless qexp has N int entries in 0..MAX_EXPONENT
        and eta is strictly increasing in 1..N.
        """
        qexp, eta = mono
        size = self.nvars
        try:
            fields = int.from_bytes(struct.pack(self._fields[0], *qexp), "little") << size
        except struct.error:  # a wrong length, or an entry no "I" holds
            fields = self.guard_mask
        if fields & self.guard_mask:
            if len(qexp) != size:
                raise InputError(f"exponent vector length {len(qexp)} != {size}")
            if any(type(e) is not int or e < 0 for e in qexp):
                raise InputError(f"exponents must be non-negative ints, got {tuple(qexp)!r}")
            raise InputError(_OVERFLOW)
        mask = 0
        previous = 0
        for mu in eta:
            if type(mu) is not int or not previous < mu <= size:
                raise InputError(f"eta indices must increase strictly in 1..{size}, "
                                 f"got {tuple(eta)!r}")
            mask |= 1 << (mu - 1)
            previous = mu
        return fields | mask


def _check_guard(ctx: VariableContext, keys) -> None:
    """Raise InputError if a key carries a guard bit: an exponent sum past
    MAX_EXPONENT.  Keys are sums of keys without one, so no field spilled."""
    if reduce(operator.or_, keys, 0) & ctx.guard_mask:
        raise InputError(_OVERFLOW)


def _eta_indices(eta: int) -> tuple:
    """The increasing 1-based indices of the bits of an eta mask."""
    indices = []
    while eta:
        bit = eta & -eta
        indices.append(bit.bit_length())
        eta -= bit
    return tuple(indices)


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
    mono = SuperMonomial(qexp, eta)
    ctx.pack(mono)  # the length, the exponent range and the eta indices
    return mono


def even_gradings(ctx: VariableContext, key: int) -> tuple:
    """(charge, weight) = (|u| - sum_i d_i v_i, |v|) of the even factor
    y^v x^u of a packed key, from one unpack of its exponents; its eta bits
    are not read.  On an eta-free key these are `monomial_charge` and
    `monomial_weight`, which add the eta factors to them."""
    # ctx.exponents(key) written out: reduce grades every input key here
    fields, shift, length = ctx._fields
    qexp = struct.unpack(fields, (key >> shift).to_bytes(length, "little"))
    k = ctx.k
    # map stops after the k degrees, so it pairs d_i with v_i only
    return sum(qexp[k:]) - sum(map(operator.mul, ctx.degrees, qexp)), sum(qexp[:k])


def monomial_charge(ctx: VariableContext, key: int) -> int:
    """ch(y^v x^u eta_S) = |u| - sum_i d_i v_i + sum_{mu in S, mu <= k} d_mu
    - #{mu in S : mu > k}, of a packed key; the one definition of the
    charge."""
    k, degrees = ctx.k, ctx.degrees
    ch = even_gradings(ctx, key)[0] if key >> ctx.q_shifts[0] else 0
    eta = key & ctx.eta_mask
    if eta:
        ch -= (eta >> k).bit_count()
        for i, d in enumerate(degrees):
            if eta >> i & 1:
                ch += d
    return ch


def monomial_weight(ctx: VariableContext, key: int) -> int:
    """wt(y^v x^u eta_S) = |v| + #{mu in S : mu > k}, of a packed key; the
    one definition of the weight."""
    k = ctx.k
    wt = ((key & ctx.eta_mask) >> k).bit_count()
    v = key >> ctx.q_shifts[0]  # the y fields are the lowest
    for _ in range(k):
        wt += v & MAX_EXPONENT
        v >>= _FIELD_BITS
    return wt


def monomial_sort_key(ctx: VariableContext, key: int):
    """Total-order key of a packed key; larger key = larger monomial.

    graded-lex: weight, then total q-degree, then the exponent vector read
    with precedence y_1 > ... > y_k > x_0 > ... > x_n, then the eta index
    list.  grevlex replaces the exponent comparison by reverse lexicographic
    on negated exponents (the usual trick).
    """
    qexp = ctx.exponents(key)
    if ctx.order == "graded-lex":
        vec = qexp
    else:
        vec = tuple(-e for e in reversed(qexp))
    return (monomial_weight(ctx, key), sum(qexp), vec, _eta_indices(key & ctx.eta_mask))


def _below_parity(eta: int, size: int) -> int:
    """A mask whose bit a, for a < size, is set when an odd number of the
    bits of `eta` lie below a: the prefix xor of eta << 1, by doubling."""
    p = eta << 1
    shift = 1
    while shift < size:
        p ^= p << shift
        shift <<= 1
    return p


def _products(ctx: VariableContext, pairs) -> dict:
    """The numerators of sum_j left_j * right_j, for (left, right) pairs of
    (packed key, int) sequences, in one dict; the one product kernel.

    A term's key is ka + kb, skipped when the eta masks meet;
    eta_ea eta_eb is (-1)^i eta_(ea | eb), with i the pairs (a in ea,
    b in eb) with b < a.  Raises InputError past the exponent limit.
    """
    mask = ctx.eta_mask
    size = ctx.nvars
    acc = {}
    get = acc.get
    for left, right in pairs:
        odd_right = None  # right with eta masks, made for the first odd left term
        for ka, ca in left:
            ea = ka & mask
            if not ea:
                for kb, cb in right:
                    key = ka + kb
                    acc[key] = get(key, 0) + ca * cb
                continue
            if odd_right is None:
                odd_right = [(kb, kb & mask, _below_parity(kb & mask, size), cb)
                             for kb, cb in right]
            for kb, eb, below, cb in odd_right:
                if ea & eb:
                    continue  # an odd square
                key = ka + kb
                if (ea & below).bit_count() & 1:
                    acc[key] = get(key, 0) - ca * cb
                else:
                    acc[key] = get(key, 0) + ca * cb
    _check_guard(ctx, acc)
    return acc


class SuperElement:
    """Finite rational linear combination of SuperMonomials.

    Stored as ``_num`` (packed monomial key -> nonzero int) over ``_den``
    (a positive int), in lowest terms; ``terms`` is the SuperMonomial ->
    Fraction view.  Instances are immutable once constructed and hashable
    by value; the callers treat them as shared read-only data.

    The public constructor takes SuperMonomials and scalars; ``_make`` is
    the only private constructor, and takes packed keys and int numerators.
    """

    __slots__ = ("ctx", "_num", "_den", "_hash")

    def __init__(self, ctx: VariableContext, terms: dict):
        """`terms` maps SuperMonomials to scalars (see `as_scalar`)."""
        pack = ctx.pack
        clean = {}
        for mono, coeff in terms.items():
            key = pack(mono)  # every monomial is checked, zero terms too
            coeff = as_scalar(coeff)
            if coeff:
                clean[key] = coeff
        # over the lcm of the reduced denominators the form is in lowest terms
        den = lcm(*(c.denominator for c in clean.values()))
        self.ctx = ctx
        self._num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den
        self._hash = None

    @classmethod
    def _make(cls, ctx: VariableContext, num: dict, den: int) -> "SuperElement":
        """The one trusted constructor: int numerators over den > 0, keyed
        by packed keys; owns ``num``.

        Drops zero numerators, keeping the order of the others, and divides
        out the content, so any int form of a value gives its lowest terms.
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
        unpack = self.ctx.unpack
        return {unpack(m): Fraction(v, den) for m, v in self._num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VariableContext) -> "SuperElement":
        return cls._make(ctx, {}, 1)

    @classmethod
    def scalar(cls, ctx: VariableContext, value) -> "SuperElement":
        value = as_scalar(value)
        return cls._make(ctx, {0: value.numerator}, value.denominator)

    @classmethod
    def one(cls, ctx: VariableContext) -> "SuperElement":
        return cls.scalar(ctx, 1)

    @classmethod
    def variable(cls, ctx: VariableContext, mu: int) -> "SuperElement":
        """The even variable q_mu (1-based)."""
        ctx._check_index(mu)
        return cls._make(ctx, {ctx.q_units[mu - 1]: 1}, 1)

    @classmethod
    def eta(cls, ctx: VariableContext, mu: int) -> "SuperElement":
        """The odd variable eta_mu (1-based)."""
        ctx._check_index(mu)
        return cls._make(ctx, {1 << (mu - 1): 1}, 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, mono: SuperMonomial) -> Fraction:
        return Fraction(self._num.get(self.ctx.pack(mono), 0), self._den)

    def homogeneous_degree(self):
        """Cohomological degree if homogeneous, else None (0 for the zero element)."""
        mask = self.ctx.eta_mask
        degs = {(m & mask).bit_count() for m in self._num} or {0}
        return -degs.pop() if len(degs) == 1 else None

    def homogeneous_charge(self):
        chs = {monomial_charge(self.ctx, m) for m in self._num}
        return chs.pop() if len(chs) == 1 else None

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
        acc = _products(self.ctx, ((self._num.items(), list(other._num.items())),))
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


def partial_q(i: int, a: SuperElement) -> SuperElement:
    """Formal partial derivative with respect to q_i (1-based); eta untouched."""
    ctx = a.ctx
    ctx._check_index(i)
    unit, shift = ctx.q_units[i - 1], ctx.q_shifts[i - 1]
    acc = {}
    # distinct monomials stay distinct, so nothing accumulates
    for key, v in a._num.items():
        e = key >> shift & MAX_EXPONENT
        if e:
            acc[key - unit] = v * e
    return SuperElement._make(ctx, acc, a._den)


def partial_eta(i: int, a: SuperElement) -> SuperElement:
    """Left odd derivative with respect to eta_i.

    On a monomial containing eta_i at (1-based) position p within the eta
    tuple this strips eta_i and multiplies by (-1)^(p-1); monomials without
    eta_i are killed.
    """
    a.ctx._check_index(i)
    bit = 1 << (i - 1)
    below = bit - 1
    acc = {}
    for key, v in a._num.items():
        if key & bit:
            acc[key - bit] = -v if (key & below).bit_count() & 1 else v
    return SuperElement._make(a.ctx, acc, a._den)


def grade(a: SuperElement):
    """Decompose into tri-homogeneous components.

    Returns a list of (charge, weight, degree, component) sorted by the key
    triple; the components sum back to ``a``.
    """
    ctx = a.ctx
    mask = ctx.eta_mask
    buckets = {}
    for key, v in a._num.items():
        grading = (monomial_charge(ctx, key), monomial_weight(ctx, key), -(key & mask).bit_count())
        buckets.setdefault(grading, {})[key] = v
    return [
        (ch, w, deg, SuperElement._make(ctx, num, a._den))
        for (ch, w, deg), num in sorted(buckets.items())
    ]
