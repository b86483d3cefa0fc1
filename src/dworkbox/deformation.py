"""Deformation of the quotient and of period data.

A deformation replaces the defining polynomials G by U = G + H (same
degrees, zeros allowed in H) and is encoded by Gamma = sum_i y_i H_i, which
solves the shifted Maurer-Cartan equation K(Gamma) + 1/2 l2(Gamma, Gamma) = 0.
The deformed differential K_Gamma(x) = K(x) + l2(Gamma, x) coincides with the
twisted differential of U; both facts are checked exactly at construction.

From a deformation the module builds:

  * a basis {u_alpha} of the deformed quotient whose first |I'| members come
    from the nonzero H_i (the exact shape depends on the sign of the
    background charge), extended greedily by undeformed basis monomials;
  * the power series T^rho(t) determined by reducing the deformation
    exponential coefficient-by-coefficient, keeping at every multi-exponent
    the right-side coefficient whose reduction certifies it;
  * the ladder of derivative matrices D (partial sums per total order) whose
    limit transports period matrices via  Omega_U = D * Omega_G * B, built
    directly by d_ladder without expanding the series, or read off an
    expanded series by d_matrix.

Period matrices and the integral base change B are opaque user inputs; the
transport is plain matrix algebra in whatever arithmetic the entries carry.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .cohomology import QuotientPresentation, _compositions, _Echelon
from .errors import (
    AssumptionError,
    IndependenceError,
    InputError,
    InternalCheckError,
)
from .operators import (
    DworkData,
    LinearFunctional,
    apply_k,
    bell_complete,
    check_x_homogeneous,
    dwork_potential,
    ell2,
    phi_n,
)
from .superalgebra import SuperElement, VariableContext, _products


@dataclass(frozen=True)
class DeformationData:
    """Base and deformed Dwork data joined by Gamma = sum y_i H_i."""

    base: DworkData
    H: tuple
    gamma: SuperElement
    deformed: DworkData
    nonzero_indices: tuple  # 1-based positions i with H_i != 0


def mc_check(D: DworkData, gamma: SuperElement) -> None:
    """Verify K(Gamma) + 1/2 l2(Gamma, Gamma) = 0 exactly.

    Gamma must be eta-free (degree 0); a nonzero residual is reported with
    the offending summand.
    """
    if gamma.homogeneous_degree() != 0:
        raise InputError("Maurer-Cartan candidate must have degree 0")
    first = apply_k(D, gamma)
    second = ell2(D, gamma, gamma).scale(Fraction(1, 2))
    if not first.is_zero():
        raise InternalCheckError(f"Maurer-Cartan failure in K(Gamma): {first!r}")
    if not second.is_zero():
        raise InternalCheckError(f"Maurer-Cartan failure in l2(Gamma, Gamma): {second!r}")


def k_gamma(D: DworkData, gamma: SuperElement, lam: SuperElement) -> SuperElement:
    """The deformed differential K_Gamma(lam) = K(lam) + l2(Gamma, lam)."""
    out = apply_k(D, lam)
    if gamma.is_zero():
        return out
    return out + ell2(D, gamma, lam)


def build_deformation(base: DworkData, H: Sequence[SuperElement]) -> DeformationData:
    """Assemble Gamma and the deformed potential; runs the MC check.

    Each H_i is either zero or homogeneous of degree d_i in x only.  The
    deformed geometry is validated later when its presentation is built.
    """
    ctx = base.ctx
    H = tuple(H)
    if len(H) != ctx.k:
        raise InputError(f"expected {ctx.k} deformation polynomials, got {len(H)}")
    gamma = SuperElement.zero(ctx)
    nonzero = []
    U = []
    for i, (g, h) in enumerate(zip(base.G, H), start=1):
        if h.ctx != ctx:
            raise InputError("deformation polynomial over a different context")
        if not h.is_zero():
            check_x_homogeneous(ctx, h, ctx.degrees[i - 1], f"H_{i}")
            nonzero.append(i)
            gamma = gamma + SuperElement.variable(ctx, i) * h
        U.append(g + h)
    deformed = dwork_potential(ctx, U)
    if deformed.S != base.S + gamma:
        raise InternalCheckError("deformed potential does not equal S + Gamma")
    mc_check(base, gamma)
    return DeformationData(base, H, gamma, deformed, tuple(nonzero))


# -- u basis ------------------------------------------------------------------


@dataclass(frozen=True)
class UBasis:
    """Ordered basis u_1..u_delta of the deformed quotient.

    The first |I'| entries are the classes built from the nonzero H_i, in
    the order of ``DeformationData.nonzero_indices``, so I' viewed inside I
    is always (1, ..., |I'|): `t_series` and `d_matrix` rely on the I'
    classes coming first.  Each leading class is y_i H_i times ``prefactor`` =
    h y_j^m, which is 1 at background charge 0, h at positive charge and
    h y_j^m at negative charge; it is the one record of both h and (j, m).
    """

    elements: tuple
    prefactor: SuperElement


def _smallest_x_monomial(ctx: VariableContext, degree: int) -> SuperElement:
    """Smallest canonical eta-free x-monomial of the given degree: x_n^degree,
    the last monomial of its piece in both graded-lex and grevlex."""
    if degree < 0:
        raise InputError(f"no x-monomial of degree {degree}")
    return SuperElement.variable(ctx, ctx.nvars) ** degree


def _pick_y_power(ctx: VariableContext, c_G: int):
    """(j, m) minimizing m * d_j subject to m*d_j + c_G >= 0, m >= 1.

    Ties break toward the smallest index j.
    """
    best = None
    choice = None
    for j in range(1, ctx.k + 1):
        d = ctx.degrees[j - 1]
        m = max(1, (-c_G + d - 1) // d)  # least m >= 1 with m*d >= -c_G
        key = (m * d, j)
        if best is None or key < best:
            best = key
            choice = (j, m)
    return choice


def u_basis(def_data: DeformationData, pres_G: QuotientPresentation,
            pres_U: QuotientPresentation,
            h: Optional[SuperElement] = None,
            y_choice: Optional[tuple] = None) -> UBasis:
    """Construct {u_alpha} with the deformation classes in front.

    For background charge 0 the leading classes are y_i H_i; for positive
    charge they are multiplied by an x-polynomial h of degree c_G (smallest
    canonical monomial unless supplied); for negative charge additionally by
    y_j^m with (j, m) minimizing m d_j (overridable).  An override that the
    background charge does not use raises InputError.  After verifying that
    these classes are linearly independent in the deformed quotient, the
    basis is completed greedily by the undeformed basis monomials whose
    deformed reductions keep the rank growing.  Dependent leading classes,
    and base basis monomials whose deformed reductions do not reach the
    dimension, raise IndependenceError: both are failed hypotheses of the
    construction, not faults of the code.
    """
    ctx = def_data.base.ctx
    c_G = ctx.background_charge()
    if h is not None and c_G == 0:
        raise InputError("h override applies only to a nonzero background charge, got 0")
    if y_choice is not None and c_G >= 0:
        raise InputError(f"y power override {y_choice} applies only to a negative "
                         f"background charge, got {c_G}")
    dim = pres_G.dimension
    if pres_U.dimension != dim:
        raise InternalCheckError(
            f"deformed quotient dimension {pres_U.dimension} != base {dim}")
    ell = len(def_data.nonzero_indices)
    if dim <= ell:
        # standing hypothesis of the construction, not a malformed input
        raise AssumptionError(
            f"need strictly more basis classes than deformed equations "
            f"(|I| = {dim} <= |I'| = {ell})")

    # prefactor = h * y_j^m with x degree c_G + m d_j; (j, m) = (1, 0) unless
    # c_G < 0, so at c_G = 0 it is x_n^0 * y_1^0 = 1
    j, m = 1, 0
    if c_G < 0:
        if y_choice is None:
            y_choice = _pick_y_power(ctx, c_G)
        if (not isinstance(y_choice, (tuple, list))
                or [type(e) for e in y_choice] != [int, int]
                or not 1 <= y_choice[0] <= ctx.k or y_choice[1] < 1):
            raise InputError(f"invalid y power choice {y_choice}")
        j, m = y_choice
    hdeg = c_G + m * ctx.degrees[j - 1]
    if hdeg < 0:
        raise InputError(f"y power choice {y_choice} cannot reach charge {c_G}")
    if h is None:
        h = _smallest_x_monomial(ctx, hdeg)
    elif h.is_zero():
        raise InputError("h factor must be nonzero")
    else:
        check_x_homogeneous(ctx, h, hdeg, "h factor")
    prefactor = h * SuperElement.variable(ctx, j) ** m

    leaders = []
    for i in def_data.nonzero_indices:
        u = SuperElement.variable(ctx, i) * def_data.H[i - 1] * prefactor
        if u.homogeneous_charge() != c_G:
            raise InternalCheckError("u class misses the background charge")
        leaders.append(u)

    # incremental exact rank tracking over reduced coordinate vectors
    echelon = _Echelon()

    def grows(u):  # the echelon takes ints
        return echelon.insert(pres_U.reduce(u).scaled()[0], {})

    for idx, u in enumerate(leaders, start=1):
        if not grows(u):
            raise IndependenceError(
                f"deformation class {idx} is linearly dependent on the "
                "previous ones in the deformed quotient")

    elements = list(leaders)
    for candidate in pres_G.basis_elements():
        if len(elements) == dim:
            break
        if grows(candidate):
            elements.append(candidate)
    if len(elements) != dim:
        # the deformed reductions of the base basis monomials span too little:
        # a failed hypothesis of the construction, as for the leading classes
        raise IndependenceError(
            f"the base basis monomials reach rank {len(elements)} of the deformed "
            f"quotient's dimension {dim}; the deformed basis cannot be completed")
    return UBasis(tuple(elements), prefactor)


# -- the T series -------------------------------------------------------------


@dataclass(frozen=True)
class DeformationSeries:
    """Truncated expansion of the deformation in the undeformed basis.

    coefficients maps (rho, exponent) -> scalar where rho is a 0-based basis
    position and exponent a tuple over the u-basis variables t^1..t^delta;
    T^rho(t) = sum over exponents.  rhs[exponent] is the t-coefficient of
    the right side, in expansion order; Lambda's t-coefficient there is
    `pres_G.reduce(rhs[exponent]).certificate`, so that

        rhs[exponent] = sum_rho coeff * e_rho + K(certificate).

    `t_series` expands and sums on int numerators by packed key; the
    elements of `rhs` (one each, in lowest terms) and the Fractions of
    `coefficients` (nonzero ones only) are the only objects it makes per
    exponent.  prime_indices is I' inside I, always (1, ..., |I'|).
    """

    order: int
    dimension: int
    prime_indices: tuple
    coefficients: dict
    rhs: dict

    def coefficient(self, rho: int, exponent) -> Fraction:
        return self.coefficients.get((rho, tuple(exponent)), Fraction(0))

    def series_rows(self):
        """Export rows {rho, exponent, value}, with rho numbered from 1.

        Sorted by rho, then total order, then exponent; values are "p/q".
        """
        ordered = sorted(self.coefficients.items(),
                         key=lambda item: (item[0][0], sum(item[0][1]), item[0][1]))
        return [{"rho": rho + 1, "exponent": list(expo),
                 "value": f"{c.numerator}/{c.denominator}"}
                for (rho, expo), c in ordered]


def t_series(def_data: DeformationData, pres_G: QuotientPresentation,
             basis_u: UBasis, order: int) -> DeformationSeries:
    """Expand the deformation exponential and reduce it coefficient-wise.

    Background charge 0:  sum_rho T^rho(t) e_rho + K(Lambda(t)) = e^{sum t^a u_a} - 1.
    Nonzero background charge: the exponential only carries the deformation
    classes y_i H_i, and (p + sum_{b outside I'} t^b u_b) supplies the
    charge, with p the factor `u_basis` used: h, or h y_j^m at negative
    charge.

    Every t-coefficient of the right side is reduced through the undeformed
    presentation; coefficients land in T, and the t-coefficient itself in
    `rhs`, whose reduction's certificate is Lambda's.  By linearity, each
    distinct monomial is reduced once per call (`_record`).
    """
    if order < 1:
        raise InputError("truncation order must be >= 1")
    ctx = def_data.base.ctx
    c_G = ctx.background_charge()
    dim = pres_G.dimension
    elements = basis_u.elements
    ell = len(def_data.nonzero_indices)
    coefficients, rhs, memo = {}, {}, {}

    if c_G == 0:
        # coefficient of t^m is prod u_a^{m_a} / prod m_a!
        for total, level in _scaled_products(ctx, elements, order):
            if total:
                for expo, (num, den) in level.items():
                    _record(pres_G, memo, coefficients, rhs, expo, num, den)
    else:
        # exponential part: only the I' variables appear in the exponent, and
        # (p + sum_{b outside I'} t^b u_b) supplies the charge,
        # so an admissible exponent is an I' exponent, alone or plus one e_b.
        # The I' classes come first in the u basis (see UBasis), so each
        # exponent is the I' part followed by the part outside I'.
        gamma_parts = [SuperElement.variable(ctx, i) * def_data.H[i - 1]
                       for i in def_data.nonzero_indices]
        zeros = (0,) * (dim - ell)
        units = [zeros[:j] + (1,) + zeros[j + 1:] for j in range(dim - ell)]
        previous = {}
        for _, level in _scaled_products(ctx, gamma_parts, order):
            # the factor is the left operand: that fixes the key order of rhs
            for inner, (num, den) in level.items():
                _record(pres_G, memo, coefficients, rhs, inner + zeros,
                        *_times(basis_u.prefactor, num, den))
            for inner, (num, den) in previous.items():
                for b, unit in enumerate(units, start=ell):
                    _record(pres_G, memo, coefficients, rhs, inner + unit,
                            *_times(elements[b], num, den))
            previous = level

    return DeformationSeries(order, dim, tuple(range(1, ell + 1)), coefficients, rhs)


def _times(factor: SuperElement, num: dict, den: int) -> tuple:
    """(numerators, denominator) of factor * (num / den), by the one
    product kernel; not in lowest terms."""
    return _products(factor.ctx, ((factor._num.items(), list(num.items())),)), factor._den * den


def _scaled_products(ctx: VariableContext, factors, order: int):
    """Yield (total, {m: prod factors[a]^{m_a} / m_a!}) for total = 0..order,
    each value as (int numerators by packed key, denominator).

    Each level lists the exponents in the order of _compositions and builds
    every value by one `_products` call, its parent on the previous level
    times the factor at the first nonzero index: the first element of the
    exponent's multiset, which `combinations_with_replacement` lists in the
    same order.  The factor's denominator and m_a fold into the parent's
    and no content is divided out, so values are not in lowest terms; zero
    numerators are dropped, which keeps the key order of the product."""
    parts = len(factors)
    rights = [list(f._num.items()) for f in factors]
    level = {(0,) * parts: ({0: 1}, 1)}
    yield 0, level
    for total in range(1, order + 1):
        parent_level, level = level, {}
        for multiset, expo in zip(combinations_with_replacement(range(parts), total),
                                  _compositions(total, parts)):
            a = multiset[0]
            num, den = parent_level[expo[:a] + (expo[a] - 1,) + expo[a + 1:]]
            num = _products(ctx, ((num.items(), rights[a]),))
            if 0 in num.values():
                num = {m: v for m, v in num.items() if v}
            level[expo] = (num, den * factors[a]._den * expo[a])
        yield total, level


def _record(pres: QuotientPresentation, memo: dict, coefficients, rhs, expo,
            num: dict, den: int):
    """Reduce the t^expo coefficient num / den into the series and keep it,
    in lowest terms, as rhs[expo].

    `reduce` is linear, so value = sum c m reduces to sum c reduce(m):
    `memo` holds, for every monomial m reduced so far in one `t_series`
    call, its coefficients as int numerators by rho over one denominator.
    The sums run in ints over the lcm of the denominators met, and only the
    nonzero sums become Fractions, in rho order."""
    ctx = pres.dwork.ctx
    value = rhs[expo] = SuperElement._make(ctx, num, den)
    sums, common = {}, 1
    for mono, v in value._num.items():
        reduced = memo.get(mono)
        if reduced is None:
            reduced = memo[mono] = pres.reduce(SuperElement._make(ctx, {mono: 1}, 1)).scaled()
        nums, mden = reduced
        if common % mden:
            step = mden // math.gcd(common, mden)
            sums = {rho: c * step for rho, c in sums.items()}
            common *= step
        v *= common // mden
        for rho, c in nums.items():
            sums[rho] = sums.get(rho, 0) + v * c
    den = value._den * common
    coefficients.update(((rho, expo), Fraction(c, den)) for rho, c in sorted(sums.items()) if c)


# -- the D matrix ladder ------------------------------------------------------

def d_ladder(def_data: DeformationData, pres_G: QuotientPresentation,
             basis_u: UBasis, order: int):
    """Partial sums of D[beta][rho] = d/dt^beta T^rho at t = 1 on I', 0 off I'.

    Returns {order M: exact rational matrix} for M = 1..order; the caller
    inspects convergence across orders.  Multinomial bookkeeping makes row
    beta at order M the cumulative reduction of u_beta * Gamma^j / j! over
    j < M, read off one expansion_coefficients call per u_beta: dim * order
    reductions instead of one per exponent of the T series.  This is the
    route for a job that has no series; a caller that has already expanded
    the series reads the same ladder off it with `d_matrix`, which reduces
    nothing.
    """
    if order < 1:
        raise InputError("truncation order must be >= 1")
    rows = [expansion_coefficients(def_data, pres_G, u, order - 1)
            for u in basis_u.elements]
    return {m: [list(row[m - 1]) for row in rows] for m in range(1, order + 1)}


def d_matrix(series: DeformationSeries):
    """The `d_ladder` of the deformation a T series expands, read off it.

    Entry [beta][rho] at order M sums m_beta * coeff(rho, m) over the
    exponents m of total order 1..M with m - e_beta inside I'.  The I'
    classes come first in the u basis (see UBasis), so positions
    0..|I'|-1 are I', and an exponent contributes in one of two ways: with
    no index off I', m_beta * c to each row beta of its support; with one
    index b off I', at power 1, c to row b.  Any other exponent adds
    nothing.  One pass over the coefficients sums them by total order; the
    running sums take each order's sums and are copied once per order.
    """
    dim, ell = series.dimension, len(series.prime_indices)
    # steps[M][beta][rho]: what the exponents of total order M add
    steps = [[[0] * dim for _ in range(dim)] for _ in range(series.order + 1)]
    for (rho, expo), c in series.coefficients.items():
        inner = expo[:ell]
        total = sum(expo)
        off = total - sum(inner)
        if not off:
            step = steps[total]
            for beta, m in enumerate(inner):
                if m:
                    step[beta][rho] += m * c
        elif off == 1:
            steps[total][expo.index(1, ell)][rho] += c
    running = [[Fraction(0)] * dim for _ in range(dim)]
    ladder = {}
    for order in range(1, series.order + 1):
        for row, step in zip(running, steps[order]):
            for rho, v in enumerate(step):
                if v:
                    row[rho] += v
        ladder[order] = [row[:] for row in running]
    return ladder


# -- deformation evaluators ----------------------------------------------------

def expansion_coefficients(def_data: DeformationData, pres_G: QuotientPresentation,
                           u: SuperElement, order: int):
    """Cumulative reductions of u * Gamma^m / m! for m = 0..order.

    The sequence of coefficient vectors converges (coefficient-wise, in the
    formal sense) to the deformed functional's data; pairing with a numeric
    period row is left to the caller.
    """
    if order < 0:
        raise InputError("order must be >= 0")
    c_G = def_data.base.ctx.background_charge()
    if u.homogeneous_charge() != c_G:
        raise InputError("u must be homogeneous of the background charge")
    if u.homogeneous_degree() != 0:
        raise InputError("u must be eta-free")
    out = []
    running = [Fraction(0)] * pres_G.dimension
    power = u
    for m in range(order + 1):
        if m:
            power = power * def_data.gamma
        term = power.scale(Fraction(1, math.factorial(m)))
        for rho, c in pres_G.reduce(term).coefficients.items():
            running[rho] += c
        out.append(tuple(running))
    return out


def bell_expansion(f: LinearFunctional, gamma: SuperElement, u: SuperElement,
                   order: int):
    """Bell-polynomial expansion of the deformed functional, per order.

    Partial sums of

        f(u) + sum_{m>=1} sum_{j+k=m} 1/(j! k!)
                 B_j(phi_1(Gamma), .., phi_j(Gamma..Gamma))
                 * phi_{k+1}(Gamma, .., Gamma, u)

    for total order 0..order.  Must match the direct truncation
    sum_m f(u Gamma^m / m!) order by order whenever f kills the image of K.
    """
    if order < 0:
        raise InputError("order must be >= 0")
    if not f.cochain:
        raise InputError("bell_expansion needs a cochain functional (f . K = 0)")
    phis_gamma = [None]
    for j in range(1, order + 1):
        phis_gamma.append(phi_n(f, (gamma,) * j))
    bells = [Fraction(1)]
    for j in range(1, order + 1):
        bells.append(bell_complete(j, phis_gamma[1:j + 1]))
    phi_with_u = [f(u)]
    for k in range(1, order + 1):
        phi_with_u.append(phi_n(f, (gamma,) * k + (u,)))
    sums = [f(u)]
    running = f(u)
    for m in range(1, order + 1):
        for j in range(0, m + 1):
            k = m - j
            running += (Fraction(1, math.factorial(j) * math.factorial(k))
                        * bells[j] * phi_with_u[k])
        sums.append(running)
    return sums


# -- period transport ---------------------------------------------------------


@dataclass(frozen=True)
class PeriodMatrix:
    """Square matrix of user-supplied period values (exact or floating)."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise InputError("period matrix must be square")
        _require_finite(rows, "period matrix")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def exact(self) -> bool:
        return _is_exact(self.entries)


@dataclass(frozen=True)
class BaseChange:
    """Integer base change on the cycle lattice; unimodular when integral.

    An integral matrix may hold ints, Fractions or floats, provided each is
    exactly an integer; it is stored as ints.
    """

    matrix: tuple
    integral: bool = True

    def __post_init__(self):
        rows = tuple(tuple(v for v in r) for r in self.matrix)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise InputError("base change matrix must be square")
        if self.integral:
            rows = tuple(tuple(_exact_int(v) for v in r) for r in rows)
            det = _determinant(rows)
            if det not in (1, -1):
                raise InputError(f"integral base change must be unimodular, det = {det}")
        else:
            _require_finite(rows, "base change")
        object.__setattr__(self, "matrix", rows)

    @property
    def size(self) -> int:
        return len(self.matrix)


def _is_exact(rows) -> bool:
    return all(isinstance(v, (int, Fraction)) for row in rows for v in row)


def _require_finite(rows, name: str) -> None:
    if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
        raise InputError(f"{name} entries must be finite numbers, not NaN or infinity")


def _exact_int(v) -> int:
    """v as an int, or InputError unless v is exactly an integer (NaN and
    the infinities are not)."""
    if isinstance(v, (int, Fraction, float)):
        try:
            exact = int(v)
        except (ValueError, OverflowError):
            exact = None
        if exact == v:
            return exact
    raise InputError("integral base change needs integer entries")


def _determinant(rows) -> Fraction:
    """Exact determinant of a square matrix through the sparse echelon.

    Inserting the rows in order only subtracts multiples of earlier rows, so
    the determinant is the product of the pivot coefficients `insert`
    divides by (0 for a dependent row), signed by the parity of the pivot
    order.
    """
    echelon = _Echelon()
    det = Fraction(1)
    for row in rows:
        det *= echelon.insert({j: v for j, v in enumerate(row) if v}, {})
    order = [pivot for pivot, _, _ in echelon.rows]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det if inversions % 2 else det


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _scaled(rows):
    """(integer numerators, common denominator) of an exact matrix."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def period_transport(ladder: dict, omega: PeriodMatrix,
                     base_change: BaseChange) -> dict:
    """Omega_deformed = D * Omega * B for every D of a `d_ladder` result.

    Takes {order m: D} and returns {order m: PeriodMatrix}.  When every
    entry of Omega, B and the D matrices is exact, Omega and B are scaled
    to integer numerators over one denominator each and Omega * B is
    multiplied once per call.  A ladder D has a few nonzero entries per row,
    so each row of D * (Omega * B) is read off those alone: they are scaled
    over the lcm of their denominators, the output row is the integer sum of
    each one times its row of Omega * B, and each output entry is one
    Fraction.  A floating entry (a float Omega, or a non-integral B with
    float entries) keeps the plain product (D * Omega) * B, and floats
    propagate.
    """
    size = omega.size
    for d in ladder.values():
        if len(d) != size or any(len(r) != size for r in d):
            raise InputError(f"D must be {size}x{size} to match the period matrix")
    if base_change.size != size:
        raise InputError(f"base change must be {size}x{size}")
    if not (omega.exact and _is_exact(base_change.matrix)
            and all(_is_exact(d) for d in ladder.values())):
        return {m: PeriodMatrix(_matmul(_matmul(d, omega.entries), base_change.matrix))
                for m, d in ladder.items()}
    omega_num, omega_den = _scaled(omega.entries)
    b_num, b_den = _scaled(base_change.matrix)
    ob_num = _matmul(omega_num, b_num)
    ob_den = omega_den * b_den
    out = {}
    for m, d in ladder.items():
        rows = []
        for d_row in d:
            terms = [(v, ob_num[t]) for t, v in enumerate(d_row) if v]
            row_den = math.lcm(*(v.denominator for v, _ in terms))
            acc = [0] * size
            for v, ob_row in terms:
                c = v.numerator * (row_den // v.denominator)
                acc = [a + c * w for a, w in zip(acc, ob_row)]
            den = row_den * ob_den
            rows.append(tuple(Fraction(a, den) for a in acc))
        out[m] = PeriodMatrix(tuple(rows))
    return out
