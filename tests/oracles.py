"""Independent oracles shared by the unit and acceptance tests.

Most of them deliberately avoid the library's SuperElement machinery:
polynomials are plain dicts over x exponent tuples, ranks come from dense
rational elimination, and enumeration scans bounded exponent boxes.  The
retained exact routes (the weight-echelon reduction, the series route to
the D ladder, the unmemoised T series and the recursive composition
enumerator) are the library's own earlier paths, kept as cross-checks.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, lcm

from dworkbox import SuperElement, SuperMonomial, apply_delta, apply_k, ell_n
from dworkbox.cohomology import (
    ReductionResult,
    _build_weight_solver,
    charge_generator,
    charge_witness,
    enumerate_piece,
)
from dworkbox.deformation import DeformationSeries
from dworkbox.errors import SmoothnessError
from dworkbox.superalgebra import monomial_weight, partial_q


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def monomials_of_degree(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def dense_rank(vectors, columns):
    index = {c: i for i, c in enumerate(columns)}
    rows = []
    for vec in vectors:
        row = [Fraction(0)] * len(columns)
        for mono, c in vec.items():
            row[index[mono]] = Fraction(c)
        rows.append(row)
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def jacobian_ring_dimension(nvars, gradient_polys, degree):
    """dim of the degree piece of Q[x] / (gradient ideal), brute force."""
    columns = list(monomials_of_degree(nvars, degree))
    vectors = []
    for g in gradient_polys:
        gdeg = max(sum(e) for e in g)
        shift = degree - gdeg
        if shift < 0:
            continue
        for mono in monomials_of_degree(nvars, shift):
            vectors.append(poly_mul({mono: Fraction(1)}, g))
    return len(columns) - dense_rank(vectors, columns)


def x_poly(ctx, element):
    """Strip an x-only SuperElement down to the oracle's dict form."""
    out = {}
    for mono, c in element.terms.items():
        out[tuple(mono.qexp[ctx.k:])] = c
    return out


def griffiths_hodge_numbers(ctx, G):
    """Hypersurface (k = 1) primitive Hodge numbers via the Jacobian ring.

    h^{n-1-q, q}_prim = dim of the Jacobian ring in degree (q+1) d - (n+1).
    """
    d = ctx.degrees[0]
    n = ctx.n
    grads = [x_poly(ctx, partial_q(ctx.k + 1 + j, G)) for j in range(n + 1)]
    out = []
    for q in range(0, n):
        degree = (q + 1) * d - (n + 1)
        out.append(0 if degree < 0 else jacobian_ring_dimension(n + 1, grads, degree))
    return out


def _series_mul(a, b, top):
    """Product of two series in z and y, stored as {(z power, y power): int}
    and truncated after z^top."""
    out = {}
    for (i, p), c in a.items():
        for (j, r), d in b.items():
            if i + j <= top:
                out[i + j, p + r] = out.get((i + j, p + r), 0) + c * d
    return {key: c for key, c in out.items() if c}


def _series_inverse(a, top):
    """1/a for a series whose z^0 coefficient is 1: the sum of (1 - a)^t."""
    step = {key: -c for key, c in a.items() if key != (0, 0)}
    inverse, power = {(0, 0): 1}, {(0, 0): 1}
    for _ in range(top):
        power = _series_mul(power, step, top)
        for key, c in power.items():
            inverse[key] = inverse.get(key, 0) + c
    return inverse


def hirzebruch_hodge_numbers(n, degrees):
    """Primitive Hodge numbers of a smooth complete intersection of the given
    degrees in P^n, in the order of `hodge_numbers()`: entry q is
    h^{m-q,q}_prim with m = n - k.  Nothing here touches the library.

    Hirzebruch (Topological Methods in Algebraic Geometry, section 22):

        sum_m chi_y(V_m) z^(m+k) = 1/((1+zy)(1-z))
            * prod_j ((1+zy)^d - (1-z)^d) / ((1+zy)^d + y(1-z)^d),

    and chi_y(V) is the coefficient of z^n.  With q_i = (y^i - (-1)^i)/(1+y)
    the j-th factor is z (sum_i C(d,i) q_i z^(i-1)) / (1 + sum_i C(d,i) y
    q_(i-1) z^i), so chi_y(V) is the z^m coefficient of a series whose
    denominators have constant term 1.  Off the middle degree V has the
    Hodge numbers of P^m, and the primitive part drops the hyperplane class.
    """
    m = n - len(degrees)

    def quotient(i):  # q_i, as {y power: coefficient}
        return {t: (-1) ** (i - 1 - t) for t in range(i)}

    # 1/((1+zy)(1-z)) has z^i coefficient sum_{t<=i} (-y)^t
    series = {(i, t): (-1) ** t for i in range(m + 1) for t in range(i + 1)}
    for d in degrees:
        numerator = {(i - 1, t): comb(d, i) * c
                     for i in range(1, min(d, m + 1) + 1) for t, c in quotient(i).items()}
        denominator = {(i, t + 1): comb(d, i) * c
                       for i in range(2, min(d, m) + 1) for t, c in quotient(i - 1).items()}
        denominator[0, 0] = 1
        series = _series_mul(series, numerator, m)
        series = _series_mul(series, _series_inverse(denominator, m), m)
    hodge = []
    for p in range(m, -1, -1):  # entry q = m - p
        middle = 2 * p == m
        chi_p = series.get((m, p), 0)
        hodge.append((-1) ** (m - p) * (chi_p - (0 if middle else (-1) ** p)) - middle)
    return hodge


def two_quadrics_weight_coranks(dwork):
    """Coranks of the two graded pieces of the two-quadrics example.

    Weight 0 is the constants; weight 1 is assembled by hand over columns
    (y index, x exponent) from x_i * dS/dx_j and y_m * G_l.
    """
    ctx = dwork.ctx
    g = [x_poly(ctx, G) for G in dwork.G]
    dg = []
    for j in range(ctx.n + 1):
        dg.append(tuple(x_poly(ctx, partial_q(ctx.k + 1 + j, G)) for G in dwork.G))
    columns = [(m, e) for m in range(ctx.k)
               for e in monomials_of_degree(ctx.n + 1, 2)]
    vectors = []
    for i in range(ctx.n + 1):
        xi = [0] * (ctx.n + 1)
        xi[i] = 1
        xi = {tuple(xi): Fraction(1)}
        for j in range(ctx.n + 1):
            vec = {}
            for m, part in enumerate(dg[j]):
                for mono, c in poly_mul(xi, part).items():
                    vec[(m, mono)] = vec.get((m, mono), Fraction(0)) + c
            vectors.append(vec)
    for m in range(ctx.k):
        for gl in g:
            vectors.append({(m, mono): c for mono, c in gl.items()})
    corank1 = len(columns) - dense_rank(vectors, columns)
    return [1, corank1]


def var_charge(ctx, mu):
    """ch(q_mu), 1-based: -d_mu for y_mu (mu <= k), 1 for an x."""
    return -ctx.degrees[mu - 1] if mu <= ctx.k else 1


def var_weight(ctx, mu):
    """wt(q_mu), 1-based: 1 for a y, 0 for an x."""
    return 1 if mu <= ctx.k else 0


def table_charge(ctx, mono):
    """Charge summed factor by factor from the per-variable table of the
    superalgebra module docstring, with ch(eta_mu) = -ch(q_mu)."""
    return (sum(e * var_charge(ctx, mu) for mu, e in enumerate(mono.qexp, start=1))
            - sum(var_charge(ctx, mu) for mu in mono.eta))


def table_weight(ctx, mono):
    """Weight summed factor by factor, with wt(eta_mu) = 1 - wt(q_mu)."""
    return (sum(e * var_weight(ctx, mu) for mu, e in enumerate(mono.qexp, start=1))
            + sum(1 - var_weight(ctx, mu) for mu in mono.eta))


def brute_force_piece(ctx, charge, weight, eta_degree, exp_bound=12):
    """Enumerate a graded piece by scanning a bounded exponent box, graded
    by the per-variable table."""
    found = set()
    size = -eta_degree
    if size < 0 or size > ctx.nvars:
        return found
    for eta in itertools.combinations(range(1, ctx.nvars + 1), size):
        for v in itertools.product(range(0, weight + 1), repeat=ctx.k):
            for u in itertools.product(range(0, exp_bound + 1), repeat=ctx.n + 1):
                mono = SuperMonomial(tuple(v) + tuple(u), eta)
                if table_charge(ctx, mono) == charge and \
                        table_weight(ctx, mono) == weight:
                    found.add(mono)
    return found


def fraction_random_element(ctx, rng, *, max_eta=2, max_weight=2, max_xdeg=4, terms=3,
                            homogeneous_degree=None):
    """verify.random_element as it was before its coefficients were int
    numerators: each coefficient a Fraction, summed per key, with the keys
    unpacked for the public constructor."""
    units = ctx.q_units
    acc = {}
    for _ in range(terms):
        size = homogeneous_degree if homogeneous_degree is not None \
            else rng.randint(0, max_eta)
        key = sum(1 << (mu - 1) for mu in rng.sample(range(1, ctx.nvars + 1), size)) \
            if size else 0
        for i in range(ctx.nvars):
            key += rng.randint(0, max_weight if i < ctx.k else max_xdeg) * units[i]
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            acc[key] = acc.get(key, 0) + coeff
    return SuperElement(ctx, {ctx.unpack(key): c for key, c in acc.items()})


def enumerating_charge_element(D, rng, charge, eta_degree, max_weight=3):
    """verify.random_charge_element through the `random.Random` methods:
    every piece listed by enumerate_piece, then sampled, with the sampled
    keys unpacked for the public constructor."""
    ctx = D.ctx
    acc = {}
    for w in range(0, max_weight + 1):
        piece = enumerate_piece(ctx, charge, w, eta_degree)
        if not piece.monomials:
            continue
        for key in rng.sample(piece.monomials, min(2, len(piece.monomials))):
            mono = ctx.unpack(key)
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if coeff:
                acc[mono] = acc.get(mono, Fraction(0)) + coeff
    return SuperElement(ctx, acc)


def as_ints(vec):
    """A dict of rationals as (int dict, den) with ints / den == vec, den the
    lcm of the denominators: the int form the library's `eliminate` takes."""
    den = lcm(*(Fraction(v).denominator for v in vec.values()))
    return {k: int(v * den) for k, v in vec.items()}, den


def as_fractions(*parts):
    """The int dicts d_1..d_m of (d_1, ..., d_m, den), as the library's
    `eliminate` and `q_vector` return them, as Fraction dicts d_i / den."""
    *dicts, den = parts
    return tuple({k: Fraction(v, den) for k, v in d.items()} for d in dicts)


def rational_rows(echelon):
    """The rows of a library echelon as (pivot, row, combo) with Fraction
    entries, pivot entry 1: the form `FractionEchelon.rows` keeps."""
    for pivot, row, combo in echelon.rows:
        p = row[pivot]
        yield (pivot, {pos: Fraction(c, p) for pos, c in row.items()},
               {k: Fraction(c, p) for k, c in combo.items()})


class FractionEchelon:
    """The sparse echelon on Fraction rows that dworkbox used before its
    elimination went fraction-free; kept as the exact reference.

    rows: (pivot, row, combo) with Fraction entries, each row normalized to
    pivot coefficient 1 and pivoted at its smallest position; `eliminate`
    and `insert` have the library echelon's contract.
    """

    def __init__(self):
        self.rows = []
        self.pivots = {}

    def eliminate(self, vec):
        stack = {pos: Fraction(c) for pos, c in vec.items() if c}
        combo = {}
        residual = {}
        while stack:
            lead = min(stack)
            hit = self.pivots.get(lead)
            if hit is None:
                residual[lead] = stack.pop(lead)
                continue
            factor = stack[lead]
            _, row, row_combo = self.rows[hit]
            for pos, c in row.items():
                new = stack.get(pos, Fraction(0)) - factor * c
                if new:
                    stack[pos] = new
                else:
                    stack.pop(pos, None)
            for g, c in row_combo.items():
                new = combo.get(g, Fraction(0)) + factor * c
                if new:
                    combo[g] = new
                else:
                    combo.pop(g, None)
        return residual, combo

    def insert(self, vec, combo):
        residual, used = self.eliminate(vec)
        if not residual:
            return Fraction(0)
        lead = min(residual)
        scale = residual[lead]
        row = {pos: c / scale for pos, c in residual.items()}
        full_combo = {g: Fraction(c) for g, c in combo.items()}
        for g, c in used.items():
            full_combo[g] = full_combo.get(g, Fraction(0)) - c
        full_combo = {g: c / scale for g, c in full_combo.items() if c}
        self.pivots[lead] = len(self.rows)
        self.rows.append((lead, row, full_combo))
        return scale


def koszul_redundant(D):
    """The predicate gen -> bool that is true for the weight-solver
    generators gen = m * eta_j the Koszul criterion skips: those where the
    leading monomial of some nonzero dS/dq_i with i > j divides m.

    Re-derived here from the potential S and the definition of the orders
    (y degree, then total degree, then the exponents read from y_1 in
    graded-lex, or the last exponent smallest first in grevlex), so that it
    shares no code with the library's criterion.
    """
    ctx = D.ctx

    def key(q):
        tie = q if ctx.order == "graded-lex" else tuple(-e for e in reversed(q))
        return (sum(q[:ctx.k]), sum(q), tie)

    leads = {}
    for i in range(1, ctx.nvars + 1):
        terms = partial_q(i, D.S).terms
        if terms:
            leads[i] = max((mono.qexp for mono in terms), key=key)

    def redundant(gen):
        (j,) = gen.eta
        return any(all(a <= b for a, b in zip(lead, gen.qexp))
                   for i, lead in leads.items() if i > j)

    return redundant


# -- Fraction reference for the super-algebra kernel --------------------------
# Elements are plain dicts SuperMonomial -> Fraction without zero values; the
# Koszul sign counts inversions directly instead of merging the eta tuples.

def _koszul(ea, eb):
    """(sign, merged eta) of eta_ea * eta_eb, or None if an index repeats."""
    if set(ea) & set(eb):
        return None
    inversions = sum(1 for x in ea for y in eb if x > y)
    return (-1) ** inversions, tuple(sorted(ea + eb))


def _clean(acc):
    return {m: c for m, c in acc.items() if c}


def frac_add(a, b):
    acc = dict(a)
    for mono, coeff in b.items():
        acc[mono] = acc.get(mono, Fraction(0)) + coeff
    return _clean(acc)


def frac_mul(a, b):
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged = _koszul(ma.eta, mb.eta)
            if merged is None:
                continue
            sign, eta = merged
            qexp = tuple(x + y for x, y in zip(ma.qexp, mb.qexp))
            mono = SuperMonomial(qexp, eta)
            acc[mono] = acc.get(mono, Fraction(0)) + sign * ca * cb
    return _clean(acc)


def frac_partial_q(i, a):
    acc = {}
    idx = i - 1
    for mono, coeff in a.items():
        e = mono.qexp[idx]
        if e == 0:
            continue
        qexp = list(mono.qexp)
        qexp[idx] = e - 1
        new = SuperMonomial(tuple(qexp), mono.eta)
        acc[new] = acc.get(new, Fraction(0)) + coeff * e
    return _clean(acc)


def frac_partial_eta(i, a):
    acc = {}
    for mono, coeff in a.items():
        if i not in mono.eta:
            continue
        p = mono.eta.index(i)
        eta = mono.eta[:p] + mono.eta[p + 1:]
        sign = -1 if p % 2 else 1
        new = SuperMonomial(mono.qexp, eta)
        acc[new] = acc.get(new, Fraction(0)) + sign * coeff
    return _clean(acc)


def frac_apply_delta(nvars, a):
    out = {}
    for i in range(1, nvars + 1):
        out = frac_add(out, frac_partial_q(i, frac_partial_eta(i, a)))
    return out


def frac_apply_q(S, nvars, a):
    """Q(a) = sum_i (dS/dq_i) d/deta_i a for the potential S (a dict)."""
    out = {}
    for i in range(1, nvars + 1):
        out = frac_add(out, frac_mul(frac_partial_q(i, S), frac_partial_eta(i, a)))
    return out


def frac_apply_k(S, nvars, a):
    return frac_add(frac_apply_q(S, nvars, a), frac_apply_delta(nvars, a))


def frac_ell2(S, nvars, a, b):
    """l2(a, b) = K(ab) - K(a)b - (-1)^|a| a K(b) by its definition, for a
    homogeneous in cohomological degree: the reference for `operators.ell2`."""
    return ell_n_by_definition(S, nvars, (a, b))


def _parity(a):
    """|a| mod 2 of a degree-homogeneous dict (0 for the zero element)."""
    (parity,) = {len(m.eta) % 2 for m in a} or {0}
    return parity


def ell_n_by_definition(S, nvars, args):
    """l_n(x_1..x_n) by the K-based recursion, for degree-homogeneous dicts:

        l_1 = K
        l_n(x_1..x_n) = l_{n-1}(x_1,..,x_{n-2}, x_{n-1} x_n)
                        - l_{n-1}(x_1,..,x_{n-1}) x_n
                        - (-1)^(|x_{n-1}|(1+|x_1|+..+|x_{n-2}|))
                              x_{n-1} l_{n-1}(x_1,..,x_{n-2}, x_n)

    for every n >= 2, so each bracket comes from K passes: the reference
    for `operators.ell_n`, which gives l_2 by `ell2` and zero beyond."""
    if len(args) == 1:
        return frac_apply_k(S, nvars, args[0])
    head, a, b = args[:-2], args[-2], args[-1]
    sign = -1 if _parity(a) * (1 + sum(map(_parity, head))) % 2 else 1
    out = ell_n_by_definition(S, nvars, head + (frac_mul(a, b),))
    left = frac_mul(ell_n_by_definition(S, nvars, head + (a,)), b)
    out = frac_add(out, {m: -c for m, c in left.items()})
    right = frac_mul(a, ell_n_by_definition(S, nvars, head + (b,)))
    return frac_add(out, {m: -sign * c for m, c in right.items()})


def tower_exp_identity_rhs(D, gamma, lam, order):
    """The right side of verify.exp_identity_rhs in its descendant-tower form:

        L_Gamma(lam) e^Gamma + (-1)^|lam| lam K(e^Gamma - 1),
        L_Gamma(lam) = K(lam) + sum_{r>=1} l_{r+1}(Gamma,..,Gamma, lam) / r!,

    truncated at Gamma-order `order`, with every l_{r+1} from
    `operators.ell_n` and K(e^Gamma - 1) = sum_{m=1..order} K(Gamma^m)/m!:
    the reference for the closed form K_Gamma(lam) e^Gamma.  lam must be
    degree-homogeneous."""
    powers = [SuperElement.one(gamma.ctx)]
    for _ in range(order):
        powers.append(powers[-1] * gamma)
    lg_parts = [apply_k(D, lam)] + [
        ell_n(D, (gamma,) * r + (lam,)).scale(Fraction(1, factorial(r)))
        for r in range(1, order + 1)]
    out = SuperElement.zero(D.ctx)
    for m in range(order + 1):
        for r in range(m + 1):
            out = out + (lg_parts[r] * powers[m - r]).scale(Fraction(1, factorial(m - r)))
    tail = SuperElement.zero(D.ctx)
    for m in range(1, order + 1):
        tail = tail + apply_k(D, powers[m]).scale(Fraction(1, factorial(m)))
    sign = -1 if lam.homogeneous_degree() % 2 else 1
    return out + (lam * tail).scale(sign)


# -- recursive composition enumerator ------------------------------------------

def compositions(total, parts):
    """All tuples of `parts` non-negative ints summing to `total`, first
    part largest first, by recursion on the first part: the reference order
    for `cohomology._compositions`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# -- unmemoised T series -------------------------------------------------------

def _scaled_power_product(ctx, factors, expo):
    """prod factors[a]^{m_a} / m_a! for the exponent m = expo."""
    value = SuperElement.one(ctx)
    for factor, e in zip(factors, expo):
        if e:
            value = (value * factor ** e).scale(Fraction(1, factorial(e)))
    return value


def t_series_values(def_data, basis_u, dimension, order):
    """Yield (exponent, right-side t-coefficient) in `deformation.t_series`'
    order, each value built as a product of powers."""
    ctx = def_data.base.ctx
    elements = basis_u.elements
    if ctx.background_charge() == 0:
        for total in range(1, order + 1):
            for expo in compositions(total, dimension):
                yield expo, _scaled_power_product(ctx, elements, expo)
        return
    # an I' exponent of total order m times the prefactor, then every I'
    # exponent of order m - 1 plus one e_b with b outside I'
    ell = len(def_data.nonzero_indices)
    gamma_parts = [SuperElement.variable(ctx, i) * def_data.H[i - 1]
                   for i in def_data.nonzero_indices]
    zeros = (0,) * (dimension - ell)
    for total in range(order + 1):
        for inner in compositions(total, ell):
            yield inner + zeros, basis_u.prefactor * _scaled_power_product(
                ctx, gamma_parts, inner)
        for inner in compositions(total - 1, ell) if total else ():
            value = _scaled_power_product(ctx, gamma_parts, inner)
            for b in range(ell, dimension):
                unit = tuple(int(a == b) for a in range(ell, dimension))
                yield inner + unit, elements[b] * value


def t_series_key_orders(def_data, basis_u, dimension, order):
    """The key order of each right-side t-coefficient, in
    `t_series_values`' order, from SuperElement products: each product is
    its parent (one less at the first nonzero index a) times factor a, over
    m_a, and at c_G != 0 the charge factor (p or u_b) is the left operand.
    A product of sums lists its keys in operand order, so this pins the
    operand order of `deformation.t_series` and `_scaled_products`."""
    ctx = def_data.base.ctx
    ell = len(def_data.nonzero_indices)
    charged = ctx.background_charge() != 0
    factors = basis_u.elements
    if charged:
        factors = [SuperElement.variable(ctx, i) * def_data.H[i - 1]
                   for i in def_data.nonzero_indices]
    products = {(0,) * len(factors): SuperElement.one(ctx)}

    def product(expo):
        if expo not in products:
            a = next(i for i, e in enumerate(expo) if e)
            parent = product(expo[:a] + (expo[a] - 1,) + expo[a + 1:])
            products[expo] = (parent * factors[a]).scale(Fraction(1, expo[a]))
        return products[expo]

    for expo, _ in t_series_values(def_data, basis_u, dimension, order):
        if charged:
            outside = [b for b in range(ell, dimension) if expo[b]]
            charge = basis_u.elements[outside[0]] if outside else basis_u.prefactor
            value = charge * product(expo[:ell])
        else:
            value = product(expo)
        yield expo, list(value._num)


def plain_t_series(def_data, pres_G, basis_u, order):
    """`deformation.t_series` without its monomial memo, the cross-check for
    it: each t-coefficient is reduced whole, in t_series' exponent order, so
    the coefficient and right-side dicts must match it entry for entry."""
    dim = pres_G.dimension
    coefficients, rhs = {}, {}
    for expo, value in t_series_values(def_data, basis_u, dim, order):
        for rho, c in sorted(pres_G.reduce(value).coefficients.items()):
            coefficients[(rho, expo)] = c
        rhs[expo] = value
    prime = tuple(range(1, len(def_data.nonzero_indices) + 1))
    return DeformationSeries(order, dim, prime, coefficients, rhs)


def series_certificate(pres_G, series, expo):
    """Lambda's t^expo coefficient: the certificate of reducing
    series.rhs[expo], whose coefficients must be the series' own at expo."""
    result = pres_G.reduce(series.rhs[expo])
    assert result.coefficients == {rho: c for rho in range(series.dimension)
                                   if (c := series.coefficient(rho, expo))}
    return result.certificate


# -- series route to the D ladder ---------------------------------------------

def d_matrix(series):
    """The D ladder read off a T series, the cross-check for d_ladder.

    Partial sums of D[beta][rho] = d/dt^beta T^rho at t = 1 on I', 0 off
    I': entry [beta][rho] at order M accumulates m_beta * coeff(rho, m) over
    the exponents m of total order <= M with m - e_beta supported inside I'.
    Returns {M: exact rational matrix} for M = 1..series.order.
    """
    prime_set = set(p - 1 for p in series.prime_indices)
    dim = series.dimension
    ladders = {}
    running = [[Fraction(0)] * dim for _ in range(dim)]
    by_order = {}
    for (rho, expo), c in series.coefficients.items():
        by_order.setdefault(sum(expo), []).append((rho, expo, c))
    for order in range(1, series.order + 1):
        for rho, expo, c in by_order.get(order, []):
            for beta in range(dim):
                e = expo[beta]
                if not e:
                    continue
                # exponent after one derivative must sit inside I'
                shifted = list(expo)
                shifted[beta] -= 1
                if any(shifted[a] and a not in prime_set for a in range(dim)):
                    continue
                running[beta][rho] += e * c
        ladders[order] = [row[:] for row in running]
    return ladders


# -- plain route of period transport ------------------------------------------

def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def plain_transport(d, omega, b):
    """(D * Omega) * B as plain matrix products over the given entries: in
    Fraction for exact input, the cross-check for `period_transport`."""
    return _matmul(_matmul(d, omega), b)


# -- weight-echelon route of reduce -------------------------------------------

class EchelonReduction:
    """`QuotientPresentation.reduce` on charge-c_G input by a weight echelon
    at every weight, the cross-check for the lift above weight n - k + 1.

    Solvers the presentation already holds are read, never added to; the
    others are built here and kept in `solvers`.  An echelon combo is keyed
    by generator packed keys, so it is read as the preimage xi directly.
    """

    def __init__(self, presentation):
        self.presentation = presentation
        self.solvers = {}

    def solver(self, weight):
        pres = self.presentation
        found = pres._solvers.get(weight, self.solvers.get(weight))
        if found is None:
            found = self.solvers[weight] = _build_weight_solver(pres.dwork, pres.c_G, weight)
        return found

    def reduce(self, f):
        pres = self.presentation
        ctx = pres.dwork.ctx
        coeffs = {}
        certificate = SuperElement.zero(ctx)
        rest = f
        while not rest.is_zero():
            w = max(monomial_weight(ctx, ctx.pack(m)) for m in rest.terms)
            part = {m: c for m, c in rest.terms.items()
                    if monomial_weight(ctx, ctx.pack(m)) == w}
            solver = self.solver(w)
            vec, den = as_ints({solver.index[ctx.pack(m)]: c for m, c in part.items()})
            *parts, scale = solver.eliminate(vec)
            residual, combo = as_fractions(*parts, scale * den)
            for pos, c in residual.items():
                idx = pres.basis_index.get(solver.target.monomials[pos])
                if idx is None:
                    raise SmoothnessError(f"nonzero class of weight {w}")
                coeffs[idx] = coeffs.get(idx, 0) + c
            xi = SuperElement(ctx, {ctx.unpack(gen): c for gen, c in combo.items()})
            certificate = certificate + xi
            rest = rest - SuperElement(ctx, part) - apply_delta(xi)
        return ReductionResult({i: c for i, c in coeffs.items() if c}, certificate)


def charge_witness_check(D, f):
    """Check the concentration identity on f and return the witness product f R.

    Asserts K(f R) = (-1)^|f| [ (lam - c_G) f - R K(f) ] exactly (which for
    K-closed f is the statement that f is exact whenever lam != c_G).
    `charge_witness` validates f, so mixed-charge input raises InputError.
    """
    witness = charge_witness(D, f)  # (-1)^|f| f R
    lam = f.homogeneous_charge()
    c_G = D.ctx.background_charge()
    assert apply_k(D, witness) == f.scale(lam - c_G) - charge_generator(D) * apply_k(D, f), \
        "charge concentration identity failed"
    return witness.scale(-1 if f.homogeneous_degree() % 2 else 1)


def fermat_reduce(n, d, s, b, c=None):
    """Normal form of y^s x^b for the diagonal hypersurface c_0 x_0^d + ... +
    c_n x_n^d, all c_i = 1 (the Fermat hypersurface) when `c` is None.

    Dwork's diagonal reduction (Dwork, "p-adic cycles", 1969): from
    d/dx_i e^{yG} = d c_i y x_i^(d-1) e^{yG}, y x_i^(a+d-1) = -(a/(d c_i))
    x_i^(a-1) in the quotient.  Writing b_i = r_i + q_i d with 0 <= r_i < d,
    y^s x^b is

        prod_i (-1)^q_i ((r_i + 1)/d)_q_i / c_i^q_i * y^(s - sum q_i) x^r

    with (x)_q the rising factorial, and zero when some r_i = d - 1.  The
    basis is the y^s x^r of charge d - n - 1 with every r_i <= d - 2.
    Returns {(s', r): c}, empty for a zero class; any other charge is exact.
    """
    assert len(b) == n + 1
    c = (1,) * (n + 1) if c is None else c
    if sum(b) - d * s != d - n - 1:
        return {}
    coeff = Fraction(1)
    for b_i, c_i in zip(b, c):
        q_i, r_i = divmod(b_i, d)
        if r_i == d - 1:
            return {}
        for t in range(q_i):
            coeff *= -Fraction(r_i + 1 + t * d, d) / c_i
    return {(s - sum(b_i // d for b_i in b), tuple(b_i % d for b_i in b)): coeff}


def fermat_ladder(n, d, rows, order):
    """{M: D_M} for the Dwork pencil Gamma = y x_0 ... x_n over the Fermat
    hypersurface: row beta of D_M is sum_{m < M} fermat_reduce(u_beta Gamma^m) / m!
    as a dict {(s', r): c}, for u_beta = y^s x^b given as (s, b) in `rows`."""
    ladder = {}
    sums = [{} for _ in rows]
    for m in range(order):
        for acc, (s, b) in zip(sums, rows):
            for key, c in fermat_reduce(n, d, s + m, tuple(e + m for e in b)).items():
                acc[key] = acc.get(key, 0) + c / factorial(m)
        ladder[m + 1] = [{key: c for key, c in acc.items() if c} for acc in sums]
    return ladder
