"""Finite graded linear algebra for the twisted cohomology quotient.

Everything happens inside tri-graded pieces (charge, weight, eta-degree),
which are finite-dimensional with an explicit monomial basis.  The quotient
of the degree-0, charge-c_G part by the image of K is computed weight by
weight: on weight-homogeneous data only the weight-preserving part Q of
K = Q + delta matters, so echelonizing the Q-image of each degree -1 piece
inside the degree-0 piece of the same weight yields

  * pivot monomials (inside the image span), and
  * complement monomials, which become quotient basis elements e_rho for
    weights <= n - k and must be absent at weight n - k + 1 (else the input
    was singular).

Reduction reads an element once, cutting it into weight slices in one pass
over its packed keys, and walks the slices from the top down: solve each
slice for its image part, and carry delta of the solving preimage into the
slice one weight lower, collecting basis coefficients and an exact degree -1
certificate xi with

    input = sum_rho c_rho e_rho + K(xi)

which is re-checkable by applying K.  The coefficients are independent of the
solver's internal choices; the certificate is one valid witness among many.
The slices and preimages are int numerators by packed key over one
denominator each, and delta of each preimage is subtracted into the slice
below in one pass; the preimages are merged into the certificate, the one
element a reduction makes, at the end; no delta is formed at weight 0.

Above weight top + 1 (top = n - k) no weight echelon is built.  There the
quotient is zero and a preimage comes from weight top + 1 by the
reduction-of-pole-order lemma (Griffiths, Ann. Math. 1969): Q is a
derivation that only differentiates eta factors, so for an even, eta-free m

    Q(xi * m) = Q(xi) * m.

Every eta-free monomial M = y^v x^u of charge c_G and weight |v| = w >=
top + 2 splits as M = m0 * m1 with m0 of charge c_G and weight top + 1 and m1
eta-free of charge 0: let v0 <= v take top + 1 of the y's and u0 <= u the
first c_G + d.v0 x exponents.  That x degree is never negative, since every
d_i >= 1 gives c_G + d.v0 >= (k - n - 1) + (n - k + 1) = 0, and u has room
for it, since |u| = c_G + d.v >= c_G + d.v0 because v >= v0.  With
Q(pre(m0)) = m0 exactly, Q(pre(m0) * m1) = M.  So closure at weight top + 1
gives closure at every weight above it, and the smoothness guard checks
that one weight mod a prime.  The same identity with m1 of weight 1 gives
it most of its leads: a gradient lead times a monomial, or a weight top
pivot times a weight-1 shift, is the lead of a known image element of
weight top + 1, the staircase of F4 (Faugère, J. Pure Appl. Algebra 139,
1999).  One pass over the target, in ascending order, projects every
monomial onto the few that no such lead covers (`_Cover`), and the rank of
the Q rows is then taken in those few dimensions; only a short rank builds
the exact echelon there.

When that pass leaves no leftover, the covering elements are triangular
over Q as well, and they give every weight top + 1 preimage by back
substitution: a * M + sum_t b_t t = Q(X) with every t < M gives pre(M) =
(X - sum_t b_t pre(t)) / a, solved only for the monomials reachable from M.
So such a presentation builds no weight top + 1 echelon at all.  One with a
leftover reads its preimages off that echelon, built once, on first need.
The choice is made once per presentation, so a preimage, and with it a
certificate, never depends on which reductions came before.

A presentation is only ever made by `QuotientPresentation(D)`, which builds
the weight solvers 0..top up front and keeps the guard's cover when it is
whole.  Weight top + 1 slices go through the lift with m0 = M (with a
leftover, that echelon solves the slice at once), so only weights 0..top
are eliminated slice by slice.  An export holds the context, G
and the basis; loading one rebuilds the presentation from the context and
G and checks the file's basis against the rebuild.  Every solver takes its
Q rows straight from the integer gradient table (`_WeightSolver.q_vector`),
walking the generators without listing them, and keys its echelon combos by
the generators' packed keys, so a combo is a preimage as it stands.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm
from operator import mul

from .errors import InputError, InternalCheckError, SmoothnessError
from .operators import DworkData, _delta_numerators, dwork_potential
from .superalgebra import (
    SuperElement,
    VariableContext,
    even_gradings,
    make_monomial,
    monomial_charge,
    monomial_sort_key,
    monomial_weight,
)

PRESENTATION_FORMAT_VERSION = 2


@dataclass(frozen=True)
class GradedPiece:
    """Ordered monomial basis of one tri-graded piece (largest first), as
    packed keys (`VariableContext.unpack` gives the SuperMonomials)."""

    charge: int
    weight: int
    eta_degree: int
    monomials: tuple


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total` >= 0,
    lexicographically largest first: the multiplicity vectors of the
    multisets `combinations_with_replacement(range(parts), total)` lists in
    lexicographic order.  A multiset's first element is the first nonzero
    index of its tuple."""
    for multiset in combinations_with_replacement(range(parts), total):
        expo = [0] * parts
        for i in multiset:
            expo[i] += 1
        yield tuple(expo)


class PieceView:
    """The packed keys of the monomials of one tri-graded piece, largest
    first by `monomial_sort_key`, made one at a time instead of listed.
    This is the one place the order inside a piece is defined: iteration
    walks the block table, and `enumerate_piece` lists a view.

    The piece is a union of blocks y^v x^u eta, one per eta subset, y
    composition v and its forced x degree |u|; a block holds C(|u| + n, n)
    monomials (stars and bars), so `len` sums the blocks without a walk.
    Nothing is cached beyond the block table.

    The sort key (q-degree, exponents, eta) groups the blocks by q-degree.
    graded-lex compares v before u, so the groups split further by v: a
    (q-degree, v) group is x^u for every u of its x degree, each with the
    group's eta subsets, largest first.  grevlex compares the reversed
    exponents u_n, ..., u_0, v_k, ..., v_1 ascending, so the tails u_n,
    ..., u_1 run ascending across the whole q-degree group, and u_0 = |u| -
    u_1 - ... - u_n then ranks the blocks by x degree, then reversed v,
    then eta.

    A key is a sum of field units, so a walk adds ints: the x part of a
    composition is the sum of the x units over its multiset (see
    `_compositions`), and a block contributes its y, eta and x_0 parts.
    """

    def __init__(self, ctx: VariableContext, charge: int, weight: int,
                 eta_degree: int):
        if weight < 0:
            raise InputError("weight must be >= 0")
        self.ctx = ctx
        groups: dict = {}
        size = -eta_degree
        for eta in combinations(range(1, ctx.nvars + 1), size) if size >= 0 else ():
            bare = sum(1 << (mu - 1) for mu in eta)
            wt_q = weight - monomial_weight(ctx, bare)
            if wt_q < 0:
                continue  # _compositions takes no negative total
            ch_q = charge - monomial_charge(ctx, bare)
            # y-exponents carry all the q-weight; x-degree is then forced
            # by the charge equation -sum d_i v_i + |u| = charge - ch_eta.
            for v in _compositions(wt_q, ctx.k):
                xdeg = ch_q + sum(d * e for d, e in zip(ctx.degrees, v))
                if xdeg < 0:
                    continue
                qdeg = sum(v) + xdeg
                if ctx.order == "graded-lex":
                    groups.setdefault((qdeg, v), (xdeg, []))[1].append(bare)
                else:
                    groups.setdefault(qdeg, []).append((xdeg, v, eta, bare))
        n = ctx.n
        units = ctx.q_units
        self._groups = []
        self._ends = []
        end = 0
        for key in sorted(groups, reverse=True):
            if ctx.order == "graded-lex":
                xdeg, etas = groups[key]
                etas.reverse()
                end += comb(xdeg + n, n) * len(etas)
                self._groups.append((sum(map(mul, key[1], units)), xdeg, etas))
            else:
                # eta descending, then (x degree, reversed v) ascending
                blocks = sorted(groups[key], key=lambda b: b[2], reverse=True)
                blocks.sort(key=lambda b: (b[0], b[1][::-1]))
                end += sum(comb(xdeg + n, n) for xdeg, _, _, _ in blocks)
                self._groups.append(([b[0] for b in blocks],
                                     [(xdeg, sum(map(mul, v, units)) + bare)
                                      for xdeg, v, _, bare in blocks]))
            self._ends.append(end)
        k = ctx.k
        # the keys of x_0, ..., x_n; for grevlex of x_n, ..., x_1, x_0
        self._x_units = (units[k:] if ctx.order == "graded-lex"
                         else units[:k:-1] + (units[k],))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        n = self.ctx.n
        if self.ctx.order == "graded-lex":
            x_unit = self._x_units.__getitem__
            for vkey, xdeg, etas in self._groups:
                for multiset in combinations_with_replacement(range(n + 1), xdeg):
                    base = vkey + sum(map(x_unit, multiset))
                    for eta in etas:
                        yield base + eta
            return
        tail_unit = self._x_units.__getitem__
        x0 = self._x_units[-1]
        for xdegs, blocks in self._groups:
            # (u_n, ..., u_1, rest) ascending, rest the x degree the tail
            # leaves: every tail that fits the largest block comes once.
            # The rest adds to x_0, so a block adds its x degree less top.
            top = xdegs[-1]
            bases = [block + (xdeg - top) * x0 for xdeg, block in blocks]
            for multiset in reversed(list(combinations_with_replacement(range(n + 1), top))):
                s = bisect_left(multiset, n)  # u_1 + ... + u_n
                tail = sum(map(tail_unit, multiset))
                for base in bases[bisect_left(xdegs, s):]:
                    yield base + tail


def enumerate_piece(ctx: VariableContext, charge: int, weight: int,
                    eta_degree: int) -> GradedPiece:
    """The monomials with the given tri-grading, in the order their
    `PieceView` walks them; empty when the charge/weight constraints admit
    no solution (including eta_degree outside [-N, 0])."""
    return GradedPiece(charge, weight, eta_degree,
                       tuple(PieceView(ctx, charge, weight, eta_degree)))


@dataclass(frozen=True)
class ReductionResult:
    """Coefficients over the quotient basis plus an exact K-preimage witness.

    coefficients maps a basis position to its coefficient, nonzero ones only,
    so it is {} for exact or off-charge input."""

    coefficients: dict
    certificate: SuperElement

    def scaled(self) -> tuple:
        """The coefficients as (int numerators by position, lcm of their
        denominators), the form the echelon takes."""
        den = lcm(*(c.denominator for c in self.coefficients.values()))
        return {rho: c.numerator * (den // c.denominator)
                for rho, c in self.coefficients.items()}, den

    def as_element(self, presentation: "QuotientPresentation") -> SuperElement:
        """sum_rho c_rho e_rho as an element (the normal form), made on the
        packed basis keys over the lcm of the coefficient denominators."""
        keys = tuple(presentation.basis_index)
        num, den = self.scaled()
        return SuperElement._make(presentation.dwork.ctx,
                                  {keys[rho]: v for rho, v in num.items()}, den)


# eliminate divides out the content of its running vector once the common
# denominator has grown by this many bits since the last time it did
_CONTENT_BITS = 64


class _Echelon:
    """Sparse exact row echelon over Q, remembering how each row was made.

    rows: list of (pivot position, R, C) with int dicts R and C.  The row
    stands for the rational vector R / R[pivot], which `combo` C / R[pivot]
    expresses as a combination of the inserted vectors, under the keys their
    callers gave in `insert` (for a weight solver, the generators' packed
    keys).  R[pivot] > 0 and the entries of R and C have
    no common factor, so each row has one representation.  Rows are
    pairwise pivot-distinct and the pivot is the smallest position of its
    row.
    """

    def __init__(self):
        self.rows = []
        self.pivots = {}

    def eliminate(self, vec: dict):
        """Reduce `vec` (position -> int; zeros are skipped) against the rows.

        Returns (residual, combo, den) in ints with den * vec == residual +
        sum_g combo[g] * vector_g: residual is supported on non-pivot
        positions and combo expresses the eliminated part over the inserted
        vectors (for a weight solver, g is a generator's packed key and
        vector_g = Q(g)).

        Every row's entries sit at positions >= its pivot, so clearing the
        smallest position of the running stack settles it for good.  A
        pivot step scales everything by a and subtracts b * R, with a / b
        the pivot of R over the lead of the stack in lowest terms, so the
        pivot entry cancels in integers.
        """
        den, limit = 1, 1 + _CONTENT_BITS
        stack = {k: v for k, v in vec.items() if v}
        combo: dict = {}
        residual: dict = {}
        while stack:
            lead = min(stack)  # smallest position = largest monomial
            hit = self.pivots.get(lead)
            if hit is None:
                residual[lead] = stack.pop(lead)
                continue
            _, row, row_combo = self.rows[hit]
            f = stack[lead]
            g = gcd(f, row[lead])
            a, b = row[lead] // g, f // g
            if a != 1:
                den *= a
                stack = {pos: a * c for pos, c in stack.items()}
                combo = {k: a * c for k, c in combo.items()}
                residual = {pos: a * c for pos, c in residual.items()}
            for pos, c in row.items():
                new = stack.get(pos, 0) - b * c
                if new:
                    stack[pos] = new
                else:
                    stack.pop(pos, None)
            for k, c in row_combo.items():
                new = combo.get(k, 0) + b * c
                if new:
                    combo[k] = new
                else:
                    combo.pop(k, None)
            if den.bit_length() > limit:
                g = gcd(den, *stack.values(), *combo.values(), *residual.values())
                if g > 1:
                    den //= g
                    stack = {pos: c // g for pos, c in stack.items()}
                    combo = {k: c // g for k, c in combo.items()}
                    residual = {pos: c // g for pos, c in residual.items()}
                limit = den.bit_length() + _CONTENT_BITS
        return residual, combo, den

    def insert(self, vec: dict, combo: dict) -> Fraction:
        """Echelon-insert `vec` (int numerators), which equals the
        combination `combo` (int coefficients) of the inserted vectors.

        Returns the pivot coefficient of the reduced `vec`, which the new
        row's rational view was divided by, or 0 when `vec` is dependent on
        the rows already present.
        """
        residual, used, den = self.eliminate(vec)
        if not residual:
            return Fraction(0)
        lead = min(residual)
        # den * vec == residual + used.V, so residual == (den * combo - used).V
        full_combo = {k: den * c for k, c in combo.items()}
        for k, c in used.items():
            full_combo[k] = full_combo.get(k, 0) - c
        self._append(lead, residual, {k: c for k, c in full_combo.items() if c})
        return Fraction(residual[lead], den)

    def _append(self, pivot: int, row: dict, combo: dict) -> None:
        """Store an int row in its primitive form with a positive pivot."""
        g = gcd(*row.values(), *combo.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {pos: c // g for pos, c in row.items()}
            combo = {k: c // g for k, c in combo.items()}
        self.pivots[pivot] = len(self.rows)
        self.rows.append((pivot, row, combo))


class _WeightSolver(_Echelon):
    """Echelonized Q-image of one (charge, weight) slice, with preimages.

    Positions index the descending monomial order of the degree-0 piece, so
    a row's pivot is its largest monomial; combos are keyed by the packed
    keys of the degree -1 generators, so they are preimages as they stand.
    `solve` is the only translation between monomials and positions that a
    reader goes through, and the target is the one piece a solver lists.
    """

    def __init__(self, target: GradedPiece):
        super().__init__()
        self.target = target
        self.index = {m: i for i, m in enumerate(target.monomials)}

    def complement_monomials(self):
        return tuple(m for i, m in enumerate(self.target.monomials)
                     if i not in self.pivots)

    def q_vector(self, D: DworkData, gen: int):
        """Q of the generator with packed key `gen` as (position -> int
        numerator, denominator).

        Q(m * eta_j) = (dS/dq_j) * m, so the image is the gradient table row
        D.grad_num[j - 1] shifted by m, over D.grad_den: the key of each
        term is the table key plus the key of m.  No element is made.
        """
        bit = gen & D.ctx.eta_mask  # a generator has the one eta_j
        m = gen - bit
        index = self.index
        try:
            return ({index[gk + m]: c for gk, c in D.grad_num[bit.bit_length() - 1]},
                    D.grad_den)
        except KeyError:
            raise InternalCheckError("monomial escaped its graded piece") from None

    def solve(self, num: dict):
        """(residual, preimage, scale) in ints with scale * num == residual +
        Q(preimage), for `num` mapping target monomials to ints.

        The residual is keyed by complement monomial and the preimage by
        generator monomial, both as packed keys: the preimage is the
        echelon's combo itself.
        """
        index = self.index
        try:
            vec = {index[mono]: v for mono, v in num.items()}
        except KeyError:
            raise InternalCheckError("monomial escaped its graded piece") from None
        residual, combo, scale = self.eliminate(vec)
        target = self.target.monomials
        return {target[pos]: c for pos, c in residual.items()}, combo, scale


def _gradient_leads(D: DworkData) -> list:
    """The leading term (L_i, c_i) of each g_i = dS/dq_i, as (packed key,
    numerator in D.grad_num) with L_i largest under `monomial_sort_key`,
    or None where g_i is zero; the one place the leads are found."""
    ctx = D.ctx
    return [max(g, key=lambda term: monomial_sort_key(ctx, term[0])) if g else None
            for g in D.grad_num]


def _koszul_rows(D: DworkData, solver: _WeightSolver):
    """(gen, vec, den) with vec = den * Q(gen) nonzero, by position, for the
    packed key gen of each generator of the degree -1 piece of `solver`'s
    (charge, weight) that the Koszul criterion of Faugère's F5 (ISSAC 2002)
    keeps, in the order its `PieceView` walks.

    Write g_i = dS/dq_i (terms D.grad_num[i - 1]), so the row of the
    generator m * eta_j is g_j * m, and L_i for the leading monomial of g_i
    under `monomial_sort_key`.  The generator m * eta_j is skipped when L_i
    divides m for some i > j with g_i nonzero.  Its row is in the span of
    the kept rows: with m = L_i * m' and g_i = c * L_i + sum_t c_t * t,

        c * g_j * m = g_i * (g_j * m') - sum_t c_t * g_j * (t * m').

    The first term is a combination of rows of generators with eta index
    i > j, and each other term is c_t times the row of t * m' * eta_j, whose
    monomial is smaller than m because the order is multiplicative (in both
    graded-lex and grevlex).  Each g_i is homogeneous in charge and weight,
    so all these generators lie in the same piece.  Induction on j
    downward, then on the monomial, puts every skipped row in the span.

    So the kept rows span the whole image at every weight, and the pivot
    set, an invariant of the row space, is that of the full echelon: the
    basis, the Hodge numbers and the smoothness guard do not change.  Only
    the rows and their combos, and with them the certificates, do.
    """
    ctx = D.ctx
    leads = [term[0] if term else None for term in _gradient_leads(D)]
    # later[j - 1] holds the L_i of the nonzero g_i with i > j
    later = [[lead for lead in leads[j:] if lead is not None] for j in range(1, len(leads) + 1)]
    # L divides m when (m with every guard bit set) - L borrows from no
    # field's guard bit (Monagan and Pearce); the eta bits of m lie below
    # every field and L has none, so they borrow nothing
    guard, mask = ctx.guard_mask, ctx.eta_mask
    for gen in PieceView(ctx, solver.target.charge, solver.target.weight, -1):
        lifted = gen | guard
        if any((lifted - lead) & guard == guard
               for lead in later[(gen & mask).bit_length() - 1]):
            continue
        vec, den = solver.q_vector(D, gen)
        if vec:
            yield gen, vec, den


def _build_weight_solver(D: DworkData, charge: int, weight: int) -> _WeightSolver:
    """Echelonize the Q image of the (charge, weight) generators that
    `_koszul_rows` keeps, walked and not listed: the target is the one
    piece the build lists."""
    solver = _WeightSolver(enumerate_piece(D.ctx, charge, weight, 0))
    full_rank = len(solver.target.monomials)
    for gen, vec, den in _koszul_rows(D, solver):
        # vec is den * Q(gen), and rows are stored primitive
        solver.insert(vec, {gen: den})
        if len(solver.rows) == full_rank:
            break
    return solver


# the prime modulus of the smoothness guard's rank, 2^61 - 1
_GUARD_PRIME = (1 << 61) - 1


class _Cover:
    """The known image element of weight top + 1 that covers each target
    monomial M there, for `below` the exact (charge, top) echelon: the one
    choice that both the smoothness guard (`_closes`, mod p = _GUARD_PRIME)
    and the exact preimages of a presentation without leftovers
    (`QuotientPresentation._preimage`) read.

    `find(M)` takes the first of these that applies:
      * a gradient lead L_i of g_i = dS/dq_i, with c_i nonzero mod p,
        divides M: the element is g_i * (M / L_i), the Q image of the
        generator (M / L_i) * eta_i times D.grad_den.  The leads are tried
        fewest terms of g_i first, which keeps the preimages short;
      * M = P * s, for s a charge-0, weight-1, eta-free shift and P the
        pivot monomial of a row R of `below` with R[P] nonzero mod p: the
        element is R * s, the Q image of R's combo shifted by s, because
        Q(xi) * s = Q(xi * s) (Q only differentiates eta factors: the
        lift's identity);
      * otherwise M is a leftover, and `find` returns None.
    Both orders are multiplicative, so each element has lead M and every
    other term t < M.  An element is a source shifted by an offset
    (packed, M = lead + offset): the source is (a, -a^-1 mod p, terms,
    generators), with the element sum_t b_t * (t + offset) over its terms
    (t, b_t) and lead coefficient a, equal to Q(sum_g x_g * (g + offset))
    over its generators {g: x_g}.  A key divides M when (M with every guard
    bit set) - key borrows from no field's guard bit, as in `_koszul_rows`,
    and the packed M - s is the key of P exactly when P * s = M, since a
    borrow sets a guard bit and no key has one.
    """

    def __init__(self, D: DworkData, below: _WeightSolver):
        p = _GUARD_PRIME
        self.below = below
        self.ctx = D.ctx
        # the generator of g_(i+1)'s lead row is eta_(i+1), packed bit i, times D.grad_den
        leads = [(term[0], (term[1], -pow(term[1], -1, p), g, {1 << i: D.grad_den}))
                 for i, (term, g) in enumerate(zip(_gradient_leads(D), D.grad_num))
                 if term and term[1] % p]
        self.leads = sorted(leads, key=lambda lead: len(lead[1][2]))
        # pivot key -> row index, and the weight-1 shifts, built on first need
        self.pivot_at = self.shifts = None
        self.row_sources: dict = {}  # row index -> its source
        self.leftovers = None  # set by the guard's walk

    def find(self, m: int):
        """(source, offset) of the element that covers the key m, or None."""
        guard = self.ctx.guard_mask
        lifted = m | guard
        for lead, source in self.leads:
            if (lifted - lead) & guard == guard:
                return source, m - lead
        below = self.below
        pivot_at = self.pivot_at
        if pivot_at is None:  # a lead-covered piece never gets here
            self.shifts = tuple(PieceView(self.ctx, 0, 1, 0))
            keys = below.target.monomials
            pivot_at = self.pivot_at = {keys[pivot]: hit for hit, (pivot, row, _)
                                        in enumerate(below.rows) if row[pivot] % _GUARD_PRIME}
        for offset in self.shifts:
            if (hit := pivot_at.get(m - offset)) is not None:
                break
        else:
            return None
        source = self.row_sources.get(hit)
        if source is None:
            pivot, row, combo = below.rows[hit]
            keys = below.target.monomials
            source = self.row_sources[hit] = (
                row[pivot], -pow(row[pivot], -1, _GUARD_PRIME),
                [(keys[pos], c) for pos, c in row.items()], combo)
        return source, offset


def _closes(D: DworkData, below: _WeightSolver, cover: _Cover | None = None) -> bool:
    """Whether the Q image of the (charge, weight + 1) slice is its whole
    target piece, for `below` the exact (charge, weight) echelon.  True is
    exact; False proves nothing.  `cover` is `below`'s `_Cover`, made here
    unless the caller keeps it; the walk sets its `leftovers` count.  Three
    steps, with p = _GUARD_PRIME:

    1. Leads of known image elements.  The target monomials M are walked
       in ascending order, and each takes the element `_Cover.find` gives:
       a gradient lead times a monomial, or a pivot row of `below` times a
       weight-1 shift; an M that neither covers is a leftover, and takes
       the next index j.  The elements are triangular with leads nonzero
       mod p, so with the leftovers they form a basis of the piece mod p.
    2. The dual pass, in the same walk.  phi(M) is the leftover part of M
       in that basis, a sparse dict mod p over the leftover indices: a
       leftover has phi(M) = {j: 1}, and an element a * M + sum_t b_t t
       gives phi(M) = -a^-1 sum_t b_t phi(t), every t walked already.  phi
       is zero on the elements, so nothing fills in, and only its nonzero
       values are kept; no element's terms are.
    3. The rank.  With no leftover the elements have full rank.  Otherwise
       the generator rows g_j * m map to sum_t b_t phi(t), and are
       eliminated mod p until their images span the |leftovers|
       dimensions.  Only a row with a term t where phi(t) is nonzero has a
       nonzero image, so the rows are found from that support: g_j * (t /
       key) for each term key of g_j that divides t.  At full rank the
       elements and those rows, integer vectors in the image, form a square
       integer matrix whose determinant is, mod p, the product of the
       element leads times that of the images: nonzero, so it is invertible
       over Q and True is exact.  A short rank may be p dividing every
       maximal minor; the caller then asks the exact echelon.
    """
    p = _GUARD_PRIME
    ctx = D.ctx
    guard = ctx.guard_mask
    cover = cover or _Cover(D, below)
    find = cover.find
    phi: dict = {}  # target key -> {leftover index: value mod p}, nonzero only

    def image(terms, offset, scale) -> dict:
        """scale * sum_t b_t phi(t) mod p over the terms (t - offset, b_t),
        zeros dropped; scale is a unit mod p."""
        acc: dict = {}
        for key, b in terms:
            if value := phi.get(key + offset):
                for j, v in value.items():
                    acc[j] = acc.get(j, 0) + b * v
        return {j: v * scale % p for j, v in acc.items() if v % p}

    leftovers = 0
    for m in reversed(tuple(PieceView(ctx, below.target.charge, below.target.weight + 1, 0))):
        found = find(m)
        if found is None:
            phi[m] = {leftovers: 1}
            leftovers += 1
            continue
        (_, scale, terms, _), offset = found
        # phi(M) is not set yet, so M's own term adds nothing
        if phi and (value := image(terms, offset, scale)):
            phi[m] = value
    cover.leftovers = leftovers
    # only a row with a term t where phi(t) != 0 has a nonzero image
    rows_through = ((terms, t - key) for t in phi for terms in D.grad_num for key, _ in terms
                    if ((t | guard) - key) & guard == guard)
    reached: dict = {}  # lead index -> image reduced by those before it, 1 at its lead
    for terms, offset in rows_through:
        row = image(terms, offset, 1)
        for lead, known in reached.items():
            if f := row.get(lead):
                for j, c in known.items():
                    row[j] = (row.get(j, 0) - f * c) % p
        if row := {j: c for j, c in row.items() if c}:
            lead = min(row)
            inv = pow(row[lead], -1, p)
            reached[lead] = {j: c * inv % p for j, c in row.items()}
            if len(reached) == leftovers:
                return True
    return not leftovers


class QuotientPresentation:
    """Monomial basis of the charge-c_G quotient with reduction machinery.

    `basis` lists eta-free monomials of charge c_G grouped by increasing
    weight (largest monomial first within a weight); `weight_counts[w]` is
    the number of basis elements of weight exactly w, for w = 0..n-k.  Both
    are read off the weight solvers 0..n-k, which the presentation holds
    from construction on.  Reduction reads no weight above n-k+1, and goes
    through `_WeightSolver.solve` for every translation between monomials
    and echelon positions.

    Logically immutable: the weight n-k+1 echelon (`_solver`) and the
    preimages behind the lift (`_lifts`) are memoized lazily, but
    rebuilding them is deterministic, so concurrent readers can only ever
    race to store identical values.
    """

    # perfbench/workloads.py sizes its reduce stream up to weight n - k + slack
    slack = 2

    def __init__(self, D: DworkData):
        """Echelonize weights 0..n-k, take their complement monomials as the
        basis, and check closure at weight n-k+1.

        Closure is decided by `_closes` from the weight n-k echelon, which
        covers each weight n-k+1 monomial by a gradient lead or by a pivot
        times a weight-1 shift (`_Cover`), projects every monomial onto the
        ones left uncovered in one ascending pass, and takes the rank of the
        Q rows mod p in those few dimensions; a full rank is exact.  Only a
        short rank builds the exact weight n-k+1 echelon, and a nonzero
        complement there trips the smoothness guard; when the exact echelon
        closes after all, it is kept for the preimages.  That one weight
        certifies every weight above it: a charge-c_G monomial M of weight
        >= n-k+2 splits as M = m0 * m1 with m0 of weight n-k+1 and m1 even
        and eta-free (module docstring), and once m0 = Q(pre(m0)) exactly,
        M = Q(pre(m0) * m1) is in the image too.

        Where the guard's walk left no leftover, the cover is kept, and every
        weight n-k+1 preimage is solved from it (`_preimage`): no weight
        n-k+1 echelon is ever built.  The choice is made here, once, so each
        preimage depends on its monomial alone.
        """
        self.dwork = D
        self.c_G = D.ctx.background_charge()
        top = D.ctx.n - D.ctx.k
        self._solvers = {w: _build_weight_solver(D, self.c_G, w) for w in range(top + 1)}
        cover = _Cover(D, self._solvers[top])
        if not _closes(D, self._solvers[top], cover):
            leftover = self._solver(top + 1).complement_monomials()
            if leftover:
                raise SmoothnessError(
                    f"quotient fails to close at weight {top + 1}: "
                    f"{len(leftover)} unreduced monomials; "
                    "singular or non-complete-intersection input")
        self._cover = None if cover.leftovers else cover
        complements = [self._solvers[w].complement_monomials() for w in range(top + 1)]
        # packed basis key -> position; its keys are the basis in order
        self.basis_index = {m: i for i, m in
                            enumerate(m for complement in complements for m in complement)}
        self.basis = tuple(map(D.ctx.unpack, self.basis_index))
        self.weight_counts = tuple(len(complement) for complement in complements)
        # weight top + 1 key m0 -> (generator key -> int numerator of a
        # Q-preimage, its primitive denominator); bounded by the size of
        # that piece
        self._lifts: dict = {}

    def _solver(self, w: int) -> _WeightSolver:
        """The weight-w echelon, 0 <= w <= n-k+1.  Weight n-k+1's is built
        by a short guard rank, or on the first preimage of a presentation
        whose guard left a leftover, and memoized."""
        solver = self._solvers.get(w)
        if solver is None:
            solver = self._solvers[w] = _build_weight_solver(self.dwork, self.c_G, w)
        return solver

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return (f"QuotientPresentation(dim={self.dimension}, cG={self.c_G}, "
                f"weights={list(self.weight_counts)})")

    def hodge_numbers(self):
        """Primitive Hodge numbers read off the weight filtration.

        Entry q counts basis monomials of weight exactly q; by the weight /
        Hodge correspondence this is h^{n-k-q, q} of the primitive middle
        cohomology, for q = 0..n-k.
        """
        return list(self.weight_counts)

    def basis_elements(self):
        ctx = self.dwork.ctx
        return [SuperElement._make(ctx, {m: 1}, 1) for m in self.basis_index]

    # -- reduction ---------------------------------------------------------

    def reduce(self, f: SuperElement) -> ReductionResult:
        """Normal form plus certificate: f = sum c_rho e_rho + K(certificate).

        Accepts eta-free, charge-pure input only, read once into weight
        slices by `_weight_slices`.  Charge c_G goes through the weight
        recursion, and so does zero, which has no slice; any other pure
        charge is exact by the charge-concentration witness, so the
        coefficients are zero and the certificate is (charge - c_G)^{-1} f R.
        """
        slices, charge = self._weight_slices(f)
        if charge == self.c_G or not slices:
            return self._reduce_background(slices)
        witness = charge_witness(self.dwork, f)
        return ReductionResult({}, witness.scale(Fraction(1, charge - self.c_G)))

    def _weight_slices(self, f: SuperElement) -> tuple:
        """({weight: (int numerators by packed key, f's denominator)}, charge)
        of an eta-free, charge-pure f, from one pass over its keys; the zero
        element gives ({}, 0).

        Each key is graded once, by `even_gradings`.  The slices keep f's key
        order and share its denominator, so they need not be in lowest terms.
        """
        ctx = f.ctx
        if ctx is not self.dwork.ctx and ctx != self.dwork.ctx:
            raise InputError("element over a different context")
        mask = ctx.eta_mask
        charges = set()
        slices = defaultdict(dict)
        for key, v in f._num.items():
            if key & mask:
                raise InputError("reduce expects eta-free (degree 0) input")
            charge, w = even_gradings(ctx, key)
            charges.add(charge)
            slices[w][key] = v
        if len(charges) > 1:
            raise InputError(f"reduce expects charge-pure input, found charges {sorted(charges)}")
        return {w: (num, f._den) for w, num in slices.items()}, charges.pop() if charges else 0

    def _reduce_background(self, slices: dict) -> ReductionResult:
        """Reduce the weight slices `slices` (weight -> (int numerators by
        packed key, denominator), nonzero; {} gives zero), from the top
        weight down to 0.

        A slice of weight w <= top (top = n - k) is eliminated against the
        weight-w echelon: its residual gives basis coefficients and its
        combination of generators a preimage xi with Q(xi) = slice -
        residual.  From top + 1 on the quotient is zero and `_lift` returns
        xi with Q(xi) = slice from memoized weight top + 1 preimages, by
        Q(pre(m0) * m1) = Q(pre(m0)) * m1 for even, eta-free m1 (see the
        module docstring for why the split M = m0 * m1 always exists; at
        top + 1, m0 = M).  So no echelon is built above weight top + 1, and
        none at top + 1 where the guard's cover was whole.  Either way K(xi)
        = Q(xi) + delta(xi) settles slice w, and delta(xi) has weight exactly
        w - 1: each delta term strips one eta_i with one q_i.  So it is
        subtracted from slice w - 1 alone, in one pass over the two
        denominators' lcm; nothing lies below weight 0, so no delta is
        formed there.

        No element is made until the certificate: each xi is int numerators
        over its own denominator, delta(xi) is `_delta_numerators` over the
        same one, zeros kept (so `pop`, not `del`), and nothing is reduced:
        the echelon's rational steps do not depend on the representation.
        The xi's have distinct weights, so the certificate is their
        concatenation, top weight first, over the lcm of their denominators.
        """
        ctx = self.dwork.ctx
        top = ctx.n - ctx.k
        coeffs: dict = {}
        xis = []
        for w in range(max(slices, default=-1), -1, -1):
            num, den = slices.get(w, ((), 1))
            if not num:
                continue
            if w > top:
                xi, den = self._lift(num, den, w)
            else:
                xi, den = self._eliminate_slice(w, num, den, coeffs)
            xis.append((xi, den))
            if not w:
                break  # delta(xi) would have weight -1
            below, below_den = slices.get(w - 1, ({}, 1))
            g = gcd(below_den, den)
            fa, fb = den // g, below_den // g
            acc = {m: v * fa for m, v in below.items()}
            get = acc.get
            for m, v in _delta_numerators(ctx, xi).items():
                new = get(m, 0) - v * fb
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
            slices[w - 1] = (acc, below_den * fa)
        den = lcm(*(xi_den for _, xi_den in xis))
        certificate: dict = {}
        for xi, xi_den in xis:
            scale = den // xi_den
            certificate.update((m, v * scale) for m, v in xi.items())
        return ReductionResult(coeffs, SuperElement._make(ctx, certificate, den))

    def _eliminate_slice(self, w: int, num: dict, den: int, coeffs: dict) -> tuple:
        """Eliminate the weight-w slice num / den against its echelon.

        Stores the residual in `coeffs` (basis position -> nonzero Fraction)
        and returns xi with Q(xi) = num / den - residual as (`solve`'s
        preimage, den * scale).
        """
        residual, preimage, scale = self._solver(w).solve(num)
        den *= scale
        # the residual lives on complement monomials, the basis at w <= n - k.
        # Each basis monomial has one weight, so exactly one slice sets it,
        # and the echelon leaves no zero in a residual
        for mono, c in residual.items():
            coeffs[self.basis_index[mono]] = Fraction(c, den)
        return preimage, den

    def _lift(self, num: dict, den: int, w: int) -> tuple:
        """xi = sum_M c_M pre(m0) * m1 with Q(xi) = num / den, for a slice
        of weight w >= top + 1 split monomial by monomial as M = m0 * m1, as
        (int numerators by generator key, none zero, denominator).  At
        weight top + 1, m0 = M and m1 = 1, and no exponent is unpacked;
        without a whole cover (`__init__`) the weight top + 1 echelon solves
        such a slice at once instead, as it solves each m0 in `_preimage`.

        On packed keys m1 = M - m0, and pre(m0) * m1 adds m1 to each
        generator key.  No exponent grows past M's: a generator m * eta_j
        of pre(m0) has Q(m * eta_j) = (dS/dq_j) m containing m0, so m
        divides m0."""
        ctx = self.dwork.ctx
        k = ctx.k
        top = ctx.n - k
        if w == top + 1 and self._cover is None:
            residual, preimage, scale = self._solver(w).solve(num)
            assert not residual, "weight top + 1 passed the guard but left a class"
            return preimage, den * scale
        units = ctx.q_units
        by_degree = sorted(range(k), key=lambda i: -ctx.degrees[i])
        splits = []
        for mono, c in num.items():
            if w == top + 1:
                splits.append((c, 0, self._preimage(mono)))
                continue
            qexp = ctx.exponents(mono)
            v, u = qexp[:k], qexp[k:]
            # m0 takes top + 1 y's, largest degree first ...
            v0 = [0] * k
            need = top + 1
            for i in by_degree:
                v0[i] = min(v[i], need)
                need -= v0[i]
            # ... and the first x exponents that bring it to charge c_G
            xdeg = self.c_G + sum(d * e for d, e in zip(ctx.degrees, v0))
            assert 0 <= xdeg <= sum(u), "charge-c_G monomial has no split"
            u0 = []
            for e in u:
                u0.append(min(e, xdeg))
                xdeg -= u0[-1]
            m0 = sum(map(mul, v0 + u0, units))
            splits.append((c, mono - m0, self._preimage(m0)))
        # one denominator for the whole slice: its own times the lcm of the
        # preimage denominators
        common = lcm(*(pre_den for _, _, (_, pre_den) in splits))
        acc: dict = {}
        for c, m1, (pre, pre_den) in splits:
            c *= common // pre_den
            for gen, g in pre.items():
                key = gen + m1
                acc[key] = acc.get(key, 0) + c * g
        return {m: v for m, v in acc.items() if v}, den * common

    def _preimage(self, m0: int) -> tuple:
        """pre(m0) with Q(pre(m0)) = m0, for the key m0 of weight top + 1,
        as int numerators by generator key over a primitive denominator;
        memoized in `_lifts`.

        With a whole cover (`__init__`), M = m0 is the lead of the element
        a * M + sum_t b_t t = Q(X) that `_Cover.find` picks, every t < M in
        the same piece, so pre(M) = (X - sum_t b_t pre(t)) / a.  The walk
        is iterative: M waits on the stack until each t it reads has its
        preimage, and only the monomials reachable from m0 are solved.
        Otherwise pre(m0) is the weight top + 1 echelon's combo."""
        lifts = self._lifts
        pre = lifts.get(m0)
        if pre is not None:
            return pre
        if self._cover is None:
            top = self.dwork.ctx.n - self.dwork.ctx.k
            residual, preimage, den = self._solver(top + 1).solve({m0: 1})
            assert not residual, "weight top + 1 passed the guard but left a class"
            pre = lifts[m0] = (preimage, den)
            return pre
        find = self._cover.find
        stack = [(m0, None)]
        while stack:
            m, found = stack.pop()
            if m in lifts:
                continue
            if found is None:
                found = find(m)
                (_, _, terms, _), offset = found
                missing = [t + offset for t, _ in terms
                           if t + offset != m and t + offset not in lifts]
                if missing:
                    stack.append((m, found))
                    stack.extend((t, None) for t in missing)
                    continue
            (a, _, terms, gens), offset = found
            lower = [(b, lifts[t + offset]) for t, b in terms if t + offset != m]
            common = lcm(*(pre_den for _, (_, pre_den) in lower))
            acc = {g + offset: x * common for g, x in gens.items()}
            for b, (pre, pre_den) in lower:
                b *= common // pre_den
                for gen, v in pre.items():
                    acc[gen] = acc.get(gen, 0) - b * v
            den = a * common
            g = gcd(den, *acc.values())
            if den < 0:
                g = -g
            lifts[m] = ({gen: v // g for gen, v in acc.items() if v}, den // g)
        return lifts[m0]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """Versioned structured-text export of the context, G and the basis;
        round-trips bit-exactly."""
        from . import polyparse

        ctx = self.dwork.ctx
        payload = {
            "version": PRESENTATION_FORMAT_VERSION,
            "context": {"n": ctx.n, "k": ctx.k, "degrees": list(ctx.degrees),
                        "order": ctx.order},
            "G": [polyparse.render(g) for g in self.dwork.G],
            "cG": self.c_G,
            "basis": [{"q": list(m.qexp), "eta": list(m.eta)} for m in self.basis],
            "weightCounts": list(self.weight_counts),
        }
        return polyparse.json_text(payload)

    @classmethod
    def from_json(cls, text: str) -> "QuotientPresentation":
        """Load an export by rebuilding its presentation from the context and
        G, then check the file against it.

        `cG`, `basis` and `weightCounts` must match the rebuilt ones, and the
        presentation returned is the rebuilt one.  Format 1 also stored the
        echelon rows of weights 0..n-k+1 (`solvers`) and `slack`; a version-1
        file still loads, and those fields are not read.
        """
        from . import polyparse

        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"presentation file is not JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise InputError("presentation file: expected a JSON object, found "
                             f"{type(payload).__name__}")
        version = payload.get("version")
        if type(version) is not int or version not in (1, PRESENTATION_FORMAT_VERSION):
            raise InputError(f"unsupported presentation version {version!r}")
        try:
            cinfo = payload["context"]
            ctx = VariableContext(cinfo["n"], cinfo["k"], cinfo["degrees"],
                                  cinfo.get("order", "graded-lex"))
            if type(payload["G"]) is not list:
                raise InputError(f"presentation file: G must be a list, got {payload['G']!r}")
            G = [polyparse.parse(text_g, ctx) for text_g in payload["G"]]
            c_G = payload["cG"]
            basis = [make_monomial(ctx, m["q"], m["eta"]) for m in payload["basis"]]
            counts = payload["weightCounts"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"presentation file: missing or malformed field ({exc!r})") from None
        if type(c_G) is not int or ctx.background_charge() != c_G:
            raise InputError(f"inconsistent background charge {c_G!r} in presentation file")
        if type(counts) is not list or any(type(c) is not int for c in counts):
            raise InputError(f"presentation file: weightCounts {counts!r} are not ints")
        pres = cls(dwork_potential(ctx, G))
        if basis != list(pres.basis):
            raise InputError("presentation file: basis is not the complement of "
                             "the weight echelons")
        if counts != list(pres.weight_counts):
            raise InputError(f"presentation file: weightCounts {counts!r} "
                             f"do not match the basis, expected {list(pres.weight_counts)}")
        return pres


def build_presentation(D: DworkData) -> QuotientPresentation:
    return QuotientPresentation(D)


# -- charge concentration ----------------------------------------------------

def charge_generator(D: DworkData) -> SuperElement:
    """R = sum_mu ch(q_mu) q_mu eta_mu; satisfies K(R) = -c_G."""
    ctx = D.ctx
    return SuperElement._make(ctx, {unit + (1 << mu): monomial_charge(ctx, unit)
                                    for mu, unit in enumerate(ctx.q_units)}, 1)


def charge_witness(D: DworkData, f: SuperElement) -> SuperElement:
    """The K-preimage witness f*R of a K-closed element off the background charge.

    For homogeneous f of charge lam != c_G with K(f) = 0,

        K(f R) = (-1)^|f| (lam - c_G) f,

    so (-1)^|f| (lam - c_G)^{-1} f R is an exact preimage of f.  Returns f R
    scaled by the sign only; callers divide by (lam - c_G).  Raises unless f
    is charge-homogeneous.
    """
    lam = f.homogeneous_charge()
    if lam is None:
        raise InputError("charge witness needs charge-homogeneous input")
    deg = f.homogeneous_degree()
    if deg is None:
        raise InputError("charge witness needs degree-homogeneous input")
    R = charge_generator(D)
    sign = -1 if deg % 2 else 1
    return (f * R).scale(sign)
