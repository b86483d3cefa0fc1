"""Finite graded linear algebra for the twisted cohomology quotient.

Everything happens inside tri-graded pieces (charge, weight, eta-degree),
which are finite-dimensional with an explicit monomial basis.  The quotient
of the degree-0, charge-c_G part by the image of K is computed weight by
weight: on weight-homogeneous data only the weight-preserving part Q of
K = Q + delta matters, so echelonizing the Q-image of each degree -1 piece
inside the degree-0 piece of the same weight yields

  * pivot monomials (inside the image span), and
  * complement monomials, which become quotient basis elements e_rho for
    weights <= n - k and must be absent above (else the input was singular).

Reduction then peels the top weight of an element: solve for the image part,
subtract K of the solving preimage (which only disturbs lower weights through
delta) and recurse, collecting basis coefficients and an exact degree -1
certificate xi with

    input = sum_rho c_rho e_rho + K(xi)

which is re-checkable by applying K.  The coefficients are independent of the
solver's internal choices; the certificate is one valid witness among many.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InternalCheckError, SmoothnessError
from .operators import DworkData, apply_delta, apply_k, apply_q, dwork_potential
from .superalgebra import (
    SuperElement,
    SuperMonomial,
    VariableContext,
    monomial_sort_key,
    monomial_weight,
)

PRESENTATION_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GradedPiece:
    """Ordered monomial basis of one tri-graded piece (largest first)."""

    charge: int
    weight: int
    eta_degree: int
    monomials: tuple


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _eta_subsets(ctx: VariableContext, size: int):
    from itertools import combinations

    return combinations(range(1, ctx.nvars + 1), size)


def enumerate_piece(ctx: VariableContext, charge: int, weight: int,
                    eta_degree: int) -> GradedPiece:
    """Exhaustively list the monomials with the given tri-grading.

    Empty when the charge/weight constraints admit no solution (including
    eta_degree outside [-N, 0]).
    """
    if weight < 0:
        raise InputError("weight must be >= 0")
    size = -eta_degree
    monos = []
    if 0 <= size <= ctx.nvars:
        for eta in _eta_subsets(ctx, size):
            ch_eta = sum(ctx.charge_of_eta(mu) for mu in eta)
            wt_eta = sum(ctx.weight_of_eta(mu) for mu in eta)
            wt_q = weight - wt_eta
            if wt_q < 0:
                continue
            # y-exponents carry all the q-weight; x-degree is then forced
            # by the charge equation -sum d_i v_i + |u| = charge - ch_eta.
            for v in _compositions(wt_q, ctx.k):
                xdeg = charge - ch_eta + sum(d * e for d, e in zip(ctx.degrees, v))
                if xdeg < 0:
                    continue
                for u in _compositions(xdeg, ctx.n + 1):
                    monos.append(SuperMonomial(v + u, eta))
    monos.sort(key=lambda m: monomial_sort_key(ctx, m), reverse=True)
    return GradedPiece(charge, weight, eta_degree, tuple(monos))


@dataclass(frozen=True)
class ReductionResult:
    """Coefficients over the quotient basis plus an exact K-preimage witness."""

    coefficients: tuple
    certificate: SuperElement

    def as_element(self, presentation: "QuotientPresentation") -> SuperElement:
        """sum_rho c_rho e_rho as an element (the normal form)."""
        out = SuperElement.zero(presentation.dwork.ctx)
        for c, mono in zip(self.coefficients, presentation.basis):
            if c:
                out = out + SuperElement(presentation.dwork.ctx, {mono: c})
        return out


class _Echelon:
    """Sparse exact row echelon over Q, remembering how each row was made.

    rows: list of (pivot position, row dict, combo dict) where `row` maps a
    position to its coefficient and `combo` expresses the row as a
    combination of the inserted vectors, under the keys their callers gave
    in `insert`.  Rows are pairwise pivot-distinct, each is normalized to pivot
    coefficient 1, and the pivot is the smallest position of its row.
    """

    def __init__(self):
        self.rows = []
        self.pivots = {}

    def eliminate(self, vec: dict):
        """Reduce `vec` (position -> coeff) against the echelon rows.

        Returns (residual, combo): residual is supported on non-pivot
        positions and combo expresses the eliminated part over the inserted
        vectors, so that vec = residual + sum_g combo[g] * vector_g (for a
        weight solver, vector_g = Q(gen_g)).

        Every row's entries sit at positions >= its pivot, so processing
        positions in increasing order settles each one for good.
        """
        stack = dict(vec)
        combo: dict = {}
        residual: dict = {}
        while stack:
            lead = min(stack)  # smallest position = largest monomial
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

    def insert(self, vec: dict, combo: dict) -> Fraction:
        """Echelon-insert `vec`, which equals the combination `combo`.

        Returns the pivot coefficient the new row was divided by, or 0 when
        `vec` is dependent on the rows already present.
        """
        residual, used = self.eliminate(vec)
        if not residual:
            return Fraction(0)
        lead = min(residual)
        scale = residual[lead]
        row = {pos: c / scale for pos, c in residual.items()}
        full_combo = dict(combo)
        for g, c in used.items():
            full_combo[g] = full_combo.get(g, Fraction(0)) - c
        full_combo = {g: c / scale for g, c in full_combo.items() if c}
        self.add_row(lead, row, full_combo)
        return scale

    def add_row(self, pivot: int, row: dict, combo: dict) -> None:
        """Register an already reduced and normalized row."""
        self.pivots[pivot] = len(self.rows)
        self.rows.append((pivot, row, combo))


class _WeightSolver(_Echelon):
    """Echelonized Q-image of one (charge, weight) slice, with preimages.

    Positions index the descending monomial order of the degree-0 piece, so
    a row's pivot is its largest monomial; combos are keyed by position in
    the degree -1 generator piece.
    """

    def __init__(self, target: GradedPiece, generators: GradedPiece):
        super().__init__()
        self.target = target
        self.generators = generators
        self.index = {m: i for i, m in enumerate(target.monomials)}

    def complement_monomials(self):
        return tuple(m for i, m in enumerate(self.target.monomials)
                     if i not in self.pivots)


def _build_weight_solver(D: DworkData, charge: int, weight: int) -> _WeightSolver:
    target = enumerate_piece(D.ctx, charge, weight, 0)
    generators = enumerate_piece(D.ctx, charge, weight, -1)
    solver = _WeightSolver(target, generators)
    full_rank = len(target.monomials)
    for g_idx, gen in enumerate(generators.monomials):
        image = apply_q(D, SuperElement(D.ctx, {gen: Fraction(1)}))
        if image.is_zero():
            continue
        vec = {}
        for mono, coeff in image.terms.items():
            pos = solver.index.get(mono)
            if pos is None:
                raise InternalCheckError("Q image escaped its graded piece")
            vec[pos] = coeff
        solver.insert(vec, {g_idx: Fraction(1)})
        if len(solver.rows) == full_rank:
            break
    return solver


class QuotientPresentation:
    """Monomial basis of the charge-c_G quotient with reduction machinery.

    `basis` lists eta-free monomials of charge c_G grouped by increasing
    weight (largest monomial first within a weight); `weight_counts[w]` is
    the number of basis elements of weight exactly w, for w = 0..n-k.

    Logically immutable: the per-weight solver data and reduce results are
    memoized lazily, but rebuilding them is deterministic, so concurrent
    readers can only ever race to store identical values.
    """

    def __init__(self, dwork: DworkData, basis: Sequence[SuperMonomial],
                 weight_counts: Sequence[int], slack: int = 2):
        self.dwork = dwork
        self.basis = tuple(basis)
        self.weight_counts = tuple(weight_counts)
        self.slack = slack
        self.c_G = dwork.ctx.background_charge()
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        self._solvers: dict = {}
        self._reduce_cache: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, D: DworkData, slack: int = 2) -> "QuotientPresentation":
        """Echelonize weight by weight and collect complement monomials.

        The filtration must close at weight n - k; a nonzero complement in
        weights (n-k, n-k+slack] trips the smoothness guard.
        """
        ctx = D.ctx
        c_G = ctx.background_charge()
        top = ctx.n - ctx.k
        basis = []
        counts = []
        presentation = cls(D, (), (), slack=slack)
        for w in range(0, top + 1):
            solver = presentation._solver(w)
            complement = solver.complement_monomials()
            basis.extend(complement)
            counts.append(len(complement))
        for w in range(top + 1, top + 1 + max(slack, 0)):
            solver = presentation._solver(w)
            leftover = solver.complement_monomials()
            if leftover:
                raise SmoothnessError(
                    f"quotient fails to close at weight {w}: "
                    f"{len(leftover)} unreduced monomials; "
                    "singular or non-complete-intersection input")
        final = cls(D, basis, counts, slack=slack)
        final._solvers = presentation._solvers
        return final

    # -- solver access -----------------------------------------------------

    def _solver(self, weight: int) -> _WeightSolver:
        solver = self._solvers.get(weight)
        if solver is None:
            solver = _build_weight_solver(self.dwork, self.c_G, weight)
            self._solvers[weight] = solver
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
        return [SuperElement(ctx, {m: Fraction(1)}) for m in self.basis]

    # -- reduction ---------------------------------------------------------

    def reduce(self, f: SuperElement, _use_cache: bool = False) -> ReductionResult:
        """Normal form plus certificate: f = sum c_rho e_rho + K(certificate).

        Accepts charge-pure input only.  Charge c_G goes through the weight
        recursion; any other pure charge is exact by the charge-concentration
        witness, so the coefficients are zero and the certificate is
        (charge - c_G)^{-1} f R.
        """
        if f.ctx != self.dwork.ctx:
            raise InputError("element over a different context")
        if _use_cache:
            hit = self._reduce_cache.get(f)
            if hit is not None:
                return hit
        degs = f.degrees()
        if degs and degs != {0}:
            raise InputError("reduce expects eta-free (degree 0) input")
        charges = f.charges()
        if len(charges) > 1:
            raise InputError(
                f"reduce expects charge-pure input, found charges {sorted(charges)}")
        zero = tuple(Fraction(0) for _ in self.basis)
        if not charges:
            result = ReductionResult(zero, SuperElement.zero(f.ctx))
        elif charges != {self.c_G}:
            lam = charges.pop()
            witness = charge_witness(self.dwork, f)
            result = ReductionResult(zero, witness.scale(Fraction(1, lam - self.c_G)))
        else:
            result = self._reduce_background(f)
        if _use_cache:
            self._reduce_cache[f] = result
        return result

    def _reduce_background(self, f: SuperElement) -> ReductionResult:
        ctx = self.dwork.ctx
        coeffs = {i: Fraction(0) for i in range(len(self.basis))}
        certificate = SuperElement.zero(ctx)
        rest = f
        while not rest.is_zero():
            w = rest.top_weight()
            part = {m: c for m, c in rest.terms.items()
                    if monomial_weight(ctx, m) == w}
            solver = self._solver(w)
            vec = {}
            for mono, coeff in part.items():
                pos = solver.index.get(mono)
                if pos is None:
                    raise InternalCheckError("monomial escaped its graded piece")
                vec[pos] = coeff
            residual, combo = solver.eliminate(vec)
            # residual lives on complement monomials: basis coefficients here
            for pos, c in residual.items():
                mono = solver.target.monomials[pos]
                idx = self.basis_index.get(mono)
                if idx is None:
                    raise SmoothnessError(
                        f"nonzero class of weight {w} outside the recorded basis; "
                        "singular or non-complete-intersection input")
                coeffs[idx] += c
            xi_terms = {}
            for g_idx, c in combo.items():
                xi_terms[solver.generators.monomials[g_idx]] = c
            xi = SuperElement(ctx, xi_terms)
            certificate = certificate + xi
            # part = residual + Q(xi); Q preserves weight, so subtracting the
            # whole weight-w slice and delta(xi) accounts for K(xi) exactly
            rest = rest - SuperElement(ctx, part) - apply_delta(xi)
        return ReductionResult(tuple(coeffs[i] for i in range(len(self.basis))),
                               certificate)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """Versioned structured-text export; round-trips bit-exactly."""
        from . import polyparse

        ctx = self.dwork.ctx
        payload = {
            "version": PRESENTATION_FORMAT_VERSION,
            "context": {"n": ctx.n, "k": ctx.k, "degrees": list(ctx.degrees),
                        "order": ctx.order},
            "G": [polyparse.render(g) for g in self.dwork.G],
            "cG": self.c_G,
            "slack": self.slack,
            "basis": [_monomial_to_json(m) for m in self.basis],
            "weightCounts": list(self.weight_counts),
            "solvers": [
                {
                    "weight": w,
                    "rows": [
                        {
                            "pivot": pivot,
                            "row": {str(pos): str(c) for pos, c in sorted(row.items())},
                            "combo": {str(g): str(c) for g, c in sorted(combo.items())},
                        }
                        for pivot, row, combo in solver.rows
                    ],
                }
                for w, solver in sorted(self._solvers.items())
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuotientPresentation":
        from . import polyparse

        payload = json.loads(text)
        if payload.get("version") != PRESENTATION_FORMAT_VERSION:
            raise InputError(f"unsupported presentation version {payload.get('version')}")
        cinfo = payload["context"]
        ctx = VariableContext(cinfo["n"], cinfo["k"], tuple(cinfo["degrees"]),
                              cinfo.get("order", "graded-lex"))
        G = [polyparse.parse(text_g, ctx) for text_g in payload["G"]]
        D = dwork_potential(ctx, G)
        basis = [_monomial_from_json(ctx, m) for m in payload["basis"]]
        pres = cls(D, basis, payload["weightCounts"], slack=payload.get("slack", 2))
        if pres.c_G != payload["cG"]:
            raise InputError("inconsistent background charge in presentation file")
        for sdata in payload.get("solvers", []):
            w = sdata["weight"]
            target = enumerate_piece(ctx, pres.c_G, w, 0)
            generators = enumerate_piece(ctx, pres.c_G, w, -1)
            solver = _WeightSolver(target, generators)
            for rdata in sdata["rows"]:
                solver.add_row(
                    rdata["pivot"],
                    {int(pos): Fraction(c) for pos, c in rdata["row"].items()},
                    {int(g): Fraction(c) for g, c in rdata["combo"].items()})
            pres._solvers[w] = solver
        return pres


def _monomial_to_json(m: SuperMonomial):
    return {"q": list(m.qexp), "eta": list(m.eta)}


def _monomial_from_json(ctx: VariableContext, data) -> SuperMonomial:
    from .superalgebra import make_monomial

    return make_monomial(ctx, data["q"], data["eta"])


def build_presentation(D: DworkData, slack: int = 2) -> QuotientPresentation:
    return QuotientPresentation.build(D, slack=slack)


# -- charge concentration ----------------------------------------------------

def charge_generator(D: DworkData) -> SuperElement:
    """R = sum_mu ch(q_mu) q_mu eta_mu; satisfies K(R) = -c_G."""
    ctx = D.ctx
    terms = {}
    for mu in range(1, ctx.nvars + 1):
        ch = ctx.charge_of_var(mu)
        if ch == 0:
            continue
        qexp = [0] * ctx.nvars
        qexp[mu - 1] = 1
        terms[SuperMonomial(tuple(qexp), (mu,))] = Fraction(ch)
    return SuperElement(ctx, terms)


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


def charge_witness_check(D: DworkData, f: SuperElement) -> SuperElement:
    """Verify the concentration identity on f and return the witness product.

    Checks K(f R) = (-1)^|f| [ (lam - c_G) f - R K(f) ] exactly (which for
    K-closed f is the statement that f is exact whenever lam != c_G) and
    returns f R.
    """
    witness = charge_witness(D, f)  # (-1)^|f| f R; validates f
    lam = f.homogeneous_charge()
    c_G = D.ctx.background_charge()
    if apply_k(D, witness) != f.scale(lam - c_G) - charge_generator(D) * apply_k(D, f):
        raise InternalCheckError("charge concentration identity failed")
    return witness.scale(-1 if f.homogeneous_degree() % 2 else 1)
