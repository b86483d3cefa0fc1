"""The shared sparse echelon against dense oracles on seeded random inputs.

Rank is checked against the dense elimination in tests/oracles.py, the
unimodularity determinant against sympy's Matrix.det(), and the
fraction-free elimination against the Fraction echelon kept in
tests/oracles.py, on random inputs and on the weight solvers of real
geometries.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy

from dworkbox import BaseChange, InputError, InternalCheckError, SuperElement, apply_q
from dworkbox import cohomology
from dworkbox.cohomology import (
    PieceView,
    _build_weight_solver,
    _Echelon,
    _WeightSolver,
    enumerate_piece,
)
from dworkbox.deformation import _determinant
from tests.oracles import (
    FractionEchelon,
    as_fractions,
    as_ints,
    dense_rank,
    koszul_redundant,
    rational_rows,
)


def random_rows(rng, nrows, ncols, density=0.4, bits=None):
    """Sparse rows of ints, the form the echelon takes: rational rows, each
    scaled by the lcm of its denominators; about a third are combinations
    of earlier rows.

    The rational entries are small, or with `bits` have numerators and
    denominators of up to that many bits.
    """
    def entry(num, den):
        if bits is None:
            return Fraction(rng.randint(-num, num), rng.randint(1, den))
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))

    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.35:
            row = {}
            for other in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                c = entry(3, 2)
                for pos, v in other.items():
                    row[pos] = row.get(pos, Fraction(0)) + c * v
            row = {pos: v for pos, v in row.items() if v}
        else:
            row = {pos: entry(5, 3) for pos in range(ncols) if rng.random() < density}
            row = {pos: v for pos, v in row.items() if v}
        rows.append(row)
    return [as_ints(row)[0] for row in rows]


KINDS = ("plain", "singular", "unimodular")


def random_square(rng, size, kind):
    """Integer matrix: dense random, with a row a multiple of another, or of
    determinant +-1 built from elementary row operations."""
    if kind == "unimodular":
        m = [[int(i == j) for j in range(size)] for i in range(size)]
        for _ in range(2 * size):
            i, j = rng.sample(range(size), 2)
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        m[0] = [-v for v in m[0]]
        return m
    m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    if kind == "singular":
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-2, 2)
        m[i] = [c * v for v in m[j]]
    return m


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_dense_oracle(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 9)
    rows = random_rows(rng, rng.randint(1, 12), ncols)
    echelon = _Echelon()
    grew = [bool(echelon.insert(row, {i: 1})) for i, row in enumerate(rows)]
    assert len(echelon.rows) == sum(grew) == dense_rank(rows, list(range(ncols)))
    # a row adds rank exactly when it is independent of the rows before it
    for i, row in enumerate(rows):
        before = dense_rank(rows[:i], list(range(ncols)))
        assert grew[i] == (dense_rank(rows[:i + 1], list(range(ncols))) > before)


@pytest.mark.parametrize("seed", range(8))
def test_eliminate_reconstructs_its_input(seed):
    rng = random.Random(100 + seed)
    ncols = rng.randint(2, 9)
    rows = random_rows(rng, rng.randint(1, 10), ncols)
    echelon = _Echelon()
    for i, row in enumerate(rows):
        echelon.insert(row, {i: 1})
    for pivot, row, _ in rational_rows(echelon):
        assert min(row) == pivot and row[pivot] == 1
    for pivot, row, combo in echelon.rows:
        assert row[pivot] > 0 and math.gcd(*row.values(), *combo.values()) == 1
    probe = random_rows(rng, 1, ncols, density=0.7)[0]
    residual, combo = as_fractions(*echelon.eliminate(probe))
    assert not set(residual) & set(echelon.pivots)
    rebuilt = dict(residual)
    for i, c in combo.items():
        for pos, v in rows[i].items():
            rebuilt[pos] = rebuilt.get(pos, Fraction(0)) + c * v
    assert {pos: v for pos, v in rebuilt.items() if v} == probe


def assert_same_echelon(echelon, oracle):
    assert list(rational_rows(echelon)) == oracle.rows
    assert echelon.pivots == oracle.pivots
    for pivot, row, combo in echelon.rows:
        assert row[pivot] > 0 and math.gcd(*row.values(), *combo.values()) == 1


@pytest.mark.parametrize("content_bits", [0, cohomology._CONTENT_BITS])
@pytest.mark.parametrize("bits", [None, 80])
@pytest.mark.parametrize("seed", range(6))
def test_matches_fraction_echelon_on_random_rows(seed, bits, content_bits, monkeypatch):
    """Same rows, pivots, insert values and eliminations as the Fraction
    echelon; content_bits 0 takes the content out after every scaling."""
    monkeypatch.setattr(cohomology, "_CONTENT_BITS", content_bits)
    rng = random.Random(300 + seed)
    ncols = rng.randint(3, 12)
    rows = random_rows(rng, rng.randint(2, 14), ncols, bits=bits)
    echelon, oracle = _Echelon(), FractionEchelon()
    for i, row in enumerate(rows):
        combo = {i: 1 + i % 3} if i % 2 else {}
        assert echelon.insert(row, combo) == oracle.insert(row, combo)
    assert_same_echelon(echelon, oracle)

    # with 80-bit entries the running denominator passes the default limit,
    # so the content reduction (a gcd over more than two values) runs
    sizes = []
    monkeypatch.setattr(cohomology, "gcd",
                        lambda *xs: sizes.append(len(xs)) or math.gcd(*xs))
    for probe in random_rows(rng, 4, ncols, density=0.8, bits=bits):
        assert as_fractions(*echelon.eliminate(probe)) == oracle.eliminate(probe)
    if bits and echelon.rows:
        assert max(sizes) > 2


def weight_solvers(D):
    """The charge-c_G weight solvers of D at weights 0..n-k+2, each also
    rebuilt by a fresh library echelon and by the Fraction echelon from the
    Q images of the generators the oracle's Koszul criterion keeps, walked
    in the same order, both fed den * Q(gen) in ints under {gen: den} with
    gen the generator's packed key; yields them with the insert values of
    both."""
    c_G = D.ctx.background_charge()
    redundant = koszul_redundant(D)
    for weight in range(D.ctx.n - D.ctx.k + 3):
        built = _build_weight_solver(D, c_G, weight)
        fresh = _WeightSolver(built.target)
        oracle = FractionEchelon()
        values = []
        for gen in PieceView(D.ctx, c_G, weight, -1):
            if redundant(D.ctx.unpack(gen)):
                continue
            vec, den = fresh.q_vector(D, gen)  # den * Q(gen) in ints
            if not vec:
                continue
            values.append((fresh.insert(vec, {gen: den}),
                           oracle.insert(vec, {gen: Fraction(den)})))
            if len(oracle.rows) == len(built.target.monomials):
                break
        yield built, fresh, oracle, values


@pytest.mark.parametrize("geometry", ["cubic_dwork", "quadrics_dwork", "quartic_dwork",
                                      "fractional cubic", "grevlex K3"])
def test_matches_fraction_echelon_on_weight_solvers(geometry, request):
    """The build inserts den * Q(gen) under combo {gen: den}, gen the
    generator's packed key, for each generator the Koszul criterion keeps;
    the rows and combos are those of the Fraction echelon fed the same
    vectors for the generators the oracle's criterion keeps (normalized,
    the rows and combos of Q(gen) under {gen: 1}), also for a gradient with
    denominators up to 6."""
    D = request.getfixturevalue({"fractional cubic": "fractional_cubic_dwork",
                                 "grevlex K3": "grevlex_k3_dwork"}.get(geometry, geometry))
    rng = random.Random(geometry)
    for built, fresh, oracle, values in weight_solvers(D):
        assert all(mine == theirs for mine, theirs in values)
        assert_same_echelon(built, oracle)
        assert_same_echelon(fresh, oracle)
        size = len(built.target.monomials)
        for _ in range(3):
            probe, _ = as_ints({pos: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for pos in rng.sample(range(size), min(size, 6))})
            assert as_fractions(*built.eliminate(probe)) == oracle.eliminate(probe)


@pytest.mark.parametrize("geometry", ["cubic_dwork", "quadrics_dwork", "quartic_dwork",
                                      "grevlex K3"])
def test_solve_is_exact_and_leaves_only_complement_monomials(geometry, request):
    """scale * num == residual + Q(preimage) exactly for seeded rational
    vectors, scaled to ints, of every weight 0..n-k+1, with the residual
    on complement monomials; a monomial of another piece is refused."""
    D = request.getfixturevalue({"grevlex K3": "grevlex_k3_dwork"}.get(geometry, geometry))
    ctx = D.ctx
    c_G = ctx.background_charge()
    rng = random.Random(f"solve:{geometry}")

    def element(num):  # solve keys its dicts by packed monomial keys
        return SuperElement(ctx, {ctx.unpack(m): c for m, c in num.items()})

    for weight in range(ctx.n - ctx.k + 2):
        solver = _build_weight_solver(D, c_G, weight)
        target = solver.target.monomials
        complement = set(solver.complement_monomials())
        for _ in range(4):
            num, _ = as_ints({m: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              for m in rng.sample(target, min(len(target), 6))})
            residual, preimage, scale = solver.solve(num)
            assert set(residual) <= complement
            assert all(type(c) is int
                       for c in (scale, *residual.values(), *preimage.values()))
            assert (element(num).scale(scale)
                    == element(residual) + apply_q(D, element(preimage)))
        stranger = enumerate_piece(ctx, c_G, weight + 1, 0).monomials[0]
        with pytest.raises(InternalCheckError, match="monomial escaped its graded piece"):
            solver.solve({stranger: 1})


@pytest.mark.parametrize("seed", range(15))
def test_determinant_matches_sympy(seed):
    rng = random.Random(200 + seed)
    kind = KINDS[seed % len(KINDS)]
    m = random_square(rng, rng.randint(2, 6), kind)
    expected = Fraction(int(sympy.Matrix(m).det()))
    assert _determinant(m) == expected
    if kind == "singular":
        assert expected == 0
    elif kind == "unimodular":
        assert abs(expected) == 1
    # a row swap flips the sign
    i, j = rng.sample(range(len(m)), 2)
    m[i], m[j] = m[j], m[i]
    assert _determinant(m) == Fraction(int(sympy.Matrix(m).det())) == -expected


def test_determinant_edge_cases():
    assert _determinant([]) == 1
    assert _determinant([[-3]]) == -3
    assert _determinant([[0, 0], [0, 0]]) == 0
    assert _determinant([[0, 1], [1, 0]]) == -1
    assert _determinant([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1
    assert _determinant([[2, 4], [1, 2]]) == 0


def test_base_change_uses_echelon_determinant():
    BaseChange(((0, 1), (1, 3)))          # det -1, needs a row swap
    BaseChange(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    with pytest.raises(InputError, match="det = 2"):
        BaseChange(((2, 0), (0, 1)))
    with pytest.raises(InputError, match="det = 0"):
        BaseChange(((1, 2), (2, 4)))
