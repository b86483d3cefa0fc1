"""The shared sparse echelon against dense oracles on seeded random inputs.

Rank is checked against the dense elimination in tests/oracles.py and the
unimodularity determinant against sympy's Matrix.det().
"""

import random
from fractions import Fraction

import pytest
import sympy

from dworkbox import BaseChange, InputError
from dworkbox.cohomology import _Echelon
from dworkbox.deformation import _determinant
from tests.oracles import dense_rank


def random_rows(rng, nrows, ncols, density=0.4):
    """Sparse rational rows; about a third are combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.35:
            row = {}
            for other in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for pos, v in other.items():
                    row[pos] = row.get(pos, Fraction(0)) + c * v
            row = {pos: v for pos, v in row.items() if v}
        else:
            row = {pos: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for pos in range(ncols) if rng.random() < density}
            row = {pos: v for pos, v in row.items() if v}
        rows.append(row)
    return rows


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
    grew = [bool(echelon.insert(row, {i: Fraction(1)})) for i, row in enumerate(rows)]
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
        echelon.insert(row, {i: Fraction(1)})
    for pivot, row, _ in echelon.rows:
        assert min(row) == pivot and row[pivot] == 1
    probe = random_rows(rng, 1, ncols, density=0.7)[0]
    residual, combo = echelon.eliminate(probe)
    assert not set(residual) & set(echelon.pivots)
    rebuilt = dict(residual)
    for i, c in combo.items():
        for pos, v in rows[i].items():
            rebuilt[pos] = rebuilt.get(pos, Fraction(0)) + c * v
    assert {pos: v for pos, v in rebuilt.items() if v} == probe


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
