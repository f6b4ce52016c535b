"""Exact elimination: ranks, null spaces, solving, incremental spans."""

import random
from fractions import Fraction
from math import gcd

from loopspace.gca import linalg


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rank_hand_examples():
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 2], [3, 4]]) == 2
    assert linalg.rank(frac_matrix([["1/2", "1/3"], ["1/4", "1/6"]])) == 1
    # 4x4 Hilbert segment is nonsingular
    hilbert = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    assert linalg.rank(hilbert) == 4


def test_nullspace_annihilates_and_has_right_dimension():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    basis = linalg.nullspace(m, 3)
    assert len(basis) == 3 - linalg.rank(m)
    for vec in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_of_zero_and_empty_maps():
    assert linalg.nullspace([], 3) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    assert linalg.nullspace([[0, 0]], 2) == [(1, 0), (0, 1)]
    assert linalg.nullspace([[1], [0]], 1) == []


class CountedFraction(Fraction):
    """A Fraction that counts the reads of its denominator."""

    reads = 0

    @property
    def denominator(self):
        CountedFraction.reads += 1
        return super().denominator


def test_integerize_rows_reads_denominators_of_nonzero_fractions_only():
    ints = [0, 3, -2, 0]
    out = linalg.integerize_rows([ints, (1, 2)])
    assert out == [ints, [1, 2]] and out[0] is not ints
    zero, half, third = CountedFraction(0), CountedFraction(1, 2), CountedFraction(-2, 3)
    CountedFraction.reads = 0
    assert linalg.integerize_rows([[zero, half, 1, zero, third]]) == [[0, 3, 6, 0, -4]]
    assert CountedFraction.reads == 4  # the lcm and the scaling read each nonzero fraction once
    assert linalg.integerize_rows([[zero, zero], []]) == [[0, 0], []]


def test_column_space_basis():
    m = frac_matrix([[1, 2], [2, 4], [0, 1]])
    basis = linalg.column_space_basis(m, 2)
    assert len(basis) == 2
    # both columns are combinations of the basis
    span = linalg.IncrementalSpan(3)
    for vec in basis:
        assert span.add(vec)
    for j in range(2):
        assert span.contains([row[j] for row in m])


def test_solve_unique_and_inconsistent():
    columns = [[1, 0, 2], [1, 1, 0]]
    x = linalg.solve(columns, [3, 1, 4])
    assert x == [Fraction(2), Fraction(1)]
    assert linalg.solve(columns, [0, 0, 1]) is None


def test_solve_rational_entries():
    columns = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    rhs = [Fraction(7, 10), Fraction(10, 21)]
    x = linalg.solve(columns, rhs)
    assert x is not None
    for i in range(2):
        assert sum(columns[j][i] * x[j] for j in range(2)) == rhs[i]


def test_incremental_span_counts_dependencies():
    span = linalg.IncrementalSpan(3)
    assert span.add([1, 1, 0])
    assert span.add([0, 1, 1])
    assert not span.add([1, 2, 1])  # sum of the first two
    assert span.add([0, 0, 7])
    assert span.dim == 3


def test_randomized_rank_nullity_and_determinism():
    rng = random.Random(7)
    for _ in range(100):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        r = linalg.rank(m)
        kernel = linalg.nullspace(m, ncols)
        assert r + len(kernel) == ncols
        assert linalg.nullspace(m, ncols) == kernel  # deterministic
        for vec in kernel:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        assert len(linalg.column_space_basis(m, ncols)) == r


def test_rank_transpose_invariance_randomized():
    rng = random.Random(11)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        t = [[m[i][j] for i in range(nrows)] for j in range(ncols)]
        assert linalg.rank(m) == linalg.rank(t)


def test_echelon_canonical_form_against_incremental_span():
    """The reduced form that rank, nullspace and column_space_basis read
    off, checked against an independent incremental reduction."""
    rng = random.Random(2718)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        density = rng.random()
        m = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else 0
             for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows > 2:
            m[-1] = [2 * a - b for a, b in zip(m[0], m[1])]
        cols = [[row[j] for row in m] for j in range(ncols)]

        # the pivots are the first independent columns, left to right
        span = linalg.IncrementalSpan(nrows)
        independent = [j for j in range(ncols) if span.add(cols[j])]
        ech, pivots = linalg.echelon(m)
        assert pivots == independent
        # reduced: one nonzero entry per pivot column, one pivot value for all rows
        for r, p in enumerate(pivots):
            assert [i for i, row in enumerate(ech) if row[p]] == [r]
        assert len({row[p] for row, p in zip(ech, pivots)}) <= 1

        # one primitive kernel vector per free column, zero at the others
        free = [j for j in range(ncols) if j not in pivots]
        kernel = linalg.nullspace(m, ncols)
        assert len(kernel) == len(free)
        for f, vec in zip(free, kernel):
            assert all(type(x) is int for x in vec)
            assert gcd(*vec) == 1
            assert next(x for x in vec if x) > 0
            assert vec[f] and not any(vec[g] for g in free if g != f)
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0

        # the column-space basis spans the columns
        basis = linalg.column_space_basis(m, ncols)
        image = linalg.IncrementalSpan(nrows)
        assert all(image.add(vec) for vec in basis)
        assert all(image.contains(col) for col in cols)
