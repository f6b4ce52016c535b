"""Exact elimination: ranks, null spaces, solving, incremental spans."""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from loopspace.dsl import parse_path
from loopspace.gca import linalg

from helpers import differential_scale, reference_differential, reference_echelon

SIX_GEN = Path(__file__).resolve().parent.parent / "fixtures" / "six_gen.dga"


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
    # the type test reads past leading ints: a Fraction or a bool after them
    # makes the row scaled, and every entry comes out an int
    out = linalg.integerize_rows([[0, 3, Fraction(1, 2)], [2, 0, True]])
    assert out == [[0, 6, 1], [2, 0, 1]] and all(type(x) is int for row in out for x in row)


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


def test_kernel_at_any_subset_of_free_columns_is_that_subset_of_the_nullspace():
    # each kernel vector depends on its own free column only, so the vectors
    # built at some free columns, in any order, are those of nullspace
    rng = random.Random(1618)
    for _ in range(100):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        m = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(ncols)] for _ in range(nrows)]
        ech, pivots = linalg.echelon(m)
        free = [j for j in range(ncols) if j not in pivots]
        kernel = dict(zip(free, linalg.nullspace(m, ncols)))
        columns = [f for f in free if rng.random() < 0.5]
        rng.shuffle(columns)
        assert linalg.kernel_from_echelon(ech, pivots, ncols, columns) == [kernel[f] for f in columns]
        assert linalg.kernel_from_echelon(ech, pivots, ncols, []) == []
    # a form with no rows gives unit vectors
    assert linalg.kernel_from_echelon([], [], 3, [2, 0]) == [(0, 0, 1), (1, 0, 0)]


def test_kernel_from_echelon_refuses_a_pivot_column():
    # column 0 is the pivot of [1, 1]; the vector (1, 0) built there is not
    # in the kernel
    with pytest.raises(ValueError, match="column 0 is a pivot column"):
        linalg.kernel_from_echelon(*linalg.echelon([[1, 1]]), 2, [0])
    with pytest.raises(ValueError, match="column 2 is a pivot column"):
        linalg.kernel_from_echelon(*linalg.echelon([[0, 1, 0], [0, 0, 3]]), 3, [0, 2])


def test_kernel_vectors_at_free_columns_annihilate_every_row():
    # checked against the original matrix, not the echelon form it was read from
    rng = random.Random(2718)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        m = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(ncols)] for _ in range(nrows)]
        ech, pivots = linalg.echelon(m)
        free = [j for j in range(ncols) if j not in pivots]
        rng.shuffle(free)
        for f, x in zip(free, linalg.kernel_from_echelon(ech, pivots, ncols, free)):
            assert x[f] != 0 and all(x[g] == 0 for g in free if g != f), (m, f)
            for row in m:
                assert sum(a * b for a, b in zip(row, x)) == 0, (m, f, x)


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


def _reference_matrix(rng, kind):
    """A random matrix of the given kind for the eager-reference check."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    values = (-3, -2, -1, 1, 2, 3)
    if kind == "non-unit pivots":
        values = (-6, -4, -3, -2, 2, 3, 4, 6)
    elif kind == "ties in |pivot|":
        k = rng.randint(1, 3)
        values = (-k, k, -2 * k, 2 * k)
    if kind == "block diagonal":
        sizes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        nrows, ncols = sum(r for r, _ in sizes), sum(c for _, c in sizes)
        m = [[0] * ncols for _ in range(nrows)]
        r0 = c0 = 0
        for r, c in sizes:
            for i in range(r):
                for j in range(c):
                    m[r0 + i][c0 + j] = rng.choice(values + (0,))
            r0, c0 = r0 + r, c0 + c
        return m
    if kind == "banded":
        width = rng.randint(0, 2)
        return [[rng.choice(values) if abs(i - j) <= width else 0 for j in range(ncols)]
                for i in range(nrows)]
    density = 1.0 if kind in ("dense", "ties in |pivot|") else rng.uniform(0.1, 0.5)
    m = [[rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)]
         for _ in range(nrows)]
    if kind == "zero and duplicate rows":
        for _ in range(rng.randint(1, 3)):
            m.insert(rng.randint(0, len(m)), [0] * ncols)
            m.insert(rng.randint(0, len(m)), list(rng.choice(m)))
    elif kind == "fractions":
        m = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in m]
    return m


def test_echelon_matches_the_eager_reference():
    """Lazily rescaled rows give the rows and pivots of the elimination that
    rewrites every row at every step, on every kind of matrix."""
    rng = random.Random(1968)
    kinds = ("dense", "sparse", "banded", "block diagonal", "zero and duplicate rows",
             "fractions", "non-unit pivots", "ties in |pivot|")
    for n in range(560):
        m = _reference_matrix(rng, kinds[n % len(kinds)])
        assert linalg.echelon(m) == reference_echelon(m), (kinds[n % len(kinds)], m)


def test_echelon_matches_the_eager_reference_on_the_six_generator_model():
    model = parse_path(SIX_GEN, kind="dga").value
    for d in range(17):
        matrix = reference_differential(model, d, differential_scale(model))
        assert linalg.echelon(matrix) == reference_echelon(matrix), d


def test_echelon_drops_zero_rows_before_integerising(monkeypatch):
    """Zero rows interleaved anywhere, in int and in Fraction form, leave
    the reference's rows and pivots, and none of them is integerised."""
    rng = random.Random(1970)
    seen = []
    original = linalg.integerize_rows
    monkeypatch.setattr(linalg, "integerize_rows", lambda rows: seen.extend(rows) or original(rows))
    for n in range(240):
        m = _reference_matrix(rng, ("dense", "sparse", "block diagonal", "non-unit pivots")[n % 4])
        ncols = len(m[0])
        if n % 8 == 0:
            m = [[0] * ncols for _ in m]
        for _ in range(rng.randint(1, 4)):
            m.insert(rng.randint(0, len(m)), [0] * ncols)
        fractions = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in m]
        for rows in (m, fractions):
            assert linalg.echelon(rows) == reference_echelon(rows), rows
    assert seen and all(any(row) for row in seen)
