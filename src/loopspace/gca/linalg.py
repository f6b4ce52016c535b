"""Exact rational linear algebra over two integer kernels.

Matrices are lists of rows; entries are ints or Fractions.  A row that
holds a Fraction is scaled to integers first, which changes no rank or null
space, so no rounding can occur anywhere.

``column_reduce`` reduces integer vectors held as {position: value} maps,
touching only nonzero entries, to a basis of their span keyed by lowest
position.  That one reduction gives a rank (``sparse_rank`` is the number
of vectors it keeps; ``rank`` hands it the nonzero rows of a matrix, since
the rank of a matrix is the rank of its rows), in the cochain complex
both the rank test of a differential and the basis of its image, and in
the rank path of ``cohomology`` every rank at once, from one stream that
reads and pops the kept vectors of a dict it passes in.

``echelon`` factors a matrix when more than its rank is needed: a
fraction-free Gauss-Jordan reduction of the integerised matrix (Bareiss
1968, applied above the pivot as well as below), in which every division
is exact.  Zero rows are dropped before anything else; each other row is
copied.  Pivots are chosen by first nonzero column, then smallest absolute
entry, then lowest row index; the fixed rule makes every result
deterministic.  Null space (primitive integer vectors), column space and
solutions are read off the reduced form without further elimination.

A pivot step only rescales a row whose entry in the pivot column is 0, by
the new pivot over the previous one.  Those factors telescope, so such rows
are left as they are and rescaled once, exactly, when they are next needed:
the work of a step is proportional to the rows it actually changes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Row = Sequence[Fraction | int]


def integerize_rows(rows: Sequence[Row]) -> list[list[int]]:
    """Integer copies of the rows (null space unchanged): a row of ints as it
    is, any other row scaled by the lcm of the denominators of its nonzero
    entries.  A row's type test stops at its first entry that is not an
    int, which for a row of Fractions is the first."""
    out = []
    for row in rows:
        for x in row:
            if type(x) is not int:
                break
        else:
            out.append(list(row))
            continue
        scale = lcm(*(x.denominator for x in row if x))
        out.append([x.numerator * (scale // x.denominator) if x else 0 for x in row])
    return out


def echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[int]]:
    """Reduced echelon form of the integerised matrix: (rows, pivot columns).

    Zero rows are dropped first, so only the nonzero rows are type-checked
    and copied by :func:`integerize_rows`.

    Fraction-free Gauss-Jordan: each pivot step updates every other row to
    (pivot*x - head*y) / previous_pivot, which divides exactly.  At the end
    every row carries the same pivot value and each pivot column has one
    nonzero entry.  The pivot columns are the first linearly independent
    columns, in order.

    A row whose head (its entry in the pivot column) is 0 is only scaled by
    pivot / previous_pivot.  Over a run of such steps the factors telescope:
    a row last brought up to date when the previous pivot was L equals
    stored * P // L once the previous pivot is P, and that division is exact
    because each step's scaled row is an integer.  So each row keeps the
    previous pivot it is current at (its level) and is brought up to date
    only when it is read: when its head is nonzero in the pivot search (which
    then compares up-to-date values, so the pivots are unchanged), when it
    is eliminated, and once at the end.  The pivot row itself is not
    changed by its step, so its level becomes the new pivot.
    """
    m = integerize_rows([row for row in rows if any(row)])
    level = [1] * len(m)
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        hits = [i for i, row in enumerate(m) if row[c]]
        if not hits or hits[-1] < r:
            continue
        best = -1
        for i in hits:
            if level[i] != prev:
                m[i] = [x * prev // level[i] for x in m[i]]
                level[i] = prev
            if i >= r and (best == -1 or abs(m[i][c]) < low):
                best, low = i, abs(m[i][c])
        top = m[best]
        piv = top[c]
        for i in hits:
            if i != best:
                head = m[i][c]
                m[i] = [(piv * x - head * y) // prev for x, y in zip(m[i], top)]
                level[i] = piv
        m[r], m[best] = top, m[r]
        level[best] = level[r]
        level[r] = piv
        pivots.append(c)
        prev = piv
        if r + 1 == len(m):
            break
    del m[len(pivots):]
    for i, row in enumerate(m):
        if level[i] != prev:
            m[i] = [x * prev // level[i] for x in row]
    return m, pivots


def column_reduce(
    vectors: Iterable[Mapping[int, int]], kept: dict[int, Mapping[int, int]] | None = None,
) -> dict[int, Mapping[int, int]]:
    """A basis of the span of integer vectors given as {position: nonzero
    int} maps, keyed by lowest position: {lowest position: vector}.

    Column reduction (Zomorodian-Carlsson 2005): each vector is reduced
    against the kept vectors by its lowest position, to a*v - b*kept where
    a and b are the two entries there divided by their gcd, and the result
    is divided by its content.  A vector is kept when its lowest position is
    new and dropped when it vanishes.  The kept vectors have distinct lowest
    positions, so they are independent, and each dropped vector is in their
    span.  The set of lowest positions is that of every such basis of the
    span: the pivot columns of its reduced echelon form.  The maps passed in
    are never mutated: a vector is kept as given, and each reduction makes a
    new map.

    Every step multiplies a vector by an entry of another; dividing by the
    content removes the common factor those products leave, which keeps the
    entries about as large as the minors a fraction-free elimination holds.

    The vectors are reduced into ``kept``, a new dict unless the caller
    passes one, and that dict is returned.  A caller that owns it may read
    it and pop keys between vectors, when ``vectors`` is a lazy stream: the
    reduction reads the dict afresh for each vector.  A popped key must be
    one that no later vector reaches as its lowest position while reduced,
    for instance a key below the lowest position of every later vector;
    then the kept vectors are those of the reduction without the pops,
    minus the popped ones.
    """
    if kept is None:
        kept = {}
    for v in vectors:
        while v:
            low = min(v)
            other = kept.get(low)
            if other is None:
                kept[low] = v
                break
            a, b = other[low], v[low]
            g = gcd(a, b)
            if g != 1:
                a, b = a // g, b // g
            w = dict(v) if a == 1 else {i: a * x for i, x in v.items()}
            for i, y in other.items():
                z = w.pop(i, 0) - b * y
                if z:
                    w[i] = z
            g = gcd(*w.values())
            v = w if g < 2 else {i: x // g for i, x in w.items()}
    return kept


def sparse_rank(vectors: Iterable[Mapping[int, int]]) -> int:
    """Rank of integer vectors given as {position: nonzero int} maps: the
    number of vectors :func:`column_reduce` keeps."""
    return len(column_reduce(vectors))


def rank(rows: Sequence[Row]) -> int:
    """Rank of the matrix: the rank of its nonzero rows, integerised (see
    :func:`integerize_rows`), as :func:`sparse_rank` vectors."""
    m = integerize_rows([row for row in rows if any(row)])
    return sparse_rank([{j: x for j, x in enumerate(row) if x} for row in m])


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its content, making the first
    nonzero entry positive."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple(v // g for v in vec)


def kernel_from_echelon(
    ech: list[list[int]], pivots: list[int], ncols: int, columns: Iterable[int]
) -> list[tuple[int, ...]]:
    """Null space vectors read off a reduced echelon form, one primitive
    integer vector per free column f of ``columns``, in their order: nonzero
    at f, zero at every other free column, first nonzero entry positive.
    Each vector depends on its own free column only, so a subset of the free
    columns gives the matching subset of the null space; a form with no rows
    gives unit vectors, which are primitive as they are.  A pivot column
    among ``columns`` raises ``ValueError``: the vector built there would not
    be in the null space.

    Every row of the form carries the same pivot value d, so d times the
    kernel vector is d at f and -row[f] at the pivot of each row."""
    d = ech[0][pivots[0]] if ech else 1
    pivot_set = set(pivots)
    basis = []
    for f in columns:
        if f in pivot_set:
            raise ValueError(f"column {f} is a pivot column of the echelon form, not a free one")
        x = [0] * ncols
        x[f] = d
        for row, p in zip(ech, pivots):
            x[p] = -row[f]
        basis.append(_primitive(x) if ech else tuple(x))
    return basis


def nullspace(rows: Sequence[Row], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right null space, one primitive vector per free column."""
    ech, pivots = echelon(rows)
    return kernel_from_echelon(ech, pivots, ncols, sorted(set(range(ncols)).difference(pivots)))


def row_space_basis(rows: Sequence[Row]) -> list[tuple[int, ...]]:
    ech, _ = echelon(rows)
    return [_primitive(r) for r in ech]


def column_space_basis(rows: Sequence[Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """The matrix's own columns at its pivot positions."""
    return [tuple(Fraction(row[p]) for row in rows) for p in echelon(rows)[1]]


def solve(columns: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
    """One exact solution x of  sum_j x_j * columns[j] = rhs,  or None.

    Free variables, if any, are set to zero, so the answer is deterministic.
    """
    ncols = len(columns)
    aug = [[col[i] for col in columns] + [b] for i, b in enumerate(rhs)]
    ech, pivots = echelon(aug)
    if pivots and pivots[-1] == ncols:  # rhs is independent of the columns
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(ech, pivots):
        x[p] = Fraction(row[ncols], row[p])
    return x


class IncrementalSpan:
    """Grow a subspace one vector at a time with exact reduction.

    ``add`` returns True (and extends the span) exactly when the vector is
    independent of everything added so far.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._rows: list[list[Fraction]] = []
        self._pivot_cols: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Sequence[Fraction | int]) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        if len(v) != self.dimension:
            raise ValueError(f"expected a vector of length {self.dimension}, got {len(v)}")
        for row, p in zip(self._rows, self._pivot_cols):
            if v[p]:
                f = v[p] / row[p]
                for j in range(self.dimension):
                    v[j] -= f * row[j]
        return v

    def contains(self, vec: Sequence[Fraction | int]) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: Sequence[Fraction | int]) -> bool:
        v = self.reduce(vec)
        for p in range(self.dimension):
            if v[p]:
                self._rows.append(v)
                self._pivot_cols.append(p)
                return True
        return False
