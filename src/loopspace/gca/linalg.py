"""Exact rational linear algebra over one integer elimination step.

Matrices are lists of rows; entries are ints or Fractions.  A row that
holds a Fraction is scaled to integers first, which changes no rank or null
space, so no rounding can occur anywhere.

Every elimination here is one step on integer vectors held as {position:
value} maps, touching only nonzero entries: v becomes a*v - b*w, with a
and b the entries of w and v at one position divided by their gcd, so v
is cleared there, and the result is divided by its content.

``column_reduce`` applies that step at each vector's lowest position
against the vectors it has kept, to a basis of their span keyed by lowest
position.  That one reduction gives a rank (``sparse_rank`` is the number
of vectors it keeps; ``rank`` hands it the nonzero rows of a matrix, since
the rank of a matrix is the rank of its rows), in the cochain complex
both the rank test of a differential and the basis of its image, and in
the rank path of ``cohomology`` every rank at once, from one stream that
reads and pops the kept vectors of a dict it passes in.

``echelon`` factors a matrix when more than its rank is needed, and is read
off the same reduction of its nonzero rows: each kept row is cleared at the
other pivots by the same step, made primitive, and scaled to the pivot
value c, the least positive integer that clears the denominators of the
reduced row echelon form (RREF).  Its result, c times the RREF and the
pivot columns, depends on the row space alone: not on the order or the
scale of the rows, nor on how they were reduced.  Null space (primitive
integer vectors), column space and solutions are read off it without
further elimination.

``IncrementalSpan`` keeps a ``Fraction`` reduction of its own; nothing in
the package calls it.
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


def _eliminate(v: Mapping[int, int], w: Mapping[int, int], at: int) -> dict[int, int]:
    """The one elimination step: a*v - b*w, where a and b are w[at] and
    v[at] divided by their gcd, so the result is 0 at ``at``, divided by its
    content.  Neither map is mutated."""
    a, b = w[at], v[at]
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    u = dict(v) if a == 1 else {i: a * x for i, x in v.items()}
    for i, y in w.items():
        z = u.pop(i, 0) - b * y
        if z:
            u[i] = z
    g = gcd(*u.values())
    return u if g < 2 else {i: x // g for i, x in u.items()}


def column_reduce(
    vectors: Iterable[Mapping[int, int]], kept: dict[int, Mapping[int, int]] | None = None,
) -> dict[int, Mapping[int, int]]:
    """A basis of the span of integer vectors given as {position: nonzero
    int} maps, keyed by lowest position: {lowest position: vector}.

    Column reduction (Zomorodian-Carlsson 2005): each vector is reduced
    against the kept vectors by its lowest position, by the step of
    :func:`_eliminate`.  A vector is kept when its lowest position is
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
            v = _eliminate(v, other, low)
    return kept


def sparse_rank(vectors: Iterable[Mapping[int, int]]) -> int:
    """Rank of integer vectors given as {position: nonzero int} maps: the
    number of vectors :func:`column_reduce` keeps."""
    return len(column_reduce(vectors))


def _sparse_rows(rows: Sequence[Row]) -> list[dict[int, int]]:
    """The nonzero rows of a matrix, integerised (see
    :func:`integerize_rows`), as {column: nonzero int} maps.  Zero rows are
    dropped first, so they are neither type-checked nor copied."""
    m = integerize_rows([row for row in rows if any(row)])
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def rank(rows: Sequence[Row]) -> int:
    """Rank of the matrix: the rank of its nonzero rows, as
    :func:`sparse_rank` vectors."""
    return sparse_rank(_sparse_rows(rows))


def echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[int]]:
    """Reduced echelon form of the integerised matrix: (rows, pivot columns).

    The rows are c times the reduced row echelon form (RREF), where c > 0 is
    the least integer that clears its denominators: every row carries the
    pivot value c, and each pivot column has one nonzero entry.  The pivot
    columns are the first linearly independent columns, in order.  Both
    depend on the row space alone.

    :func:`column_reduce` reduces the nonzero rows (:func:`_sparse_rows`)
    to one row per pivot, its lowest position.  From the last pivot down,
    each row is cleared at the later pivots it holds by the step of
    :func:`_eliminate`, against rows cleared already.  Those are zero at
    every other pivot, so no step refills one.  Each row is then made
    primitive, so that |its pivot| is the denominator of its RREF row, and
    c is the lcm of those.
    """
    kept = column_reduce(_sparse_rows(rows))
    pivots = sorted(kept)
    cleared: dict[int, Mapping[int, int]] = {}
    for p in reversed(pivots):
        v = kept[p]
        for q in sorted(v.keys() & cleared.keys()):
            v = _eliminate(v, cleared[q], q)
        g = gcd(*v.values())
        cleared[p] = v if g == 1 else {i: x // g for i, x in v.items()}
    c = lcm(*(v[p] for p, v in cleared.items()))
    ech = []
    for p in pivots:
        v = cleared[p]
        k = c // v[p]
        row = [0] * len(rows[0])
        for i, x in v.items():
            row[i] = k * x
        ech.append(row)
    return ech, pivots


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

    Every row of the form carries the same pivot value d > 0 (the c of
    :func:`echelon`), so d times the kernel vector is d at f and -row[f] at
    the pivot of each row."""
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
