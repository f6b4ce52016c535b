"""Degree-truncated cohomology of differential graded algebras.

The free algebra is infinite-dimensional, so every computation here is
truncated at an explicit maximal degree (default 24).  There are two paths,
and both pass the same validation gate and basis limit.  Both read the
monomials as packed int keys (the layout is described once, in the
:mod:`loopspace.gca.algebra` module docstring): the gate widens the
model's key layout to degree max_degree+1 before it makes its derivation
table, so the table the gate reads is the one both paths read after it.

Both paths build each d_d as sparse integer columns of L*d, where L is the
lcm of every coefficient denominator of the generator differentials, which
leaves every rank unchanged; L*d is held by the model, computed on first
use (see :meth:`DgaModel.integer_differentials`).  The columns come from
the model's integer :func:`derivation_table` (see
:meth:`DgaModel.integer_derivation`), made once per model and read first by
the validation gate (:func:`check_model`): one entry per generator with a
nonzero differential, so a monomial of the others gets an empty column, and
a term's sign is read off the odd generators of the monomial (see
:func:`leibniz`).

Betti numbers alone (:func:`cohomology` without representatives) come from
ranks: dim H^d = dim C^d - rank d_d - rank d_{d-1}.  The rank is the
number of columns a column reduction keeps (:func:`linalg.column_reduce`),
which reads their nonzero entries only, so no kernel, image or dense
matrix is ever formed.  The keys of degrees 0..max_degree+1 are read
from the tail table at once and indexed in one ascending {key: position}
map.  One lazy stream of columns, made by one Leibniz
pass that keys each image by position, feeds one reduction: the sources
degree by degree, each degree's last first.  A kept column of d_{d-1} with
lowest position p is a cocycle whose first monomial is the source at p, so
that source's column is a combination of the columns of its degree's later
sources, which the stream has reduced already.  The stream tests each
source's position once, as it reaches it: a kept position is popped (no
later column, all of a higher degree, reads it) and counted toward
rank d_{d-1}, and its source makes no column.  This is the clearing of
persistent homology (Chen-Kerber, "Persistent homology computation with a
twist", 2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014):
six_gen makes 2,535 Leibniz images of 4,537 sources at max degree 24 and
11,191 of 20,881 at 36, and ``cohomology(six_gen, 36)`` took 0.027 s
instead of 0.063 s (fresh model, best of 7, 2-core VM, CPython 3.11.7).
The dict the reduction keeps is the caller's, so it holds at most one
degree's kept columns and the next degree's, and rank d_max is what is
left in it at the end; keeping every kept column instead raised the
tracemalloc peak of that call from 4.6 to 6.8 MiB.  Reversing the row
keys instead of the source order (the textbook twist) was slower on the
rational Koszul models (k = 3: 307 to 375 us in a prototype), and
per-degree filtered source lists or an ``itertools.compress`` pipeline
per degree lost most of the gain, since the small models have many
degrees of a few monomials each.  The inert generators, closed and in no
generator differential, are split off first: with A the others and I
the inert ones, the model is the tensor
product of the dgas Lambda(A) and Lambda(I), the second with d = 0, so by
the Kunneth theorem over Q, which has no Tor term over a field
(Felix-Halperin-Thomas, "Rational Homotopy Theory", 2001), its cohomology
is H(Lambda(A)) (x) Lambda(I).  Only Lambda(A) is ranked, its
monomials enumerated over A alone but keyed in the model's own layout (see
:meth:`MonomialKeys.restricted`), where the gate's table, which has no
entry for an inert generator, reads them; its dimensions are multiplied
by the counted Poincare series of Lambda(I), whose monomials are never
enumerated.

The cochain complex (:func:`cochain_complex`: representatives, class
coordinates, ring verification) splits off no generator, since its
representatives are vectors over the bases of the whole model.  Like the
rank path it reads the keys of degrees 0..max_degree+1 from one table
extension and makes one Leibniz pass over them, each degree taking its
columns as the pass makes them, already positional; the bases are decoded
to exponent tuples once, for the :class:`DegreeData` of each degree.  It keeps each
d_d as those sparse integer columns of L*d_d and reduces each nonzero one once, by
:func:`linalg.column_reduce`, with the rows of degree d+1 taken in reverse
order.  That one reduction serves twice: d_d is
injective exactly when every column is kept, and the kept columns are a
reduced basis of the image in degree d+1 (L times the image of d, which
spans the same space).  The kernel has one primitive integer vector per
free column, nonzero there and zero at every other free column.  So the
image of d_{d-1} at the free columns of d_d is the image in kernel
coordinates, up to scaling; its lowest positions, counted from the last
free column, are the free columns it fills.  When d_d = 0 every column is
free, last first, which is the reversed row order, so the image basis is
already reduced there; otherwise it is restricted to the free columns and
reduced again.  It is stored as sparse rows.  The kernel vectors at the
other free columns are the first ones, left to right, that extend the
image span: the representatives, the same for identical inputs.  A kernel
vector depends on its own free column only, so it is built only at a
representative's column; the rest of the kernel, the image and the rank are
never stored.  A class query scales the element to integers, tests it by
applying the columns of L*d_d to its own terms (so it reads no elimination
product of d_d; where d_d = 0 every element passes, so the test is
skipped) and reduces its free entries against the sparse image rows; a
Fraction is formed only for the answer.  What a query reads in a degree
beyond the element (the free positions, the image pivots, the
representatives' own columns and their multipliers) is computed once per
complex, on the first query there.  The ring search
multiplies integer combinations of the representatives as integer
{monomial: int} maps and reads their classes the same way, with no
Fraction at all.

Each d_d is factored, by :func:`linalg.echelon`, only when its rank lies
strictly between 0 and dim C^d, and then only for its kernel.  A zero
d_d has every column free, with unit kernel vectors; an injective d_d has
every column a pivot column and no free column.  Both are exactly what the
factorisation returns on such input, so the data, and every output byte,
are the same as when every degree is factored.  In the pencil models with
dx = (p*u2 + q*v2)^a, CP^(a-1) and the Theorem 3 models every nonzero d_d
is injective and followed by d_{d+1} = 0, so nothing is factored and each
d_d is reduced once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Mapping, Sequence

from . import linalg
from .algebra import (
    AlgebraElement,
    Coeff,
    DerivationTable,
    DgaModel,
    GcaError,
    Monomial,
    UnknownGeneratorError,
    _DEGREE_MESSAGE,
    apply_derivation,
    exact_int,
    leibniz,
    multiply_terms,
    times_free_series,
)

DEFAULT_MAX_DEGREE = 24
DEFAULT_BASIS_LIMIT = 200_000
_MAX_DEGREE_MESSAGE = "max_degree must be >= 0 and an integer, got {value}"


class BasisLimitError(GcaError):
    """A monomial basis of the request exceeds ``DEFAULT_BASIS_LIMIT``."""

    def __init__(self, degree: int, size: int, limit: int):
        super().__init__(
            f"monomial basis at degree {degree} has {size} elements, exceeding the limit {limit}"
        )
        self.degree = degree
        self.size = size
        self.limit = limit


@dataclass(frozen=True)
class BettiTable:
    """Cohomology dimensions for degrees 0..max_degree."""

    max_degree: int
    dims: tuple[int, ...]
    representatives: tuple[tuple[AlgebraElement, ...], ...] | None = None

    def __post_init__(self):
        exact_int(self.max_degree, 0, _MAX_DEGREE_MESSAGE)
        if len(self.dims) != self.max_degree + 1:
            raise GcaError(f"expected {self.max_degree + 1} dimensions, got {len(self.dims)}")
        for d in self.dims:
            exact_int(d, 0, "dimensions must be non-negative integers")
        if self.representatives is not None:
            if len(self.representatives) != self.max_degree + 1:
                raise GcaError("one representative tuple per degree is required")
            for d, (n, reps) in enumerate(zip(self.dims, self.representatives)):
                if len(reps) != n:
                    raise GcaError(f"degree {d}: {len(reps)} representatives for dimension {n}")

    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "BettiTable":
        return cls(len(dims) - 1, tuple(dims))

    def dim(self, degree: int) -> int:
        return self._dim(exact_int(degree, -inf, _DEGREE_MESSAGE))

    def _dim(self, degree: int) -> int:
        """dims[degree], or 0 outside 0..max_degree, for a degree the caller
        vouches is an int (the Gysin loops read every degree through it)."""
        return self.dims[degree] if 0 <= degree <= self.max_degree else 0


@dataclass(frozen=True)
class DegreeData:
    """Cochain data of one degree, as integer coordinate vectors over the
    basis: the representatives (primitive kernel vectors, each nonzero at
    exactly one free column, its own), the outgoing differential L*d_d as
    sparse columns (one {target basis index: nonzero value} map per basis
    monomial), its free columns (last first), and the incoming image at
    those columns, reduced: sparse {position in ``free``: int} rows sorted
    by pivot, each row's lowest position its pivot, with the pivots.  The
    pivots are the free columns the image fills; they are fixed by the
    span, so they are those of any reduction of the image.  ``index`` maps
    each basis monomial to its position.  This is all a class query reads:
    no elimination product of d_d, the kernel outside the representatives
    and the incoming image itself are not kept."""

    degree: int
    basis: tuple[Monomial, ...]
    reps: tuple[tuple[int, ...], ...]
    out_columns: tuple[Mapping[int, int], ...]
    free: tuple[int, ...]
    image_at_free: tuple[Mapping[int, int], ...]
    image_pivots: tuple[int, ...]
    index: Mapping[Monomial, int] = field(compare=False)  # follows from the basis

    def terms(self, vec: Sequence[int]) -> dict[Monomial, int]:
        """The {monomial: coefficient} map of a vector over the basis."""
        return {m: c for m, c in zip(self.basis, vec) if c}


class ComplexData:
    """Truncated cochain complex of a model, one :class:`DegreeData` per degree."""

    def __init__(self, model: DgaModel, max_degree: int, degrees: tuple[DegreeData, ...]):
        self.model = model
        self.max_degree = max_degree
        self.degrees = degrees
        self._read_offs: dict[int, tuple] = {}  # degree: what _class_numerators reads there

    def betti(self, with_representatives: bool = False) -> BettiTable:
        dims = tuple(len(d.reps) for d in self.degrees)
        reps = None
        if with_representatives:
            reps = tuple(
                tuple(self.model.from_coords(d.basis, vec) for vec in d.reps) for d in self.degrees
            )
        return BettiTable(self.max_degree, dims, reps)

    def _degree_data(self, degree: int) -> DegreeData:
        """The cochain data of one degree within 0..max_degree."""
        if degree > self.max_degree:
            raise GcaError(f"degree {degree} exceeds the truncation {self.max_degree}")
        if degree < 0:
            raise GcaError(f"degree must be >= 0, got {degree}")
        return self.degrees[degree]

    def representative_elements(self, degree: int) -> list[AlgebraElement]:
        d = self._degree_data(exact_int(degree, -inf, _DEGREE_MESSAGE))
        return [self.model.from_coords(d.basis, vec) for vec in d.reps]

    def is_exact(self, element: AlgebraElement, degree: int) -> bool:
        """Whether a cocycle of the given degree is a coboundary."""
        coords = self.class_coordinates(element, degree)
        return not any(coords)

    def class_coordinates(self, element: AlgebraElement, degree: int) -> list[Fraction]:
        """Coordinates of a cocycle's class in the representative basis.

        The element is scaled to integers once, by the lcm of its
        denominators, and its class is read by :meth:`_class_numerators`;
        a Fraction is formed only for each returned coordinate."""
        degree = exact_int(degree, -inf, _DEGREE_MESSAGE)
        self._degree_data(degree)
        self._check_element(element, degree)
        terms, scale = integer_terms(element.terms)
        numerators, den = self._class_numerators(terms, degree)
        return [Fraction(n, den * scale) for n in numerators]

    def _check_element(self, element: AlgebraElement, degree: int) -> None:
        """The gate of every class query: an element of this model (else an
        :class:`UnknownGeneratorError`), zero or homogeneous of the degree.
        The truncation is not checked here."""
        if element.model is not self.model and element.model != self.model:
            raise UnknownGeneratorError("element does not belong to the model of the complex")
        if not element.is_zero and element.homogeneous_degree() != degree:
            raise GcaError("element is not homogeneous of the requested degree")

    def _class_numerators(self, terms: Mapping[Monomial, int], degree: int) -> tuple[list[int], int]:
        """The class of an integer cocycle, given as {monomial: int} over the
        basis of the degree, as (numerators, den): its coordinates in the
        representative basis are numerator / den.  The caller vouches for
        the model and the degree of the terms.

        The terms are a cocycle exactly when the columns of L*d_d at their
        own positions sum to zero.  Their entries at the free columns are
        reduced against the sparse image rows, ascending by pivot: where the
        entry t at a row's pivot is nonzero, the entries become a*x - b*row,
        with a and b the row's pivot value and t divided by their gcd, and
        the scale s accumulates the factors a.  A row holds nothing below its
        pivot, so what is left is zero at every pivot: s times the class, at
        the representatives' own free columns, each scaled by that
        representative's entry there.  The element is exact exactly when
        every numerator is 0, and the rank of numerator vectors is the rank
        of their classes.

        The constants of the degree (see :func:`_read_off`) are computed on
        its first query and kept by the complex: the free entries are taken
        from the terms' own support through a {free column: position} map,
        the rows come with their pivot values, the answer is scaled by fixed
        multipliers, and the cocycle test is skipped where every outgoing
        column is empty (d_d = 0), since the boundary sum is then zero."""
        read = self._read_offs.get(degree)
        if read is None:
            read = self._read_offs[degree] = _read_off(self._degree_data(degree))
        index, out_columns, position, rows, own, multipliers, common = read
        if not position:
            if not terms:
                return [], 1
            raise GcaError("nonzero element in a degree with trivial cocycle space")
        if out_columns:
            boundary: dict[int, int] = {}
            for m, c in terms.items():
                for i, v in out_columns[index[m]].items():
                    boundary[i] = boundary.get(i, 0) + c * v
            if any(boundary.values()):
                raise GcaError(f"element of degree {degree} is not a cocycle class")
        left = {p: c for m, c in terms.items() if (p := position.get(index[m])) is not None}
        scale = 1
        for p, a, row in rows:
            if b := left.get(p):
                g = gcd(a, b)
                if g != 1:
                    a, b = a // g, b // g
                if a != 1:
                    left = {i: a * v for i, v in left.items()}
                    scale *= a
                for i, y in row.items():
                    z = left.pop(i, 0) - b * y
                    if z:
                        left[i] = z
        return [left.get(i, 0) * k for i, k in zip(own, multipliers)], scale * common


def _read_off(data: DegreeData) -> tuple:
    """What :meth:`ComplexData._class_numerators` reads in one degree, made
    on the first query there: the basis index; the outgoing columns, or ()
    when all are empty (d_d = 0, so every element is a cocycle); the
    {free column: position in ``free``} map; the image rows as (pivot,
    pivot value, row), ascending by pivot; and the representatives' own
    positions in ``free`` (ascending by column, the positions no pivot
    fills) with the multipliers common // entry and common, where entry is
    a representative's value at its own column and common their lcm."""
    free, filled = data.free, set(data.image_pivots)
    own = tuple(p for p in range(len(free) - 1, -1, -1) if p not in filled)
    entries = [rep[free[p]] for rep, p in zip(data.reps, own)]
    common = lcm(*entries)
    return (
        data.index, data.out_columns if any(data.out_columns) else (), {f: p for p, f in enumerate(free)},
        tuple((p, row[p], row) for p, row in zip(data.image_pivots, data.image_at_free)),
        own, tuple(common // e for e in entries), common,
    )


def _sparse_columns(
    model: DgaModel, degree: int, table: DerivationTable, index: Mapping[int, int]
) -> list[dict[int, Coeff]]:
    """The matrix of d from degree to degree+1 as sparse columns, one
    {target basis index: nonzero coefficient} map per source monomial, by
    the Leibniz rule of the :func:`derivation_table` ``table`` (see
    :func:`leibniz`), whose layout must hold the images of the sources: a
    monomial with no generator of nonzero differential gets an empty
    column.  ``index`` maps the key of each monomial of the basis of
    degree+1, in the table's layout, to its position."""
    keys = table[0]
    basis = keys.bases(degree)[degree]
    columns = []
    try:
        for column in leibniz(table, basis, index):
            columns.append(column)
    except KeyError:  # the image of the next monomial leaves degree+1
        raise GcaError("differential does not raise degree by one on "
                       + model.format_monomial(keys.unpack(basis[len(columns)]))) from None
    return columns


def differential_matrix(
    model: DgaModel, degree: int, columns: Sequence[Mapping[int, int]] | None = None
) -> list[list[int]]:
    """Dense integer matrix of L*d from degree to degree+1 over the monomial
    bases (rows indexed by the target basis, columns by the source basis),
    from the integer derivation table the model holds (see
    :meth:`DgaModel.integer_derivation`), or from the sparse ``columns`` of
    :func:`_sparse_columns` when the caller has built them.  The rows are
    counted on the keys of degree+1; a table is made before its layout's
    target keys are read, since making it may widen the layout."""
    if type(degree) is not int:  # cochain_complex passes an int
        degree = exact_int(degree, -inf, _DEGREE_MESSAGE)
    if degree < 0:
        raise GcaError(f"degree must be >= 0, got {degree}")
    if columns is None:
        table = model.integer_derivation(degree + model._reach())
        target = table[0].bases(degree + 1)[degree + 1]
        columns = _sparse_columns(model, degree, table, dict(zip(target, itertools.count())))
    else:
        target = model.monomial_keys(degree + 1).bases(degree + 1)[degree + 1]
    rows = [[0] * len(columns) for _ in target]
    for j, column in enumerate(columns):
        for i, c in column.items():
            rows[i][j] = c
    return rows


def integer_terms(terms: Mapping[Monomial, Fraction]) -> tuple[dict[Monomial, int], int]:
    """(scale * terms, scale) for the lcm ``scale`` of the terms' denominators."""
    scale = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}, scale


def _check_complex_input(model: DgaModel, max_degree: int) -> None:
    """The gate shared by every cochain computation: a valid model and
    bases of at most ``DEFAULT_BASIS_LIMIT`` monomials (read at each call,
    so a test may patch the constant; it is no keyword of any function)
    in degrees 0..max_degree+1, counted before any is enumerated (see
    :meth:`DgaModel.basis_sizes`).  The model's key layout is widened to
    degree max_degree+1 first, so that the gate's derivation table is the
    one the cochain computation reads."""
    exact_int(max_degree, 0, _MAX_DEGREE_MESSAGE)
    model.monomial_keys(max_degree + 1)
    report = check_model(model)
    if not report.ok:
        raise GcaError("model fails validation: " + "; ".join(report.failure_messages()))
    for d, size in enumerate(model.basis_sizes(max_degree + 1)):
        if size > DEFAULT_BASIS_LIMIT:
            raise BasisLimitError(d, size, DEFAULT_BASIS_LIMIT)


def cochain_complex(model: DgaModel, max_degree: int) -> ComplexData:
    """The cochain data of degrees 0..max_degree (see :class:`DegreeData`
    and the module docstring).

    The bases of degrees 0..max_degree+1 come from one
    :meth:`DgaModel.bases` call and the columns from one :func:`leibniz`
    pass over the keys of every source, with one {key: position in its own
    degree's basis} map: each degree takes its columns by
    ``itertools.islice``, already positional, with no per-degree basis or
    column build.  Each column of a nonzero d_d is keyed by reversed row
    index (the highest row of degree d+1 is position 0) for
    :func:`linalg.column_reduce`.  With no incoming image every free
    column holds a representative, ``free[::-1]``, and nothing is sorted."""
    _check_complex_input(model, max_degree)
    bases = model.bases(max_degree + 1)
    table = model.integer_derivation(max_degree + 1)
    keys = table[0].bases(max_degree + 1)
    # a monomial has one degree, and the gate has checked that d raises it by one
    position = {key: i for packed in keys[1:] for i, key in enumerate(packed)}
    images = leibniz(table, itertools.chain.from_iterable(keys[:-1]), position)
    degrees = []
    image: Mapping[int, Mapping[int, int]] = {}  # the reduced image of L*d_{d-1}, keyed by lowest position
    for d, basis in enumerate(bases[:-1]):
        columns = list(itertools.islice(images, len(basis)))
        n, top = len(basis), len(bases[d + 1]) - 1
        if not any(columns):  # d_d = 0: every column is free
            ech, pivots, free, kept = [], [], tuple(range(n - 1, -1, -1)), {}
        else:
            kept = linalg.column_reduce([{top - i: v for i, v in column.items()} for column in columns])
            if len(kept) == n:  # d_d is injective: no column is free
                ech, pivots, free = [], list(range(n)), ()
            else:
                ech, pivots = linalg.echelon(differential_matrix(model, d, columns))
                free = tuple(sorted(set(range(n)).difference(pivots), reverse=True))
        # a kernel vector depends on its own free column only, so it is
        # built only at the representatives' columns, ascending
        if not image or not free:  # nothing to fill, or nowhere
            rows, image_pivots, own = (), (), free[::-1]
        else:
            if len(free) == n:  # position p of free is row n-1-p: the image's own keys
                at_free = image
            else:
                at_free = linalg.column_reduce(
                    [{p: v[n - 1 - f] for p, f in enumerate(free) if n - 1 - f in v} for v in image.values()])
            image_pivots = tuple(sorted(at_free))
            rows = tuple(map(at_free.__getitem__, image_pivots))
            own = [free[p] for p in range(len(free) - 1, -1, -1) if p not in at_free]
        degrees.append(DegreeData(
            d, basis, tuple(linalg.kernel_from_echelon(ech, pivots, n, own)), tuple(columns),
            free, rows, image_pivots, dict(zip(basis, range(n))),
        ))
        image = kept
    return ComplexData(model, max_degree, tuple(degrees))


def cohomology(
    model: DgaModel,
    max_degree: int = DEFAULT_MAX_DEGREE,
    *,
    with_representatives: bool = False,
) -> BettiTable:
    """Betti table of the model up to ``max_degree``.

    dims[d] = dim C^d - rank d_d - rank d_{d-1}, by exact rational rank
    over the monomial basis of each degree.  Requires a model that passes
    :func:`check_model`, and counts its bases against the limit, as
    :func:`cochain_complex` does.  Without representatives the dimensions
    come from ranks alone, by the rank path of the module docstring: the
    model on the generators that are not inert is ranked in one
    :func:`leibniz` pass and one column reduction into a dict held here,
    where rank d_{d-1} is the number of keys held when degree d starts and
    rank d_max the number left at the end, and its dimensions h, convolved
    with the monomial counts s of the inert generators, give
    dims[d] = sum_k h[k] * s[d - k] (see :func:`times_free_series`).  With
    representatives the table is read off :func:`cochain_complex`, which
    splits nothing.
    """
    if with_representatives:
        return cochain_complex(model, max_degree).betti(with_representatives=True)
    _check_complex_input(model, max_degree)
    diffs = model.integer_differentials()
    touched = {k for dg in diffs for n in dg for k, e in enumerate(n) if e}
    inert = [i for i, dg in enumerate(diffs) if not dg and i not in touched]
    table = model.integer_derivation(max_degree + 1)  # the gate's
    keys = table[0]
    if inert:  # an inert generator has no entry in the table
        keys = keys.restricted([i for i in range(model.ngens) if i not in inert])
    bases = keys.bases(max_degree + 1)
    index = dict(zip(itertools.chain.from_iterable(bases), itertools.count()))
    kept: dict[int, Mapping[int, int]] = {}
    ranks = []  # ranks[d] = rank d_{d-1}

    def sources():
        # Each degree's sources, last first, each tested when leibniz asks
        # for it, after the previous column is reduced.  When degree d
        # starts the dict holds exactly the keys of degree d, the kept
        # columns of d_{d-1}; a source at such a key is cleared and the key
        # popped.  The refusal branch of leibniz, which reads every source
        # before the first image and so would test each against a dict not
        # yet filled, is never taken: a refused generator has a dg term of
        # its own parity, so of a degree other than its own plus one, and
        # the gate's degree-raising check has refused the model.
        start = 0
        for source in bases[:-1]:
            ranks.append(len(kept))
            for i in range(len(source) - 1, -1, -1):
                if kept.pop(start + i, None) is None:
                    yield source[i]
            start += len(source)

    linalg.column_reduce(leibniz(table, sources(), index), kept)
    ranks.append(len(kept))
    dims = [len(source) - rank - previous for source, previous, rank in zip(bases, ranks, ranks[1:])]
    if inert:
        dims = times_free_series(dims, (model.generators[i].degree for i in inert))
    return BettiTable(max_degree, tuple(dims))


# ---------------------------------------------------------------------------
# model validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ModelReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failure_messages(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.checks if not c.passed]

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f"  ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"{status}  {c.name}{suffix}")
        return "\n".join(lines)


def check_model(model: DgaModel) -> ModelReport:
    """Validate the differential: degree-raising, d^2 = 0, minimality, and
    absence of silently vanishing (degenerate) differential declarations.

    Every check reads the integer differentials L*dg (see
    :meth:`DgaModel.integer_differentials`), which have the monomials of
    the dg, and no :class:`Fraction`.  d(L*dg) = L^2 * d(dg) is computed by
    :func:`apply_derivation` from the model's integer derivation table
    (:meth:`DgaModel.integer_derivation`), which both cochain paths read
    after the gate.  The table refuses a generator whose differential keeps
    its parity; a d(dg) that holds one fails the d-squared check as not
    checked, and says why."""
    raising_bad = []
    square_bad = []
    minimality_bad = []
    top = reach = 0  # the highest degree of a dg monomial, and the most d raises one
    diffs = tuple(zip(model.generators, model.integer_differentials()))
    for g, dg in diffs:
        if dg:
            degrees = {model.monomial_degree(mon) for mon in dg}
            highest = max(degrees)
            top, reach = max(top, highest), max(reach, highest - g.degree)
            if len(degrees) > 1:
                raising_bad.append(f"d{g.name} is not homogeneous")
            elif (degree := degrees.pop()) != g.degree + 1:
                raising_bad.append(f"d{g.name} has degree {degree}, expected {g.degree + 1}")
            for mon in dg:
                high = sorted(h.name for h, e in zip(model.generators, mon) if e and h.degree >= g.degree)
                if high:
                    minimality_bad.append(f"d{g.name} uses {', '.join(high)} of degree >= {g.degree}")
                    break
    table = model.integer_derivation(top + reach)  # d(dg) has degree at most top + reach
    for g, dg in diffs:
        if not dg:
            continue
        try:
            if apply_derivation(table, dg):
                square_bad.append(f"d(d{g.name}) != 0")
        except GcaError as err:
            square_bad.append(f"d(d{g.name}) not checked: {err}")
    collapsed = sorted(model.collapsed)
    degenerate = ""
    if collapsed:
        degenerate = (
            f"degenerate input: the declared differential of {', '.join(collapsed)} "
            "vanishes identically"
        )
    checks = (
        CheckResult("degree-raising", not raising_bad, "; ".join(raising_bad)),
        CheckResult("d-squared", not square_bad, "; ".join(square_bad)),
        CheckResult("minimality", not minimality_bad, "; ".join(minimality_bad)),
        CheckResult("odd-square-exclusion", not collapsed, degenerate),
    )
    return ModelReport(checks)


# ---------------------------------------------------------------------------
# ring presentations


@dataclass(frozen=True)
class RingPresentation:
    """The truncated polynomial ring Q[w, z] / (w^nilpotency)."""

    deg_w: int
    deg_z: int
    nilpotency: int

    def __post_init__(self):
        exact_int(self.deg_w, 1, "generator degrees must be integers >= 1")
        exact_int(self.deg_z, 1, "generator degrees must be integers >= 1")
        exact_int(self.nilpotency, 1, "nilpotency exponent must be an integer >= 1")


def _quotient_monomials(presentation: RingPresentation, max_degree: int):
    """(degree, i, j) for every monomial w^i z^j of Q[w,z]/(w^a) up to
    ``max_degree``, honouring skew rules (an odd-degree generator has
    exponent at most 1); i ascending, then j ascending."""
    deg_w, deg_z = presentation.deg_w, presentation.deg_z
    w_cap = presentation.nilpotency - 1
    if deg_w % 2:
        w_cap = min(w_cap, 1)
    for i in range(min(w_cap, max_degree // deg_w) + 1):
        z_cap = (max_degree - i * deg_w) // deg_z
        if deg_z % 2:
            z_cap = min(z_cap, 1)
        for j in range(z_cap + 1):
            yield i * deg_w + j * deg_z, i, j


def quotient_ring_dims(presentation: RingPresentation, max_degree: int) -> list[int]:
    """Monomial counts of Q[w,z]/(w^a) per degree, honouring skew rules
    (an odd-degree generator has exponent at most 1)."""
    exact_int(max_degree, 0, _MAX_DEGREE_MESSAGE)
    dims = [0] * (max_degree + 1)
    for d, _, _ in _quotient_monomials(presentation, max_degree):
        dims[d] += 1
    return dims


@dataclass(frozen=True)
class RingReport:
    passed: bool
    presentation: RingPresentation
    max_degree: int
    expected_dims: tuple[int, ...]
    actual_dims: tuple[int, ...]
    first_mismatch: int | None
    w: AlgebraElement | None
    z: AlgebraElement | None
    messages: tuple[str, ...]

    def format(self) -> str:
        head = "pass" if self.passed else "FAIL"
        lines = [f"{head}  H* = Q[w,z]/(w^{self.presentation.nilpotency}), "
                 f"deg w = {self.presentation.deg_w}, deg z = {self.presentation.deg_z}, "
                 f"up to degree {self.max_degree}"]
        if self.w is not None:
            lines.append(f"w = {self.w.model.format_element(self.w)}")
        if self.z is not None:
            lines.append(f"z = {self.z.model.format_element(self.z)}")
        lines.extend(self.messages)
        return "\n".join(lines)


@functools.cache
def _candidate_coefficients(dim: int) -> tuple[tuple[int, ...], ...]:
    """Small integer coefficient vectors, scaling-normalised (first nonzero
    positive), in a deterministic order that tries basis vectors first.  A
    pure table, built and sorted once per dimension (at most
    ``_CANDIDATE_DIM_LIMIT``)."""
    vectors = []
    for vec in itertools.product(range(-2, 3), repeat=dim):
        nz = [c for c in vec if c]
        if not nz or nz[0] < 0:
            continue
        vectors.append(vec)
    vectors.sort(key=lambda v: (sum(abs(c) for c in v), tuple(-c for c in v)))
    return tuple(vectors)


def verify_ring_presentation(model: DgaModel, presentation: RingPresentation, max_degree: int) -> RingReport:
    """Confirm that the model's cohomology ring is Q[w,z]/(w^a) up to the
    truncation degree.

    Three checks: (i) Betti numbers equal the monomial counts of the
    presented quotient; (ii) some degree-deg_w class w has w^a exact while
    w^(a-1) is not (for a = 1 only w = 0); (iii) for some degree-deg_z class z, the products
    w^i z^j are linearly independent in cohomology.  Candidates for w and z
    are searched over small integer combinations of the computed
    representatives, which is exhaustive up to scaling for the coefficient
    range -2..2.  The candidates, their powers and their products are
    integer {monomial: int} maps (see :func:`multiply_terms`), whose classes
    are read in integers; only the reported w and z become elements.
    """
    expected = tuple(quotient_ring_dims(presentation, max_degree))  # gates max_degree first
    a = presentation.nilpotency
    # w^a is read in degree a*deg_w and the candidates z in deg_z, either of
    # which may lie above the truncation
    data = cochain_complex(model, max(max_degree, a * presentation.deg_w, presentation.deg_z))
    actual = tuple(len(d.reps) for d in data.degrees[: max_degree + 1])

    messages: list[str] = []
    first_mismatch = None
    for d, (e, got) in enumerate(zip(expected, actual)):
        if e != got:
            first_mismatch = d
            messages.append(f"degree {d}: dimension {got}, presentation predicts {e}")
            break
    if first_mismatch is not None:
        return RingReport(False, presentation, max_degree, expected, actual,
                          first_mismatch, None, None, tuple(messages))

    found = _find_w(data, presentation)
    if found is None:
        messages.append(f"no degree-{presentation.deg_w} class w with w^{a} exact "
                        f"and w^{a - 1} non-exact was found")
        return RingReport(False, presentation, max_degree, expected, actual,
                          None, None, None, tuple(messages))
    w, w_powers = found
    w_element = model.from_coords(data.degrees[presentation.deg_w].basis, w)

    z = _find_z(data, presentation, w_powers, max_degree)
    if z is None:
        messages.append(f"no degree-{presentation.deg_z} class z with independent "
                        f"products w^i z^j was found")
        return RingReport(False, presentation, max_degree, expected, actual,
                          None, w_element, None, tuple(messages))

    z_element = model.from_coords(data.degrees[presentation.deg_z].basis, z)
    return RingReport(True, presentation, max_degree, expected, actual, None, w_element, z_element, ())


_CANDIDATE_DIM_LIMIT = 4


def _class_candidates(data: ComplexData, degree: int):
    """Integer vectors over the basis of the degree: the combinations
    sum c_k * rep_k of the representatives, one per coefficient vector of
    :func:`_candidate_coefficients`, in its order."""
    reps = data._degree_data(degree).reps
    if not reps:
        return
    if len(reps) > _CANDIDATE_DIM_LIMIT:
        raise GcaError(
            f"representative space at degree {degree} has dimension {len(reps)}; "
            f"the candidate search handles at most {_CANDIDATE_DIM_LIMIT}"
        )
    positions = range(len(reps[0]))
    for coeffs in _candidate_coefficients(len(reps)):
        yield tuple(sum(c * rep[i] for c, rep in zip(coeffs, reps)) for i in positions)


def _exact(data: ComplexData, terms: Mapping[Monomial, int], degree: int) -> bool:
    return not any(data._class_numerators(terms, degree)[0])


def _find_w(
    data: ComplexData, presentation: RingPresentation
) -> tuple[tuple[int, ...], list[dict[Monomial, int]]] | None:
    """The first candidate w with w^a exact and w^(a-1) not, with its
    powers w^0..w^(a-1), which hold every power the products w^i z^j use."""
    a = presentation.nilpotency
    deg = presentation.deg_w
    degree_data = data._degree_data(deg)
    if a == 1:  # only w = 0 has w^1 exact, and w^0 = 1 is never exact
        return (0,) * len(degree_data.basis), _powers(data.model, {}, 0)
    for candidate in _class_candidates(data, deg):
        x = degree_data.terms(candidate)
        powers = _powers(data.model, x, a - 1)
        if not _exact(data, multiply_terms(data.model, powers[-1], x), a * deg):
            continue
        if _exact(data, powers[-1], (a - 1) * deg):
            continue
        return candidate, powers
    return None


def _find_z(
    data: ComplexData,
    presentation: RingPresentation,
    w_powers: Sequence[Mapping[Monomial, int]],
    max_degree: int,
) -> tuple[int, ...] | None:
    """The first candidate z whose products with the powers of w, w^i z^j
    for every monomial of the presentation, are independent (i < a, so
    ``w_powers`` from :func:`_find_w` holds each w^i)."""
    monomials = list(_quotient_monomials(presentation, max_degree))
    degree_data = data._degree_data(presentation.deg_z)
    for candidate in _class_candidates(data, presentation.deg_z):
        if _products_independent(data, monomials, w_powers, degree_data.terms(candidate)):
            return candidate
    return None


def _products_independent(
    data: ComplexData,
    monomials: Sequence[tuple[int, int, int]],
    w_powers: Sequence[Mapping[Monomial, int]],
    z: Mapping[Monomial, int],
) -> bool:
    """Whether the classes of the products w^i z^j, one per (degree, i, j)
    of ``monomials``, are linearly independent in every degree."""
    z_powers = _powers(data.model, z, max((j for _, _, j in monomials), default=0))
    products: dict[int, list[dict[Monomial, int]]] = {}
    for d, i, j in monomials:
        products.setdefault(d, []).append(multiply_terms(data.model, w_powers[i], z_powers[j]))
    for d in sorted(products):
        rows = [data._class_numerators(p, d)[0] for p in products[d]]
        if linalg.rank(rows) < len(rows):
            return False
    return True


def _powers(model: DgaModel, x: Mapping[Monomial, int], top: int) -> list[dict[Monomial, int]]:
    """x^0, x^1, ..., x^top, each one product from the one before."""
    powers = [{(0,) * model.ngens: 1}]
    for _ in range(top):
        powers.append(multiply_terms(model, powers[-1], x))
    return powers
