"""Free graded skew-commutative algebras over the rationals.

A :class:`DgaModel` is a free graded-commutative algebra on finitely many
homogeneous generators together with a degree-raising differential.  All
coefficients are exact :class:`fractions.Fraction` values; no floating point
enters any computation.

Monomials are plain exponent tuples over the generators in canonical
order: generators are ordered by (degree, declaration order) and products are
normalised to that order, accumulating Koszul signs.  A generator of odd
degree squares to zero, so its exponent in any stored monomial is 0 or 1.

Inside the engine a monomial is one packed int, its key (see
:class:`MonomialKeys`; the packed exponent vectors of Monagan-Pearce,
CASC 2007).  Generator i owns a bit field of the key, generator 0's field
the most significant: an odd generator's field is 1 bit wide, and an even
generator's of degree g is (top // g).bit_length() bits wide, where top is
the highest degree the layout must hold.  No exponent of a monomial of
degree at most top overflows its field, so the key is the sum of
exponent << shift over the fields, int order is lexicographic exponent
order (the descending basis order, every position and every
representative are those of the exponent tuples), a monomial times a
generator step is one int add, and key & odd_mask is the set of odd
generators the monomial holds.  A layout holds every degree up to its
capacity, the highest top that gives the same widths; a model widens its
layout, in one assignment, when asked for more (see
:meth:`DgaModel.monomial_keys`), and a key is only ever read in the
layout that made it: the key table and the derivation table belong to
one layout.  The monomials in some of the generators alone can be keyed in
a model's layout (:meth:`MonomialKeys.restricted`), where that layout's
derivation table reads them.  Public values stay tuples:
:meth:`DgaModel.basis` and :meth:`DgaModel.bases` decode the keys of the
key table on each call, which is the model's only basis store, and
:class:`AlgebraElement` terms are keyed by tuple.

A layout holds one key table: the keys of degrees 0..t, one tuple per
degree.  It is built whole, by one bottom-up pass over the generators from
the last to the first: the tails of generators i onward of degree d are
those of degree d - g with one more factor of generator i (of degree g),
taken from the tails of generators i onward when i is even and from those
of generators i+1 onward when it is odd, followed by the tails of
generators i+1 onward of degree d.  The tails of generators i onward live
only inside that pass, and those of generators 0 onward are the table; a
degree with nothing to prefix shares the tuple of the tails after, so an
empty degree costs one lookup.  A request beyond t builds the table again,
to the degree asked for, and publishes it in one assignment, so a
concurrent reader sees either the old table or the new one, never a
half-built one.

The differential acts on keys through a derivation table (see
:func:`derivation_table`), made from the generator differentials for one
layout: one entry per generator with a nonzero differential, holding for
each monomial of that differential the signed packed step it adds and two
masks over the odd bits of the key, one for the sign and one for the odd
squares that kill the term.  :func:`leibniz` reads the table for a run of
keys, making each image as it is consumed (keyed by key, or by position as
a sparse column), and :func:`apply_derivation` for the terms of a
{monomial: coefficient} map; it is the one implementation of the Leibniz
rule.  A model keeps one table, for its current layout:
:meth:`DgaModel.integer_derivation`, of L times its differentials (see
:meth:`DgaModel.integer_differentials`), which the validation gate, the
cochain computations and :func:`apply_differential` read; the last divides
each coefficient of its image by L.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from operator import add, and_, attrgetter, lshift, mul
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar, Union


class GcaError(ValueError):
    """Invalid input: to the algebra, the cohomology and ring searches, the
    space-form tables and the Bott index functions and certificates."""


def exact_rational(value, what: str) -> Fraction:
    """``value`` as an exact rational: a Fraction as it is, an int that is
    not a bool, or a 'p/q' string; a float, a bool, a Decimal, a string
    that is no number or a zero denominator raises :class:`GcaError`, whose
    text starts with ``what``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise GcaError(f"{what} must be exact (int, Fraction or 'p/q' string), got {value!r}")


def exact_int(value, minimum: float, message: str, *, name: str | None = None) -> int:
    """``value`` as a plain int: an int or an int subclass that is not a
    bool, at least ``minimum`` (``-math.inf`` for no bound).  Anything else
    raises :class:`GcaError` with ``message.format(value=value, name=name)``,
    formatted only then."""
    if type(value) is int:  # the common case, tested first
        if value >= minimum:
            return value
    elif isinstance(value, int) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise GcaError(message.format(value=value, name=name))


_DEGREE_MESSAGE = "degree must be an integer, got {value!r}"


class UnknownGeneratorError(GcaError):
    """An operand mentions a generator the model does not declare."""


class MixedDegreeError(GcaError):
    """A homogeneous-degree query was made on a mixed-degree element."""


CoeffLike = Union[int, str, Fraction]
ExponentsLike = Union[Mapping[str, int], Iterable[tuple[str, int]]]
#: Raw polynomial: list of (coefficient, exponent map) pairs, e.g.
#: ``[(1, {"u2": 2})]`` for u2^2.  Used to declare differentials before the
#: model exists.
RawPoly = Iterable[tuple[CoeffLike, ExponentsLike]]
#: Exponent vector over a model's generators, in canonical order, e.g.
#: ``(2, 0, 1)`` for u2^2*u3 over generators (u2, v2, u3).
Monomial = tuple[int, ...]
#: Coefficient type of :func:`multiply_terms` and :func:`apply_derivation`:
#: Fraction, or int for a scaled copy.
Coeff = TypeVar("Coeff", int, Fraction)


@dataclass(frozen=True, slots=True)
class Generator:
    """A homogeneous algebra generator; degree must be >= 1."""

    name: str
    degree: int

    def __post_init__(self):
        if type(self.name) is str and self.name and type(self.degree) is int and self.degree >= 1:
            return  # the common case, tested first
        if not isinstance(self.name, str) or not self.name:
            raise GcaError(f"generator name must be a non-empty string, got {self.name!r}")
        exact_int(self.degree, 1, "generator {name!r} must have integer degree >= 1, got {value!r}",
                  name=self.name)


def _as_generator(g) -> Generator:
    """A :class:`Generator` as it is, or one made from a (name, degree) pair."""
    if isinstance(g, Generator):
        return g
    try:
        name, degree = g
    except (TypeError, ValueError):
        raise GcaError(f"generator must be a Generator or a (name, degree) pair, got {g!r}") from None
    return Generator(name, degree)


_DEGREE = attrgetter("degree")


class DgaModel:
    """A free graded skew-commutative algebra with a differential.

    ``generators`` may be :class:`Generator` instances or ``(name, degree)``
    pairs; they are stored stably sorted by degree, which fixes the canonical
    monomial order.  ``differentials`` maps generator names to raw
    polynomials (see :data:`RawPoly`); omitted generators get differential 0.

    Construction is permissive about the *calculus*: differentials that fail
    degree-raising, minimality or d^2 = 0 are representable and are reported
    by :func:`loopspace.gca.cohomology.check_model` rather than rejected
    here.  Structural problems (duplicate names, unknown generators, bad
    coefficients, generators, differentials, terms or exponents of the wrong
    shape) raise :class:`GcaError`.

    Generators whose declared differential mentions at least one nonzero
    term but normalises to the zero element (an odd square, or exact
    cancellation) are recorded in ``collapsed``; ``check_model`` flags such
    models as degenerate.
    """

    __slots__ = ("name", "generators", "collapsed", "_index", "_diffs", "_degrees", "_odd", "_keys",
                 "_integer_diffs", "_integer_table")

    def __init__(
        self,
        generators: Sequence[Generator | tuple[str, int]],
        differentials: Mapping[str, RawPoly] | None = None,
        *,
        name: str = "model",
    ):
        try:
            gens = tuple(map(_as_generator, generators))
        except TypeError:
            raise GcaError(f"generators must be an iterable of generators, got {generators!r}") from None
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise GcaError(f"duplicate generator names: {', '.join(dup)}")
        self.name = name
        self.generators = tuple(sorted(gens, key=_DEGREE))
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        self._degrees = tuple(map(_DEGREE, self.generators))
        self._odd = tuple([i for i, d in enumerate(self._degrees) if d & 1])
        self._keys = None  # see monomial_keys
        self._integer_diffs = None  # (L, L*d), see integer_differentials
        self._integer_table = None  # see integer_derivation

        diffs: dict[str, dict[Monomial, Fraction]] = {name: {} for name in self._index}
        collapsed = []
        differentials = differentials or {}
        if type(differentials) is not dict and not isinstance(differentials, Mapping):
            raise GcaError(f"differentials must map generator names to polynomials, got {differentials!r}")
        for target, raw in differentials.items():
            if target not in self._index:
                raise UnknownGeneratorError(f"differential declared for unknown generator {target!r}")
            terms, had_nonzero = self._normalize_raw(raw, f"differential of {target!r}")
            diffs[target] = terms
            if had_nonzero and not terms:
                collapsed.append(target)
        self._diffs = diffs
        self.collapsed = frozenset(collapsed)

    # -- introspection -------------------------------------------------

    def generator(self, name: str) -> Generator:
        return self.generators[self.generator_index(name)]

    def generator_index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # a TypeError: a name that cannot be hashed
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def monomial_degree(self, mon: Monomial) -> int:
        return sum(map(mul, mon, self._degrees))

    def exponent_map(self, mon: Monomial) -> dict[str, int]:
        return {g.name: e for g, e in zip(self.generators, mon) if e}

    # -- construction of elements --------------------------------------

    def monomial(self, exponents: ExponentsLike) -> Monomial:
        """Canonical monomial from a {name: exponent} mapping.

        Raises on unknown generators, negative exponents, and exponents >= 2
        on odd-degree generators (such monomials are identically zero).
        """
        mon, squared = self._read_exponents(exponents)
        if squared is not None:
            g = self.generators[squared]
            raise GcaError(f"odd-degree generator {g.name!r} squared is zero (exponent {mon[squared]})")
        return mon

    def element(self, raw: RawPoly) -> "AlgebraElement":
        """Element from raw terms; odd-square terms vanish silently."""
        terms, _ = self._normalize_raw(raw)
        return AlgebraElement(self, terms)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(0,) * self.ngens: Fraction(1)})

    def gen(self, name: str) -> "AlgebraElement":
        return AlgebraElement(self, {self.monomial({name: 1}): Fraction(1)})

    def monomial_element(self, mon: Monomial, coeff: CoeffLike = 1) -> "AlgebraElement":
        c = exact_rational(coeff, "coefficient")
        return AlgebraElement(self, {mon: c} if c else {})

    def from_coords(self, basis: Sequence[Monomial], coords: Sequence[CoeffLike]) -> "AlgebraElement":
        if len(coords) != len(basis):
            raise GcaError(f"expected {len(basis)} coordinates, one per basis monomial, got {len(coords)}")
        if any(type(c) is not int for c in coords):  # a representative's are ints
            coords = [exact_rational(c, "coordinate") for c in coords]
        return AlgebraElement(self, {m: Fraction(c) for m, c in zip(basis, coords) if c})

    def _read_exponents(self, exponents: ExponentsLike, what: str = "monomial") -> tuple[Monomial, int | None]:
        """Exponent tuple of a {name: exponent} mapping or (name, exponent)
        pairs, and the index of the first odd generator it squares (None if
        it squares none).  ``what`` names the owner in a refusal of the
        shape."""
        exps = [0] * len(self._degrees)
        index = self._index
        items = exponents.items() if type(exponents) is dict or isinstance(exponents, Mapping) else exponents
        try:
            for gname, e in items:
                try:
                    i = index[gname]
                except (KeyError, TypeError):  # a TypeError: a name that cannot be hashed
                    raise UnknownGeneratorError(f"unknown generator {gname!r}") from None
                if type(e) is not int or e < 0:  # an int is the common case
                    e = exact_int(e, 0, "exponent of {name!r} must be a non-negative integer, got {value!r}",
                                  name=gname)
                exps[i] += e
        except GcaError:
            raise
        except (TypeError, ValueError):  # no iterable, or an item that is no pair
            raise GcaError(f"{what}: exponents must be a {{name: exponent}} mapping or (name, exponent) "
                           f"pairs, got {exponents!r}") from None
        for i in self._odd:
            if exps[i] > 1:
                return tuple(exps), i
        return tuple(exps), None

    def _normalize_raw(self, raw: RawPoly, what: str = "polynomial") -> tuple[dict[Monomial, Fraction], bool]:
        """The {monomial: nonzero Fraction} map of raw terms, odd squares and
        cancelled terms dropped, and whether any term had a nonzero
        coefficient.  ``what`` names the owner in a refusal of the shape."""
        try:
            raw = iter(raw)
        except TypeError:
            raise GcaError(f"{what} must be an iterable of (coefficient, exponents) terms, got {raw!r}") from None
        terms: dict[Monomial, Fraction] = {}
        had_nonzero = False
        for term in raw:
            try:
                coeff, exponents = term
            except (TypeError, ValueError):
                raise GcaError(f"{what}: term must be a (coefficient, exponents) pair, got {term!r}") from None
            if type(coeff) is Fraction:  # the DSL's and the common case, tested first
                c = coeff
            elif type(coeff) is int:
                c = Fraction(coeff)
            else:
                c = exact_rational(coeff, "coefficient")
            if not c:
                continue
            had_nonzero = True
            mon, squared = self._read_exponents(exponents, what)
            if squared is not None:
                continue  # odd square: the term is zero
            acc = terms.get(mon)
            if acc is None:
                terms[mon] = c
            elif acc := acc + c:
                terms[mon] = acc
            else:
                del terms[mon]
        return terms, had_nonzero

    # -- differential ---------------------------------------------------

    def differential_of(self, name: str) -> "AlgebraElement":
        self.generator_index(name)
        return AlgebraElement(self, dict(self._diffs[name]))

    def integer_differentials(self) -> tuple[Mapping[Monomial, int], ...]:
        """L times each generator differential, in canonical order, where L
        is the lcm of every coefficient denominator of the generator
        differentials (not to be modified).  The Leibniz rule is linear in
        the generator differentials, so these give L*d on every degree,
        which has the same rank as d.  The model never changes, so they are
        computed on first use and published, with L, in one assignment."""
        scaled = self._integer_diffs
        if scaled is None:
            scaled = self._integer_diffs = self._scale_differentials()
        return scaled[1]

    def _scale_differentials(self) -> tuple[int, tuple[dict[Monomial, int], ...]]:
        scale = lcm(*(c.denominator for dg in self._diffs.values() for c in dg.values()))
        return scale, tuple({m: c.numerator * (scale // c.denominator) for m, c in dg.items()} if dg else {}
                            for dg in self._diffs.values())  # _diffs is in canonical order

    def _reach(self) -> int:
        """The most d raises the degree of a monomial, and at least 1: the
        largest deg(n) - deg(g) over the monomials n of each dg, which is 1
        for a model the validation gate passes."""
        return max([1, *(self.monomial_degree(n) - g.degree for g in self.generators for n in self._diffs[g.name])])

    def integer_derivation(self, top: int = 0) -> "DerivationTable":
        """The :func:`derivation_table` of :meth:`integer_differentials`,
        which the validation gate, both cochain paths and
        :func:`apply_differential` read, for a layout that holds degree
        ``top`` (see :meth:`monomial_keys`), the highest degree of an image;
        made once per layout and published in one assignment."""
        keys = self.monomial_keys(top)
        table = self._integer_table
        if table is None or table[0] is not keys:
            table = self._integer_table = derivation_table(keys, self.integer_differentials())
        return table

    # -- monomial arithmetic --------------------------------------------

    def multiply_monomials(self, a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
        """Koszul-signed product; None when an odd generator would square.

        The sign is (-1)^(pairs of an odd factor of a after an odd factor of
        b), counted in one pass over the odd generators in canonical order;
        a model with no odd generator skips the pass."""
        sign = 1
        b_before = 0  # parity of the odd factors of b seen so far
        for i in self._odd:
            if a[i]:
                if b[i]:
                    return None
                if b_before:
                    sign = -sign
            elif b[i]:
                b_before ^= 1
        return sign, tuple(map(add, a, b))

    # -- basis enumeration ------------------------------------------------

    def monomial_keys(self, top: int) -> "MonomialKeys":
        """The model's key layout (see :class:`MonomialKeys`), first
        replaced by one with the widths of ``top`` when it cannot hold every
        monomial of degree ``top``."""
        if type(top) is not int:  # every call of the cochain paths passes an int
            top = exact_int(top, -inf, _DEGREE_MESSAGE)
        keys = self._keys
        if keys is None or top > keys.capacity:
            keys = self._keys = MonomialKeys(self.generators, top)
        return keys

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        """All monomials of the given total degree, lexicographically
        descending in the canonical exponent vector, decoded from the
        model's key table."""
        if exact_int(degree, -inf, _DEGREE_MESSAGE) < 0:
            return ()
        keys = self.monomial_keys(degree)
        return keys.decode(keys.bases(degree)[degree:])[0]

    def bases(self, top: int) -> tuple[tuple[Monomial, ...], ...]:
        """``basis(d)`` for d = 0..top, decoded from one read of the key
        table."""
        if exact_int(top, -inf, _DEGREE_MESSAGE) < 0:
            return ()
        keys = self.monomial_keys(top)
        return keys.decode(keys.bases(top))

    def basis_sizes(self, top: int) -> tuple[int, ...]:
        """len(basis(d)) for d = 0..top, counted without enumerating (see
        :func:`times_free_series`)."""
        if exact_int(top, -inf, _DEGREE_MESSAGE) < 0:
            return ()
        return tuple(times_free_series([1] + [0] * top, self._degrees))

    # -- value semantics ---------------------------------------------------

    def signature(self) -> tuple:
        return (
            self.name,
            self.generators,
            tuple((g.name, tuple(sorted(self._diffs[g.name].items())))
                  for g in self.generators),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DgaModel):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"DgaModel({self.name!r}, [{gens}])"

    # -- formatting ---------------------------------------------------------

    def format_monomial(self, mon: Monomial) -> str:
        if not any(mon):
            return "1"
        parts = []
        for g, e in zip(self.generators, mon):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts)

    def format_element(self, x: "AlgebraElement") -> str:
        if x.is_zero:
            return "0"
        parts = []
        for mon, c in x.sorted_terms():
            if not any(mon):
                parts.append(str(c))
            elif c == 1:
                parts.append(self.format_monomial(mon))
            else:
                parts.append(f"{c}*{self.format_monomial(mon)}")
        return " + ".join(parts)


class MonomialKeys:
    """The key layout of the monomials over ``generators`` (in canonical
    order) with field widths for degree ``top``, and one table of their
    keys, those of degrees 0..t for the highest t asked of :meth:`bases`
    so far (see the module docstring).  ``capacity``, at least ``top``, is
    the highest degree whose monomials fit the fields."""

    __slots__ = ("generators", "degrees", "shifts", "masks", "odd_mask", "capacity", "_table")

    def __init__(self, generators: Sequence[Generator], top: int):
        self.generators = tuple(generators)
        self.degrees = tuple(g.degree for g in self.generators)
        shifts, masks, shift, odd, capacity, top = [], [], 0, 0, inf, max(top, 0)
        for d in reversed(self.degrees):  # the last generator's field is the lowest
            if d % 2:
                width = 1
                odd |= 1 << shift
            else:
                width = (top // d).bit_length()
                capacity = min(capacity, (d << width) - 1)
            shifts.append(shift)
            masks.append((1 << width) - 1)
            shift += width
        self.shifts, self.masks = tuple(reversed(shifts)), tuple(reversed(masks))
        self.odd_mask, self.capacity = odd, capacity
        self._table = ()  # the keys of degrees 0..t, see bases

    def restricted(self, indices: Sequence[int]) -> "MonomialKeys":
        """The layout of the monomials in the generators at ``indices``
        alone, with this layout's fields, so that a derivation table made
        for this one reads their keys; it has a key table of its own."""
        keys = MonomialKeys.__new__(MonomialKeys)
        keys.generators, keys.degrees, keys.shifts, keys.masks = (
            tuple(map(values.__getitem__, indices))
            for values in (self.generators, self.degrees, self.shifts, self.masks))
        keys.odd_mask, keys.capacity, keys._table = self.odd_mask, self.capacity, ()
        return keys

    def pack(self, mon: Monomial) -> int:
        return sum(map(lshift, mon, self.shifts))

    def unpack(self, key: int) -> Monomial:
        return tuple(map(and_, map(key.__rshift__, self.shifts), self.masks))

    def decode(self, bases: Sequence[Sequence[int]]) -> tuple[tuple[Monomial, ...], ...]:
        """The exponent tuples of runs of keys, one tuple per run, each field
        read in one pass over every key."""
        keys = tuple(itertools.chain.from_iterable(bases))
        fields = [[key >> shift & mask for key in keys] for shift, mask in zip(self.shifts, self.masks)]
        monomials = tuple(zip(*fields)) if fields else ((),) * len(keys)
        ends = itertools.accumulate(map(len, bases), initial=0)
        return tuple(monomials[start:end] for start, end in itertools.pairwise(ends))

    def bases(self, top: int) -> tuple[tuple[int, ...], ...]:
        """The keys of each degree 0..top, each degree's descending, which
        is lexicographically descending in the exponents, read from the
        table; a table that stops below ``top`` is built again, whole, to
        ``top`` (see the module docstring) and published in one
        assignment."""
        if top > self.capacity:
            raise GcaError(f"degree {top} exceeds the capacity {self.capacity} of the key layout")
        table = self._table
        if top >= len(table):
            table = ((0,),) + ((),) * top  # the tails of no generator: the empty one, key 0
            for step, shift in zip(reversed(self.degrees), reversed(self.shifts)):
                prefix, level = (1 << shift).__add__, list(table)  # one more factor of this generator
                source = table if step % 2 else level
                for d in range(step, top + 1):
                    if shifted := source[d - step]:
                        level[d] = (*map(prefix, shifted), *level[d])
                table = tuple(level)
            self._table = table
        return table[:top + 1]


def times_free_series(series: list[int], degrees: Iterable[int]) -> list[int]:
    """A power series (coefficients of t^0..t^top) times the Poincare series
    of the free algebra on generators of the given degrees, prod over odd
    degrees of (1 + t^deg) times prod over even degrees of 1 / (1 - t^deg),
    truncated at t^top: the series is multiplied in place, one factor at a
    time, and returned.  From 1 it counts the monomials of each degree."""
    top = len(series) - 1
    for step in degrees:
        if step % 2:
            for d in range(top, step - 1, -1):
                series[d] += series[d - step]
        else:
            for d in range(step, top + 1):
                series[d] += series[d - step]
    return series


class AlgebraElement:
    """A finite rational combination of canonical monomials of one model."""

    __slots__ = ("model", "terms")

    def __init__(self, model: DgaModel, terms: dict[Monomial, Fraction]):
        self.model = model
        self.terms = terms

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon: Monomial) -> Fraction:
        return self.terms.get(mon, Fraction(0))

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({self.model.monomial_degree(m) for m in self.terms}))

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms; None for the zero element.

        Raises :class:`MixedDegreeError` when terms of different degrees are
        present.
        """
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise MixedDegreeError(f"element mixes degrees {list(degs)}")
        return degs[0]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda t: (self.model.monomial_degree(t[0]), tuple(-e for e in t[0])),
        )

    def coords(self, basis: Sequence[Monomial]) -> list[Fraction]:
        return [self.terms.get(m, Fraction(0)) for m in basis]

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.model is not other.model and self.model != other.model:
            raise UnknownGeneratorError("operands belong to different models")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m, Fraction(0)) + c
            if acc:
                terms[m] = acc
            else:
                terms.pop(m, None)
        return AlgebraElement(self.model, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.model, {m: -c for m, c in self.terms.items()})

    def scale(self, value: CoeffLike) -> "AlgebraElement":
        c = exact_rational(value, "coefficient")
        if not c:
            return AlgebraElement(self.model, {})
        return AlgebraElement(self.model, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            return AlgebraElement(self.model, multiply_terms(self.model, self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "AlgebraElement":
        result = self.model.one()
        for _ in range(exact_int(n, 0, "exponent must be a non-negative integer, got {value!r}")):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.model == other.model and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; identity hashing would mislead

    def __repr__(self) -> str:
        return f"<{self.model.format_element(self)}>"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Graded-commutative product with Koszul signs.

    Swapping homogeneous factors of degrees p and q multiplies by (-1)^(pq);
    odd-degree generators square to zero.
    """
    if not isinstance(a, AlgebraElement) or not isinstance(b, AlgebraElement):
        raise GcaError("multiply expects two algebra elements")
    return a * b


def multiply_terms(
    model: DgaModel, a: Mapping[Monomial, Coeff], b: Mapping[Monomial, Coeff]
) -> dict[Monomial, Coeff]:
    """Graded-commutative product of two {monomial: coefficient} maps of the
    model, generic over the coefficient type (see :data:`Coeff`): each
    pair of terms contributes its Koszul-signed monomial product, and
    products that square an odd generator vanish.  Terms that cancel are
    dropped."""
    out: dict[Monomial, Coeff] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            prod = model.multiply_monomials(m1, m2)
            if prod:
                out[prod[1]] = out.get(prod[1], 0) + prod[0] * c1 * c2
    return {m: c for m, c in out.items() if c}


#: The Leibniz rule of one differential (see :func:`derivation_table`): the
#: :class:`MonomialKeys` it is made for, one (shift, mask, terms) entry per
#: generator with a nonzero differential that changes parity, each term a
#: tuple (delta, coefficient, sign mask, clash mask), and one (shift, mask,
#: message) refusal per generator whose differential does not.
DerivationTable = tuple[
    MonomialKeys,
    tuple[tuple[int, int, tuple[tuple[int, int, int, int], ...]], ...],
    tuple[tuple[int, int, str], ...],
]


def derivation_table(keys: MonomialKeys, diffs: Sequence[Mapping[Monomial, int]]) -> DerivationTable:
    """The graded Leibniz rule of a differential on the keys of a layout,
    made once for :func:`leibniz`.

    ``diffs`` holds one {monomial: coefficient} map per generator of the
    layout, in canonical order.  Only :meth:`DgaModel.integer_derivation`
    makes a table, from the model's integer differentials (see
    :meth:`DgaModel.integer_differentials`), so every coefficient of a
    table is an int.  The factor g^e of a monomial m contributes
    e * (factors before) * dg * (factors after), signed by the degree of
    the factors before.  A monomial n of dg makes it
    the monomial m + delta, delta = n - (the unit vector at g), with one
    sign; packed, delta is one signed int, and the image key is the sum
    whenever the image fits the layout.  Only odd factors move a sign, so
    with M the odd bits of the key of m, the sign is (-1)^|M & S| for a mask
    S of odd bits fixed by g and n, the sum mod 2 of:

    - the bits before g, above its field (the sign of the rule);
    - when g is even, so that dg is odd, the bits after g, below its field,
      whose factors dg moves past;
    - for each odd generator k of n, the bits after k other than g's: the
      Koszul sign of the product of the other factors with n.

    The term vanishes when an odd generator of n other than g is in M (the
    clash mask), since it would square.  A generator with dg = 0 has no
    entry.

    These signs are those of a differential that changes parity, as one
    raising degree by one does.  A monomial n of dg of the parity of g would
    get the wrong sign, so such a g gets no entry but a refusal that names
    it: :func:`leibniz` raises it for any monomial that holds g.
    """
    shifts, masks = keys.shifts, keys.masks
    odd_bits = tuple((k, 1 << shifts[k]) for k, d in enumerate(keys.degrees) if d % 2)
    entries, refused = [], []
    for i, dg in enumerate(diffs):
        if not dg:
            continue
        own, parity = 1 << shifts[i], keys.degrees[i] & 1
        rule = -(own << masks[i].bit_length()) ^ (0 if parity else own - 1)  # before g, and after an even g
        terms = []
        for n, c in dg.items():
            sign, clash = rule, 0
            for k, bit in odd_bits:
                if n[k]:
                    sign ^= (bit - 1) & ~own  # after k, other than g
                    clash |= bit
            if clash.bit_count() & 1 == parity:  # n has the parity of g
                name = keys.generators[i].name
                refused.append((shifts[i], masks[i], f"d{name} has a term of the parity of {name}: "
                                "the graded Leibniz rule needs a differential that changes parity"))
                break
            terms.append((keys.pack(n) - own, c, sign & keys.odd_mask, clash & ~own))
        else:
            entries.append((shifts[i], masks[i], tuple(terms)))
    return keys, tuple(entries), tuple(refused)


def leibniz(
    table: DerivationTable, monomials: Iterable[int], index: Mapping[int, int] | None = None,
) -> Iterator[dict]:
    """d of each monomial, given by its key in the layout of a
    :func:`derivation_table`, by the table's graded Leibniz rule: one
    {key: int} map per monomial, in order, made as it is consumed.
    The layout must hold every image.  The odd generators of a monomial are
    its key's odd bits, and a monomial with no generator of nonzero
    differential gets an empty map.  Terms that cancel stay in the result
    with coefficient zero.  With ``index``, a {key: position} map, each
    image is a sparse column instead: {position: nonzero coefficient}, its
    terms keyed by their positions and the cancelled ones dropped.  A
    monomial that holds a generator the table refuses raises its
    :class:`GcaError` before any image is made."""
    keys, entries, refused = table
    if refused:
        monomials = tuple(monomials)
        for shift, mask, message in refused:
            if any(key >> shift & mask for key in monomials):
                raise GcaError(message)
    odd_mask = keys.odd_mask
    for key in monomials:
        image: dict = {}
        odd = key & odd_mask
        for shift, mask, terms in entries:
            e = key >> shift & mask
            if e:
                for delta, c, sign, clash in terms:
                    if not odd & clash:
                        m = key + delta
                        if index is not None:
                            m = index[m]
                        image[m] = image.get(m, 0) + (-e * c if (odd & sign).bit_count() & 1 else e * c)
        yield image if index is None or all(image.values()) else {p: c for p, c in image.items() if c}


def apply_derivation(table: DerivationTable, terms: Mapping[Monomial, Coeff]) -> dict[Monomial, Coeff]:
    """d of a {monomial: coefficient} map by the Leibniz rule of a
    :func:`derivation_table` (see :func:`leibniz`), whose coefficients are
    ints, so the result has the coefficient type of ``terms``; the monomials
    are packed in the table's layout, which must hold every term and its
    image, and the result is decoded.  Terms that cancel are dropped."""
    keys = table[0]
    out: dict[int, Coeff] = {}
    for coeff, image in zip(terms.values(), leibniz(table, map(keys.pack, terms))):
        for m, c in image.items():
            out[m] = out.get(m, 0) + coeff * c
    return {keys.unpack(m): c for m, c in out.items() if c}


def apply_differential(x: AlgebraElement) -> AlgebraElement:
    """Extend the differential of ``x``'s model to ``x`` by the graded
    Leibniz rule (see :func:`derivation_table`), d(ab) = (da)b + (-1)^deg(a) a(db).
    The differential of each term has degree one above the term whenever
    the model's generator differentials raise degree by one.  An element
    with a term that holds a generator whose differential keeps its parity
    is refused with a :class:`GcaError` naming the generator (see
    :func:`derivation_table`), since the rule's signs would be wrong there.
    """
    model = x.model
    top = max(map(model.monomial_degree, x.terms), default=0) + model._reach()
    image = apply_derivation(model.integer_derivation(top), x.terms)  # L*d of x
    scale = model._integer_diffs[0]  # L, set by the table's integer_differentials
    return AlgebraElement(model, {m: c / scale for m, c in image.items()})
