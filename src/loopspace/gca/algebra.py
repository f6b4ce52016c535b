"""Free graded skew-commutative algebras over the rationals.

A :class:`DgaModel` is a free graded-commutative algebra on finitely many
homogeneous generators together with a degree-raising differential.  All
coefficients are exact :class:`fractions.Fraction` values; no floating point
enters any computation.

Monomials are plain exponent tuples over the generators in canonical
order: generators are ordered by (degree, declaration order) and products are
normalised to that order, accumulating Koszul signs.  A generator of odd
degree squares to zero, so its exponent in any stored monomial is 0 or 1.
The monomial basis of each degree is read from one table of exponent tails,
one level per generator and one entry per degree: the tails of generators i
onward of a given degree are the tails of generators i+1 onward, each
prefixed by an exponent of generator i.  The table is built bottom-up, from
the last generator to the first, and extended to the highest degree asked
for, each level in one sweep over its generator's exponent; each extension
is published in one assignment, so a concurrent reader sees either the old
table or the new one, never a half-built level.

The differential acts on monomials through a derivation table (see
:func:`derivation_table`), made once from the generator differentials: one
entry per generator with a nonzero differential, holding for each monomial
of that differential the exponent step it adds and two bit masks over the
odd generators, one for the sign and one for the odd squares that kill the
term.  :func:`leibniz` reads the table for a run of monomials, making each
image as it is consumed (keyed by monomial, or by position as a sparse
column), and :func:`apply_derivation` for the terms of a
{monomial: coefficient} map; it is the one implementation of the Leibniz
rule.  A model keeps two tables: :meth:`DgaModel.derivation` of its own
differentials, for :func:`apply_differential`, and
:meth:`DgaModel.integer_derivation` of the scaled integer copy, which the
validation gate and the cochain computations read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from types import MappingProxyType
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
#: Coefficient type of :func:`leibniz` and :func:`multiply_terms`: Fraction,
#: or int for a scaled copy.
Coeff = TypeVar("Coeff", int, Fraction)


@dataclass(frozen=True, slots=True)
class Generator:
    """A homogeneous algebra generator; degree must be >= 1."""

    name: str
    degree: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise GcaError(f"generator name must be a non-empty string, got {self.name!r}")
        exact_int(self.degree, 1, "generator {name!r} must have integer degree >= 1, got {value!r}",
                  name=self.name)


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
    coefficients) raise :class:`GcaError`.

    Generators whose declared differential mentions at least one nonzero
    term but normalises to the zero element (an odd square, or exact
    cancellation) are recorded in ``collapsed``; ``check_model`` flags such
    models as degenerate.
    """

    __slots__ = ("name", "generators", "collapsed", "_index", "_diffs", "_degrees", "_odd", "_tails",
                 "_integer_diffs", "_table", "_integer_table")

    def __init__(
        self,
        generators: Sequence[Generator | tuple[str, int]],
        differentials: Mapping[str, RawPoly] | None = None,
        *,
        name: str = "model",
    ):
        gens = tuple(g if isinstance(g, Generator) else Generator(*g) for g in generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise GcaError(f"duplicate generator names: {', '.join(dup)}")
        self.name = name
        self.generators = tuple(sorted(gens, key=lambda g: g.degree))
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        self._degrees = tuple(g.degree for g in self.generators)
        self._odd = tuple(i for i, d in enumerate(self._degrees) if d % 2 == 1)
        # _tails[i][d]: the exponent tuples of generators i onward of total
        # degree d, lexicographically descending; the last level has only the
        # empty tail, in degree 0, and the others start empty
        self._tails = ((),) * self.ngens + ((((),),),)
        self._integer_diffs = None  # see integer_differentials
        self._table = None  # see derivation
        self._integer_table = None  # see integer_derivation

        diffs: dict[str, dict[Monomial, Fraction]] = {g.name: {} for g in self.generators}
        collapsed = []
        for target, raw in (differentials or {}).items():
            if target not in self._index:
                raise UnknownGeneratorError(f"differential declared for unknown generator {target!r}")
            terms, had_nonzero = self._normalize_raw(raw)
            diffs[target] = terms
            if had_nonzero and not terms:
                collapsed.append(target)
        self._diffs = diffs
        self.collapsed = frozenset(collapsed)

    # -- introspection -------------------------------------------------

    def generator(self, name: str) -> Generator:
        try:
            return self.generators[self._index[name]]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None

    def generator_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
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

    def from_coords(self, basis: Sequence[Monomial], coords: Sequence[Fraction]) -> "AlgebraElement":
        terms = {m: Fraction(c) for m, c in zip(basis, coords) if c}
        return AlgebraElement(self, terms)

    def _read_exponents(self, exponents: ExponentsLike) -> tuple[Monomial, int | None]:
        """Exponent tuple of a {name: exponent} mapping or (name, exponent)
        pairs, and the index of the first odd generator it squares (None if
        it squares none)."""
        exps = [0] * self.ngens
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        for gname, e in items:
            i = self.generator_index(gname)
            exps[i] += exact_int(e, 0, "exponent of {name!r} must be a non-negative integer, got {value!r}",
                                 name=gname)
        return tuple(exps), next((i for i in self._odd if exps[i] > 1), None)

    def _normalize_raw(self, raw: RawPoly) -> tuple[dict[Monomial, Fraction], bool]:
        terms: dict[Monomial, Fraction] = {}
        had_nonzero = False
        for coeff, exponents in raw:
            c = exact_rational(coeff, "coefficient")
            if not c:
                continue
            had_nonzero = True
            mon, squared = self._read_exponents(exponents)
            if squared is not None:
                continue  # odd square: the term is zero
            acc = terms.get(mon, Fraction(0)) + c
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
        return terms, had_nonzero

    # -- differential ---------------------------------------------------

    def differential_of(self, name: str) -> "AlgebraElement":
        self.generator_index(name)
        return AlgebraElement(self, dict(self._diffs[name]))

    def differential_terms(self) -> tuple[Mapping[Monomial, Fraction], ...]:
        """The generator differentials as {monomial: coefficient} maps, one
        per generator in canonical order (read-only views)."""
        return tuple(MappingProxyType(self._diffs[g.name]) for g in self.generators)

    def integer_differentials(self) -> tuple[Mapping[Monomial, int], ...]:
        """L times each generator differential, in canonical order, where L
        is the lcm of every coefficient denominator of the generator
        differentials (not to be modified).  The Leibniz rule is linear in
        the generator differentials, so these give L*d on every degree,
        which has the same rank as d.  The model never changes, so they are
        computed on first use and published in one assignment."""
        diffs = self._integer_diffs
        if diffs is None:
            diffs = self._integer_diffs = self._scale_differentials()
        return diffs

    def derivation(self) -> "DerivationTable":
        """The :func:`derivation_table` of the model's own differentials,
        which :func:`apply_differential` reads; computed on first use and
        published in one assignment, like :meth:`integer_differentials`."""
        table = self._table
        if table is None:
            table = self._table = derivation_table(self, self.differential_terms())
        return table

    def integer_derivation(self) -> "DerivationTable":
        """The :func:`derivation_table` of :meth:`integer_differentials`,
        which the validation gate and both cochain paths read; computed on
        first use and published in one assignment, like :meth:`derivation`."""
        table = self._integer_table
        if table is None:
            table = self._integer_table = derivation_table(self, self.integer_differentials())
        return table

    def _scale_differentials(self) -> tuple[dict[Monomial, int], ...]:
        scale = lcm(*(c.denominator for dg in self._diffs.values() for c in dg.values()))
        return tuple({m: c.numerator * (scale // c.denominator) for m, c in self._diffs[g.name].items()}
                     for g in self.generators)

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

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        """All monomials of the given total degree, lexicographically
        descending in the canonical exponent vector."""
        if degree < 0:
            return ()
        tails = self._tails
        if degree >= len(tails[0]):
            tails = self._extend_tails(degree)
        return tails[0][degree]

    def bases(self, top: int) -> tuple[tuple[Monomial, ...], ...]:
        """``basis(d)`` for d = 0..top, read from one table extension."""
        if top < 0:
            return ()
        tails = self._tails
        if top >= len(tails[0]):
            tails = self._extend_tails(top)
        return tails[0][:top + 1]

    def _extend_tails(self, degree: int) -> tuple:
        """The tail table extended to ``degree``, built bottom-up from the
        last generator and published in one assignment.  Each level gets
        its new degrees in one sweep over the exponent of its generator,
        descending: exponent e appends (e,) + tail to new degree k + e*step
        for every nonempty degree k of the level below, so the empty
        degrees cost nothing."""
        old = self._tails
        start = len(old[0])
        below = old[-1] + ((),) * (degree + 1 - len(old[-1]))
        levels = [below]
        for i in reversed(range(self.ngens)):
            step = self._degrees[i]
            new = [[] for _ in range(start, degree + 1)]
            filled = [(k - start, tails) for k, tails in enumerate(below) if tails]
            for e in range(min(degree // step, 1 if step % 2 else degree), -1, -1):
                prefix, shift = (e,), e * step
                for k, tails in filled:
                    k += shift  # the position in new of degree k + e*step
                    if k >= 0:
                        if k > degree - start:
                            break
                        new[k].extend(map(prefix.__add__, tails))
            below = old[i] + tuple(map(tuple, new))
            levels.append(below)
        tails = self._tails = tuple(reversed(levels))
        return tails

    def basis_sizes(self, top: int) -> tuple[int, ...]:
        """len(basis(d)) for d = 0..top, counted without enumerating (see
        :func:`times_free_series`)."""
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
    model, generic over the coefficient type (see :func:`leibniz`): each
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
#: (position, bit) of each odd generator, one (i, terms) entry per
#: generator i with a nonzero differential that changes parity, each term
#: a tuple (delta, coefficient, sign mask, clash mask), and one
#: (i, message) refusal per generator whose differential does not.
DerivationTable = tuple[
    tuple[tuple[int, int], ...],
    tuple[tuple[int, tuple[tuple[Monomial, Coeff, int, int], ...]], ...],
    tuple[tuple[int, str], ...],
]


def derivation_table(model: DgaModel, diffs: Sequence[Mapping[Monomial, Coeff]]) -> DerivationTable:
    """The graded Leibniz rule of a differential on the model's monomials,
    made once for :func:`leibniz`, generic over the coefficient type.

    ``diffs`` holds one {monomial: coefficient} map per generator, in
    canonical order: the model's own :class:`Fraction` differentials, or a
    scaled integer copy of them.  The factor g^e of a monomial m contributes
    e * (factors before) * dg * (factors after), signed by the degree of the
    factors before.  A monomial n of dg makes it the monomial m + delta,
    delta = n - (the unit vector at g), with one sign.  Only odd factors
    move a sign, so with M the odd generators of m, the sign is (-1)^|M & S|
    for a mask S of odd positions fixed by g and n, the sum mod 2 of:

    - the positions before g (the sign of the rule);
    - when g is even, so that dg is odd, the positions after g, whose
      factors dg moves past;
    - for each odd generator k of n, the positions after k other than g:
      the Koszul sign of the product of the other factors with n.

    The term vanishes when an odd generator of n other than g is in M (the
    clash mask), since it would square.  A generator with dg = 0 has no
    entry.

    These signs are those of a differential that changes parity, as one
    raising degree by one does.  A monomial n of dg of the parity of g would
    get the wrong sign, so such a g gets no entry but a refusal that names
    it: :func:`leibniz` raises it for any monomial that holds g.
    """
    odd_bits = tuple((j, 1 << j) for j in model._odd)
    odd = sum(bit for _, bit in odd_bits)
    entries, refused = [], []
    for i, dg in enumerate(diffs):
        if not dg:
            continue
        own, parity = 1 << i, model._degrees[i] & 1
        rule = (own - 1) ^ (0 if parity else -(own << 1))  # before g, and after an even g
        terms = []
        for n, c in dg.items():
            sign, clash = rule, 0
            for k, bit in odd_bits:
                if n[k]:
                    sign ^= -(bit << 1) & ~own  # after k, other than g
                    clash |= bit
            if clash.bit_count() & 1 == parity:  # n has the parity of g
                name = model.generators[i].name
                refused.append((i, f"d{name} has a term of the parity of {name}: "
                                   "the graded Leibniz rule needs a differential that changes parity"))
                break
            terms.append((n[:i] + (n[i] - 1,) + n[i + 1:], c, sign & odd, clash & ~own))
        else:
            entries.append((i, tuple(terms)))
    return odd_bits, tuple(entries), tuple(refused)


def leibniz(
    table: DerivationTable, monomials: Iterable[Monomial], index: Mapping[Monomial, int] | None = None,
) -> Iterator[dict]:
    """d of each monomial, by the graded Leibniz rule of a
    :func:`derivation_table`: one {monomial: coefficient} map per monomial,
    in order, made as it is consumed.  The odd generators of a monomial are
    read once, and only when it holds a generator with a nonzero
    differential; a monomial with none gets an empty map.  Terms that cancel
    stay in the result with coefficient zero.  With ``index``, a
    {monomial: position} map, each image is a sparse column instead:
    {position: nonzero coefficient}, its terms keyed by their positions and
    the cancelled ones dropped.  A monomial that holds a generator the table
    refuses raises its :class:`GcaError` before any image is made."""
    odd_bits, entries, refused = table
    if refused:
        monomials = tuple(monomials)
        for i, message in refused:
            if any(mon[i] for mon in monomials):
                raise GcaError(message)
    for mon in monomials:
        image: dict = {}
        odd = -1  # the bits of the monomial's odd generators, once read
        for i, terms in entries:
            e = mon[i]
            if e:
                if odd < 0:
                    odd = 0
                    for j, bit in odd_bits:
                        if mon[j]:
                            odd |= bit
                for delta, c, sign, clash in terms:
                    if not odd & clash:
                        m = tuple(map(add, mon, delta))
                        if index is not None:
                            m = index[m]
                        image[m] = image.get(m, 0) + (-e * c if (odd & sign).bit_count() & 1 else e * c)
        yield image if index is None or all(image.values()) else {p: c for p, c in image.items() if c}


def apply_derivation(table: DerivationTable, terms: Mapping[Monomial, Coeff]) -> dict[Monomial, Coeff]:
    """d of a {monomial: coefficient} map by the Leibniz rule of a
    :func:`derivation_table` (see :func:`leibniz`), with the coefficient
    type of both; terms that cancel are dropped."""
    out: dict[Monomial, Coeff] = {}
    for coeff, image in zip(terms.values(), leibniz(table, terms)):
        for m, c in image.items():
            out[m] = out.get(m, 0) + coeff * c
    return {m: c for m, c in out.items() if c}


def apply_differential(x: AlgebraElement) -> AlgebraElement:
    """Extend the differential of ``x``'s model to ``x`` by the graded
    Leibniz rule (see :func:`derivation_table`), d(ab) = (da)b + (-1)^deg(a) a(db).
    The differential of each term has degree one above the term whenever
    the model's generator differentials raise degree by one.  An element
    with a term that holds a generator whose differential keeps its parity
    is refused with a :class:`GcaError` naming the generator (see
    :func:`derivation_table`), since the rule's signs would be wrong there.
    """
    return AlgebraElement(x.model, apply_derivation(x.model.derivation(), x.terms))
