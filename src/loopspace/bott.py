"""Exact Bott index iteration and geodesic-multiplicity certificates.

The index function I of a closed geodesic is a step function on the unit
circle: the index of the m-th iterate is the sum of I over the m-th roots
of unity.  Angles are exact rationals measured in turns (the angle is
2*pi*turns), so membership of a root of unity in an arc is decided exactly;
no floating point appears anywhere.  Each function also keeps its
discontinuities over one common denominator L as integer numerators, so
the index of any iterate is counted by integer floor division.

The certificate searches replay two contradiction arguments: the
projective-plane two-geodesic argument (``certify_theorem4``) and the
even-cell fundamental-group argument for odd-dimensional space forms
(``certify_theorem5``).  Certificates carry their full parameters and a
per-candidate transcript so they can be re-checked independently.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from operator import lt
from typing import Iterable, Sequence

from .gca.algebra import GcaError, exact_int, exact_rational
from .gca.cohomology import BettiTable, RingPresentation, quotient_ring_dims
from .spaceforms import SpaceFormSpec, theorem2_table

CONTRADICTION_ESTABLISHED = "contradiction-established"
INCONCLUSIVE = "inconclusive"


def normalize_turn(value) -> Fraction:
    """Exact angle in turns, reduced into [0, 1): an int (not a bool), a
    Fraction or a 'p/q' string; a float or any other value is refused."""
    return exact_rational(value, "turns") % 1


# the message of a value of BottFunction.build that is not an int; a negative
# int is refused by the constructor, with its own message
_INDEX_VALUE_MESSAGE = "values of the index function must be ints, got {value!r}"

# discontinuity types accepted without the slower ABC check
_EXACT_TURN_TYPES = frozenset({Fraction, int})


@dataclass(frozen=True)
class BottFunction:
    """A non-negative integer step function on the circle.

    ``discontinuities`` are sorted turns in [0, 1); ``arc_values[i]`` is the
    value on the open arc following discontinuity i (cyclically), and
    ``point_values[i]`` the value exactly at discontinuity i.  A function
    with no discontinuities stores its constant value as the single arc
    value.  The discontinuity set must be invariant under complex
    conjugation (turns -> 1 - turns) with matching values.

    ``denominator`` is the least common denominator L of the
    discontinuities and ``numerators`` their integer numerators over it
    (discontinuity i is numerators[i] / L turns); both are derived, so they
    take no part in equality, hashing or printing.
    """

    discontinuities: tuple[Fraction, ...]
    arc_values: tuple[int, ...]
    point_values: tuple[int, ...]
    denominator: int = field(init=False, compare=False, repr=False)
    numerators: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        disc = self.discontinuities
        # a bool is a Rational, but its DSL text does not parse
        exact = all(type(t) in _EXACT_TURN_TYPES or (type(t) is not bool and isinstance(t, Rational))
                    for t in disc)
        # order and range are decided on the integer numerators over the common
        # denominator L; inexact turns are compared as they are, so a descent
        # is named before the type, and turns that do not compare have none
        L = math.lcm(*(t.denominator for t in disc)) if exact else 1
        nums = tuple(t.numerator * (L // t.denominator) for t in disc) if exact else disc
        try:
            increasing = all(map(lt, nums, nums[1:]))
        except TypeError:
            increasing = True
        if not increasing:
            raise GcaError("discontinuities must be strictly increasing")
        if not exact:
            raise GcaError("discontinuities must be exact rationals")
        if nums and not 0 <= nums[0] <= nums[-1] < L:
            raise GcaError("discontinuities must be turns in [0, 1)")
        n_arcs = len(disc) if disc else 1
        if len(self.arc_values) != n_arcs:
            raise GcaError(f"expected {n_arcs} arc values, got {len(self.arc_values)}")
        if len(self.point_values) != len(disc):
            raise GcaError(f"expected {len(disc)} point values, got {len(self.point_values)}")
        for v in self.arc_values + self.point_values:
            exact_int(v, 0, "values of the index function are non-negative integers")
        object.__setattr__(self, "denominator", L)
        object.__setattr__(self, "numerators", nums)
        self._check_conjugation_symmetry()

    def _check_conjugation_symmetry(self):
        disc, nums, L = self.discontinuities, self.numerators, self.denominator
        if not disc:
            return
        index = {n: i for i, n in enumerate(nums)}
        k = len(disc)
        for t, n in zip(disc, nums):
            if (L - n) % L not in index:
                raise GcaError(
                    f"discontinuity set is not conjugation symmetric: {t} has no partner {(1 - t) % 1}"
                )
        for i, (t, n) in enumerate(zip(disc, nums)):
            j = index[(L - n) % L]
            if self.point_values[i] != self.point_values[j]:
                raise GcaError(f"point values at {t} and {(1 - t) % 1} differ")
            # the arc after disc i maps to the arc after the conjugate of disc i+1
            partner = index[(L - nums[(i + 1) % k]) % L]
            if self.arc_values[i] != self.arc_values[partner]:
                raise GcaError(
                    f"arc values are not conjugation symmetric "
                    f"(arc after {t} vs arc after {disc[partner]})"
                )

    @classmethod
    def build(
        cls,
        discontinuities: Iterable,
        arc_values: Iterable[int],
        point_values: Iterable[int] | None = None,
        *,
        ambient_dim: int | None = None,
    ) -> "BottFunction":
        """Construct from possibly unsorted data.

        Discontinuities are normalised into [0, 1) and sorted together with
        their arc and point values, both decided on integer numerators over
        the common denominator.  Omitted point values default to the
        minimum of the two adjacent arc values.  With ``ambient_dim`` = n the
        number of discontinuities is checked against the bound 2n - 2 on
        unit-circle eigenvalues of a linearised Poincare map.  Turns must be
        exact (see ``normalize_turn``) and values ints; a float or a bool is
        refused, not rounded.
        """
        disc = [exact_rational(t, "turns") for t in discontinuities]
        arcs = [exact_int(v, -math.inf, _INDEX_VALUE_MESSAGE) for v in arc_values]
        # duplicates and order are decided on the integer numerators over the
        # common denominator L, reduced mod L
        L = math.lcm(*(t.denominator for t in disc))
        scaled = [t.numerator * (L // t.denominator) for t in disc]
        nums = [n % L for n in scaled]
        if len(set(nums)) != len(disc):
            raise GcaError("duplicate discontinuities")
        if ambient_dim is not None and len(disc) > 2 * ambient_dim - 2:
            raise GcaError(
                f"{len(disc)} discontinuities exceed the bound 2n-2 = {2 * ambient_dim - 2}"
            )
        if disc:
            order = sorted(range(len(disc)), key=nums.__getitem__)
            if len(arcs) != len(disc):
                raise GcaError(f"expected {len(disc)} arc values, got {len(arcs)}")
            # only a turn outside [0, 1), or a Fraction subtype, is reduced by t % 1
            disc_sorted = [
                disc[i] if nums[i] == scaled[i] and type(disc[i]) is Fraction else disc[i] % 1
                for i in order
            ]
            arcs_sorted = [arcs[i] for i in order]
            if point_values is None:
                points_sorted = [
                    min(arcs_sorted[i - 1], arcs_sorted[i]) for i in range(len(disc_sorted))
                ]
            else:
                points = [exact_int(v, -math.inf, _INDEX_VALUE_MESSAGE) for v in point_values]
                if len(points) != len(disc):
                    raise GcaError(f"expected {len(disc)} point values, got {len(points)}")
                points_sorted = [points[i] for i in order]
            return cls(tuple(disc_sorted), tuple(arcs_sorted), tuple(points_sorted))
        if point_values is not None and list(point_values):
            raise GcaError("point values require discontinuities")
        return cls((), tuple(arcs), ())

    @classmethod
    def constant(cls, value: int) -> "BottFunction":
        return cls((), (exact_int(value, -math.inf, _INDEX_VALUE_MESSAGE),), ())

    def value_at(self, turns) -> int:
        """I at the given angle: the point value on a discontinuity, else
        the value of the enclosing open arc."""
        t = normalize_turn(turns)
        disc = self.discontinuities
        if not disc:
            return self.arc_values[0]
        i = bisect_right(disc, t) - 1
        if i >= 0 and disc[i] == t:
            return self.point_values[i]
        return self.arc_values[i if i >= 0 else len(disc) - 1]


def quarter_turn_function() -> BottFunction:
    """The step function with jumps at quarter turns: 0 on the arc through
    angle 0, 1 on the opposite arc.  This is the index function of the
    minimal non-contractible geodesic in the projective-plane argument."""
    return BottFunction.build((Fraction(1, 4), Fraction(3, 4)), (1, 0), (0, 0))


_ITERATE_MESSAGE = "iterate must be a positive integer, got {value!r}"


def bott_index(f: BottFunction, m: int) -> int:
    """Index of the m-th iterate: the exact sum of I over the m-th roots of
    unity (turns j/m, j = 0..m-1).

    Evaluated over the common denominator L: the root j/m hits the
    discontinuity a/L when m*a is divisible by L, and lies inside the open
    arc (a/L, b/L) when m*a < j*L < m*b, so each arc costs one floor and
    one ceiling division whatever the size of m.
    """
    exact_int(m, 1, _ITERATE_MESSAGE)
    nums = f.numerators
    if not nums:
        return m * f.arc_values[0]
    L = f.denominator
    total = 0
    ends = nums[1:] + (nums[0] + L,)
    for a, b, arc, point in zip(nums, ends, f.arc_values, f.point_values):
        if m * a % L == 0:
            total += point
        total += arc * (-(-m * b // L) - m * a // L - 1)
    return total


def is_nondegenerate(f: BottFunction, m: int) -> bool:
    """True when no discontinuity angle lands on +-1 after m-fold iteration,
    i.e. m * turns is never an integer or a half-integer."""
    exact_int(m, 1, _ITERATE_MESSAGE)
    L = f.denominator
    for n in f.numerators:
        r = m * n % L
        if r == 0 or 2 * r == L:
            return False
    return True


def schwarz_even(f: BottFunction, m: int) -> bool:
    """Whether ind(m-th iterate) - ind(first iterate) is even; this is the
    condition for the iterate to contribute to equivariant rational homology."""
    return (bott_index(f, m) - bott_index(f, 1)) % 2 == 0


def index_parity(f: BottFunction, m: int) -> int:
    """Parity (0 or 1) of the m-th index.  By conjugation symmetry non-real
    roots contribute in pairs, so this equals the parity of I(1) for odd m
    and of I(1) + I(-1) for even m."""
    return bott_index(f, m) % 2


_INDICES_MESSAGE = "indices are non-negative integers"


@dataclass(frozen=True)
class IndexSequence:
    """Indices of selected iterates, (m, index) with m strictly increasing."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        message = "iterates must be strictly increasing positive integers"
        ms = [exact_int(m, 1, message) for m, _ in self.entries]
        if ms != sorted(set(ms)):
            raise GcaError(message)
        for _, i in self.entries:
            exact_int(i, 0, _INDICES_MESSAGE)

    @classmethod
    def from_function(cls, f: BottFunction, iterates: Iterable[int]) -> "IndexSequence":
        return cls(tuple((m, bott_index(f, m)) for m in iterates))

    def indices(self) -> tuple[int, ...]:
        return tuple(i for _, i in self.entries)


def morse_matches_betti(seq: IndexSequence, betti: BettiTable) -> bool:
    """Perfect equivariant Morse matching against a Betti table.

    Each entry stands for one non-degenerate critical orbit contributing one
    dimension in its index degree.  True when the multiset of indices at
    most betti.max_degree equals the multiset of degrees counted with
    multiplicity betti.dims[d]; entries above the cutoff are ignored.
    """
    return _match_against_targets(seq.entries, betti)[0]


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable transcript of a contradiction search.

    ``verdict`` is contradiction-established exactly when every survivor
    fails a required condition recorded in the transcript; otherwise the
    search is inconclusive.  Parameters echo everything needed to replay the
    search.
    """

    kind: str
    parameters: dict
    survivors: tuple
    verdict: str
    transcript: tuple

    @property
    def established(self) -> bool:
        return self.verdict == CONTRADICTION_ESTABLISHED


def _candidate_payload(f: BottFunction) -> dict:
    return {
        "disc": list(f.discontinuities),
        "arcs": list(f.arc_values),
        "points": list(f.point_values),
    }


def _match_against_targets(
    indices: Iterable[tuple[int, int]], betti: BettiTable
) -> tuple[bool, str]:
    """Match (iterate, index) pairs, in increasing iterate order, against
    the Betti table: each index at most betti.max_degree fills one of the
    betti.dims[index] dimensions of its degree, and every degree must be
    filled exactly.  The reason names the first iterate that fails, or else
    the lowest degree left short.

    Indices must be non-negative, as they are in every IndexSequence and in
    a * grid_pair_root_counts(...), so an index never wraps round the list.
    """
    dims = betti.dims
    cutoff = betti.max_degree
    left = list(dims)
    for m, ind in indices:
        if ind > cutoff:
            continue
        if not left[ind]:
            if not dims[ind]:
                return False, f"iterate {m} has index {ind}, not covered by the Betti targets"
            return False, f"iterate {m} overfills index {ind} (multiplicity {dims[ind]})"
        left[ind] -= 1
    for d, n in enumerate(left):
        if n:
            return False, f"index {d} covered {dims[d] - n} times, target {dims[d]}"
    return True, ""


def grid_pair_root_counts(j: int, N: int, iterates: Iterable[int]) -> list[int]:
    """For each m, the number of m-th roots of unity strictly inside the arc
    (j/N, 1 - j/N) through angle 1/2, 0 < j < N/2: m - 1 - 2*floor(m*j/N).

    The roots k/m inside are the integers k with m*j/N < k < m - m*j/N.  So
    the step function that is a on that arc and 0 elsewhere, points
    included, has index a times this count at the m-th iterate.
    """
    return [m - 1 - 2 * (m * j // N) for m in iterates]


QUARTER_TURNS = (Fraction(1, 4), Fraction(3, 4))


def certify_theorem4(
    grid_denominator: int, value_bound: int, iterate_cutoff: int
) -> Certificate:
    """Exhaustive two-geodesic certificate for the projective plane.

    Enumerates every step function with at most one conjugate pair of
    discontinuities on the grid j/N, values bounded by V, and value 0 on the
    arc through angle 0 (a minimal geodesic has index 0).  A candidate
    survives when its odd-iterate index sequence up to M is a perfect Morse
    match for the Betti numbers Q[w,z]/(w^2), deg w = deg z = 2, of the
    equivariant loop space.  The verdict is contradiction-established when
    survivors exist and every survivor jumps exactly at quarter turns and is
    degenerate at the doubled iterate - i.e. the single-geodesic hypothesis
    contradicts bumpiness.  With no survivors the Morse-matching premise
    itself failed and the search is inconclusive.

    Preconditions: N even and >= 2 (so quarter turns can lie on the grid),
    M odd with M >= 2N + 1 (iterates beyond the grid denominator are what
    eliminate the off-quarter candidates).
    """
    N, V, M = grid_denominator, value_bound, iterate_cutoff
    grid_message = "grid denominator must be an even integer >= 2, got {value!r}"
    if exact_int(N, 2, grid_message) % 2:
        raise GcaError(grid_message.format(value=N))
    exact_int(V, 0, "value bound must be a non-negative integer, got {value!r}")
    cutoff_message = f"iterate cutoff must be an odd integer >= 2N+1 = {2 * N + 1}, got {{value!r}}"
    if exact_int(M, 2 * N + 1, cutoff_message) % 2 == 0:
        raise GcaError(cutoff_message.format(value=M))

    degree_cutoff = 2 * (((M - 1) // 2) // 2)
    betti = BettiTable.from_dims(quotient_ring_dims(RingPresentation(2, 2, 2), degree_cutoff))

    # each candidate as its sorted jump pair (none for the zero function), its
    # value a on the arc through angle 1/2 and that arc's root counts at the
    # odd iterates: the index of iterate m is a times the count (the point
    # values are 0, so a root on a jump adds nothing), and the V + 1 values of
    # a pair share one list of counts.  Every candidate is valid by
    # construction (j/N < 1/2 < 1 - j/N, non-negative int values, points the
    # minima of the adjacent arcs, as BottFunction.build would normalise
    # them), so its transcript payload is built directly and only a survivor
    # becomes a BottFunction.  The zero function comes first, then j and a
    # ascending, so the survivors come out in (jumps, arcs) order.
    iterates = range(1, M + 1, 2)
    candidates: list[tuple[tuple[Fraction, ...], int, list[int]]] = [((), 0, [0] * len(iterates))]
    for j in range(1, (N - 1) // 2 + 1):
        disc = (Fraction(j, N), Fraction(N - j, N))
        roots = grid_pair_root_counts(j, N, iterates)
        candidates.extend((disc, a, roots) for a in range(0, V + 1))

    transcript: list[dict] = []
    checks: list[dict] = []
    for disc, a, roots in candidates:
        matched, reason = _match_against_targets(zip(iterates, map(a.__mul__, roots)), betti)
        if disc:
            candidate = {"disc": list(disc), "arcs": [a, 0], "points": [0, 0]}
        else:
            candidate = {"disc": [], "arcs": [0], "points": []}
        entry = {"candidate": candidate, "matched": matched}
        if not matched:
            entry["reason"] = reason
        transcript.append(entry)
        if matched:
            f = BottFunction(disc, (a, 0), (0, 0)) if disc else BottFunction.constant(0)
            seq = IndexSequence.from_function(f, iterates)
            assert morse_matches_betti(seq, betti)
            quarter = f.discontinuities == QUARTER_TURNS
            degenerate = not is_nondegenerate(f, 2)
            checks.append(
                {
                    "survivor": _candidate_payload(f),
                    "quarter_turns": quarter,
                    "degenerate_at_iterate_2": degenerate,
                    "fails_nondegeneracy": quarter and degenerate,
                }
            )
    transcript.extend(checks)

    if not checks:
        verdict = INCONCLUSIVE
        transcript.append({"note": "no candidate matched the Betti targets; the Morse premise failed"})
    elif all(c["fails_nondegeneracy"] for c in checks):
        verdict = CONTRADICTION_ESTABLISHED
    else:
        verdict = INCONCLUSIVE

    parameters = {
        "grid_denominator": N,
        "value_bound": V,
        "iterate_cutoff": M,
        "degree_cutoff": degree_cutoff,
        "betti_targets": list(betti.dims),
        "candidates": len(candidates),
        "search_space": "conjugate pairs {j/N, 1-j/N}, 0 < j < N/2, plus the zero function; "
        "inner arc through angle 0 fixed to 0; point values at the minimum "
        "of adjacent arcs",
    }
    return Certificate(
        kind="theorem4",
        parameters=parameters,
        survivors=tuple(c["survivor"] for c in checks),
        verdict=verdict,
        transcript=tuple(transcript),
    )


def certify_theorem5(
    spec: SpaceFormSpec,
    pairwise_nonconjugate: bool,
    k: int,
    f: BottFunction,
    iterate_count: int,
) -> Certificate:
    """Even-parity certificate for a single-geodesic hypothesis on an
    odd-dimensional space form.

    Hypotheses: h has even order 2p, centralizer elements are pairwise
    non-conjugate (taken as an input flag), and the minimal closed geodesic
    of the class is the k-th iterate of a simple geodesic with index
    function f, so bott_index(f, k) must be 0.  The certificate computes
    pi_1 of the equivariant loop space; when it is nontrivial and the
    indices of the iterates k(1 + 2pl), l = 0..L, are all even, the handle
    decomposition would consist of even cells only, contradicting the
    fundamental group - verdict contradiction-established.  An odd index or
    a trivial pi_1 makes the search inconclusive.

    The step from all-even indices to the contradiction uses the handle
    decomposition of the quotient and is recorded as an assumption in the
    parameters, not recomputed.
    """
    if spec.element_order % 2:
        raise GcaError(f"h must have even order, got {spec.element_order}")
    if pairwise_nonconjugate is not True:  # a bool, so the certificate's JSON field is one
        raise GcaError(
            "the certificate requires pairwise non-conjugate centralizer elements"
            if pairwise_nonconjugate is False
            else f"pairwise_nonconjugate must be True or False, got {pairwise_nonconjugate!r}"
        )
    exact_int(k, 1, "k must be a positive integer, got {value!r}")
    exact_int(iterate_count, 0, "iterate count must be an integer >= 0, got {value!r}")
    index = bott_index(f, k)
    if index != 0:
        raise GcaError(f"the minimal geodesic must have index 0, got bott_index(f, {k}) = {index}")

    p2 = spec.element_order
    pi1 = theorem2_table(spec, 3).pi1
    parameters = {
        "n": spec.n,
        "r": spec.r,
        "element_order": p2,
        "k": k,
        "iterate_count": iterate_count,
        "pi1_order": pi1,
        "pairwise_nonconjugate": pairwise_nonconjugate,
        "assumption": "a handle decomposition with only even-dimensional cells "
        "forces a trivial fundamental group",
    }
    transcript = []
    offending = None
    if pi1 > 1:
        for l in range(iterate_count + 1):
            m = k * (1 + p2 * l)
            ind = bott_index(f, m)
            parity = ind % 2
            transcript.append({"l": l, "iterate": m, "index": ind, "parity": "odd" if parity else "even"})
            if parity and offending is None:
                offending = m
    if pi1 <= 1:
        verdict = INCONCLUSIVE
        note = "pi_1 of the equivariant loop space is trivial; no contradiction available"
    elif offending is None:
        verdict = CONTRADICTION_ESTABLISHED
        note = (
            f"all listed indices are even while pi_1 has order {pi1}; "
            "the single-geodesic hypothesis fails"
        )
    else:
        verdict = INCONCLUSIVE
        note = f"iterate {offending} has odd index; no parity obstruction"
    transcript.append({"note": note})
    return Certificate(
        kind="theorem5",
        parameters=parameters,
        survivors=({"bott_function": _candidate_payload(f), "k": k},),
        verdict=verdict,
        transcript=tuple(transcript),
    )


def parity_distinct(ind_a: int, ind_b: int) -> bool:
    """Whether two homology-contributing geodesics of these indices are
    forced distinct because their indices have different parity."""
    exact_int(ind_a, 0, _INDICES_MESSAGE)
    exact_int(ind_b, 0, _INDICES_MESSAGE)
    return (ind_a - ind_b) % 2 == 1


def parity_remark_certificate(ind_a: int, ind_b: int) -> Certificate:
    """Certificate form of the parity test for a pair of geodesics."""
    distinct = parity_distinct(ind_a, ind_b)
    return Certificate(
        kind="parity-remark",
        parameters={"ind_a": ind_a, "ind_b": ind_b},
        survivors=({"indices": [ind_a, ind_b]},),
        verdict=CONTRADICTION_ESTABLISHED if distinct else INCONCLUSIVE,
        transcript=(
            {
                "note": "indices have different parity; the geodesics are distinct"
                if distinct
                else "indices share parity; no conclusion"
            },
        ),
    )
