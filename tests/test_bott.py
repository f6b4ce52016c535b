"""Index iteration, step-function arithmetic, and the certificate searches."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from loopspace.bott import (
    CONTRADICTION_ESTABLISHED,
    INCONCLUSIVE,
    BottFunction,
    IndexSequence,
    bott_index,
    certify_theorem4,
    certify_theorem5,
    grid_pair_root_counts,
    index_parity,
    is_nondegenerate,
    morse_matches_betti,
    parity_distinct,
    parity_remark_certificate,
    quarter_turn_function,
    schwarz_even,
)
from loopspace import bott, serialize
from loopspace.gca import GcaError
from loopspace.gca.cohomology import BettiTable
from loopspace.spaceforms import SpaceFormSpec

from helpers import bott_index_by_scan, random_bott, reference_certify_theorem4, step_value_by_scan


# -- construction and evaluation ----------------------------------------------


def test_build_sorts_and_defaults_point_values():
    f = BottFunction.build((Fraction(3, 4), Fraction(1, 4)), (0, 1))
    assert f.discontinuities == (Fraction(1, 4), Fraction(3, 4))
    assert f.arc_values == (1, 0)
    assert f.point_values == (0, 0)
    assert f == quarter_turn_function()


def test_constructor_rejects_bad_data():
    with pytest.raises(GcaError):
        BottFunction((Fraction(1, 4),), (1,), (0,))  # not conjugation symmetric
    with pytest.raises(GcaError):
        BottFunction((Fraction(3, 4), Fraction(1, 4)), (1, 0), (0, 0))  # unsorted
    with pytest.raises(GcaError):
        BottFunction((Fraction(1, 4), Fraction(3, 4)), (1,), (0, 0))  # arc count
    with pytest.raises(GcaError):
        BottFunction((Fraction(1, 4), Fraction(3, 4)), (1, 0), (0, 1))  # point asymmetry
    with pytest.raises(GcaError):
        BottFunction((Fraction(1, 4), Fraction(3, 4)), (1, -1), (0, 0))  # negative value
    with pytest.raises(GcaError):
        BottFunction.build((Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)), (1, 1, 0))
    with pytest.raises(GcaError):
        # four discontinuities exceed the eigenvalue bound 2n-2 = 2
        BottFunction.build(
            (Fraction(1, 8), Fraction(7, 8), Fraction(3, 8), Fraction(5, 8)),
            (0, 1, 1, 0),
            ambient_dim=2,
        )


# the exact messages of invalid constructions: the conjugation messages as
# worded before that check moved to integer numerators, one case for each
# other check of __post_init__ in the order they run, then two faults at
# once, where the earlier check names the fault, then turns that do not compare
@pytest.mark.parametrize(
    "disc, arcs, points, message",
    [
        ((Fraction(1, 4),), (1,), (0,),
         "discontinuity set is not conjugation symmetric: 1/4 has no partner 3/4"),
        ((Fraction(1, 5), Fraction(2, 7), Fraction(5, 7)), (0, 1, 0), (0, 0, 0),
         "discontinuity set is not conjugation symmetric: 1/5 has no partner 4/5"),
        ((Fraction(1, 4), Fraction(3, 4)), (1, 0), (0, 1), "point values at 1/4 and 3/4 differ"),
        ((Fraction(1, 5), Fraction(2, 7), Fraction(5, 7), Fraction(4, 5)), (0, 1, 0, 2), (0, 1, 0, 0),
         "point values at 2/7 and 5/7 differ"),
        ((Fraction(0), Fraction(1, 4), Fraction(3, 4)), (1, 0, 2), (0, 0, 0),
         "arc values are not conjugation symmetric (arc after 0 vs arc after 3/4)"),
        ((Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)), (1, 2, 3), (0, 0, 0),
         "arc values are not conjugation symmetric (arc after 1/6 vs arc after 1/2)"),
        ((Fraction(0), Fraction(3, 11), Fraction(1, 2), Fraction(8, 11)), (0, 1, 2, 3), (0, 0, 0, 0),
         "arc values are not conjugation symmetric (arc after 0 vs arc after 8/11)"),
        ((0.25, 0.75), (1, 0), (0, 0), "discontinuities must be exact rationals"),
        ((Fraction(3, 4), Fraction(1, 4)), (1, 0), (0, 0), "discontinuities must be strictly increasing"),
        ((Fraction(1, 4), Fraction(1, 4)), (1, 0), (0, 0), "discontinuities must be strictly increasing"),
        ((Fraction(-1, 4), Fraction(1, 4)), (1, 0), (0, 0), "discontinuities must be turns in [0, 1)"),
        ((Fraction(1, 4), 1), (1, 0), (0, 0), "discontinuities must be turns in [0, 1)"),
        ((Fraction(1, 4), Fraction(3, 4)), (1,), (0, 0), "expected 2 arc values, got 1"),
        ((), (1, 2), (), "expected 1 arc values, got 2"),
        ((Fraction(1, 4), Fraction(3, 4)), (1, 0), (0,), "expected 2 point values, got 1"),
        ((Fraction(1, 4), Fraction(3, 4)), (1, -1), (0, 0),
         "values of the index function are non-negative integers"),
        ((Fraction(1, 4), Fraction(3, 4)), (1, 0.5), (0, 0),
         "values of the index function are non-negative integers"),
        # two faults
        ((0.75, 0.25), (1, 0), (0, 0), "discontinuities must be strictly increasing"),
        ((0.25, 1.5), (1, 0), (0, 0), "discontinuities must be exact rationals"),
        ((Fraction(1, 4), Fraction(5, 4)), (1,), (0, 0), "discontinuities must be turns in [0, 1)"),
        ((Fraction(1, 4), Fraction(3, 4)), (1,), (0,), "expected 2 arc values, got 1"),
        ((Fraction(1, 4), Fraction(3, 4)), (1, -1), (0,), "expected 2 point values, got 1"),
        ((Fraction(1, 4),), (-1,), (0,), "values of the index function are non-negative integers"),
        # turns that do not compare with each other have no order to fault
        (("1/4", Fraction(3, 4)), (1, 0), (0, 0), "discontinuities must be exact rationals"),
        ((Fraction(1, 4), None), (1, 0), (0, 0), "discontinuities must be exact rationals"),
        ((None, None), (1, 0), (0, 0), "discontinuities must be exact rationals"),
        ((1j, Fraction(1, 2)), (1, 0), (0, 0), "discontinuities must be exact rationals"),
    ],
)
def test_constructor_error_messages(disc, arcs, points, message):
    with pytest.raises(GcaError) as excinfo:
        BottFunction(disc, arcs, points)
    assert str(excinfo.value) == message


def test_validation_accepts_rational_subtypes():
    class Turn(Fraction):
        pass

    f = BottFunction((Turn(1, 4), Turn(3, 4)), (1, 0), (0, 0))
    assert f == quarter_turn_function() and f.numerators == (1, 3)
    assert BottFunction((0, Fraction(1, 2)), (1, 1), (1, 1)).numerators == (0, 1)
    # a bool is an int, but its DSL text does not parse and its JSON turn is "False"
    with pytest.raises(GcaError) as excinfo:
        BottFunction((False,), (2,), (2,))
    assert str(excinfo.value) == "discontinuities must be exact rationals"


@pytest.mark.parametrize("turn", [0.25, 1.5, True, None, Fraction(1, 4) + 0j, "quarter", "1/0"])
def test_build_and_value_at_refuse_inexact_turns(turn):
    message = f"turns must be exact (int, Fraction or 'p/q' string), got {turn!r}"
    with pytest.raises(GcaError) as excinfo:
        BottFunction.build((turn, Fraction(3, 4)), (1, 0))
    assert str(excinfo.value) == message
    with pytest.raises(GcaError) as excinfo:
        quarter_turn_function().value_at(turn)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [1.7, 1.0, True, Fraction(1), "1", None])
def test_build_refuses_non_int_values(value):
    message = f"values of the index function must be ints, got {value!r}"
    quarter = (Fraction(1, 4), Fraction(3, 4))
    for arcs, points in [((value, 0), None), ((1, 0), (value, value))]:
        with pytest.raises(GcaError) as excinfo:
            BottFunction.build(quarter, arcs, points)
        assert str(excinfo.value) == message
    with pytest.raises(GcaError) as excinfo:
        BottFunction.constant(value)
    assert str(excinfo.value) == message


def test_build_accepts_exact_turns_and_int_values():
    class Level(int):
        pass

    f = quarter_turn_function()
    built = BottFunction.build(("1/4", "3/4"), (Level(1), 0))
    assert built == f and type(built.arc_values[0]) is int
    assert BottFunction.build((1 + Fraction(1, 4), -1 + Fraction(3, 4)), (1, 0)) == f
    assert f.value_at("1/2") == 1 and f.value_at(2) == 0 and f.value_at(Fraction(5, 4)) == 0
    assert BottFunction.constant(Level(2)) == BottFunction.constant(2)


def _build_by_fraction(turns, arcs, points, ambient_dim):
    """The Fraction oracle of BottFunction.build: turns reduced by t % 1,
    deduplicated by hashing and sorted by comparing them."""
    disc = [Fraction(t) % 1 for t in turns]
    if len(set(disc)) != len(disc):
        raise GcaError("duplicate discontinuities")
    if ambient_dim is not None and len(disc) > 2 * ambient_dim - 2:
        raise GcaError(f"{len(disc)} discontinuities exceed the bound 2n-2 = {2 * ambient_dim - 2}")
    order = sorted(range(len(disc)), key=lambda i: disc[i])
    arcs = [arcs[i] for i in order]
    if points is None:
        points = [min(arcs[i - 1], arcs[i]) for i in range(len(arcs))]
    else:
        points = [points[i] for i in order]
    return BottFunction(tuple(disc[i] for i in order), tuple(arcs), tuple(points))


def _outcome(build, *args):
    try:
        f = build(*args)
    except GcaError as exc:
        return "error", str(exc)
    assert all(type(t) is Fraction for t in f.discontinuities)
    return "function", f, f.discontinuities, f.arc_values, f.point_values


class _Turn(Fraction):
    pass


def _as_input(rng, t):
    # the same turn, shifted by whole turns, as a Fraction, a 'p/q' string or an int
    t += rng.randint(-2, 2)
    form = rng.randrange(3)
    if form == 2 and t.denominator == 1:
        return int(t)
    return f"{t.numerator}/{t.denominator}" if form else t


@pytest.mark.parametrize("seed", range(6))
def test_build_on_numerators_agrees_with_the_fraction_oracle(seed):
    rng = random.Random(seed)
    outcomes = Counter()
    for _ in range(150):
        f = random_bott(rng)
        disc, arcs, points = list(f.discontinuities), list(f.arc_values), list(f.point_values)
        if len(disc) == 0:
            continue
        roll = rng.random()
        if roll < 0.15:  # a duplicate that only shows once normalised
            i = rng.randrange(len(disc))
            disc.append(disc[i] + rng.choice((-1, 1)))
            arcs.append(arcs[i])
            points.append(points[i])
        elif roll < 0.3:  # an extra turn, which breaks conjugation symmetry
            disc.append(Fraction(rng.randrange(1, 13), 13))
            arcs.append(rng.randint(0, 3))
            points.append(0)
        order = list(range(len(disc)))
        rng.shuffle(order)
        turns = [_as_input(rng, disc[i]) for i in order]
        arcs = [arcs[i] for i in order]
        points = None if rng.random() < 0.5 else [points[i] for i in order]
        ambient_dim = rng.choice((None, None, 2, 3, 4))
        got = _outcome(lambda: BottFunction.build(turns, arcs, points, ambient_dim=ambient_dim))
        want = _outcome(_build_by_fraction, turns, arcs, points, ambient_dim)
        assert got == want, (turns, arcs, points, ambient_dim)
        outcomes[got[1] if got[0] == "error" else "function"] += 1
    assert outcomes["function"] and outcomes["duplicate discontinuities"]


@pytest.mark.parametrize(
    "turns, arcs, expected",
    [
        ((Fraction(1, 4), Fraction(5, 4)), (1, 0), "duplicate discontinuities"),
        ((Fraction(-3, 4), "1/4"), (1, 0), "duplicate discontinuities"),
        ((0, 1, "1/2"), (1, 1, 1), "duplicate discontinuities"),
        (("-3/4", Fraction(-1, 4)), (1, 0), quarter_turn_function()),
        ((Fraction(7, 4), 2, "5/4"), (1, 1, 0),
         BottFunction((Fraction(0), Fraction(1, 4), Fraction(3, 4)), (1, 0, 1), (1, 0, 0))),
        ((-1, Fraction(1, 2)), (3, 3), BottFunction((Fraction(0), Fraction(1, 2)), (3, 3), (3, 3))),
        # a Fraction subtype inside [0, 1) is stored as a plain Fraction too
        ((_Turn(3, 4), _Turn(1, 4)), (0, 1), quarter_turn_function()),
    ],
)
def test_build_normalises_turns_outside_the_unit_interval(turns, arcs, expected):
    got = _outcome(lambda: BottFunction.build(turns, arcs))
    assert got == _outcome(_build_by_fraction, turns, arcs, None, None)
    assert got == (("error", expected) if isinstance(expected, str) else _outcome(lambda: expected))


def test_derived_numerators_stay_out_of_equality_and_printing():
    f = quarter_turn_function()
    assert (f.denominator, f.numerators) == (4, (1, 3))
    assert repr(f) == (
        "BottFunction(discontinuities=(Fraction(1, 4), Fraction(3, 4)), "
        "arc_values=(1, 0), point_values=(0, 0))"
    )
    g = BottFunction((Fraction(2, 8), Fraction(6, 8)), (1, 0), (0, 0))
    assert g == f and hash(g) == hash(f)
    assert BottFunction.constant(2).numerators == ()


def test_grid_candidates_equal_their_built_form():
    # certify_theorem4 constructs its survivors directly in sorted form
    for N in (2, 4, 10, 36):
        for j in range(1, (N - 1) // 2 + 1):
            for a in range(3):
                direct = BottFunction((Fraction(j, N), Fraction(N - j, N)), (a, 0), (0, 0))
                built = BottFunction.build((Fraction(j, N), 1 - Fraction(j, N)), (a, 0))
                assert direct == built


def test_value_at_points_and_arcs():
    f = quarter_turn_function()
    assert f.value_at(Fraction(1, 4)) == 0
    assert f.value_at(Fraction(1, 2)) == 1
    assert f.value_at(0) == 0
    assert f.value_at(Fraction(9, 8)) == f.value_at(Fraction(1, 8)) == 0
    g = BottFunction.constant(3)
    assert g.value_at(Fraction(5, 7)) == 3


# -- index iteration -----------------------------------------------------------


def test_bott_index_zero_function():
    f = BottFunction.constant(0)
    for m in (1, 2, 7, 30):
        assert bott_index(f, m) == 0


def test_bott_index_quarter_function_derived_values():
    f = quarter_turn_function()
    # counting m-th roots of unity on the open arc (1/4, 3/4)
    assert bott_index(f, 3) == 2
    assert bott_index(f, 5) == 2
    assert bott_index(f, 7) == 4
    assert bott_index(f, 9) == 4


def test_bott_index_first_iterate_is_value_at_one():
    rng = random.Random(99)
    for _ in range(100):
        f = random_bott(rng)
        assert bott_index(f, 1) == f.value_at(0)


def test_bott_index_matches_scan_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        f = random_bott(rng)
        for m in list(range(1, 13)) + [25, 50]:
            assert bott_index(f, m) == bott_index_by_scan(f, m)


def test_value_at_matches_scan_oracle():
    rng = random.Random(2025)
    for _ in range(50):
        f = random_bott(rng)
        for q in range(1, 9):
            for p in range(q):
                t = Fraction(p, q)
                assert f.value_at(t) == step_value_by_scan(f, t)


MIXED_PAIRS = (Fraction(1, 5), Fraction(2, 7), Fraction(3, 11))


def mixed_denominator_function(rng, full=False):
    """A conjugation-symmetric function whose jumps have coprime
    denominators: one to three of the pairs {t, 1-t} above, plus 0 and 1/2
    at random (all of them when ``full``, so L = 770).  Conjugate arcs (equal
    distance of their midpoints to the real axis) and conjugate points get
    equal random values."""
    pairs = MIXED_PAIRS if full else rng.sample(MIXED_PAIRS, rng.randint(1, 3))
    real = [t for t in (Fraction(0), Fraction(1, 2)) if full or rng.random() < 0.5]
    disc = sorted({s for t in pairs for s in (t, 1 - t)} | set(real))
    arc_level, point_level = {}, {}
    arcs, points = [], []
    for i, t in enumerate(disc):
        end = disc[i + 1] if i + 1 < len(disc) else disc[0] + 1
        mid = (t + end) / 2 % 1
        arcs.append(arc_level.setdefault(min(mid, 1 - mid), rng.randint(0, 3)))
        points.append(point_level.setdefault(min(t, 1 - t), rng.randint(0, 3)))
    return BottFunction(tuple(disc), tuple(arcs), tuple(points))


def nondegenerate_by_fractions(f, m):
    half = Fraction(1, 2)
    return all((m * t) % 1 not in (0, half) for t in f.discontinuities)


def test_mixed_denominators_against_scan_oracle():
    rng = random.Random(5711)
    for draw in range(12):
        f = mixed_denominator_function(rng, full=draw == 0)
        L = math.lcm(*(t.denominator for t in f.discontinuities))
        assert f.denominator == L
        assert [Fraction(n, L) for n in f.numerators] == list(f.discontinuities)
        iterates = set(range(1, 41)) | set(rng.sample(range(41, 400), 12))
        iterates |= {L - 1, L, L + 1, 2 * L}
        if L % 2 == 0:
            iterates |= {L // 2, 3 * L // 2}
        for m in sorted(iterates):
            assert bott_index(f, m) == bott_index_by_scan(f, m), (f, m)
            assert is_nondegenerate(f, m) == nondegenerate_by_fractions(f, m), (f, m)
        # every jump lands on +1 at the common denominator itself
        assert not is_nondegenerate(f, L)


@pytest.mark.parametrize("m", [0, -3, 2.0, 2.5, Fraction(3), "3", None])
def test_iterate_must_be_a_positive_int(m):
    f = quarter_turn_function()
    for function in (bott_index, is_nondegenerate):
        with pytest.raises(GcaError) as excinfo:
            function(f, m)
        assert str(excinfo.value) == f"iterate must be a positive integer, got {m!r}"


def test_additive_decomposition():
    rng = random.Random(77)
    for _ in range(50):
        f = random_bott(rng)
        g = BottFunction(
            f.discontinuities,
            tuple(v + 1 for v in f.arc_values),
            tuple(v + 1 for v in f.point_values),
        )
        total = BottFunction(
            f.discontinuities,
            tuple(a + b for a, b in zip(f.arc_values, g.arc_values)),
            tuple(a + b for a, b in zip(f.point_values, g.point_values)),
        )
        for m in (1, 2, 3, 8, 13):
            assert bott_index(total, m) == bott_index(f, m) + bott_index(g, m)


def test_conjugation_pairing_parity_contract():
    rng = random.Random(88)
    for _ in range(80):
        f = random_bott(rng)
        for m in range(1, 15):
            expected = f.value_at(0) + (f.value_at(Fraction(1, 2)) if m % 2 == 0 else 0)
            assert index_parity(f, m) == expected % 2
            assert index_parity(f, m) == bott_index(f, m) % 2


# -- degeneracy and parity -------------------------------------------------------


def test_is_nondegenerate_examples():
    f = quarter_turn_function()
    assert not is_nondegenerate(f, 2)  # 2 * 1/4 = 1/2
    assert is_nondegenerate(f, 3)
    assert is_nondegenerate(BottFunction.constant(1), 12)


def test_is_nondegenerate_fails_on_half_integer_multiples():
    rng = random.Random(123)
    for _ in range(50):
        m = rng.randint(1, 12)
        a = rng.randint(1, 2 * m - 1)
        t = Fraction(a, 2 * m) % 1
        if t == 0 or t == Fraction(1, 2):
            disc, arcs = (t,), (0,)
        else:
            disc, arcs = tuple(sorted({t, 1 - t})), (0, 0)
        f = BottFunction.build(disc, arcs)
        assert not is_nondegenerate(f, m)


def test_schwarz_even_examples():
    f = quarter_turn_function()
    assert schwarz_even(f, 1)
    assert schwarz_even(f, 7)  # 4 - 0
    one = BottFunction.constant(1)
    assert not schwarz_even(one, 2)  # 2 - 1 is odd


def test_index_parity_examples():
    f = quarter_turn_function()
    for m in (1, 3, 5, 9, 21):
        assert index_parity(f, m) == 0
    one = BottFunction.constant(1)
    assert index_parity(one, 3) == 1
    assert index_parity(one, 2) == 0


def test_parity_distinct():
    assert parity_distinct(0, 1)
    assert not parity_distinct(2, 4)
    assert not parity_distinct(3, 3)
    with pytest.raises(GcaError):
        parity_distinct(-1, 0)
    assert parity_remark_certificate(0, 1).established
    assert not parity_remark_certificate(2, 4).established


# -- Morse matching -----------------------------------------------------------------


def test_morse_matches_betti_examples():
    betti = BettiTable.from_dims([1, 0, 2, 0, 2])
    seq = IndexSequence(((1, 0), (3, 2), (5, 2), (7, 4), (9, 4)))
    assert morse_matches_betti(seq, betti)
    bad = IndexSequence(((1, 0), (3, 2), (5, 2), (7, 4), (9, 6)))
    assert not morse_matches_betti(bad, betti)
    assert morse_matches_betti(IndexSequence(()), BettiTable.from_dims([0]))


def test_morse_matching_ignores_indices_above_cutoff():
    betti = BettiTable.from_dims([1, 0, 2])
    seq = IndexSequence(((1, 0), (3, 2), (5, 2), (7, 4), (9, 4)))
    assert morse_matches_betti(seq, betti)


def test_morse_matching_agrees_with_multiset_oracle():
    # the oracle: the indices at most the cutoff, as a multiset, against the
    # degrees counted with their Betti numbers
    rng = random.Random(4242)
    kinds = Counter()
    for _ in range(3000):
        dims = [rng.choice((0, 0, 1, 2, 3)) for _ in range(rng.randint(1, 7))]
        betti = BettiTable.from_dims(dims)
        exact = [d for d, n in enumerate(dims) for _ in range(n)]
        kind = rng.choice(("exact", "overfill", "underfill", "zero", "random"))
        indices = list(exact)
        if kind == "overfill" and exact:
            indices.append(rng.choice(exact))
        elif kind == "underfill" and exact:
            indices.remove(rng.choice(exact))
        elif kind == "zero" and 0 in dims:
            indices.append(rng.choice([d for d, n in enumerate(dims) if n == 0]))
        elif kind == "random":
            indices = [rng.randrange(len(dims) + 2) for _ in range(rng.randint(0, 8))]
        indices += [rng.randint(len(dims), len(dims) + 4) for _ in range(rng.randint(0, 3))]
        rng.shuffle(indices)
        seq = IndexSequence(tuple(enumerate(indices, start=1)))
        cutoff = betti.max_degree
        expected = Counter(i for i in indices if i <= cutoff) == Counter(
            {d: n for d, n in enumerate(dims) if n}
        )
        assert morse_matches_betti(seq, betti) == expected, (dims, indices)
        kinds[kind, expected, not indices] += 1
    # every kind of sequence, matched and unmatched, the empty one included
    assert kinds["exact", True, False] and kinds["exact", False, False] == 0
    assert kinds["overfill", False, False] and kinds["underfill", False, False]
    assert kinds["zero", False, False] and kinds["random", False, False]
    assert kinds["exact", True, True] and kinds["random", False, True]


def test_certify_theorem4_survivors_come_out_sorted():
    # candidates are generated zero function first, then j and a ascending,
    # so the survivors, the matched candidates in that order, need no sort
    for N in range(8, 73, 8):
        for V in range(4):
            cert = certify_theorem4(N, V, 2 * N + 1)
            entries = [e for e in cert.transcript if "candidate" in e]
            keys = [(e["candidate"]["disc"], e["candidate"]["arcs"]) for e in entries]
            assert keys == sorted(keys), (N, V)
            matched = [e["candidate"] for e in entries if e["matched"]]
            assert list(cert.survivors) == matched, (N, V)


def test_index_sequence_validation():
    with pytest.raises(GcaError):
        IndexSequence(((3, 0), (1, 2)))
    with pytest.raises(GcaError):
        IndexSequence(((1, -1),))
    f = quarter_turn_function()
    seq = IndexSequence.from_function(f, range(1, 10, 2))
    assert seq.indices() == (0, 2, 2, 4, 4)


# -- certificates ----------------------------------------------------------------------


def test_grid_pair_root_counts_match_scan_oracle():
    # every grid pair of even N <= 40 at every odd iterate m <= 4N + 1, with
    # value 1 on the arc through 1/2; values 0, 2 and 3 on the grids N <= 16
    # (the scan over the whole family at four values takes about 17 s)
    for N in range(2, 41, 2):
        for j in range(1, N // 2):
            iterates = range(1, 4 * N + 2, 2)
            counts = grid_pair_root_counts(j, N, iterates)
            for a in (0, 1, 2, 3) if N <= 16 else (1,):
                f = BottFunction((Fraction(j, N), Fraction(N - j, N)), (a, 0), (0, 0))
                assert [a * c for c in counts] == [bott_index_by_scan(f, m) for m in iterates], (j, N, a)


def test_certify_theorem4_matches_reference_search():
    # the reference builds every candidate and calls bott_index per iterate
    for N in range(2, 41, 2):
        for V in (0, 1, 2, 5):
            for M in (2 * N + 1, 2 * N + 3, 4 * N + 1):
                cert, ref = certify_theorem4(N, V, M), reference_certify_theorem4(N, V, M)
                assert cert == ref, (N, V, M)
                assert serialize.dumps(serialize.certificate_json(cert)) == serialize.dumps(
                    serialize.certificate_json(ref)
                )


def test_certify_theorem4_builds_and_indexes_only_survivors(monkeypatch):
    quarter = quarter_turn_function()
    validated, indexed = [], []
    post_init, index = BottFunction.__post_init__, bott.bott_index

    def counting_post_init(self):
        validated.append(self)
        post_init(self)

    def counting_index(f, m):
        indexed.append(f)
        return index(f, m)

    monkeypatch.setattr(BottFunction, "__post_init__", counting_post_init)
    monkeypatch.setattr(bott, "bott_index", counting_index)
    cert = certify_theorem4(36, 3, 73)
    assert cert.parameters["candidates"] == 1 + 17 * 4
    # only the one survivor becomes a BottFunction, and its sequence is
    # checked through bott_index, nothing else is
    assert len(cert.survivors) == 1 and validated == [quarter]
    assert len(indexed) == 37 and set(indexed) == {quarter}


def test_certify_theorem4_candidates_are_valid_bott_functions():
    # the transcript payloads are built without a BottFunction; building and
    # validating one from each payload's own data must give the payload back
    for N in range(2, 81, 2):
        for V in range(4):
            cert = certify_theorem4(N, V, 2 * N + 1)
            payloads = [e["candidate"] for e in cert.transcript if "candidate" in e]
            assert len(payloads) == cert.parameters["candidates"], (N, V)
            for p in payloads:
                built = BottFunction.build(p["disc"], p["arcs"], p["points"])
                assert p == bott._candidate_payload(built), (N, V, p)
            # every payload holds fresh lists, shared with no other entry
            lists = [v for p in payloads for v in p.values()]
            assert len(set(map(id, lists))) == len(lists), (N, V)


def test_certify_theorem4_small_grid():
    cert = certify_theorem4(4, 1, 9)
    assert cert.verdict == CONTRADICTION_ESTABLISHED
    assert len(cert.survivors) == 1
    assert cert.survivors[0]["disc"] == [Fraction(1, 4), Fraction(3, 4)]
    assert cert.survivors[0]["arcs"] == [1, 0]


def test_certify_theorem4_zero_values_inconclusive():
    cert = certify_theorem4(4, 0, 9)
    assert cert.verdict == INCONCLUSIVE
    assert cert.survivors == ()
    # a value bound of 0 cannot produce index 2, so the Morse premise fails
    # on the full grid as well
    cert = certify_theorem4(360, 0, 721)
    assert cert.verdict == INCONCLUSIVE
    assert cert.survivors == ()


def test_certify_theorem4_higher_value_bound_keeps_unique_survivor():
    cert = certify_theorem4(8, 5, 17)
    assert cert.verdict == CONTRADICTION_ESTABLISHED
    assert [s["disc"] for s in cert.survivors] == [[Fraction(1, 4), Fraction(3, 4)]]
    assert [s["arcs"] for s in cert.survivors] == [[1, 0]]


def test_certify_theorem4_survivors_stable_under_grid_refinement():
    coarse = certify_theorem4(4, 1, 9)
    fine = certify_theorem4(8, 1, 17)
    assert [s["disc"] for s in coarse.survivors] == [s["disc"] for s in fine.survivors]


def test_certify_theorem4_preconditions():
    with pytest.raises(GcaError):
        certify_theorem4(5, 1, 11)  # odd grid
    with pytest.raises(GcaError):
        certify_theorem4(4, 1, 8)  # even cutoff
    with pytest.raises(GcaError):
        certify_theorem4(4, 1, 7)  # cutoff below 2N+1
    with pytest.raises(GcaError):
        certify_theorem4(4, -1, 9)


def test_certify_theorem4_deterministic():
    assert certify_theorem4(4, 2, 9) == certify_theorem4(4, 2, 9)


_CERTIFICATE_TYPES = {int, str, bool, type(None), Fraction, list, tuple, dict}


def _value_types(value, found):
    found.add(type(value))
    if isinstance(value, dict):
        assert all(type(k) is str for k in value)
        for v in value.values():
            _value_types(v, found)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _value_types(v, found)
    return found


def test_certificates_hold_only_json_types_and_fractions():
    # serialize.dumps prints a certificate's own containers, so no float (which
    # it would print) and no other type may occur in one
    rng = random.Random(5)
    certificates = [certify_theorem4(N, V, M) for N in (2, 4, 8, 12, 36) for V in (0, 1, 2)
                    for M in (2 * N + 1, 2 * N + 5)]
    for _ in range(40):
        f = random_bott(rng)
        ks = [k for k in range(1, 6) if bott_index(f, k) == 0]
        if ks:
            spec = SpaceFormSpec(rng.choice((3, 5, 7)), 2 * rng.randint(1, 6), 2)
            certificates.append(certify_theorem5(spec, True, rng.choice(ks), f, rng.randint(0, 12)))
    certificates += [parity_remark_certificate(a, b) for a in range(3) for b in range(3)]
    assert {c.kind for c in certificates} == {"theorem4", "theorem5", "parity-remark"}
    assert {c.verdict for c in certificates} == {CONTRADICTION_ESTABLISHED, INCONCLUSIVE}
    for cert in certificates:
        found = set()
        for part in (cert.parameters, cert.survivors, cert.transcript):
            _value_types(part, found)
        assert found <= _CERTIFICATE_TYPES, (cert.kind, found - _CERTIFICATE_TYPES)


def test_certify_theorem5_established():
    cert = certify_theorem5(SpaceFormSpec(3, 8, 2), True, 1, quarter_turn_function(), 10)
    assert cert.verdict == CONTRADICTION_ESTABLISHED
    assert cert.parameters["pi1_order"] == 4
    assert serialize.certificate_json(cert)["parameters"]["pairwise_nonconjugate"] is True
    iterates = [e for e in cert.transcript if "iterate" in e]
    assert [e["iterate"] for e in iterates] == [1 + 2 * l for l in range(11)]
    assert all(e["parity"] == "even" for e in iterates)


def test_certify_theorem5_trivial_pi1_inconclusive():
    cert = certify_theorem5(SpaceFormSpec(3, 2, 2), True, 1, quarter_turn_function(), 10)
    assert cert.verdict == INCONCLUSIVE


def test_certify_theorem5_preconditions():
    spec = SpaceFormSpec(3, 8, 2)
    with pytest.raises(GcaError):
        certify_theorem5(spec, True, 1, BottFunction.constant(1), 10)  # ind c != 0
    with pytest.raises(GcaError, match="^the certificate requires pairwise non-conjugate centralizer elements$"):
        certify_theorem5(spec, False, 1, quarter_turn_function(), 10)
    for flag in (1, "yes", 0, None, 1.0):  # only a bool, which the certificate's JSON keeps as one
        with pytest.raises(GcaError, match="^pairwise_nonconjugate must be True or False, got "):
            certify_theorem5(spec, flag, 1, quarter_turn_function(), 10)
    with pytest.raises(GcaError):
        certify_theorem5(SpaceFormSpec(3, 9, 3), True, 1, quarter_turn_function(), 10)  # odd order
    with pytest.raises(GcaError):
        certify_theorem5(spec, True, 0, quarter_turn_function(), 10)
