"""Every entry point that takes an exact number refuses a bool, a float, a
Decimal and None (and, where a rational is read, a string that is no
number or has a zero denominator) with a GcaError, and still accepts an
int subclass and, where a rational is read, a Fraction subclass."""

from decimal import Decimal
from fractions import Fraction

import pytest

from loopspace.bott import (
    BottFunction,
    IndexSequence,
    bott_index,
    certify_theorem4,
    certify_theorem5,
    is_nondegenerate,
    parity_distinct,
    quarter_turn_function,
)
from loopspace.gca import (
    DgaModel,
    Generator,
    GcaError,
    RingPresentation,
    cochain_complex,
    cohomology,
    quotient_ring_dims,
)
from loopspace.gca.cohomology import BettiTable, differential_matrix
from loopspace.spaceforms import (
    ActionEntry,
    GysinInput,
    HomotopyTable,
    SpaceFormSpec,
    loop_space_dims,
    sphere_rational_homotopy,
    standard_action_data,
    theorem1_table,
    theorem2_table,
)

MODEL = DgaModel([("a", 2), ("x", 3)], {"x": [(1, {"a": 2})]})
A = MODEL.gen("a")
QUARTER = quarter_turn_function()
LENS = SpaceFormSpec(3, 8, 2)
BASE = BettiTable.from_dims([1, 0, 1, 0])
TOTAL = BettiTable.from_dims([1, 0, 0, 1])
LENS_ACTION = standard_action_data(LENS)
COMPLEX = cochain_complex(MODEL, 4)
RING = RingPresentation(2, 2, 2)


# (entry point, call taking the value under test, a value it accepts)
INT_GATES = [
    ("Generator degree", lambda v: Generator("y", v), 2),
    ("DgaModel generator degree", lambda v: DgaModel([("a", 2), ("y", v)]), 3),
    ("DgaModel exponent", lambda v: DgaModel([("a", 2), ("x", 3)], {"x": [(1, {"a": v})]}), 2),
    ("DgaModel.monomial exponent", lambda v: MODEL.monomial({"a": v}), 2),
    ("DgaModel.element exponent", lambda v: MODEL.element([(1, {"a": v})]), 2),
    ("AlgebraElement power", lambda v: A ** v, 2),
    ("DgaModel.basis degree", lambda v: MODEL.basis(v), 6),
    ("DgaModel.bases top", lambda v: MODEL.bases(v), 6),
    ("DgaModel.basis_sizes top", lambda v: MODEL.basis_sizes(v), 6),
    ("DgaModel.monomial_keys top", lambda v: MODEL.monomial_keys(v).bases(v), 6),
    ("differential_matrix degree", lambda v: differential_matrix(MODEL, v, COMPLEX.degrees[4].out_columns), 4),
    ("BettiTable max_degree", lambda v: BettiTable(v, (1, 0)), 1),
    ("BettiTable dims", lambda v: BettiTable(1, (1, v)), 1),
    ("BettiTable.dim degree", lambda v: BASE.dim(v), 2),
    ("cohomology max_degree", lambda v: cohomology(MODEL, v), 4),
    ("cochain_complex max_degree", lambda v: cochain_complex(MODEL, v).betti(), 4),
    ("ComplexData.class_coordinates degree", lambda v: COMPLEX.class_coordinates(A, v), 2),
    ("ComplexData.is_exact degree", lambda v: COMPLEX.is_exact(A, v), 2),
    ("ComplexData.representative_elements degree", lambda v: COMPLEX.representative_elements(v), 2),
    ("RingPresentation deg_w", lambda v: RingPresentation(v, 2, 2), 2),
    ("RingPresentation deg_z", lambda v: RingPresentation(2, v, 2), 2),
    ("RingPresentation nilpotency", lambda v: RingPresentation(2, 2, v), 2),
    ("quotient_ring_dims max_degree", lambda v: quotient_ring_dims(RING, v), 6),
    ("SpaceFormSpec n", lambda v: SpaceFormSpec(v, 8, 2), 3),
    ("SpaceFormSpec r", lambda v: SpaceFormSpec(3, v, 2), 8),
    ("SpaceFormSpec element_order", lambda v: SpaceFormSpec(3, 8, v), 2),
    ("ActionEntry degree", lambda v: ActionEntry(v, 1, ((0,),)), 3),
    ("ActionEntry dim", lambda v: ActionEntry(3, v, ((0,),)), 1),
    ("HomotopyTable degree", lambda v: HomotopyTable(((v, 1),)), 2),
    ("HomotopyTable dimension", lambda v: HomotopyTable(((2, v),)), 1),
    ("HomotopyTable pi1", lambda v: HomotopyTable(((2, 1),), v), 4),
    ("sphere_rational_homotopy n", lambda v: sphere_rational_homotopy(v, 3), 3),
    ("sphere_rational_homotopy i", lambda v: sphere_rational_homotopy(4, v), 7),
    ("loop_space_dims max_degree", lambda v: loop_space_dims(LENS_ACTION, v), 6),
    ("theorem1_table max_degree", lambda v: theorem1_table(LENS, v), 6),
    ("theorem2_table max_degree", lambda v: theorem2_table(LENS, v), 6),
    ("BottFunction arc value", lambda v: BottFunction(QUARTER.discontinuities, (v, 0), (0, 0)), 1),
    ("BottFunction point value", lambda v: BottFunction(QUARTER.discontinuities, (1, 0), (v, v)), 0),
    ("BottFunction.build arc value", lambda v: BottFunction.build(QUARTER.discontinuities, (v, 0)), 1),
    ("BottFunction.build point value", lambda v: BottFunction.build(QUARTER.discontinuities, (1, 0), (v, v)), 0),
    ("BottFunction.constant", lambda v: BottFunction.constant(v), 2),
    ("bott_index iterate", lambda v: bott_index(QUARTER, v), 3),
    ("is_nondegenerate iterate", lambda v: is_nondegenerate(QUARTER, v), 3),
    ("IndexSequence iterate", lambda v: IndexSequence(((v, 0),)), 1),
    ("IndexSequence index", lambda v: IndexSequence(((1, v),)), 0),
    ("parity_distinct first", lambda v: parity_distinct(v, 0), 1),
    ("parity_distinct second", lambda v: parity_distinct(0, v), 1),
    ("certify_theorem4 grid", lambda v: certify_theorem4(v, 1, 17), 8),
    ("certify_theorem4 value bound", lambda v: certify_theorem4(8, v, 17), 1),
    ("certify_theorem4 cutoff", lambda v: certify_theorem4(8, 1, v), 17),
    ("certify_theorem5 k", lambda v: certify_theorem5(LENS, True, v, QUARTER, 3), 1),
    ("certify_theorem5 iterate count", lambda v: certify_theorem5(LENS, True, 1, QUARTER, v), 3),
]

RATIONAL_GATES = [
    ("DgaModel coefficient", lambda v: DgaModel([("a", 2), ("x", 3)], {"x": [(v, {"a": 2})]}), 2),
    ("DgaModel.element coefficient", lambda v: MODEL.element([(v, {"a": 1})]), Fraction(1, 2)),
    ("DgaModel.monomial_element coefficient",
     lambda v: MODEL.monomial_element(MODEL.monomial({"a": 1}), v), Fraction(-3, 2)),
    ("AlgebraElement.scale", lambda v: A.scale(v), Fraction(2, 3)),
    ("DgaModel.from_coords coordinate", lambda v: MODEL.from_coords(MODEL.basis(2), [v]), Fraction(1, 2)),
    ("ActionEntry matrix entry", lambda v: ActionEntry(2, 1, ((v,),)), Fraction(-2)),
    ("GysinInput euler entry", lambda v: GysinInput(BASE, (((v,),),), TOTAL), Fraction(1, 2)),
    ("BottFunction.build turn", lambda v: BottFunction.build((v, Fraction(3, 4)), (1, 0)), Fraction(5, 4)),
    ("BottFunction.value_at turn", lambda v: QUARTER.value_at(v), Fraction(1, 2)),
]

INEXACT = [True, False, 1.0, 2.5, Decimal("1"), None]


class Count(int):
    """An int subclass, as an IntEnum member is."""


class Turn(Fraction):
    """A Fraction subclass."""


def test_exact_number_gates():
    cases = [(name, call, bad) for name, call, _ in INT_GATES for bad in INEXACT]
    cases += [(name, call, bad) for name, call, _ in RATIONAL_GATES for bad in INEXACT + ["1/0", "abc"]]
    for name, call, bad in cases:
        with pytest.raises(GcaError):
            call(bad)
            pytest.fail(f"{name} accepted {bad!r}")
    for name, call, good in INT_GATES:
        assert call(Count(good)) == call(good), name
    for name, call, good in RATIONAL_GATES:
        assert call(Turn(good)) == call(good), name
        if good.denominator == 1:
            assert call(Count(good.numerator)) == call(good), name


def test_gysin_euler_rank_gate():
    # an Euler map given by its rank is a plain int in 0..min(rows, cols);
    # an inexact number, a bool or a rank out of range is refused, and an
    # int subclass is taken as the int
    for bad in INEXACT[:-1] + [-1, 2, Fraction(1), Turn(1)]:
        with pytest.raises(GcaError, match=r"^euler action at degree 0: "):
            GysinInput(BASE, (bad,), TOTAL)
            pytest.fail(f"GysinInput euler rank accepted {bad!r}")
    for good in (0, 1):
        inputs = GysinInput(BASE, (Count(good),), TOTAL)
        assert inputs == GysinInput(BASE, (good,), TOTAL) and type(inputs.euler[0]) is int
    assert GysinInput(BASE, (None,), TOTAL).euler_rank(0) == 0


def test_truncation_degrees_below_zero_are_refused():
    calls = [
        lambda: loop_space_dims(LENS_ACTION, -1),
        lambda: theorem1_table(LENS, -1),
        lambda: theorem2_table(LENS, -1),
        lambda: quotient_ring_dims(RING, -1),
    ]
    for call in calls:
        with pytest.raises(GcaError, match="^max_degree must be >= 0 and an integer, got -1$"):
            call()
    # zero is a truncation: degree 0 carries no homotopy and one monomial
    assert theorem2_table(LENS, 0).dims == () and quotient_ring_dims(RING, 0) == [1]
    # d from degree -1 is no map of the complex
    with pytest.raises(GcaError, match="^degree must be >= 0, got -1$"):
        differential_matrix(MODEL, -1, ())
