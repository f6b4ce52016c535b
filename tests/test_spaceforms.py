"""Homotopy tables, the order-4 extension, minimal models, Gysin checks."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from loopspace.dsl import parse_path
from loopspace.gca import (
    DgaModel,
    GcaError,
    MixedDegreeError,
    RingPresentation,
    UnknownGeneratorError,
    check_model,
    cochain_complex,
    cohomology,
    linalg,
    verify_ring_presentation,
)
from loopspace.gca.cohomology import BettiTable
from loopspace.spaceforms import (
    ActionData,
    ActionEntry,
    CYCLIC4,
    KLEIN4,
    GysinInput,
    SpaceFormSpec,
    circle_quotient_gysin_input,
    classify_order4_extension,
    euler_action_matrices,
    euler_action_ranks,
    euler_class,
    gysin_check,
    loop_space_dims,
    rank_identity_totals,
    sphere_rational_homotopy,
    standard_action_data,
    theorem1_table,
    theorem2_table,
    theorem3_model,
)

import golden
from helpers import odd_differential_models, random_model, reference_euler_action_matrices
from test_cohomology import _fallback_models, pencil_power_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RATIONAL_PENCIL = FIXTURES / "rational_pencil.dga"


# -- spec validation -----------------------------------------------------------


def test_spec_validation():
    SpaceFormSpec(3, 8, 2)
    SpaceFormSpec(2, 2, 2)
    with pytest.raises(GcaError):
        SpaceFormSpec(1, 2, 2)
    with pytest.raises(GcaError):
        SpaceFormSpec(4, 4, 2)  # even sphere admits only Z_2
    with pytest.raises(GcaError):
        SpaceFormSpec(3, 8, 3)  # 3 does not divide 8
    with pytest.raises(GcaError):
        SpaceFormSpec(3, 8, 1)  # h nontrivial
    assert SpaceFormSpec(5, 4).parity == "odd"


# -- sphere table ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,i,expected",
    [(4, 7, 1), (4, 4, 1), (4, 6, 0), (5, 5, 1), (5, 6, 0), (5, 9, 0), (2, 3, 1)],
)
def test_sphere_rational_homotopy_examples(n, i, expected):
    assert sphere_rational_homotopy(n, i) == expected


def test_sphere_rational_homotopy_closed_form():
    for n in range(2, 13):
        for i in range(2, 30):
            expected = 1 if (n % 2 == 0 and i in (n, 2 * n - 1)) or (n % 2 == 1 and i == n) else 0
            assert sphere_rational_homotopy(n, i) == expected


# -- exact-sequence rank engine ---------------------------------------------------


def test_loop_space_dims_odd_fixture():
    for k in (1, 2, 3):
        n = 2 * k + 1
        action = ActionData(((n, 1, ((Fraction(0),),)),))
        table = loop_space_dims(action, 2 * n)
        assert table.as_dict() == {n - 1: 1, n: 1}
        assert table.pi1 == 0  # not computed here


def test_loop_space_dims_even_fixture():
    for k in (2, 3):
        action = ActionData(
            ((2 * k, 1, ((Fraction(-2),),)), (4 * k - 1, 1, ((Fraction(0),),)))
        )
        table = loop_space_dims(action, 8 * k)
        assert table.as_dict() == {4 * k - 2: 1, 4 * k - 1: 1}


def test_loop_space_dims_trivial_action_closed_form():
    rng = random.Random(5)
    for _ in range(30):
        degrees = sorted(rng.sample(range(2, 12), rng.randint(1, 4)))
        dims = {d: rng.randint(1, 3) for d in degrees}
        action = ActionData(
            tuple(
                (d, dims[d], tuple(tuple(Fraction(0) for _ in range(dims[d])) for _ in range(dims[d])))
                for d in degrees
            )
        )
        table = loop_space_dims(action, 13)
        for i in range(2, 14):
            assert table.dim(i) == dims.get(i, 0) + dims.get(i + 1, 0)


def test_loop_space_dims_invertible_action_contributes_nothing():
    rng = random.Random(6)
    for _ in range(30):
        d = rng.randint(1, 3)
        # a random invertible rational matrix: triangular with nonzero diagonal
        rows = [
            [Fraction(rng.randint(1, 3)) if i == j else Fraction(rng.randint(-2, 2)) if j > i else Fraction(0) for j in range(d)]
            for i in range(d)
        ]
        degree = rng.randint(2, 10)
        action = ActionData(((degree, d, tuple(tuple(r) for r in rows)),))
        table = loop_space_dims(action, 12)
        assert table.dim(degree) == 0
        assert table.dim(degree - 1) == 0


def test_action_data_validation():
    with pytest.raises(GcaError):
        ActionEntry(2, 2, ((Fraction(1),),))  # wrong shape
    with pytest.raises(GcaError):
        ActionData(((3, 1, ((Fraction(0),),)), (2, 1, ((Fraction(0),),))))  # not increasing


# -- homotopy tables of the loop component and its quotient ------------------------


def test_theorem1_examples():
    t = theorem1_table(SpaceFormSpec(3, 8, 2), 10)
    assert t.as_dict() == {2: 1, 3: 1} and t.pi1 == 8
    t = theorem1_table(SpaceFormSpec(2, 2, 2), 10)
    assert t.as_dict() == {2: 1, 3: 1} and t.pi1 == 4
    t = theorem1_table(SpaceFormSpec(4, 2, 2), 10)
    assert t.as_dict() == {6: 1, 7: 1} and t.pi1 == 2


def test_theorem1_nonzero_degrees_follow_parity():
    for n in range(2, 13):
        spec = SpaceFormSpec(n, 2 if n % 2 == 0 else 8, 2)
        t = theorem1_table(spec, 2 * n + 2)
        if n % 2 == 0:
            k = n // 2
            assert list(t.as_dict()) == [4 * k - 2, 4 * k - 1]
        else:
            k = (n - 1) // 2
            assert list(t.as_dict()) == [2 * k, 2 * k + 1]


def test_theorem2_examples():
    t = theorem2_table(SpaceFormSpec(3, 8, 2), 10)
    assert t.as_dict() == {2: 2, 3: 1} and t.pi1 == 4
    t = theorem2_table(SpaceFormSpec(2, 2, 2), 10)
    assert t.as_dict() == {2: 2, 3: 1} and t.pi1 == 1
    t = theorem2_table(SpaceFormSpec(3, 2, 2), 10)
    assert t.pi1 == 1  # centralizer equals the subgroup generated by h


def test_theorem2_adds_one_in_degree_two():
    for n in range(2, 10):
        for r in ((2,) if n % 2 == 0 else (2, 4, 8)):
            spec = SpaceFormSpec(n, r, 2)
            t1 = theorem1_table(spec, 2 * n + 2)
            t2 = theorem2_table(spec, 2 * n + 2)
            assert t2.dim(2) == t1.dim(2) + 1
            for i in range(3, 2 * n + 3):
                assert t2.dim(i) == t1.dim(i)


# -- the two groups of order 4 ---------------------------------------------------


def test_classify_order4_extension():
    assert classify_order4_extension(True) is CYCLIC4
    assert classify_order4_extension(False) is KLEIN4


def test_order4_groups_by_exhaustive_multiplication():
    assert any(CYCLIC4.element_order(e) == 4 for e in CYCLIC4.elements())
    assert all(KLEIN4.element_order(e) != 4 for e in KLEIN4.elements())
    # squaring the order-4 generator recovers the order-2 kernel class
    g = next(e for e in CYCLIC4.elements() if CYCLIC4.element_order(e) == 4)
    kappa = CYCLIC4.add(g, g)
    assert CYCLIC4.element_order(kappa) == 2


# -- minimal models ---------------------------------------------------------------


def test_theorem3_model_shapes():
    m5 = theorem3_model(SpaceFormSpec(5, 2, 2))
    assert [(g.name, g.degree) for g in m5.generators] == [("u2", 2), ("u4", 4), ("u5", 5)]
    assert m5.format_element(m5.differential_of("u5")) == "u2^3"

    m4 = theorem3_model(SpaceFormSpec(4, 2, 2))
    assert [(g.name, g.degree) for g in m4.generators] == [("u2", 2), ("u6", 6), ("u7", 7)]
    assert m4.format_element(m4.differential_of("u7")) == "u2^4"

    m2 = theorem3_model(SpaceFormSpec(2, 2, 2))
    assert [(g.name, g.degree) for g in m2.generators] == [("u2", 2), ("v2", 2), ("u3", 3)]
    assert m2.format_element(m2.differential_of("u3")) == "u2^2"


def test_theorem3_models_validate_and_present_rings():
    for n in range(2, 6):
        spec = SpaceFormSpec(n, 2, 2)
        model = theorem3_model(spec)
        assert check_model(model).ok
        if n % 2 == 0:
            k = n // 2
            presentation = RingPresentation(2, 4 * k - 2, 2 * k)
        else:
            k = (n - 1) // 2
            presentation = RingPresentation(2, 2 * k, k + 1)
        report = verify_ring_presentation(model, presentation, 20)
        assert report.passed, report.format()


# -- Gysin ------------------------------------------------------------------------


def cp1_s3_input():
    base = BettiTable.from_dims([1, 0, 1, 0, 0, 0])
    euler = (((Fraction(1),),), None, None, None)
    total = BettiTable.from_dims([1, 0, 0, 1, 0, 0])
    return GysinInput(base, euler, total)


def test_gysin_cp1_s3_passes():
    report = gysin_check(cp1_s3_input())
    assert report.passed, report.format()


def test_gysin_trivial_bundle_over_point():
    base = BettiTable.from_dims([1, 0, 0, 0])
    total = BettiTable.from_dims([1, 1, 0, 0])
    report = gysin_check(GysinInput(base, (), total))
    assert report.passed


def test_gysin_forced_failure_at_degree_one():
    spec = SpaceFormSpec(2, 2, 2)
    data = cochain_complex(theorem3_model(spec), 6)
    base = data.betti()
    euler = tuple(euler_action_matrices(data))
    good = rank_identity_totals(base, euler)
    bad_dims = list(good.dims)
    bad_dims[1] = 1
    report = gysin_check(GysinInput(base, euler, BettiTable.from_dims(bad_dims)))
    assert not report.passed
    assert report.first_failure == 1


def test_gysin_check_needs_max_degree_two():
    base = BettiTable.from_dims([1, 0])
    with pytest.raises(GcaError, match="max_degree >= 2"):
        gysin_check(GysinInput(base, (), base))


def test_gysin_shape_mismatch_rejected():
    base = BettiTable.from_dims([1, 0, 1, 0])
    total = BettiTable.from_dims([1, 0, 0, 1])
    with pytest.raises(GcaError):
        GysinInput(base, (((Fraction(1), Fraction(0)),),), total)
    with pytest.raises(GcaError):
        GysinInput(BettiTable.from_dims([1, 0]), (), total)


def test_euler_action_matrices_for_projective_plane_quotient():
    data = cochain_complex(theorem3_model(SpaceFormSpec(2, 2, 2)), 8)
    euler = euler_action_matrices(data)
    assert euler[0] == ((Fraction(1),), (Fraction(0),))
    assert euler[2] == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))


def test_euler_action_matches_the_element_reference():
    cases = [(cochain_complex(theorem3_model(SpaceFormSpec(n, 2, 2)), 20), None) for n in range(2, 8)]
    rng = random.Random(31415)
    random_models = [random_model(rng) for _ in range(40)]
    closed = [m for m in random_models if any(
        g.degree == 2 and m.differential_of(g.name).is_zero for g in m.generators)]
    assert 10 <= len(closed) < 40
    cases += [(cochain_complex(m, 8), None) for m in closed]
    # explicit rational classes, and one built from odd generators, whose
    # products with a reps carry Koszul signs
    k1 = theorem3_model(SpaceFormSpec(2, 2, 2))
    u2, v2 = k1.gen("u2"), k1.gen("v2")
    cases += [(cochain_complex(k1, 12), u2.scale(Fraction(1, 2)) + v2.scale(Fraction(1, 3))),
              (cochain_complex(k1, 12), u2.scale(Fraction(-3, 4)) + v2.scale(6)),
              (cochain_complex(k1, 12), k1.zero())]
    pencil = parse_path(RATIONAL_PENCIL, kind="dga").value
    cases += [(cochain_complex(pencil, 14), pencil.gen("u2").scale(Fraction(2, 5)) - pencil.gen("v2"))]
    ext = DgaModel([("a", 1), ("b", 1), ("c", 1), ("d", 1)])
    a, b, c, d = (ext.gen(n) for n in "abcd")
    cases += [(cochain_complex(ext, 6), a * c), (cochain_complex(ext, 6), (a * d).scale(Fraction(1, 2)) - b * c)]
    for data, euler in cases:
        matrices = euler_action_matrices(data, euler)
        assert matrices == reference_euler_action_matrices(data, euler), (data.model, euler)
        assert all(type(v) is Fraction for m in matrices for row in m for v in row)
    assert euler_action_matrices(cases[-2][0], a * c)[1] != euler_action_matrices(cases[-2][0], c * a)[1]


def test_euler_action_error_paths():
    # type and text as the class queries of degree 2 raise them
    data = cochain_complex(theorem3_model(SpaceFormSpec(2, 2, 2)), 8)
    model = data.model
    other = DgaModel([("p", 2), ("q", 2), ("r", 3)])
    abc = DgaModel([("a", 1), ("b", 1), ("c", 1), ("x", 2)], {"x": [(1, {"a": 1, "b": 1, "c": 1})]})
    abc_data = cochain_complex(abc, 6)
    cases = [
        (data, other.gen("p"), UnknownGeneratorError, "element does not belong to the model of the complex"),
        (data, model.gen("u2") ** 2, GcaError, "element is not homogeneous of the requested degree"),
        (data, model.gen("u2") + model.one(), MixedDegreeError, "element mixes degrees [0, 2]"),
        (abc_data, abc.gen("x"), GcaError, "element of degree 2 is not a cocycle class"),
        (abc_data, abc.gen("x") + abc.gen("a") * abc.gen("b"), GcaError,
         "element of degree 2 is not a cocycle class"),
    ]
    for complex_data, euler, kind, text in cases:
        for euler_action in (euler_action_matrices, euler_action_ranks):
            with pytest.raises(GcaError) as err:
                euler_action(complex_data, euler)
            assert (type(err.value), str(err.value)) == (kind, text), euler_action
    # an equal model built separately is the same model, and below degree 2
    # there is no map, so a valid class gives no matrix
    same = theorem3_model(SpaceFormSpec(2, 2, 2)).gen("v2")
    assert euler_action_matrices(data, same) == reference_euler_action_matrices(data, same)
    assert euler_action_matrices(cochain_complex(model, 1), same) == []
    assert euler_action_ranks(cochain_complex(model, 1), same) == []


def test_euler_class_gate_does_not_depend_on_the_truncation():
    # a foreign or a degree-3 class is refused alike, with or without a map
    model = theorem3_model(SpaceFormSpec(2, 2, 2))
    other = DgaModel([("p", 2), ("q", 2), ("r", 3)])
    cases = [
        (other.gen("p"), UnknownGeneratorError, "element does not belong to the model of the complex"),
        (model.gen("u3"), GcaError, "element is not homogeneous of the requested degree"),
    ]
    for max_degree in (1, 2):
        data = cochain_complex(model, max_degree)
        for euler, kind, text in cases:
            for euler_action in (euler_action_matrices, euler_action_ranks):
                with pytest.raises(GcaError) as err:
                    euler_action(data, euler)
                assert (type(err.value), str(err.value)) == (kind, text), (max_degree, euler_action)


def test_matrix_entries_must_be_exact():
    base = BettiTable.from_dims([1, 0, 1, 0])
    total = BettiTable.from_dims([1, 0, 0, 1])
    for bad in (0.1, True, Decimal("0.1"), "one", "1/0", None):
        with pytest.raises(GcaError, match=r"^euler action at degree 0: entries must be exact") as err:
            GysinInput(base, (((bad,),),), total)
        assert repr(bad) in str(err.value)
        with pytest.raises(GcaError, match=r"^f_2: entries must be exact"):
            ActionEntry(2, 1, ((bad,),))
    half = Fraction(1, 2)
    inputs = GysinInput(base, (((half,),),), total)
    assert inputs.euler[0][0][0] is half
    assert ActionEntry(2, 1, ((half,),)).matrix[0][0] is half
    assert GysinInput(base, ((("1/2",),),), total).euler == inputs.euler
    assert ActionEntry(2, 2, ((3, "-2/6"), (0, 1))).matrix == ((3, Fraction(-1, 3)), (0, 1))
    assert all(type(v) is Fraction for row in ActionEntry(2, 2, ((3, "-2/6"), (0, 1))).matrix for v in row)


def test_euler_entries_that_are_no_matrix_and_no_rank_are_refused():
    # a map is a rows x cols matrix (rows = dim H^(p+2), cols = dim H^p), a
    # rank in 0..min(rows, cols), or None; anything else is a GcaError
    base = BettiTable.from_dims([1, 0, 1, 0, 1, 0])
    total = BettiTable.from_dims([1, 0, 0, 0, 0, 1])
    cases = [
        (((1,),), "euler action at degree 0: expected a 1x1 matrix"),
        ((None, (1, 0)), "euler action at degree 1: expected a 0x0 matrix"),
        ((Fraction(1),), "euler action at degree 0: expected a 1x1 matrix"),
        ((1.0,), "euler action at degree 0: expected a 1x1 matrix"),
        ((Decimal(1),), "euler action at degree 0: expected a 1x1 matrix"),
        ((5,), "euler action at degree 0: a rank must be an integer in 0..1, got 5"),
        ((True,), "euler action at degree 0: a rank must be an integer in 0..1, got True"),
        ((1, 0, -1), "euler action at degree 2: a rank must be an integer in 0..1, got -1"),
        ((1, 1), "euler action at degree 1: a rank must be an integer in 0..0, got 1"),
        ((1, None, 1, 1), "euler action at degree 3: a rank must be an integer in 0..0, got 1"),
    ]
    for euler, text in cases:
        with pytest.raises(GcaError) as err:
            GysinInput(base, euler, total)
        assert (type(err.value), str(err.value)) == (GcaError, text), euler
    with pytest.raises(GcaError, match=r"^f_3: expected a 1x1 matrix$"):
        ActionEntry(3, 1, (5,))
    inputs = GysinInput(base, (1, 0, 1, None, 0), total)
    assert inputs.euler == (1, 0, 1, None, 0)
    assert [inputs.euler_rank(p) for p in range(-2, 8)] == [0, 0, 1, 0, 1, 0, 0, 0, 0, 0]
    assert gysin_check(inputs) == gysin_check(GysinInput(base, (((1,),), None, (("1/2",),)), total))


def test_a_string_is_refused_as_a_matrix_or_a_row():
    # a string iterates into one-character strings, each an exact entry, so
    # "5" once passed as the 1x1 matrix [[5]] and "01" as the row [0, 1]
    base = BettiTable.from_dims([1, 0, 1, 0])
    for euler in (("7",), (["7"],), (("7",),)):  # a string matrix, a string row in a list and in a tuple
        with pytest.raises(GcaError) as err:
            GysinInput(base, euler, base)
        assert (type(err.value), str(err.value)) == (GcaError, "euler action at degree 0: expected a 1x1 matrix")
    for matrix, dim, text in (
        (("5",), 1, "f_2: expected a 1x1 matrix"),
        ("5", 1, "f_2: expected a 1x1 matrix"),
        ([[1, 0], "01"], 2, "f_2: expected a 2x2 matrix"),
        (["10", "01"], 2, "f_2: expected a 2x2 matrix"),
    ):
        with pytest.raises(GcaError) as err:
            ActionEntry(2, dim, matrix)
        assert (type(err.value), str(err.value)) == (GcaError, text), matrix
    # entries may still be 'p/q' strings
    assert ActionEntry(2, 2, [["1/2", 0], [0, "-3"]]).matrix == ((Fraction(1, 2), 0), (0, -3))
    assert GysinInput(base, ([["7"]],), base).euler == (((7,),),)


def _euler_rank_cases():
    """(complex, Euler class) pairs: seeded random models, exterior
    algebras with Koszul-signed classes, the factored models of
    test_cohomology, theorem-3 n = 2..7, the fixtures with an Euler class,
    the ring-gysin pencils, classes with Fraction coefficients, and
    truncations 0, 1 and 2.  The odd differential models fail minimality,
    which the cochain gate does not ask for: their complexes are read with
    the products of their closed odd generators and, where there is one,
    their closed degree-2 generator, and the exterior algebras on their odd
    generators with Koszul-signed classes."""
    rng = random.Random(1729)
    closed = [m for m in (random_model(rng) for _ in range(40)) if any(
        g.degree == 2 and m.differential_of(g.name).is_zero for g in m.generators)]
    assert 10 <= len(closed) < 40
    cases = [(cochain_complex(m, 8), None) for m in closed]
    for m in odd_differential_models():
        assert "minimality" in {c.name for c in check_model(m).checks if not c.passed}
        closed = [m.gen(g.name) for g in m.generators if g.degree == 1 and m.differential_of(g.name).is_zero]
        cases += [(cochain_complex(m, 6), x * y) for x, y in itertools.combinations(closed, 2)]
        if any(g.degree == 2 for g in m.generators):
            cases.append((cochain_complex(m, 6), None))
        ext = DgaModel([(g.name, 1) for g in m.generators if g.degree == 1])
        ones = [ext.gen(g.name) for g in ext.generators]
        cases += [(cochain_complex(ext, 6), ones[i] * ones[j]) for i in range(len(ones)) for j in range(i)]
        cases.append((cochain_complex(ext, 6), (ones[0] * ones[-1]).scale(Fraction(1, 2)) - ones[1] * ones[2]))
    cases += [(cochain_complex(m, 9), None) for m in _fallback_models()]
    cases += [(cochain_complex(theorem3_model(SpaceFormSpec(n, 2, 2)), 20), None) for n in range(2, 8)]
    for name in ("cp2.dga", "quotient_s2.dga", "rational_pencil.dga", "six_gen.dga"):
        cases.append((cochain_complex(parse_path(FIXTURES / name, kind="dga").value, 10), None))
    cases += [(cochain_complex(pencil_power_model(p, q, a), 14), None)
              for p, q in ((1, 2), (-3, 1), (0, -2), (2, 2)) for a in (2, 3, 5)]
    k1 = theorem3_model(SpaceFormSpec(2, 2, 2))
    u2, v2 = k1.gen("u2"), k1.gen("v2")
    cases += [(cochain_complex(k1, 12), u2.scale(Fraction(1, 2)) + v2.scale(Fraction(1, 3))),
              (cochain_complex(k1, 12), u2.scale(Fraction(-3, 4)) + v2.scale(6)),
              (cochain_complex(k1, 12), k1.zero())]
    pencil = parse_path(RATIONAL_PENCIL, kind="dga").value
    cases.append((cochain_complex(pencil, 14), pencil.gen("u2").scale(Fraction(2, 5)) - pencil.gen("v2")))
    cases += [(cochain_complex(m, d), None) for m in (k1, pencil, pencil_power_model(1, 2, 3)) for d in (0, 1, 2)]
    return cases


def test_euler_action_ranks_match_the_reference_ranks():
    ranked = 0
    for data, euler in _euler_rank_cases():
        ranks = euler_action_ranks(data, euler)
        assert ranks == [linalg.rank(m) for m in reference_euler_action_matrices(data, euler)], (data.model, euler)
        assert len(ranks) == max(data.max_degree - 1, 0) and all(type(r) is int for r in ranks)
        ranked += any(0 < r < min(len(data.degrees[p].reps), len(data.degrees[p + 2].reps))
                      for p, r in enumerate(ranks))
    # some maps are neither zero nor of full rank
    assert ranked >= 3


def _golden_gysin_inputs():
    """The base, Euler matrices and ranks, and total of every golden
    gysin-check: (label, base, matrices, ranks, total)."""
    for label, argv in sorted(golden.COMMANDS.items()):
        if argv[0] == "gysin-check":
            max_degree, base_file, total_file = int(argv[2]), argv[-2], argv[-1]
            data = cochain_complex(parse_path(FIXTURES / base_file, kind="dga").value, max_degree)
            total = cohomology(parse_path(FIXTURES / total_file, kind="dga").value, max_degree)
            yield label, data.betti(), tuple(euler_action_matrices(data)), tuple(euler_action_ranks(data)), total


def test_rank_form_and_matrix_form_gysin_inputs_give_one_report():
    verdicts = set()
    for label, base, matrices, ranks, total in _golden_gysin_inputs():
        by_rank, by_matrix = GysinInput(base, ranks, total), GysinInput(base, matrices, total)
        assert ranks == tuple(linalg.rank(m) for m in matrices), label
        assert by_rank.euler == ranks
        top = base.max_degree + 2
        assert [by_rank.euler_rank(p) for p in range(-2, top)] == [by_matrix.euler_rank(p) for p in range(-2, top)]
        report = gysin_check(by_rank)
        assert report == gysin_check(by_matrix), label
        assert rank_identity_totals(base, ranks) == rank_identity_totals(base, matrices), label
        verdicts.add(report.passed)
    assert verdicts == {True, False}


def test_euler_class_requires_closed_degree_two_generator():
    from loopspace.gca import DgaModel

    with pytest.raises(GcaError):
        euler_class(DgaModel([("x", 3)]))


def test_circle_quotient_self_consistency_small():
    for n in (2, 3, 4, 5):
        report = gysin_check(circle_quotient_gysin_input(SpaceFormSpec(n, 2, 2), 14))
        assert report.passed, f"n={n}: {report.format()}"
