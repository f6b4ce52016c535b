"""Betti tables, model validation, and ring-presentation verification."""

import bisect
import dataclasses
import importlib
import itertools
import random
from fractions import Fraction
from math import comb, lcm, prod
from pathlib import Path

import pytest

from loopspace.dsl import parse_path
from loopspace.gca import (
    BasisLimitError,
    BettiTable,
    DgaModel,
    GcaError,
    MixedDegreeError,
    RingPresentation,
    UnknownGeneratorError,
    apply_differential,
    check_model,
    cochain_complex,
    cohomology,
    quotient_ring_dims,
    verify_ring_presentation,
)
from loopspace.gca.cohomology import ComplexData, DegreeData, differential_matrix
from loopspace.gca import linalg
from loopspace.gca.algebra import AlgebraElement
from loopspace.spaceforms import (
    SpaceFormSpec, euler_action_matrices, euler_action_ranks, euler_class, theorem3_model,
)

from test_algebra import leibniz_expansion, monomial_names, own_factor_model
from helpers import (
    coprime_denominator_model,
    differential_scale,
    matrix_columns,
    odd_differential_models,
    quotient_counts_oracle,
    random_model,
    reference_cochain_complex,
    reference_dense_cochain_complex,
    reference_differential,
    reference_echelon,
    reference_euler_action_matrices,
    reference_integer_images,
    reference_rref,
    reference_verify_ring_presentation,
)

cohomology_module = importlib.import_module("loopspace.gca.cohomology")  # the package binds the function to the name
RATIONAL_PENCIL = Path(__file__).resolve().parent.parent / "fixtures" / "rational_pencil.dga"
SIX_GEN = Path(__file__).resolve().parent.parent / "fixtures" / "six_gen.dga"
LS2 = Path(__file__).resolve().parent.parent / "fixtures" / "ls2.dga"


def two_gen_model():
    return DgaModel([("u2", 2), ("u3", 3)], {"u3": [(1, {"u2": 2})]})


def even_k1_model():
    return DgaModel([("u2", 2), ("v2", 2), ("u3", 3)], {"u3": [(1, {"u2": 2})]})


def even_k2_model():
    return DgaModel([("u2", 2), ("u6", 6), ("u7", 7)], {"u7": [(1, {"u2": 4})]})


def odd_model(k):
    return DgaModel(
        [("u2", 2), (f"u{2 * k}" if k > 1 else "v2", 2 * k), (f"u{2 * k + 1}", 2 * k + 1)],
        {f"u{2 * k + 1}": [(1, {"u2": k + 1})]},
    )


def test_sphere_like_quotient_dims():
    # hand computation: only the classes 1 and u2 survive
    assert cohomology(two_gen_model(), 8).dims == (1, 0, 1, 0, 0, 0, 0, 0, 0)


def test_even_k1_dims():
    assert cohomology(even_k1_model(), 8).dims == (1, 0, 2, 0, 2, 0, 2, 0, 2)


def test_empty_model_dims():
    assert cohomology(DgaModel([]), 3).dims == (1, 0, 0, 0)


def test_even_k2_dims_match_bounded_quotient():
    # Q[w,z]/(w^4), deg w = 2, deg z = 6, enumerated independently
    expected = tuple(quotient_counts_oracle(2, 6, 4, 16))
    assert expected == (1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1)
    assert cohomology(even_k2_model(), 16).dims == expected


def test_check_model_passes_odd_models():
    for k in (1, 2, 3):
        report = check_model(odd_model(k))
        assert report.ok, report.format()


def test_check_model_rejects_degree_violations():
    # differential into an equal-degree generator breaks minimality
    m = DgaModel([("u2", 2), ("u3", 3)], {"u2": [(1, {"u3": 1})]})
    report = check_model(m)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.passed}
    assert "minimality" in failing
    # differential that lowers degree
    m2 = DgaModel([("u2", 2), ("u5", 5)], {"u5": [(1, {"u2": 1})]})
    assert not check_model(m2).ok


def test_check_model_flags_degenerate_odd_square():
    m = DgaModel(
        [("u2", 2), ("u3", 3), ("u5", 5)],
        {"u3": [(1, {"u2": 2})], "u5": [(1, {"u3": 2})]},
    )
    report = check_model(m)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"odd-square-exclusion"}
    with pytest.raises(GcaError):
        cohomology(m, 6)


def test_free_loop_space_of_the_two_sphere_is_computed_although_not_minimal():
    """LS^2 = Lambda(x2, y3, sx1, sy2) with dy = x^2 and d(sy) = -2*x*sx
    (fixtures/ls2.dga) fails only minimality, which check_model still
    reports; the cochain gate does not ask for it, and both paths give the
    closed form 1/(1 - t), one class in every degree, to degree 30."""
    model = parse_path(LS2, kind="dga").value
    report = check_model(model)
    assert [c.name for c in report.checks if not c.passed] == ["minimality"]
    assert report.failure_messages() == ["minimality: dsy uses x of degree >= 2"]
    assert cohomology(model, 30).dims == (1,) * 31
    assert cochain_complex(model, 30).betti().dims == (1,) * 31


def test_check_model_rejects_broken_d_squared():
    # dc = a*b and dy = c*x with dx = 0 give d(dy) = (a*b)*x != 0
    m = DgaModel(
        [("a", 1), ("b", 1), ("c", 1), ("x", 2), ("y", 3)],
        {"c": [(1, [("a", 1), ("b", 1)])], "y": [(1, [("c", 1), ("x", 1)])]},
    )
    assert not apply_differential(m.differential_of("y")).is_zero
    report = check_model(m)
    assert not report.ok
    assert "d-squared" in {c.name for c in report.checks if not c.passed}


def test_a_differential_that_keeps_parity_is_refused_not_mis_signed():
    """In Lambda(a1, b1, g1) with db = a the product rule gives
    d(b*g) = (db)g - b(dg) = a*g, where the signs of a differential that
    changes parity give -a*g: apply_differential refuses every element that
    holds b, naming it, and check_model reports d(dy) for dy = b*g as not
    checked rather than computed with that sign."""
    m = DgaModel([("a", 1), ("b", 1), ("g", 1), ("y", 1)], {"b": [(1, {"a": 1})], "y": [(1, {"b": 1, "g": 1})]})
    a, b, g = m.gen("a"), m.gen("b"), m.gen("g")
    text = "db has a term of the parity of b: the graded Leibniz rule needs a differential that changes parity"
    for x in (b * g, b, a * b + g):
        with pytest.raises(GcaError, match=f"^{text}$"):
            apply_differential(x)
    # elements without b are differentiated as before
    assert apply_differential(m.gen("y")) == b * g and apply_differential(a * g).is_zero
    report = check_model(m)
    square = next(c for c in report.checks if c.name == "d-squared")
    assert not square.passed and square.detail == f"d(dy) not checked: {text}"
    assert {c.name for c in report.checks if not c.passed} == {"degree-raising", "d-squared", "minimality"}
    with pytest.raises(GcaError, match="^model fails validation: degree-raising: db has degree 1"):
        cohomology(m, 3)


def test_rank_nullity_bookkeeping_randomized():
    # kernel, image and rank are read from the plain Fraction reference,
    # since the complex keeps only the representatives of the kernel
    rng = random.Random(31415)
    for _ in range(40):
        model = random_model(rng)
        data = cochain_complex(model, 8)
        for d, (kernel, image, reps, rank_out) in enumerate(reference_cochain_complex(model, 8)):
            dd = data.degrees[d]
            matrix = reference_differential(model, d, differential_scale(model))
            assert len(dd.free) == len(kernel)
            assert dd.out_columns == matrix_columns(matrix, len(dd.basis))
            assert len(dd.basis) == len(kernel) + rank_out
            assert rank_out == linalg.rank(matrix)
            assert len(dd.reps) == len(kernel) - len(image)
            # the representatives are the greedy choice over the kernel basis
            span = linalg.IncrementalSpan(len(dd.basis))
            for vec in image:
                assert span.add(vec)
            assert dd.reps == tuple(vec for vec in kernel if span.add(vec)) == tuple(reps)


def _coprime_models(count=6):
    rng = random.Random(2718)
    return [coprime_denominator_model(rng) for _ in range(count)]


def test_skipped_eliminations_match_the_dense_reference():
    """A d_d of rank 0 or dim C^d is not factored, no image is reduced
    where none comes in, and kernel vectors are built at the
    representatives' columns only; every DegreeData field but the image
    rows, and its repr, equals the complex that reduces every d_d and every
    image and filters the whole kernel.  The image rows are reduced by
    another kernel: they span the same rows as the reference's, their
    lowest keys are the reference's pivots, ascending, and every key is
    n-1-f for a free column f."""
    rng = random.Random(31415)
    cases = [(random_model(rng), 8) for _ in range(40)]
    cases += [(m, 12) for m in _coprime_models()]
    cases += [(pencil_power_model(p, q, a), 14)
              for p in range(-3, 4) for q in (-3, -2, -1, 1, 2, 3) for a in range(2, 6)]
    cases += [(theorem3_model(SpaceFormSpec(n, 2, 2)), 15) for n in range(2, 8)]
    cases += [(model, 9) for model in _fallback_models()]
    # every generator closed: every degree has d_d = 0 and no image
    cases.append((DgaModel([("a", 2), ("b", 2), ("t", 3), ("e", 4)], {}), 12))
    # a closed odd generator beside active ones
    cases.append((DgaModel([("a", 2), ("b", 2), ("t", 3), ("x", 3), ("y", 5)],
                           {"x": [(1, {"a": 2})], "y": [(2, {"b": 3}), (-1, {"a": 1, "b": 2})]}), 14))
    cases.append((parse_path(SIX_GEN, kind="dga").value, 14))
    kinds = set()
    for model, max_degree in cases:
        got = cochain_complex(model, max_degree).degrees
        want = reference_dense_cochain_complex(model, max_degree)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for f in dataclasses.fields(DegreeData):
                if f.name != "image_at_free":
                    assert getattr(a, f.name) == getattr(b, f.name), (model, a.degree, f.name)
            keys = sorted(len(a.basis) - 1 - f for f in a.free)

            def dense(rows):
                return [[row.get(k, 0) for k in keys] for row in rows]

            assert reference_rref(dense(a.image_at_free)) == reference_rref(dense(b.image_at_free)), (model, a.degree)
            pivots = [min(row) for row in a.image_at_free]
            assert pivots == sorted(set(pivots)) == [min(row) for row in b.image_at_free], (model, a.degree)
            assert all(type(k) is int and type(v) is int and v and k in keys
                       for row in a.image_at_free for k, v in row.items())
            # an image vector is a nonzero kernel vector, so it is nonzero
            # at some free column: the image is empty exactly when image_at_free is
            kinds.add((any(a.out_columns), bool(a.free), bool(a.image_at_free), len(a.basis) > 1))
        # the repr pins the types of the other fields; a column's key order
        # is not part of its value
        ordered = [dataclasses.replace(a, out_columns=tuple(dict(sorted(c.items())) for c in a.out_columns),
                                       image_at_free=()) for a in got]
        assert repr(tuple(ordered)) == repr(tuple(dataclasses.replace(b, image_at_free=()) for b in want)), model
    # zero and non-injective nonzero d_d, with and without an image, and
    # injective d_d, which no image reaches, on bases of 2 or more
    assert kinds >= {(r, True, i, True) for r in (False, True) for i in (False, True)} | {(True, False, False, True)}


def test_kernel_vectors_are_built_at_the_representatives_columns_only(monkeypatch):
    """cochain_complex asks kernel_from_echelon for the free columns the
    incoming image does not fill, ascending, one call per degree: each is
    the own free column of one representative, in order, and no kernel
    vector is built at a pivot column or at a filled free column."""
    calls = []

    def recording(ech, pivots, ncols, columns):
        calls.append(list(columns))
        return kernel_from_echelon(ech, pivots, ncols, calls[-1])

    kernel_from_echelon = linalg.kernel_from_echelon
    monkeypatch.setattr(linalg, "kernel_from_echelon", recording)
    rng = random.Random(31415)
    cases = [(random_model(rng), 8) for _ in range(20)]
    cases += [(pencil_power_model(2, 3, 3), 14), (parse_path(SIX_GEN, kind="dga").value, 12)]
    for model, max_degree in cases:
        calls.clear()
        data = cochain_complex(model, max_degree)
        assert len(calls) == len(data.degrees)
        for dd, columns in zip(data.degrees, calls):
            pivots = reference_echelon(reference_differential(model, dd.degree))[1]
            free = [j for j in range(len(dd.basis)) if j not in pivots]
            assert list(dd.free) == free, (model, dd.degree)
            filled = {len(dd.basis) - 1 - min(row) for row in dd.image_at_free}
            assert columns == [f for f in free if f not in filled], (model, dd.degree)
            assert columns == [next(f for f in free if rep[f]) for rep in dd.reps]
            assert all(sum(1 for f in free if rep[f]) == 1 for rep in dd.reps)


def test_integer_complex_matches_the_fraction_reference():
    rng = random.Random(31415)
    models = [(random_model(rng), 8) for _ in range(40)]
    models += [(m, 12) for m in _coprime_models()]
    models.append((parse_path(RATIONAL_PENCIL).value, 16))
    for model, max_degree in models:
        data = cochain_complex(model, max_degree)
        scales = set()
        references = reference_cochain_complex(model, max_degree)
        images = reference_integer_images(model, max_degree)
        for dd, (kernel, image, reps, rank_out), int_image in zip(data.degrees, references, images):
            assert dd.reps == tuple(reps), (model, dd.degree)
            assert set(dd.reps) <= set(kernel) and len(dd.free) == len(kernel)
            assert len(dd.basis) - len(dd.free) == rank_out
            # the outgoing columns are L times the columns of d, read off
            # apply_differential, with the L of the image
            target = model.basis(dd.degree + 1)
            for column, mon in zip(dd.out_columns, dd.basis):
                ref = apply_differential(model.monomial_element(mon)).coords(target)
                assert set(column) == {i for i, v in enumerate(ref) if v}
                scales.update(v / ref[i] for i, v in column.items())
                assert all(type(v) is int for v in column.values())
            assert all(type(v) is int for vectors in (dd.reps, int_image) for vec in vectors for v in vec)
            # the integer image is L times the reference, with one L for the whole complex
            assert len(int_image) == len(image)
            for vec, ref in zip(int_image, image):
                p = next(i for i, v in enumerate(ref) if v)
                scale = vec[p] / ref[p]
                assert scale > 0 and vec == tuple(scale * v for v in ref)
                scales.add(scale)
        assert len(scales) <= 1, model


def test_cochain_complex_stays_in_integers(monkeypatch):
    model = _coprime_models(1)[0]
    calls = []
    original = DgaModel._scale_differentials
    monkeypatch.setattr(DgaModel, "_scale_differentials", lambda m: calls.append(m) or original(m))
    data = cochain_complex(model, 10)
    matrices = [differential_matrix(model, d, dd.out_columns) for d, dd in enumerate(data.degrees)]
    assert cohomology(model, 10).dims == data.betti().dims
    # once for the model, and reused by the rank path after it
    assert calls == [model]
    assert matrices == [reference_differential(model, d, differential_scale(model)) for d in range(11)]
    assert all(type(v) is int for rows in matrices for row in rows for v in row)
    assert any(v for rows in matrices for row in rows for v in row)
    assert any(dd.image_at_free for dd in data.degrees)
    assert all(type(v) is int for dd in data.degrees for row in dd.image_at_free for v in row.values())
    assert all(type(v) is int for dd in data.degrees for column in dd.out_columns for v in column.values())


def _fallback_models():
    """Models with d_{d+1} = 0 whose d_d has a kernel although every column
    is nonzero, so d_d has rank strictly between 0 and dim C^d and is
    factored: in Lambda(a2, x3, y3) with dx = dy = a^2, d_3 has rank 1 < 2
    with more columns than rows, and, with a closed b2 beside it, with
    fewer."""
    diffs = {"x": [(1, {"a": 2})], "y": [(1, {"a": 2})]}
    return [DgaModel([("a", 2), ("x", 3), ("y", 3)], diffs),
            DgaModel([("a", 2), ("b", 2), ("x", 3), ("y", 3)], diffs)]


def _pure_models():
    """The theorem-3 models, the ring-gysin pencils and CP^(a-1), with top
    degrees of both parities: one odd generator and dx a power of a
    closed degree-2 form, so every nonzero d_d is injective."""
    cases = [(theorem3_model(SpaceFormSpec(n, 2, 2)), top) for n in range(2, 8) for top in (14, 15)]
    cases += [(pencil_power_model(p, q, a), top)
              for p in range(-3, 4) for q in (-3, -2, -1, 1, 2, 3) for a in range(2, 6) for top in (13, 14)]
    cases += [(DgaModel([("w", 2), ("y", 2 * a - 1)], {"y": [(1, {"w": a})]}), top)
              for a in range(2, 6) for top in (9, 10)]
    return cases


def test_each_injective_differential_is_eliminated_once(monkeypatch):
    """On the pure models every nonzero d_d is injective, so it is never
    made dense or factored, and nothing is reduced by echelon: one column
    reduction of its own columns per nonzero differential, the top degree
    included, is all the complex makes; it serves both the rank test and
    the image at the next degree, where d_{d+1} = 0."""
    calls = []
    echelon, column_reduce, dense = linalg.echelon, linalg.column_reduce, cohomology_module.differential_matrix
    monkeypatch.setattr(linalg, "echelon", lambda rows: calls.append("echelon") or echelon(rows))
    monkeypatch.setattr(cohomology_module, "differential_matrix",
                        lambda *args: calls.append("differential_matrix") or dense(*args))
    monkeypatch.setattr(linalg, "column_reduce",
                        lambda vectors: calls.append(len(vectors)) or column_reduce(vectors))
    for model, max_degree in _pure_models():
        calls.clear()
        data = cochain_complex(model, max_degree)
        nonzero = [dd for dd in data.degrees if any(dd.out_columns)]
        assert nonzero and calls == [len(dd.basis) for dd in nonzero], (model, max_degree)
        # an injective differential has no free column
        assert all(not dd.free for dd in nonzero)


def test_only_differentials_of_intermediate_rank_are_made_dense(monkeypatch):
    """cochain_complex makes d_d dense only when its rank lies strictly
    between 0 and dim C^d: never on the pure models, not at degree 5 of
    six_gen, where d_5 is injective and d_6 != 0, and once at degree 3 of
    each fallback model, where d_3 has rank 1 < 2."""
    degrees = []
    dense = cohomology_module.differential_matrix
    monkeypatch.setattr(cohomology_module, "differential_matrix",
                        lambda model, degree, columns=None: degrees.append(degree) or dense(model, degree, columns))
    for model, max_degree in _pure_models():
        degrees.clear()
        cochain_complex(model, max_degree)
        assert degrees == [], (model, max_degree)
    six_gen = parse_path(SIX_GEN, kind="dga").value
    degrees.clear()
    data = cochain_complex(six_gen, 9)
    assert not data.degrees[5].free and any(data.degrees[6].out_columns)
    assert degrees == [6, 7, 8, 9]
    for model in _fallback_models():
        degrees.clear()
        cochain_complex(model, 9)
        assert degrees.count(3) == 1, model


def test_fallback_models_match_the_dense_reference():
    """d_4 = 0 while d_3 has the kernel x - y: the representatives and the
    class coordinates are those of the complex that reduces every degree,
    whose image rows, reduced echelon rows, each have their lowest key at
    their pivot."""
    for model in _fallback_models():
        data = cochain_complex(model, 9)
        reference = ComplexData(model, 9, reference_dense_cochain_complex(model, 9))
        assert not any(data.degrees[4].out_columns) and len(data.degrees[3].free) == 1
        x, y, a = model.gen("x"), model.gen("y"), model.gen("a")
        assert data.degrees[3].reps == reference.degrees[3].reps == ((1, -1),)
        assert data.betti(with_representatives=True) == reference.betti(with_representatives=True)
        for element, degree in ((x - y, 3), (y.scale(3) - x.scale(3), 3), (a * (x - y), 5),
                                (a * a, 4), (model.zero(), 3), (a, 2)):
            assert data.class_coordinates(element, degree) == reference.class_coordinates(element, degree)
        assert data.class_coordinates(x - y, 3) == [1]
        with pytest.raises(GcaError, match="^element of degree 3 is not a cocycle class$"):
            data.class_coordinates(x, 3)


def test_class_queries_in_skipped_injective_degrees():
    model = theorem3_model(SpaceFormSpec(2, 2, 2))  # dx = u2^2 with x = u3
    data = cochain_complex(model, 8)
    u2, v2, u3 = model.gen("u2"), model.gen("v2"), model.gen("u3")
    for element, degree in ((u3, 3), (u2 * u3, 5), (u2 * u3 - v2 * u3, 5)):
        assert not data.degrees[degree].free
        with pytest.raises(GcaError, match="^nonzero element in a degree with trivial cocycle space$"):
            data.class_coordinates(element, degree)
    assert data.class_coordinates(model.zero(), 3) == []
    # a non-cocycle where d_d has a kernel is refused as before
    odd = DgaModel([("u2", 2), ("u3", 3), ("x", 3)], {"u3": [(1, {"u2": 2})]})
    with pytest.raises(GcaError, match="^element of degree 3 is not a cocycle class$"):
        cochain_complex(odd, 6).class_coordinates(odd.gen("u3") + odd.gen("x"), 3)


def test_class_queries_apply_no_differential(monkeypatch):
    model = even_k1_model()
    data = cochain_complex(model, 10)
    odd = DgaModel([("u2", 2), ("u3", 3), ("x", 3)], {"u3": [(1, {"u2": 2})]})
    odd_data = cochain_complex(odd, 6)

    def forbidden(*args, **kwargs):
        raise AssertionError("a class query applied the differential")

    monkeypatch.setattr(cohomology_module, "apply_derivation", forbidden)
    monkeypatch.setattr(cohomology_module, "leibniz", forbidden)
    u2, v2 = model.gen("u2"), model.gen("v2")
    assert data.class_coordinates(u2 * v2 + v2 * v2, 4) == [1, 1]
    assert data.is_exact(u2 * u2, 4)
    assert odd_data.class_coordinates(odd.gen("x").scale(Fraction(2, 3)), 3) == [Fraction(2, 3)]
    with pytest.raises(GcaError, match="is not a cocycle class"):
        odd_data.class_coordinates(odd.gen("u3"), 3)


def test_ring_search_and_euler_action_build_no_elements(monkeypatch):
    model = even_k1_model()
    data = cochain_complex(model, 10)
    expected_euler = euler_action_matrices(data)

    def forbidden(*args, **kwargs):
        raise AssertionError("an element product was formed")

    monkeypatch.setattr(AlgebraElement, "__mul__", forbidden)
    monkeypatch.setattr(AlgebraElement, "__pow__", forbidden)
    report = verify_ring_presentation(pencil_power_model(1, 2, 3), RingPresentation(2, 2, 3), 12)
    assert report.passed and report.w.model.format_element(report.w) == "u2 + 2*v2"
    assert euler_action_matrices(data) == expected_euler
    # u2 * u2 is exact, u2 * v2 is not
    assert [column for column in zip(*expected_euler[2])] == [(0, 0), (1, 0)]


def _ring_gysin_cases():
    """The ring-gysin pencils dx = (p*u2 + q*v2)^a and CP^(a-1) = Lambda(w2,
    y_(2a-1)), dy = w^a, with nilpotency a and truncation degree D."""
    pencils = [(pencil_power_model(p, q, a), a, degree)
               for p, q in ((1, 2), (-3, 1), (0, -2), (2, 2)) for a in (2, 3, 5) for degree in (12, 20)]
    projective = [(DgaModel([("w", 2), ("y", 2 * a - 1)], {"y": [(1, {"w": a})]}), a, degree)
                  for a in (2, 3, 5) for degree in (12, 20)]
    return pencils, projective


def test_cochain_path_and_class_reads_do_their_work_once(monkeypatch):
    """On the ring-gysin pencils and CP^(a-1): cochain_complex reads its
    bases from one DgaModel.bases call and makes one leibniz pass, keyed by
    each monomial's position in its own degree's basis, with no per-degree
    basis() call and no dense matrix (every nonzero d_d is injective);
    euler_action_matrices makes one class read per representative of
    degrees 0..D-2, and euler_action_ranks makes the same reads in the same
    order; the read-off
    constants of a degree are built on its first query and at most once per
    complex, however often it is queried; and the candidate table is built
    and sorted once per dimension."""
    passes, tops, read_offs, reads = [], [], [], []
    leibniz, read_off = cohomology_module.leibniz, cohomology_module._read_off
    numerators, bases = ComplexData._class_numerators, DgaModel.bases

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-degree basis build or a dense matrix")

    monkeypatch.setattr(cohomology_module, "leibniz", lambda table, monomials, index=None:
                        passes.append((table[0], index)) or leibniz(table, monomials, index))
    monkeypatch.setattr(cohomology_module, "_read_off", lambda dd: read_offs.append(dd) or read_off(dd))
    monkeypatch.setattr(ComplexData, "_class_numerators", lambda self, terms, degree: reads.append(degree)
                        or numerators(self, terms, degree))
    monkeypatch.setattr(DgaModel, "bases", lambda model, top: tops.append(top) or bases(model, top))
    monkeypatch.setattr(DgaModel, "basis", forbidden)
    monkeypatch.setattr(cohomology_module, "differential_matrix", forbidden)
    cohomology_module._candidate_coefficients.cache_clear()
    pencils, projective = _ring_gysin_cases()
    for model, a, degree in pencils + projective:
        for log in (passes, tops, reads, read_offs):
            log.clear()
        data = cochain_complex(model, degree)
        assert len(passes) == 1 and tops == [degree + 1], (model, degree)
        keys, position = passes[0]  # the position map is keyed by packed monomial
        assert all(position[keys.pack(m)] == i for dd in data.degrees[1:] for i, m in enumerate(dd.basis)), (model, degree)
        matrices = euler_action_matrices(data)
        assert reads == [p + 2 for p in range(degree - 1) for _ in data.degrees[p].reps], (model, degree)
        assert len(reads) == sum(len(dd.reps) for dd in data.degrees[:degree - 1])
        # built on the first read of each degree, in the order of the reads
        assert [dd.degree for dd in read_offs] == list(dict.fromkeys(reads))
        assert all(dd is data.degrees[dd.degree] for dd in read_offs)
        built, euler_degrees = len(read_offs), set(reads)
        matrix_reads = reads[:]
        reads.clear()
        assert euler_action_ranks(data) == [linalg.rank(m) for m in matrices], (model, degree)
        assert reads == matrix_reads and len(read_offs) == built, (model, degree)
        assert euler_action_matrices(data) == matrices
        for d, dd in enumerate(data.degrees):
            for rep in data.representative_elements(d):
                assert data.is_exact(rep, d) is False
        # only the degrees the Euler matrices did not read are built now
        assert len(read_offs) == built + len({dd.degree for dd in data.degrees if dd.reps} - euler_degrees)
        if (model, a, degree) in pencils:
            verify_ring_presentation(model, RingPresentation(2, 2, a), degree)
        # no DegreeData, each of one complex, had its constants built twice
        assert len({id(dd) for dd in read_offs}) == len(read_offs), (model, degree)
    info = cohomology_module._candidate_coefficients.cache_info()
    # H^2 has dimension 2 throughout, and every search reads the table for w
    assert info.misses == 1 and info.hits >= len(pencils) - 1
    assert cohomology_module._candidate_coefficients(2) is cohomology_module._candidate_coefficients(2)


def test_class_reads_in_any_order_match_fresh_complexes_and_the_reference():
    """The read-off constants a complex keeps between queries change no
    answer.  On seeded random models, the fallback models and six_gen, the
    class coordinates of integer and rational combinations of the
    representatives and the image vectors, queried over all degrees in
    shuffled order on one complex, equal those a fresh complex gives for
    each query, and the Euler matrices of the shared complex equal the
    element reference on a fresh one.  A non-cocycle is refused in every
    degree where d_d != 0, on the shared complex after its constants are
    built and on a fresh one."""
    rng = random.Random(2718)
    cases = [(random_model(rng), 8) for _ in range(25)] + [(m, 9) for m in _fallback_models()]
    cases.append((parse_path(SIX_GEN, kind="dga").value, 10))
    refused = set()
    for model, max_degree in cases:
        data = cochain_complex(model, max_degree)
        images = reference_integer_images(model, max_degree)
        queries = []
        for d, dd in enumerate(data.degrees):
            vectors = [*dd.reps, *images[d]]
            for n in range(4):
                coeffs = [rng.randint(-3, 3) if n < 2 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in vectors]
                coords = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(len(dd.basis))]
                queries.append((model.from_coords(dd.basis, coords), d))
        rng.shuffle(queries)
        for x, d in queries:
            assert data.class_coordinates(x, d) == cochain_complex(model, max_degree).class_coordinates(x, d)
        assert len(data._read_offs) == len(data.degrees)
        if any(g.degree == 2 and model.differential_of(g.name).is_zero for g in model.generators):
            fresh = cochain_complex(model, max_degree)
            assert euler_action_matrices(data) == reference_euler_action_matrices(fresh, euler_class(model))
        for d, dd in enumerate(data.degrees):
            if not any(dd.out_columns):
                continue
            j = next(j for j, column in enumerate(dd.out_columns) if column)
            x = model.from_coords(dd.basis, [int(i == j) + sum(v[i] for v in dd.reps) for i in range(len(dd.basis))])
            text = (f"element of degree {d} is not a cocycle class" if dd.free
                    else "nonzero element in a degree with trivial cocycle space")
            for complex_data in (data, cochain_complex(model, max_degree)):
                with pytest.raises(GcaError, match=f"^{text}$"):
                    complex_data.class_coordinates(x, d)
            refused.add(bool(dd.free))
    # refused where d_d has a kernel (by the boundary sum) and where it has none
    assert refused == {False, True}


def test_class_queries_reject_elements_of_another_model():
    a = even_k1_model()
    b = DgaModel([("p", 2), ("q", 2), ("r", 3)])
    data = cochain_complex(a, 6)
    q = b.gen("q")
    for query in (data.class_coordinates, data.is_exact):
        with pytest.raises(UnknownGeneratorError, match="^element does not belong to the model of the complex$"):
            query(q**2, 4)
        with pytest.raises(UnknownGeneratorError):
            query(b.zero(), 4)
    # an equal model built separately is the same model
    assert data.class_coordinates(even_k1_model().gen("v2") ** 2, 4) == [0, 1]


def _outcome(compute):
    """The value of compute(), or the type, text, degree and size of the
    GcaError it raises."""
    try:
        return compute()
    except GcaError as exc:
        return type(exc), str(exc), getattr(exc, "degree", None), getattr(exc, "size", None)


def _rank_and_full_outcomes(model, max_degree):
    rank_only = _outcome(lambda: cohomology(model, max_degree).dims)
    full = _outcome(lambda: cochain_complex(model, max_degree).betti().dims)
    return rank_only, full


def test_rank_only_dims_match_the_full_complex():
    rng = random.Random(31415)
    models = [(random_model(rng), 8) for _ in range(40)]
    models += [(m, 6) for m in odd_differential_models()]
    models.append((DgaModel([]), 5))
    rng = random.Random(2718)
    for _ in range(6):
        model = coprime_denominator_model(rng)
        # one scale L for every generator, above the lcm of each one's denominators
        own = [model.differential_of(g.name).terms for g in model.generators]
        scales = {int_c / own[i][m] for i, dg in enumerate(model.integer_differentials())
                  for m, int_c in dg.items()}
        assert len(scales) == 1
        assert scales.pop() > max(lcm(*(c.denominator for c in terms.values())) for terms in own)
        models.append((model, 12))
    for model, max_degree in models:
        rank_only, full = _rank_and_full_outcomes(model, max_degree)
        assert rank_only == full, model


def _refused_cases(extra=()):
    """(model, max_degree, basis limit, text) of inputs that both paths
    refuse, every model with the generators ``extra`` added, closed and in
    no differential; the basis limit, when given, is set for that case and
    those after it."""
    extra = list(extra)
    degenerate = DgaModel(
        [("u2", 2), ("u3", 3), ("u5", 5)] + extra,
        {"u3": [(1, {"u2": 2})], "u5": [(1, {"u3": 2})]},
    )
    broken_square = DgaModel(
        [("a", 1), ("b", 1), ("c", 1), ("x", 2), ("y", 3)] + extra,
        {"c": [(1, [("a", 1), ("b", 1)])], "y": [(1, [("c", 1), ("x", 1)])]},
    )
    lowering = DgaModel([("u2", 2), ("u5", 5)] + extra, {"u5": [(1, {"u2": 1})]})
    return [
        (degenerate, 6, None, "odd-square-exclusion"),
        (broken_square, 6, None, "d-squared"),
        (lowering, 6, None, "degree-raising"),
        (DgaModel([("u2", 2), ("u3", 3)] + extra, {"u3": [(1, {"u2": 2})]}), -1, None,
         "max_degree must be >= 0"),
        (DgaModel([("a", 1), ("b", 1), ("c", 1)] + extra), 3, 2, "exceeding the limit 2"),
    ]


def test_rank_only_path_raises_what_the_full_complex_raises(monkeypatch):
    for model, max_degree, limit, text in _refused_cases():
        if limit is not None:
            monkeypatch.setattr(cohomology_module, "DEFAULT_BASIS_LIMIT", limit)
        rank_only, full = _rank_and_full_outcomes(model, max_degree)
        assert rank_only == full
        assert issubclass(rank_only[0], GcaError) and text in rank_only[1]
    # the basis limit names the same degree and size on both paths
    assert rank_only[0] is BasisLimitError and rank_only[2:] == (1, 3)


def test_inert_generators_leave_every_refusal_unchanged(monkeypatch):
    """With a closed degree-1 generator in no differential added, both
    paths still refuse each input alike: the gate reads the whole model,
    and the basis limit counts its bases, the inert generator included."""
    for model, max_degree, limit, text in _refused_cases([("t", 1)]):
        if limit is not None:
            monkeypatch.setattr(cohomology_module, "DEFAULT_BASIS_LIMIT", limit)
        rank_only, full = _rank_and_full_outcomes(model, max_degree)
        assert rank_only == full
        assert issubclass(rank_only[0], GcaError) and text in rank_only[1]
    # Lambda(a1, b1, c1, t1) has 4 monomials in degree 1
    assert rank_only[0] is BasisLimitError and rank_only[2:] == (1, 4)


def _series_product(a, b):
    """The product of two power series, truncated at the length of a."""
    return [sum(a[k] * b[d - k] for k in range(d + 1)) for d in range(len(a))]


def _free_series(degrees, top):
    """Coefficients of t^0..t^top of the product over the degrees of
    (1 + t^deg) for an odd degree and 1 + t^deg + t^(2 deg) + ... for an
    even one, multiplied out factor by factor."""
    series = [1] + [0] * top
    for deg in degrees:
        if deg % 2:
            factor = [1 if d in (0, deg) else 0 for d in range(top + 1)]
        else:
            factor = [0 if d % deg else 1 for d in range(top + 1)]
        series = _series_product(series, factor)
    return series


def _with_inert(model, degrees):
    """The model tensored with closed generators t0, t1, ... of the given
    degrees, which occur in no differential."""
    diffs = {g.name: [(c, model.exponent_map(m)) for m, c in model.differential_of(g.name).terms.items()]
             for g in model.generators}
    gens = [(g.name, g.degree) for g in model.generators] + [(f"t{i}", d) for i, d in enumerate(degrees)]
    return DgaModel(gens, diffs)


def _ranked_without_enumerating(model, max_degree, monkeypatch):
    """cohomology(model, max_degree).dims, asserting that no basis of the
    model itself is enumerated."""
    original = DgaModel.basis
    enumerated = []
    with monkeypatch.context() as patch:
        patch.setattr(DgaModel, "basis", lambda m, d: enumerated.append(m) or original(m, d))
        dims = cohomology(model, max_degree).dims
    assert not any(m is model for m in enumerated)
    return dims


def test_inert_generators_split_off_by_kunneth(monkeypatch):
    """Seeded models tensored with one to three inert generators of random
    degree and parity: the rank path, which ranks the model on the other
    generators only, gives the dimensions of the unsplit complex, and they
    are those of the model times the free series of the inert generators."""
    rng = random.Random(1729)
    for _ in range(40):
        base = random_model(rng)
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        model = _with_inert(base, degrees)
        dims = _ranked_without_enumerating(model, 10, monkeypatch)
        assert dims == cochain_complex(model, 10).betti().dims, model
        expected = _series_product(list(cochain_complex(base, 10).betti().dims), _free_series(degrees, 10))
        assert list(dims) == expected, model


def test_all_inert_and_empty_models():
    for degrees in ([1], [2], [1, 2, 3], [1, 1, 1, 1], [2, 4, 4], []):
        model = DgaModel([(f"t{i}", d) for i, d in enumerate(degrees)])
        assert cohomology(model, 12).dims == cochain_complex(model, 12).betti().dims
        assert list(cohomology(model, 12).dims) == _free_series(degrees, 12)
    assert cohomology(DgaModel([]), 5).dims == (1, 0, 0, 0, 0, 0)


def test_theorem3_models_split_off_the_middle_generator(monkeypatch):
    """Lambda(u2, mid, top) with d top = u2^a and mid inert has cohomology
    Q[u2]/(u2^a) (x) Q[mid] in every degree."""
    for n in range(2, 8):
        model = theorem3_model(SpaceFormSpec(n, 2, 2))
        u2, mid, top = model.generators
        (power,) = (mon[0] for mon in model.differential_of(top.name).terms)
        truncated = [1 if d % 2 == 0 and d < 2 * power else 0 for d in range(33)]
        expected = tuple(_series_product(truncated, _free_series([mid.degree], 32)))
        assert _ranked_without_enumerating(model, 32, monkeypatch) == expected
        assert cochain_complex(model, 32).betti().dims == expected


def test_rank_path_streams_one_reduction_that_clears_across_degrees(monkeypatch):
    """cohomology() without representatives makes one Leibniz pass over the
    ranked model and one column_reduce call, fed lazily from it.  The pass
    takes the sources degree by degree, last first within a degree, and
    makes no image for a cleared source: in degree d the cleared sources
    are rank d_{d-1} in number (read off the dims of the ranked model's
    full complex), and at max degree 12 they are exactly the lowest
    positions of a reduced basis of the image of d_{d-1} (by the Fraction
    reference).  Every position of a source's image lies in the index range
    of the next degree.  DgaModel.basis is called as often at max degree 24
    as at 12, and the dims are those of the full complex.  The pass reads
    the model's packed keys of monomials in the ranked generators alone,
    decoded here by the layout of its derivation table and read over the
    ranked generators."""
    rng = random.Random(4242)
    models = [theorem3_model(SpaceFormSpec(7, 2, 2)),  # the middle generator is inert
              DgaModel([("u2", 2), ("x", 5), ("z", 3)], {"x": [("1/2", {"u2": 3})]}),  # so is z
              even_k1_model(), odd_model(2), parse_path(SIX_GEN, kind="dga").value,
              *odd_differential_models(), *(random_model(rng) for _ in range(6))]
    assert _active_names(models[0]) == ("u2", "u7") and _active_names(models[1]) == ("u2", "x")
    original_leibniz, original_reduce, original_basis = cohomology_module.leibniz, linalg.column_reduce, DgaModel.basis
    for model in models:
        ranked = _ranked_model(model)
        cleared = _cleared_positions(ranked, 12)
        basis_calls = {}
        for max_degree in (12, 24):
            bases = ranked.bases(max_degree + 1)
            offsets = list(itertools.accumulate(map(len, bases), initial=0))
            position = {m: p for p, m in enumerate(itertools.chain.from_iterable(bases))}
            passes, sources, reductions, columns, calls = [], [], [], [], []

            def recording_leibniz(table, monomials, index=None):
                passes.append(table)
                return original_leibniz(table, (sources.append(m) or m for m in monomials), index)

            def recording_reduce(vectors, kept=None):
                reductions.append(kept)
                return original_reduce((columns.append(v) or v for v in vectors), kept)

            with monkeypatch.context() as patch:
                patch.setattr(cohomology_module, "leibniz", recording_leibniz)
                patch.setattr(linalg, "column_reduce", recording_reduce)
                patch.setattr(DgaModel, "basis", lambda m, d: calls.append(d) or original_basis(m, d))
                dims = cohomology(model, max_degree).dims
            assert len(passes) == 1 and len(reductions) == 1, model
            assert dims == cochain_complex(model, max_degree).betti().dims, model
            active = [i for i, g in enumerate(model.generators) if g.name in _active_names(model)]
            decoded = list(map(passes[0][0].unpack, sources))
            assert not any(mon[i] for mon in decoded for i in range(model.ngens) if i not in active), model
            sources[:] = [tuple(mon[i] for i in active) for mon in decoded]
            # sources in degree order, last first within a degree
            positions = [position[m] for m in sources]
            assert positions == sorted(positions, key=lambda p: (bisect.bisect_right(offsets, p), -p)), model
            previous = 0  # rank d_{d-1} of the ranked model
            for d, (basis, b) in enumerate(zip(bases, cochain_complex(ranked, max_degree).betti().dims)):
                taken = [m for m in sources if offsets[d] <= position[m] < offsets[d + 1]]
                assert len(basis) - len(taken) == previous, (model, d)
                previous = len(basis) - b - previous
                if max_degree == 12:
                    assert [m for m in reversed(basis) if position[m] not in cleared] == taken, (model, d)
            # one image per source taken, each in the next degree's range
            assert len(columns) == len(sources), model
            for m, column in zip(sources, columns):
                d = bisect.bisect_right(offsets, position[m]) - 1
                assert all(offsets[d + 1] <= p < offsets[d + 2] for p in column), (model, d)
            basis_calls[max_degree] = len(calls)
        assert basis_calls[12] == basis_calls[24] <= 1, (model, basis_calls)


def _ranked_model(model):
    """The model on the generators the rank path keeps (see
    _active_names), with their differentials."""
    names = _active_names(model)
    diffs = {name: [(c, model.exponent_map(m)) for m, c in model.differential_of(name).terms.items()]
             for name in names}
    return DgaModel([(name, model.generator(name).degree) for name in names], diffs)


def _cleared_positions(model, max_degree):
    """The positions, in one ascending index of the bases of degrees
    0..max_degree+1, of the lowest positions of a reduced basis of each
    incoming image: per degree d, the pivot columns of the echelon form
    (reference_echelon) of the Fraction images of d_{d-1}, read as rows."""
    cleared, offset = set(), 0
    for d in range(max_degree + 1):
        basis = model.basis(d)
        if d:
            rows = [apply_differential(model.monomial_element(m)).coords(basis) for m in model.basis(d - 1)]
            cleared.update(offset + p for p in reference_echelon(rows)[1])
        offset += len(basis)
    return cleared


def _complete_intersection_series(top):
    """(1 - t^4)^2 / (1 - t^2)^4 as a power series up to t^top: the
    numerator's coefficients, then four divisions by 1 - t^2, each a
    running sum in steps of 2."""
    series = [0] * (top + 1)
    for d, c in ((0, 1), (4, -2), (8, 1)):
        if d <= top:
            series[d] = c
    for _ in range(4):
        for d in range(2, top + 1):
            series[d] += series[d - 2]
    return series


def test_six_gen_to_degree_36_has_its_hilbert_series():
    """six_gen is Lambda(a, b, c, e, x, y) with dx, dy a regular sequence in
    Q[a, b, c, e], so its cohomology is the complete intersection with
    Hilbert series (1 - t^4)^2 / (1 - t^2)^4: 1, then 4k in degree 2k and 0
    in odd degrees."""
    series = _complete_intersection_series(36)
    assert series == [1] + [0 if d % 2 else 2 * d for d in range(1, 37)]
    assert list(cohomology(parse_path(SIX_GEN, kind="dga").value, 36).dims) == series


def test_rank_path_images_on_six_gen_are_a_fixed_count(monkeypatch):
    """The work of the rank path as a count: on six_gen it makes one Leibniz
    image per source it does not clear, sum_d (dim C^d - rank d_{d-1}),
    with the ranks read off the Hilbert series: 2,535 images of 4,537
    sources at max degree 24 and 11,191 of 20,881 at 36.  A change that
    stops clearing makes an image for every source and fails here."""
    model = parse_path(SIX_GEN, kind="dga").value
    original = cohomology_module.leibniz
    made = []

    def counting_leibniz(table, monomials, index=None):
        for image in original(table, monomials, index):
            made.append(image)
            yield image

    monkeypatch.setattr(cohomology_module, "leibniz", counting_leibniz)
    for max_degree, sources, expected in ((24, 4537, 2535), (36, 20881, 11191)):
        sizes = model.basis_sizes(max_degree)
        betti = _complete_intersection_series(max_degree)
        count, rank = 0, 0  # rank d_{d-1}
        for size, b in zip(sizes, betti):
            count += size - rank
            rank = size - b - rank
        assert (sum(sizes), count) == (sources, expected)
        made.clear()
        assert list(cohomology(model, max_degree).dims) == betti
        assert len(made) == expected


def test_rank_path_matches_the_reference_complex():
    """300 seeded models and the odd-differential ones, which are dgas
    that are not minimal (dc = a*b), at max degree 10: the rank path's dims
    are the numbers of representatives of the plain Fraction reference,
    which builds each d_d densely from apply_differential and reads its null
    space."""
    rng = random.Random(2011)
    for model in [*(random_model(rng) for _ in range(300)), *odd_differential_models()]:
        expected = tuple(len(reps) for _, _, reps, _ in reference_cochain_complex(model, 10))
        assert cohomology(model, 10).dims == expected, model


def test_a_refused_generator_stops_at_the_gate_before_any_leibniz_pass(monkeypatch):
    """The refusal branch of leibniz reads every source before the first
    image, which would run the rank path's clearing tests too early.  It is
    never reached from cohomology(): a refused generator has a dg term of
    its own parity, so of a degree other than its own plus one, and the
    gate's degree-raising check refuses the model first."""
    models = [
        _parity_keeping_model(),  # db = a, homogeneous of degree 1
        DgaModel([("a", 2), ("b", 3), ("x", 3)], {"x": [(1, {"a": 2}), (1, {"a": 1, "b": 1})]}),  # degrees 4 and 5
    ]
    calls = []
    original = cohomology_module.leibniz
    monkeypatch.setattr(cohomology_module, "leibniz", lambda *args: calls.append(args) or original(*args))
    for model in models:
        assert model.integer_derivation()[2], model  # the table refuses a generator
        for extra in ((), (2,)):
            with pytest.raises(GcaError, match="^model fails validation: degree-raising: "):
                cohomology(_with_inert(model, extra), 8)
    assert calls == []


def _active_names(model):
    """The generators with a nonzero differential or in some generator
    differential: those the rank path does not split off."""
    used = {name for g in model.generators for mon in model.differential_of(g.name).terms
            for name in model.exponent_map(mon)}
    return tuple(g.name for g in model.generators if g.name in used or not model.differential_of(g.name).is_zero)


def _d_squared_by_product_rule(model, g):
    """d(dg) in Fractions: each monomial of dg differentiated by
    leibniz_expansion, the product rule on generator elements."""
    total = model.zero()
    for mon, c in model.differential_of(g.name).terms.items():
        names = monomial_names(model, mon)
        if names:
            total = total + leibniz_expansion(model, names).scale(c)
    return total


def _parity_keeping_model():
    # db = a keeps the parity of b, so d(dy) for dy = b*g is not checked
    return DgaModel([("a", 1), ("b", 1), ("g", 1), ("y", 1)], {"b": [(1, {"a": 1})], "y": [(1, {"b": 1, "g": 1})]})


def _non_homogeneous_model():
    # dc, de and df do not square to zero, and df mixes degrees 8 and 5
    return DgaModel([("a", 2), ("b", 3), ("c", 4), ("e", 5), ("f", 7)],
                    {"b": [(1, {"a": 2})], "c": [("2/3", {"a": 1, "b": 1})],
                     "e": [("1/5", {"a": 1, "c": 1}), (1, {"a": 3})],
                     "f": [(1, {"a": 4}), ("1/2", {"a": 1, "b": 1})]})


def test_check_model_d_squared_matches_the_product_rule():
    """check_model reads d(dg) off the integer derivation table; its
    d-squared verdict names exactly the generators whose d(dg), expanded by
    the Fraction product rule, is nonzero.  Only a dg holding a generator
    whose differential keeps its parity is reported as not checked."""
    rng = random.Random(1968)
    models = [random_model(rng) for _ in range(40)]
    models += [model for model, *_ in _refused_cases()]
    models += [*odd_differential_models(), own_factor_model(), _non_homogeneous_model()]
    for model in models:
        expected = [f"d(d{g.name}) != 0" for g in model.generators
                    if not _d_squared_by_product_rule(model, g).is_zero]
        square = next(c for c in check_model(model).checks if c.name == "d-squared")
        assert (square.passed, square.detail) == (not expected, "; ".join(expected)), model
    refusal = "db has a term of the parity of b: the graded Leibniz rule needs a differential that changes parity"
    expected_texts = {
        _non_homogeneous_model: (
            "FAIL  degree-raising  (df is not homogeneous)\n"
            "FAIL  d-squared  (d(dc) != 0; d(de) != 0; d(df) != 0)\n"
            "pass  minimality\n"
            "pass  odd-square-exclusion",
            ["degree-raising: df is not homogeneous", "d-squared: d(dc) != 0; d(de) != 0; d(df) != 0"]),
        _parity_keeping_model: (
            "FAIL  degree-raising  (db has degree 1, expected 2)\n"
            f"FAIL  d-squared  (d(dy) not checked: {refusal})\n"
            "FAIL  minimality  (db uses a of degree >= 1; dy uses b, g of degree >= 1)\n"
            "pass  odd-square-exclusion",
            ["degree-raising: db has degree 1, expected 2", f"d-squared: d(dy) not checked: {refusal}",
             "minimality: db uses a of degree >= 1; dy uses b, g of degree >= 1"]),
        own_factor_model: (
            "pass  degree-raising\npass  d-squared\nFAIL  minimality  (dg uses a, g of degree >= 1)\n"
            "pass  odd-square-exclusion",
            ["minimality: dg uses a, g of degree >= 1"]),
    }
    for make, (text, messages) in expected_texts.items():
        report = check_model(make())
        assert (report.format(), report.failure_messages()) == (text, messages)
    # the product rule gives d(dy) = d(b*g) = a*g on the parity-keeping model
    model = _parity_keeping_model()
    assert _d_squared_by_product_rule(model, model.generator("y")) == model.gen("a") * model.gen("g")


def test_check_model_builds_one_integer_table_and_no_fraction_differential(monkeypatch):
    """The gate and the cochain path that follows it read one integer
    derivation table, made once per model; the gate makes no table of the
    Fraction differentials, which apply_differential would read."""
    import loopspace.gca.algebra as algebra_module

    made = []
    original = algebra_module.derivation_table

    def counting(model, diffs):
        made.append(all(type(c) is int for dg in diffs for c in dg.values()))
        return original(model, diffs)

    monkeypatch.setattr(algebra_module, "derivation_table", counting)
    for compute in (lambda m: cohomology(m, 10), lambda m: cochain_complex(m, 10)):
        made.clear()
        model = DgaModel([("u2", 2), ("v2", 2), ("x", 3)], {"x": [("1/2", {"u2": 2}), ("1/3", {"v2": 2})]})
        compute(model)
        assert check_model(model).ok
        assert made == [True]


def _sparse_integer_matrix(rng, kind):
    """A dense integer matrix of the given kind, built at random."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    if kind == "no rows":
        return [], ncols
    if kind == "one dense block":
        return [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(ncols)] for _ in range(nrows)], ncols
    if kind in ("block diagonal", "one-row and one-column blocks"):
        sizes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        if kind == "one-row and one-column blocks":
            sizes = [rng.choice(((1, 1), (1, c), (c, 1))) for _, c in sizes]
        nrows, ncols = sum(r for r, _ in sizes), sum(c for _, c in sizes)
        rows = [[0] * ncols for _ in range(nrows)]
        r0 = c0 = 0
        for r, c in sizes:
            base = [rng.choice((-2, -1, 1, 2)) for _ in range(c)]
            for i in range(r):  # rank-deficient when the factor repeats
                factor = rng.choice((1, 2, rng.randint(-3, 3)))
                for j in range(c):
                    rows[r0 + i][c0 + j] = factor * base[j] + (rng.random() < 0.3) * rng.randint(-2, 2)
            r0, c0 = r0 + r, c0 + c
        row_order, col_order = list(range(nrows)), list(range(ncols))
        rng.shuffle(row_order)
        rng.shuffle(col_order)
        return [[rows[i][j] for j in col_order] for i in row_order], ncols
    rows = [[rng.randint(-3, 3) if rng.random() < 0.25 else 0 for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero columns":
        for j in rng.sample(range(ncols), rng.randint(1, ncols)):
            for row in rows:
                row[j] = 0
    elif kind == "duplicate rows":
        for _ in range(rng.randint(1, 4)):
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    return rows, ncols


def _rank_deficient_product(rng):
    """A*B for random n x k and k x n integer factors, k < n <= 40, entries up
    to 10^6 in absolute value: rank at most k."""
    n = rng.randint(2, 40)
    k = rng.randint(1, n - 1)
    a = [[rng.randint(-10**6, 10**6) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a], n


def test_sparse_rank_matches_the_reference_echelon():
    rng = random.Random(1958)
    kinds = ("no rows", "zero columns", "one dense block", "block diagonal", "duplicate rows", "sparse",
             "one-row and one-column blocks")
    cases = []
    for n in range(34 * len(kinds)):  # 34 of each kind, as many as each had among six
        cases.append((kinds[n % len(kinds)], *_sparse_integer_matrix(rng, kinds[n % len(kinds)])))
    cases += [("rank-deficient product", *_rank_deficient_product(rng)) for _ in range(12)]
    for kind, rows, ncols in cases:
        columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
        copies = [dict(column) for column in columns]
        assert linalg.sparse_rank(columns) == len(reference_echelon(rows)[1]), (kind, rows)
        # the kept columns: keyed by their lowest row, which are the pivot
        # columns of the transpose, and spanning the columns' own space
        transposed = [[row[j] for row in rows] for j in range(ncols)]
        kept = linalg.column_reduce(columns)
        assert all(min(v) == low for low, v in kept.items()), (kind, rows)
        assert sorted(kept) == reference_echelon(transposed)[1], (kind, rows)
        dense = [[v.get(i, 0) for i in range(len(rows))] for v in kept.values()]
        assert reference_rref(dense) == reference_rref(transposed), (kind, rows)
        assert columns == copies


def test_basis_sizes_count_the_enumerated_bases():
    rng = random.Random(31415)
    models = [random_model(rng) for _ in range(40)] + [DgaModel([]), DgaModel([("x", 3)])]
    for model in models:
        assert model.basis_sizes(14) == tuple(len(model.basis(d)) for d in range(15)), model
    assert DgaModel([("a", 2)]).basis_sizes(0) == (1,)


def test_basis_sizes_match_the_decoded_bases_at_every_top():
    """basis_sizes(top) and the lengths of bases(top) agree for top -2..12,
    the negative tops included, on seeded random models."""
    rng = random.Random(32)
    for model in [random_model(rng) for _ in range(20)] + [DgaModel([]), DgaModel([("x", 3)])]:
        for top in range(-2, 13):
            assert model.basis_sizes(top) == tuple(map(len, model.bases(top))), (model, top)


def test_basis_limit_is_checked_before_any_basis_is_enumerated(monkeypatch):
    twelve = DgaModel([(f"a{i}", 2) for i in range(12)])

    def forbidden(self, degree):
        raise AssertionError("a basis was enumerated before the limit check")

    monkeypatch.setattr(DgaModel, "basis", forbidden)
    for with_representatives in (False, True):
        with pytest.raises(BasisLimitError) as err:
            cohomology(twelve, 24, with_representatives=with_representatives)
        # C(21, 11) monomials of degree 20 in twelve degree-2 generators
        assert (err.value.degree, err.value.size) == (20, 352_716)
        assert str(err.value) == (
            "monomial basis at degree 20 has 352716 elements, exceeding the limit 200000"
        )


def test_six_generator_cohomology_json_is_byte_identical():
    """sha256 of the exit code and `cohomology --max-degree 16 --json` on
    fixtures/six_gen.dga, a large sparse elimination, recorded before the
    kernels skipped zeros."""
    from golden import command_digest

    digest = command_digest(("cohomology", "--max-degree", "16", "--json", "six_gen.dga"))
    assert digest == "56f8717483a660b6f19624e9b2518f5355a11b938c31dc7f60b750db1b11a61b"


def test_six_generator_complete_intersection_to_degree_32():
    # dx = a^2 + bc and dy = b^2 + 3ae form a regular sequence in Q[a,b,c,e],
    # so the Hilbert series is (1 - t^4)^2 / (1 - t^2)^4: 4k at degree 2k
    # for k >= 1 and 0 in odd degrees
    model = DgaModel(
        [("a", 2), ("b", 2), ("c", 2), ("e", 2), ("x", 3), ("y", 3)],
        {"x": [(1, {"a": 2}), (1, {"b": 1, "c": 1})], "y": [(1, {"b": 2}), (3, {"a": 1, "e": 1})]},
    )
    expected = tuple([1] + [0 if d % 2 else 2 * d for d in range(1, 33)])
    assert cohomology(model, 32).dims == expected


def test_representatives_are_cocycles_independent_of_image():
    data = cochain_complex(even_k1_model(), 10)
    images = reference_integer_images(even_k1_model(), 10)
    for d in range(11):
        dd = data.degrees[d]
        for rep in data.representative_elements(d):
            assert apply_differential(rep).is_zero
        span = linalg.IncrementalSpan(len(dd.basis))
        for vec in images[d]:
            assert span.add(vec)
        for vec in dd.reps:
            assert span.add(vec)


def test_determinism_of_tables_and_representatives():
    a = cohomology(even_k2_model(), 14, with_representatives=True)
    b = cohomology(even_k2_model(), 14, with_representatives=True)
    assert a == b


def test_basis_limit_error_names_degree(monkeypatch):
    m = DgaModel([("a", 1), ("b", 1), ("c", 1)])
    monkeypatch.setattr(cohomology_module, "DEFAULT_BASIS_LIMIT", 2)  # read by the gate at each call
    with pytest.raises(BasisLimitError) as err:
        cohomology(m, 3)
    assert err.value.degree == 1  # three degree-1 monomials already exceed the limit
    assert err.value.limit == 2


def test_basis_limit_refuses_exactly_when_a_basis_exceeds_it(monkeypatch):
    """The gate counts the bases only when the product of the exponent
    ranges exceeds the limit.  On seeded models, at limits just below, at
    and above the largest basis and at the product itself, both paths
    refuse exactly when a basis of degrees 0..max_degree+1 exceeds the
    limit, naming the first such degree and its size."""
    rng = random.Random(3403)
    for _ in range(60):
        model = random_model(rng)
        max_degree = rng.randint(0, 12)
        top = max_degree + 1
        sizes = [len(model.basis(d)) for d in range(top + 1)]
        bound = prod(top // g.degree + 1 if g.degree % 2 == 0 else 2 for g in model.generators)
        for limit in (max(sizes) - 1, max(sizes), max(sizes) + 1, bound):
            monkeypatch.setattr(cohomology_module, "DEFAULT_BASIS_LIMIT", limit)
            over = [d for d, size in enumerate(sizes) if size > limit]
            for path in (cohomology, cochain_complex):
                if over:
                    with pytest.raises(BasisLimitError) as err:
                        path(model, max_degree)
                    assert (err.value.degree, err.value.size, err.value.limit) == (over[0], sizes[over[0]], limit)
                else:
                    path(model, max_degree)


def test_complex_data_rejects_degrees_outside_the_truncation():
    data = cochain_complex(DgaModel([("u2", 2)]), 4)
    u2 = data.model.gen("u2")
    for degree in (-1, 5):
        with pytest.raises(GcaError):
            data.representative_elements(degree)
        with pytest.raises(GcaError):
            data.class_coordinates(u2, degree)
    with pytest.raises(GcaError, match="exceeds the truncation 4"):
        data.representative_elements(5)


def test_class_coordinates_match_a_solve_over_reps_and_image():
    # reference: one exact solve over the columns [reps | image]
    rng = random.Random(31415)
    models = [(random_model(rng), 8) for _ in range(40)]
    models += [(even_k1_model(), 12), (even_k2_model(), 16)]
    models += [(m, 12) for m in _coprime_models()]
    rng = random.Random(1729)
    fractions = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 6), Fraction(-1, 2), 0, 1, -3]
    for model, max_degree in models:
        data = cochain_complex(model, max_degree)
        images = reference_integer_images(model, max_degree)
        for d, dd in enumerate(data.degrees):
            columns = [*dd.reps, *images[d]]
            elements = [model.from_coords(dd.basis, vec) for vec in columns]
            for k, x in enumerate(elements):  # reps map to unit vectors, image vectors to zero
                assert data.class_coordinates(x, d) == [int(j == k) for j in range(len(dd.reps))]
            for n in range(6):  # integer combinations, then ones with denominators
                coeffs = [rng.randint(-3, 3) if n < 3 else rng.choice(fractions) for _ in columns]
                x = model.zero()
                for c, e in zip(coeffs, elements):
                    x = x + e.scale(c)
                expected = linalg.solve(columns, x.coords(dd.basis))[: len(dd.reps)]
                assert expected == coeffs[: len(dd.reps)]
                assert data.class_coordinates(x, d) == expected, (model, d)
                assert data.is_exact(x, d) == (not any(expected))


def test_class_coordinates_error_paths():
    model = even_k1_model()
    data = cochain_complex(model, 10)
    u2, u3 = model.gen("u2"), model.gen("u3")
    # x is a closed degree-3 cocycle next to u3, which is not one
    odd = DgaModel([("u2", 2), ("u3", 3), ("x", 3)], {"u3": [(1, {"u2": 2})]})
    odd_data = cochain_complex(odd, 8)
    cases = [
        (data, u2 + model.one(), 2, MixedDegreeError, "element mixes degrees [0, 2]"),
        (data, u2, 4, GcaError, "element is not homogeneous of the requested degree"),
        (data, u2, -1, GcaError, "degree must be >= 0, got -1"),
        (data, u2, 11, GcaError, "degree 11 exceeds the truncation 10"),
        (data, u2, True, GcaError, "degree must be an integer, got True"),
        (data, u2, 2.0, GcaError, "degree must be an integer, got 2.0"),
        (data, u3, 3, GcaError, "nonzero element in a degree with trivial cocycle space"),
        (odd_data, odd.gen("u3"), 3, GcaError, "element of degree 3 is not a cocycle class"),
        (odd_data, odd.gen("u3") + odd.gen("x"), 3, GcaError, "element of degree 3 is not a cocycle class"),
        (odd_data, odd.gen("x") + odd.gen("u3").scale(Fraction(1, 6)), 3, GcaError,
         "element of degree 3 is not a cocycle class"),
    ]
    for complex_data, element, degree, kind, text in cases:
        for query in (complex_data.class_coordinates, complex_data.is_exact):
            with pytest.raises(GcaError) as err:
                query(element, degree)
            assert (type(err.value), str(err.value)) == (kind, text)
    for degree, text in ((False, "degree must be an integer, got False"), (2.0, "degree must be an integer, got 2.0"),
                         (-1, "degree must be >= 0, got -1"), (11, "degree 11 exceeds the truncation 10")):
        with pytest.raises(GcaError, match=f"^{text}$"):
            data.representative_elements(degree)
    assert data.class_coordinates(model.zero(), 3) == []
    assert odd_data.class_coordinates(odd.gen("x"), 3) == [Fraction(1)]


def test_quotient_ring_dims_against_oracle():
    for deg_w, deg_z, a in [(2, 2, 2), (2, 4, 3), (2, 6, 4), (2, 10, 6)]:
        pres = RingPresentation(deg_w, deg_z, a)
        assert quotient_ring_dims(pres, 30) == quotient_counts_oracle(deg_w, deg_z, a, 30)


def test_quotient_ring_dims_odd_generators_have_exponent_at_most_one():
    # odd z: w^i z^j with j <= 1, in degrees 0, 2, 3, 5
    assert quotient_ring_dims(RingPresentation(2, 3, 2), 8) == [1, 0, 1, 1, 0, 1, 0, 0, 0]
    # odd w: w^i z^j with i <= 1 although a = 3, one monomial in every degree
    assert quotient_ring_dims(RingPresentation(1, 2, 3), 8) == [1] * 9


def pencil_power_model(p, q, a):
    """u2 and v2 closed and dx = (p*u2 + q*v2)^a: the model of the
    ring-gysin benchmark family, whose ring is Q[w,z]/(w^a) with w
    proportional to p*u2 + q*v2."""
    terms = [(comb(a, k) * p**k * q ** (a - k), {"u2": k, "v2": a - k}) for k in range(a + 1)]
    return DgaModel([("u2", 2), ("v2", 2), ("x", 2 * a - 1)], {"x": terms})


def _report_text(report):
    """The report with w and z as their formatted text."""
    text = lambda x: None if x is None else x.model.format_element(x)  # noqa: E731
    return dataclasses.replace(report, w=text(report.w), z=text(report.z))


def test_ring_search_matches_the_element_reference():
    cases = [(pencil_power_model(p, q, a), RingPresentation(2, 2, a), degree)
             for p in range(-3, 4) for q in (-3, -2, -1, 1, 2, 3)
             for a in (2, 3, 4, 5) for degree in (12, 16, 20)]
    pencil = parse_path(RATIONAL_PENCIL, kind="dga").value
    cases += [(pencil, RingPresentation(2, 2, a), degree) for a in (1, 2, 3) for degree in (6, 14)]
    cases += [(even_k1_model(), RingPresentation(2, 2, a), 12) for a in (1, 2, 3)]
    cases += [(even_k2_model(), RingPresentation(2, 6, a), 16) for a in (3, 4, 5)]
    cases += [(even_k1_model(), RingPresentation(2, 3, 2), 12), (odd_model(1), RingPresentation(2, 2, 2), 12)]
    # Q[u2]/(u2^3) and a3 with u2*a3 exact, b5 in its place: the dimensions
    # of Q[w,z]/(w^3) with deg z = 3, but w*z is 0 for every z
    unlinked = DgaModel([("u2", 2), ("a3", 3), ("e4", 4), ("b5", 5), ("x5", 5)],
                        {"e4": [(1, {"u2": 1, "a3": 1})], "x5": [(1, {"u2": 3})]})
    cases += [(unlinked, RingPresentation(2, 3, 3), degree) for degree in (6, 8)]
    cases += [(model, RingPresentation(2, 2, 1), 10) for model in _nilpotency_one_models()]
    verdicts = set()
    for model, presentation, degree in cases:
        report = verify_ring_presentation(model, presentation, degree)
        expected = reference_verify_ring_presentation(model, presentation, degree)
        assert _report_text(report) == _report_text(expected), (model, presentation, degree)
        verdicts.add((report.passed, report.first_mismatch is None, report.w is None, report.z is None))
    # passes, dimension mismatches, and FAILs with and without a w
    assert verdicts >= {(True, True, False, False), (False, False, True, True),
                        (False, True, True, True), (False, True, False, True)}


def _nilpotency_one_models():
    """Q[z] with deg z = 2, and Q[u,v]/(u^2) with deg u = 2 and deg v = 4,
    which has the Betti numbers of Q[z] but the square of its one degree-2
    class exact."""
    return (DgaModel([("z", 2)]),
            DgaModel([("u", 2), ("e", 3), ("v", 4)], {"e": [(1, {"u": 2})]}))


def test_verify_ring_presentation_nilpotency_one_takes_w_zero():
    polynomial, square_zero = _nilpotency_one_models()
    report = verify_ring_presentation(polynomial, RingPresentation(2, 2, 1), 10)
    assert report.passed and report.messages == (), report.format()
    assert report.w.is_zero and polynomial.format_element(report.z) == "z"
    assert report.format().split("\n")[1:] == ["w = 0", "z = z"]
    # with w = 0 the verdict rests on the dimensions and on z
    report = verify_ring_presentation(square_zero, RingPresentation(2, 2, 1), 10)
    assert report.actual_dims == report.expected_dims and report.w.is_zero
    assert not report.passed and report.z is None
    assert report.messages == ("no degree-2 class z with independent products w^i z^j was found",)


def test_verify_ring_presentation_odd_k1():
    report = verify_ring_presentation(odd_model(1), RingPresentation(2, 2, 2), 12)
    assert report.passed, report.format()
    assert report.w is not None and report.z is not None
    # w must be the class whose square is exact: u2 up to scale
    assert report.w.model.format_element(report.w) == "u2"


def test_verify_ring_presentation_even_k2():
    report = verify_ring_presentation(even_k2_model(), RingPresentation(2, 6, 4), 16)
    assert report.passed, report.format()
    assert report.actual_dims == (1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1)


def test_verify_ring_presentation_wrong_nilpotency_fails_at_4():
    report = verify_ring_presentation(even_k1_model(), RingPresentation(2, 2, 3), 12)
    assert not report.passed
    assert report.first_mismatch == 4


def test_verify_ring_presentation_reads_z_above_the_truncation():
    """The complex is built up to deg z as well as a*deg w, so a z whose
    degree lies above the truncation is still found: Lambda(u2, x3, z7)
    with dx3 = u2^2 passes at degree 3 with the w and z it has at 7."""
    model = DgaModel([("u2", 2), ("x3", 3), ("z7", 7)], {"x3": [(1, {"u2": 2})]})
    presentation = RingPresentation(2, 7, 2)
    high = verify_ring_presentation(model, presentation, 7)
    low = verify_ring_presentation(model, presentation, 3)
    assert high.passed and low.passed, low.format()
    assert (low.w, low.z) == (high.w, high.z) == (model.gen("u2"), model.gen("z7"))
    assert low.actual_dims == (1, 0, 1, 0)


def test_verify_ring_presentation_rejects_wrong_degree():
    report = verify_ring_presentation(even_k1_model(), RingPresentation(2, 3, 2), 12)
    assert not report.passed


def test_betti_table_validation():
    with pytest.raises(GcaError):
        BettiTable(2, (1, 0))
    with pytest.raises(GcaError):
        BettiTable(1, (1, -1))
    table = BettiTable.from_dims([0])  # plain data tables may have dims[0] = 0
    assert table.dim(0) == 0 and table.dim(5) == 0
    table = BettiTable.from_dims([1, 2, 3])
    assert table.dim(1) == 2 and table.dim(-1) == 0
    for degree in (True, 1.5):
        with pytest.raises(GcaError, match=f"^degree must be an integer, got {degree!r}$"):
            table.dim(degree)
