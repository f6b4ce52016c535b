"""The graded product, Koszul signs, and the Leibniz differential."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from loopspace.gca import (
    DgaModel,
    GcaError,
    Generator,
    MixedDegreeError,
    UnknownGeneratorError,
    apply_differential,
    cochain_complex,
    multiply,
)

from loopspace.gca.algebra import derivation_table, leibniz, multiply_terms
from loopspace.gca.cohomology import differential_matrix

from helpers import (
    coprime_denominator_model,
    odd_differential_models,
    random_homogeneous,
    random_model,
    reference_basis,
    reference_multiply_monomials,
    reference_product,
)


@pytest.fixture
def odd_pair():
    return DgaModel([("u3", 3), ("v5", 5)])


def even_model():
    # u2, v2 closed; du3 = u2^2
    return DgaModel(
        [("u2", 2), ("v2", 2), ("u3", 3)],
        {"u3": [(1, {"u2": 2})]},
        name="even_k1",
    )


def test_odd_square_vanishes(odd_pair):
    u3 = odd_pair.gen("u3")
    assert (u3 * u3).is_zero


def test_odd_odd_anticommute(odd_pair):
    u3, v5 = odd_pair.gen("u3"), odd_pair.gen("v5")
    assert u3 * v5 == -(v5 * u3)
    assert not (u3 * v5).is_zero


def test_even_powers_accumulate():
    m = even_model()
    u2 = m.gen("u2")
    for k in range(2, 6):
        assert u2 ** (k - 1) * u2 == u2**k
        assert (u2**k).coefficient(m.monomial({"u2": k})) == 1


def test_scalars_and_subtraction():
    m = even_model()
    u2 = m.gen("u2")
    x = 3 * u2 - u2.scale(Fraction(1, 2))
    assert x.coefficient(m.monomial({"u2": 1})) == Fraction(5, 2)
    assert (x - x).is_zero


def test_unknown_generator_rejected(odd_pair):
    other = DgaModel([("u3", 3)])
    with pytest.raises(UnknownGeneratorError):
        multiply(odd_pair.gen("u3"), other.gen("u3"))
    with pytest.raises(UnknownGeneratorError):
        odd_pair.gen("w7")


def test_generator_validation():
    with pytest.raises(GcaError):
        Generator("x", 0)
    with pytest.raises(GcaError):
        DgaModel([("x", 2), ("x", 3)])
    with pytest.raises(GcaError):
        DgaModel([("x", 2)], {"y": []})


def test_malformed_input_is_refused_by_name():
    """Raw input of the wrong shape is refused with a GcaError naming the
    offending generator, term or value, never a bare TypeError, ValueError
    or AttributeError: a differential or exponents that are no iterable, a
    term or an exponent item that is no pair, a generator name that cannot
    be hashed, differentials that are no mapping, a generator that is no
    pair, and coordinates that do not match their basis."""
    gens = [("u", 2), ("x", 3)]
    model = DgaModel(gens)
    shape = "exponents must be a {name: exponent} mapping or (name, exponent) pairs, got"
    cases = [
        (lambda: DgaModel(gens, {"x": [(1, 5)]}), GcaError, f"differential of 'x': {shape} 5"),
        (lambda: DgaModel(gens, {"x": [(1, [("u", 1, 2)])]}), GcaError,
         f"differential of 'x': {shape} [('u', 1, 2)]"),
        (lambda: DgaModel(gens, {"x": 7}), GcaError,
         "differential of 'x' must be an iterable of (coefficient, exponents) terms, got 7"),
        (lambda: DgaModel(gens, {"x": [(1,)]}), GcaError,
         "differential of 'x': term must be a (coefficient, exponents) pair, got (1,)"),
        (lambda: DgaModel(gens, {"x": [(1, [(["u"], 2)])]}), UnknownGeneratorError, "unknown generator ['u']"),
        (lambda: DgaModel([("u", 2)], [("u", [])]), GcaError,
         "differentials must map generator names to polynomials, got [('u', [])]"),
        (lambda: DgaModel([("u",)]), GcaError, "generator must be a Generator or a (name, degree) pair, got ('u',)"),
        (lambda: DgaModel(5), GcaError, "generators must be an iterable of generators, got 5"),
        (lambda: model.element(7), GcaError,
         "polynomial must be an iterable of (coefficient, exponents) terms, got 7"),
        (lambda: model.element([(1, 5)]), GcaError, f"polynomial: {shape} 5"),
        (lambda: model.monomial(5), GcaError, f"monomial: {shape} 5"),
        (lambda: model.generator_index(["u"]), UnknownGeneratorError, "unknown generator ['u']"),
        (lambda: model.generator(["u"]), UnknownGeneratorError, "unknown generator ['u']"),
        (lambda: model.from_coords(model.basis(2), [1, 2]), GcaError,
         "expected 1 coordinates, one per basis monomial, got 2"),
        (lambda: model.from_coords(model.basis(2), []), GcaError,
         "expected 1 coordinates, one per basis monomial, got 0"),
    ]
    for call, kind, text in cases:
        with pytest.raises(GcaError) as err:
            call()
        assert (type(err.value), str(err.value)) == (kind, text)
    # the accepted shapes: pair lists with repeated factors, and zero terms
    # whose exponents are never read
    same = DgaModel(gens, {"x": [(1, [("u", 1), ("u", 1)]), (0, 5)]})
    assert same == DgaModel(gens, {"x": [(1, {"u": 2})]})
    assert model.from_coords(model.basis(2), [3]) == model.gen("u").scale(3)


def test_inexact_coefficients_raise_gca_error_at_every_entry_point():
    # a zero denominator and a string that is no number are refused like a
    # float, with the same type and text
    model = DgaModel([("a", 2), ("x", 3)])
    a = model.gen("a")
    for bad in ("1/0", "abc", 0.5):
        entry_points = (
            lambda: DgaModel([("a", 2), ("x", 3)], {"x": [(bad, {"a": 2})]}),
            lambda: model.element([(bad, {"a": 1})]),
            lambda: model.monomial_element(model.monomial({"a": 1}), bad),
            lambda: a.scale(bad),
        )
        for call in entry_points:
            with pytest.raises(GcaError) as err:
                call()
            assert (type(err.value), str(err.value)) == (
                GcaError, f"coefficient must be exact (int, Fraction or 'p/q' string), got {bad!r}"
            )


def test_monomial_rejects_odd_square(odd_pair):
    with pytest.raises(GcaError):
        odd_pair.monomial({"u3": 2})


def test_homogeneous_degree_queries():
    m = even_model()
    u2, u3 = m.gen("u2"), m.gen("u3")
    assert (u2 * u2).homogeneous_degree() == 4
    assert m.zero().homogeneous_degree() is None
    with pytest.raises(MixedDegreeError):
        (u2 + u3).homogeneous_degree()


def test_differential_of_cocycle_power():
    m = even_model()
    u2 = m.gen("u2")
    for k in (1, 2, 4):
        assert apply_differential(u2 ** (2 * k)).is_zero


def test_differential_leibniz_example():
    m = even_model()
    u2, u3 = m.gen("u2"), m.gen("u3")
    # d(u2*u3) = u2 * du3 = u2^3 since du2 = 0
    assert apply_differential(u2 * u3) == u2**3


def test_differential_squares_to_zero_on_top_generator():
    m = even_model()
    du3 = apply_differential(m.gen("u3"))
    assert du3 == m.gen("u2") ** 2
    assert apply_differential(du3).is_zero


def test_collapsed_differential_recorded():
    m = DgaModel(
        [("u2", 2), ("u3", 3), ("u5", 5)],
        {"u3": [(1, {"u2": 2})], "u5": [(1, {"u3": 2})]},
    )
    assert m.collapsed == {"u5"}
    assert m.differential_of("u5").is_zero
    # cancellation also counts as a collapse
    m2 = DgaModel([("u2", 2), ("u3", 3)], {"u3": [(1, {"u2": 2}), (-1, {"u2": 2})]})
    assert m2.collapsed == {"u3"}
    # an explicit zero differential does not
    m3 = DgaModel([("u2", 2), ("u3", 3)], {"u3": []})
    assert m3.collapsed == frozenset()


def test_canonical_order_is_degree_then_declaration():
    m = DgaModel([("b", 4), ("a", 2), ("c", 2)])
    assert [g.name for g in m.generators] == ["a", "c", "b"]


def test_basis_enumeration_small():
    m = even_model()
    assert [m.format_monomial(mon) for mon in m.basis(4)] == ["u2^2", "u2*v2", "v2^2"]
    assert [m.format_monomial(mon) for mon in m.basis(5)] == ["u2*u3", "v2*u3"]
    assert m.basis(1) == ()
    assert len(m.basis(0)) == 1


def test_basis_against_brute_force():
    # every exponent vector in the box, filtered by degree, sorted descending
    rng = random.Random(31415)
    models = [random_model(rng) for _ in range(40)] + [*odd_differential_models(), even_model()]
    for model in models:
        degrees = [g.degree for g in model.generators]
        for d in range(13):
            ranges = [range(2 if g % 2 else d // g + 1) for g in degrees]
            expected = sorted(
                (exps for exps in itertools.product(*ranges)
                 if sum(e * g for e, g in zip(exps, degrees)) == d),
                reverse=True,
            )
            assert list(model.basis(d)) == expected, (model, d)


def brute_force_bases(model, top):
    """Every exponent vector in the box of degree ``top``, bucketed by
    degree 0..top, each bucket sorted descending."""
    degrees = [g.degree for g in model.generators]
    buckets = [[] for _ in range(top + 1)]
    for exps in itertools.product(*(range(2 if g % 2 else top // g + 1) for g in degrees)):
        d = sum(e * g for e, g in zip(exps, degrees))
        if d <= top:
            buckets[d].append(exps)
    return [sorted(bucket, reverse=True) for bucket in buckets]


def test_basis_to_degree_40_against_brute_force():
    """The tail table, extended in one step, in two (5, then 40) and in
    steps shorter than some generator degrees, gives the brute-force bases
    of every degree up to 40 after each extension, and bases(top) is the
    tuple of those bases."""
    models = [
        DgaModel([("a", 1), ("b", 1), ("u", 2), ("w", 3)]),  # degree-1 generators
        DgaModel([("u", 2), ("v", 4), ("z", 21)]),  # an odd generator above 40 / 2
        DgaModel([("u", 2), ("z", 39)]),  # one whose exponent 1 lands at the top only
        DgaModel([("a", 1), ("u", 2), ("x", 7), ("w", 10), ("y", 13)]),  # degrees above the steps
    ]
    schedules = ([40], [5, 40], [0, 3, 5, 9, 14, 20, 27, 33, 40])
    for model in models:
        expected = brute_force_bases(model, 40)
        for schedule in schedules:
            fresh = DgaModel(model.generators)
            for top in schedule:
                fresh.basis(top)
                assert fresh.bases(top) == tuple(tuple(b) for b in expected[:top + 1]), (model, schedule, top)
                assert [list(fresh.basis(d)) for d in range(top + 1)] == expected[:top + 1]
        stepped, fresh = DgaModel(model.generators), DgaModel(model.generators)
        stepped.basis(5)
        assert stepped.basis(40) == fresh.basis(40)
        assert stepped.bases(-1) == stepped.bases(-2) == ()


def test_graded_commutativity_randomized():
    rng = random.Random(20101)
    for _ in range(300):
        model = random_model(rng)
        a, deg_a = random_homogeneous(rng, model)
        b, deg_b = random_homogeneous(rng, model)
        sign = -1 if (deg_a * deg_b) % 2 else 1
        assert a * b == (b * a).scale(sign)


def test_multiply_terms_matches_the_term_pair_product():
    rng = random.Random(20111)
    pairs = []
    for _ in range(300):
        model = random_model(rng)
        a, _ = random_homogeneous(rng, model)
        b, _ = random_homogeneous(rng, model)
        pairs.append((a, b))
    # odd generators with Koszul signs, odd squares, and terms that cancel
    odd = DgaModel([("a", 1), ("b", 1), ("c", 1), ("u", 2), ("v", 2)])
    a, b, c, u, v = (odd.gen(n) for n in "abcuv")
    pairs += [(a * c + b, b + c), (a + b, a - b), (a * b + c * u, c + a * v), (u + v, u - v),
              (u + v.scale(Fraction(1, 3)), u.scale(Fraction(1, 3)) - v), (a * c, b), (b, a * c)]
    signs = set()
    for x, y in pairs:
        expected = reference_product(x, y)
        got = multiply_terms(x.model, x.terms, y.terms)
        assert got == expected.terms and all(got.values()), (x, y)
        assert x * y == expected
        scale = lcm(*(c.denominator for c in (*x.terms.values(), *y.terms.values())))
        ints = multiply_terms(x.model, {m: (c * scale).numerator for m, c in x.terms.items()},
                              {m: (c * scale).numerator for m, c in y.terms.items()})
        assert all(type(c) is int for c in ints.values())
        assert {m: Fraction(c, scale * scale) for m, c in ints.items()} == expected.terms
        signs.update(c < 0 for c in expected.terms.values())
    assert signs == {True, False}
    assert (u + v) * (u - v) == u * u - v * v  # the cross terms cancel and are dropped
    assert (a * c) * b == -(a * b * c)


def test_associativity_randomized():
    rng = random.Random(20123)
    for _ in range(150):
        model = random_model(rng)
        a, _ = random_homogeneous(rng, model, max_degree=5)
        b, _ = random_homogeneous(rng, model, max_degree=5)
        c, _ = random_homogeneous(rng, model, max_degree=5)
        assert (a * b) * c == a * (b * c)


def test_leibniz_randomized():
    rng = random.Random(20147)
    for _ in range(300):
        model = random_model(rng)
        a, deg_a = random_homogeneous(rng, model)
        b, _ = random_homogeneous(rng, model)
        lhs = apply_differential(a * b)
        sign = -1 if deg_a % 2 else 1
        rhs = apply_differential(a) * b + (a * apply_differential(b)).scale(sign)
        assert lhs == rhs


def leibniz_expansion(model, names):
    """d of the product of the named generators, by d(g*rest) = dg*rest +
    (-1)^|g| g*d(rest), built from generator elements only."""
    g, rest = names[0], names[1:]
    if not rest:
        return model.differential_of(g)
    rest_element = model.gen(rest[0])
    for name in rest[1:]:
        rest_element = rest_element * model.gen(name)
    sign = -1 if model.generator(g).degree % 2 else 1
    g_d_rest = (model.gen(g) * leibniz_expansion(model, rest)).scale(sign)
    return model.differential_of(g) * rest_element + g_d_rest


def even_before_odd_model():
    # g is even with odd dg, and the odd h after it: moving dg past the
    # factors after g changes the sign of d(g*h)
    return DgaModel(
        [("a", 1), ("b", 2), ("g", 4), ("h", 5)],
        {"g": [(1, {"a": 1, "b": 2})], "h": [(1, {"b": 3})]},
    )


def own_factor_model():
    # dg = a*g holds g itself: the term of g in d(g) = a*g must not be read
    # as an odd square; d(dg) = -a*a*g = 0, but minimality fails
    return DgaModel([("a", 1), ("g", 1), ("u", 2)], {"g": [(1, {"a": 1, "g": 1})]})


def monomial_names(model, mon):
    return [g.name for g, e in zip(model.generators, mon) for _ in range(e)]


def test_differential_of_every_monomial_against_product_rule():
    rng = random.Random(31415)
    models = [random_model(rng) for _ in range(40)]
    models += [*odd_differential_models(), even_model(), even_before_odd_model(), own_factor_model()]
    for model in models:
        for degree in range(1, 11):
            for mon in model.basis(degree):
                expected = leibniz_expansion(model, monomial_names(model, mon))
                assert apply_differential(model.monomial_element(mon)) == expected


def test_leibniz_columns_against_product_rule():
    """Every column of L*d_d that leibniz builds from the derivation table,
    given the {key: position} map of the basis of degree+1, is L times the
    coefficients of d on its monomial expanded from element products, with
    L the lcm of the denominators of the generator differentials."""
    rng = random.Random(27182)
    models = [random_model(rng) for _ in range(40)]
    models += [*odd_differential_models(), even_before_odd_model(), own_factor_model()]
    models.append(coprime_denominator_model(random.Random(2718)))
    for model in models:
        scale = lcm(*(c.denominator for g in model.generators for c in model.differential_of(g.name).terms.values()))
        # every model raises degree by one, so the layout of degree 11 holds each image
        keys = model.monomial_keys(11)
        table = derivation_table(keys, model.integer_differentials())
        for degree in range(11):
            index = {m: i for i, m in enumerate(model.basis(degree + 1))}
            columns = list(leibniz(table, keys.bases(degree)[degree], {keys.pack(m): i for m, i in index.items()}))
            assert len(columns) == len(model.basis(degree))
            for mon, column in zip(model.basis(degree), columns):
                names = monomial_names(model, mon)
                expected = leibniz_expansion(model, names).terms if names else {}
                assert column == {index[m]: c * scale for m, c in expected.items()}, (model, mon)
                assert all(type(v) is int for v in column.values())


def cancelling_model():
    # dg = g*c and dh = -h*c, so d(g*h) = g*h*c - g*h*c cancels
    return DgaModel([("c", 1), ("g", 2), ("h", 2)], {"g": [(1, {"g": 1, "c": 1})], "h": [(-1, {"h": 1, "c": 1})]})


def test_leibniz_with_an_index_makes_sparse_columns():
    """Given a {key: position} map, leibniz keys each image by the
    positions of its monomials and drops the cancelled terms, which the
    plain images keep with coefficient zero: one pass over the keys of the
    sources of degrees 0..8 of each model, the cancelling one included."""
    rng = random.Random(27182)
    models = [random_model(rng) for _ in range(40)]
    models += [*odd_differential_models(), even_before_odd_model(), own_factor_model(), cancelling_model()]
    cancelled = 0
    for model in models:
        table = model.integer_derivation(9)
        bases = table[0].bases(9)
        index = {m: p for p, m in enumerate(itertools.chain.from_iterable(bases))}
        sources = list(itertools.chain.from_iterable(bases[:-1]))
        plain = list(leibniz(table, sources))
        cancelled += sum(0 in image.values() for image in plain)
        assert list(leibniz(table, sources, index)) == [
            {index[m]: c for m, c in image.items() if c} for image in plain], model
    assert cancelled


def test_differential_matrix_lays_out_the_columns_it_is_given():
    """differential_matrix reads no derivation table: it lays out the given
    columns over the rows of the basis of degree+1, even for a model the
    cochain gate refuses, and a row no column reaches stays zero."""
    lowering = DgaModel([("u2", 2), ("u5", 5)], {"u5": [(1, {"u2": 1})]})  # not gated: no check_model
    assert differential_matrix(lowering, 4, [{}]) == [[0]]  # u2^2 is closed; the one row is u5
    model = DgaModel([("a", 2), ("b", 2), ("x", 3)], {"x": [(1, {"a": 2})]})
    # d_3 sends x to a^2, the first of the basis a^2, a*b, b^2 of degree 4
    assert differential_matrix(model, 3, cochain_complex(model, 4).degrees[3].out_columns) == [[1], [0], [0]]
    assert differential_matrix(model, 2, [{}, {}]) == [[0, 0]]  # degree 3 holds x alone


def test_d_squared_zero_randomized():
    rng = random.Random(20161)
    for _ in range(300):
        model = random_model(rng)
        x, _ = random_homogeneous(rng, model)
        assert apply_differential(apply_differential(x)).is_zero


def test_multiply_monomials_matches_the_list_based_sign():
    models = [
        DgaModel([("u2", 2), ("v2", 2), ("w4", 4)]),  # no odd generator
        DgaModel([("u2", 2), ("x3", 3), ("v4", 4)]),  # one
        DgaModel([("a1", 1), ("b1", 1), ("u2", 2), ("c3", 3), ("d3", 3), ("e5", 5)]),  # several
        *odd_differential_models(),
    ]
    for model in models:
        monomials = [m for d in range(9) for m in model.basis(d)]
        for a in monomials:
            for b in monomials:
                assert model.multiply_monomials(a, b) == reference_multiply_monomials(model, a, b), (a, b)


def test_basis_matches_the_enumeration_reference():
    """Degrees asked in increasing, decreasing and random order give the
    same bases, including no generators, degree 0 and negative degrees."""
    rng = random.Random(2024)
    models = [random_model(rng) for _ in range(20)] + [DgaModel([]), even_model(),
                                                        *odd_differential_models()]
    degrees = list(range(-2, 15))
    for model in models:
        for order in (degrees, degrees[::-1], rng.sample(degrees, len(degrees))):
            fresh = DgaModel(model.generators)
            for d in order:
                assert list(fresh.basis(d)) == reference_basis(fresh, d), (model, d)


def test_basis_table_under_concurrent_extension():
    """Threads extending one model's basis table, each in its own order of
    degrees, only ever read complete bases, and read the integer
    differentials the model holds whole while another thread may be filling
    them in."""
    import sys
    import threading

    model = DgaModel([("a1", 1), ("u2", 2), ("v2", 2), ("x3", 3), ("w4", 4)],
                     {"x3": [("1/2", {"u2": 2}), ("-1/3", {"v2": 2})]})
    expected = {d: reference_basis(model, d) for d in range(-1, 19)}
    u2_squared, v2_squared = model.monomial({"u2": 2}), model.monomial({"v2": 2})
    integer_diffs = ({}, {}, {}, {u2_squared: 3, v2_squared: -2}, {})
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for d in rng.sample(sorted(expected), len(expected)):
            if list(model.basis(d)) != expected[d]:
                errors.append(d)
            if model.integer_differentials() != integer_diffs:
                errors.append("integer differentials")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
