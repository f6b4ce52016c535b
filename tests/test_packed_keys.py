"""Oracles for the packed monomial keys: the basis table and the Leibniz
pass, both read on keys, against enumerations and products written here on
exponent tuples."""

import itertools
import random
from pathlib import Path

import pytest

from loopspace.dsl import parse_path
from loopspace.gca import DgaModel, GcaError, apply_differential
from loopspace.gca.algebra import apply_derivation, leibniz
from loopspace.spaceforms import SpaceFormSpec, theorem3_model

from helpers import odd_differential_models, random_model
from test_algebra import cancelling_model, even_before_odd_model, own_factor_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture_models():
    return [parse_path(path, kind="dga").value for path in sorted(FIXTURES.glob("*.dga"))]


def oracle_bases(model, top):
    """The monomials of degrees 0..top: every exponent vector in the
    product of the exponent ranges (0..1 for an odd generator, 0..top//g for
    an even one of degree g), filtered by degree and sorted descending."""
    degrees = [g.degree for g in model.generators]
    ranges = [range(2) if g % 2 else range(top // g + 1) for g in degrees]
    found = [[] for _ in range(top + 1)]
    for mon in itertools.product(*ranges):
        degree = sum(e * g for e, g in zip(mon, degrees))
        if degree <= top:
            found[degree].append(mon)
    return tuple(tuple(sorted(monomials, reverse=True)) for monomials in found)


def test_bases_match_the_product_enumeration():
    """DgaModel.bases, read from the packed tail table and decoded, is the
    oracle enumeration on 60 seeded random models, the fixtures and the
    Theorem 3 models n = 2..7; basis(d) agrees with it degree by degree, and
    so does the table of a random subset of the generators in the model's
    layout (as the rank path reads it) with the oracle of that subset."""
    rng = random.Random(3301)
    cases = [(random_model(rng), 16) for _ in range(60)]
    cases += [(model, 20) for model in _fixture_models()]
    cases += [(theorem3_model(SpaceFormSpec(n, 2, 2)), 32) for n in range(2, 8)]
    for model, top in cases:
        expected = oracle_bases(model, top)
        assert model.bases(top) == expected, model
        fresh = DgaModel(model.generators)
        assert [fresh.basis(d) for d in range(top + 1)] == list(expected), model
        assert fresh.basis_sizes(top) == tuple(map(len, expected)), model
        # the monomials in some of the generators alone, in the model's layout
        some = sorted(rng.sample(range(model.ngens), rng.randint(0, model.ngens)))
        keys = model.monomial_keys(top).restricted(some)
        assert keys.decode(keys.bases(top)) == oracle_bases(
            DgaModel([model.generators[i] for i in some]), top), (model, some)


def test_a_table_grown_after_first_use_equals_a_fresh_one():
    """bases(10) then bases(40) widens the key layout and rebuilds the
    table; the result is a fresh model's bases(40) and the oracle's."""
    rng = random.Random(3302)
    for model in [*(random_model(rng) for _ in range(20)), *_fixture_models()]:
        small = model.bases(10)
        narrow = model.monomial_keys(10)
        grown = model.bases(40)
        assert grown[:11] == small, model
        assert grown == DgaModel(model.generators).bases(40) == oracle_bases(model, 40), model
        if any(g.degree % 2 == 0 and g.degree <= 10 for g in model.generators):
            assert model.monomial_keys(40) is not narrow, model  # the layout widened


def test_a_layout_widens_its_fields_with_the_degree():
    """Lambda(u2, x3) has one monomial in every degree but 1: u2^(d/2) in
    even d and u2^((d-3)/2)*x3 in odd d >= 3.  u2 needs a 4-bit field to
    degree 20 and a 10-bit one to degree 1,100, and x3 one bit in both."""
    model = DgaModel([("u2", 2), ("x3", 3)])
    assert model.bases(20) == tuple(() if d == 1 else ((d // 2, 0),) if d % 2 == 0 else (((d - 3) // 2, 1),)
                                    for d in range(21))
    assert model.monomial_keys(20).masks == (0b1111, 1)
    bases = model.bases(1100)
    assert model.monomial_keys(1100).masks == (2 ** 10 - 1, 1)
    assert bases == tuple(() if d == 1 else ((d // 2, 0),) if d % 2 == 0 else (((d - 3) // 2, 1),)
                          for d in range(1101))


def oracle_image(model, mon, diffs):
    """d of the monomial by the product rule on exponent tuples: with m the
    product f_1 ... f_k of its generator factors in canonical order, the
    sum over j of (-1)^(deg f_1 + ... + deg f_(j-1)) (f_1 ... f_(j-1)) *
    d f_j * (f_(j+1) ... f_k), each product formed by multiply_monomials,
    which signs and kills it.  Terms that cancel are dropped."""
    degrees = [g.degree for g in model.generators]
    factors = [i for i, e in enumerate(mon) for _ in range(e)]
    unit = [tuple(int(k == i) for k in range(model.ngens)) for i in range(model.ngens)]
    one = (0,) * model.ngens
    out = {}
    for j, i in enumerate(factors):
        before, after = one, one
        for k in factors[:j]:
            before = tuple(a + b for a, b in zip(before, unit[k]))
        for k in factors[j + 1:]:
            after = tuple(a + b for a, b in zip(after, unit[k]))
        rule = -1 if sum(degrees[k] for k in factors[:j]) % 2 else 1
        for n, c in diffs[i].items():
            left = model.multiply_monomials(before, n)
            if left is None:
                continue
            right = model.multiply_monomials(left[1], after)
            if right is None:
                continue
            out[right[1]] = out.get(right[1], 0) + rule * left[0] * right[0] * c
    return {m: c for m, c in out.items() if c}


def test_leibniz_matches_the_product_rule_on_tuples():
    """Packed leibniz, decoded, and apply_derivation give the oracle image
    of every monomial of degrees 0..D, for the model's integer derivation
    table, the one table a model keeps: 40 seeded random models and
    cancelling ones (D = 9), the odd-differential models, whose several odd
    generators exercise every sign and clash mask (D = 9), and six_gen
    (D = 12).  apply_derivation of
    a random combination is the combination of the images."""
    rng = random.Random(3303)
    cases = [(model, 9) for model in (random_model(rng) for _ in range(40))]
    cases += [(model, 9) for model in (*odd_differential_models(), even_before_odd_model(),
                                       own_factor_model(), cancelling_model())]
    cases.append((parse_path(FIXTURES / "six_gen.dga", kind="dga").value, 12))
    for model, top in cases:
        table, diffs = model.integer_derivation(top + 1), model.integer_differentials()
        keys = table[0]
        sources = [mon for basis in model.bases(top) for mon in basis]
        expected = [oracle_image(model, mon, diffs) for mon in sources]
        images = leibniz(table, map(keys.pack, sources))
        assert [{keys.unpack(k): c for k, c in image.items() if c} for image in images] == expected, model
        assert [apply_derivation(table, {mon: 1}) for mon in sources] == expected, model
        terms = {mon: rng.randint(-3, 3) for mon in rng.sample(sources, min(6, len(sources)))}
        combined = {}
        for mon, c in terms.items():
            for m, v in oracle_image(model, mon, diffs).items():
                combined[m] = combined.get(m, 0) + c * v
        assert apply_derivation(table, terms) == {m: v for m, v in combined.items() if v}, model


def test_apply_differential_refuses_a_parity_keeping_differential():
    """db = a keeps the parity of b, so the Leibniz signs would be wrong on
    any term that holds b: apply_differential refuses it by name, and
    differentiates the terms without b."""
    model = DgaModel([("a", 1), ("b", 1), ("g", 1), ("y", 1)], {"b": [(1, {"a": 1})], "y": [(1, {"b": 1, "g": 1})]})
    text = "db has a term of the parity of b: the graded Leibniz rule needs a differential that changes parity"
    for element in (model.gen("b"), model.gen("a") * model.gen("b") + model.gen("g")):
        with pytest.raises(GcaError) as err:
            apply_differential(element)
        assert (type(err.value), str(err.value)) == (GcaError, text)
    assert apply_differential(model.gen("y")) == model.gen("b") * model.gen("g")
    assert apply_differential(model.gen("a") * model.gen("g")).is_zero
