"""Presentation invariance: isomorphic models have the same cohomology.

Each model is declared again in another presentation (see the transforms
in ``helpers``): its generators reordered and renamed, one generator scaled
by a nonzero rational, and both.  Betti numbers from the rank path
(``cohomology``) and from the cochain path (``cochain_complex``), and the
verdict of every ``check_model`` check, must not change.  A reordering
changes the canonical order of the generators, so each case also keys and
enumerates its monomials in another layout."""

import random
from fractions import Fraction
from pathlib import Path

from loopspace.dsl import parse_path
from loopspace.gca import DgaModel, GcaError, check_model, cochain_complex, cohomology
from loopspace.spaceforms import SpaceFormSpec, theorem3_model

from helpers import (
    coprime_denominator_model,
    declaration,
    odd_differential_models,
    random_model,
    reorder_and_rename,
    scale_generator,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FACTORS = (Fraction(-1), Fraction(2), Fraction(-3, 4), Fraction(5, 6), Fraction(1, 7))


def gate_failures():
    """Models the cochain gate refuses, one per check: a differential that
    vanishes (x1^2 = 0), one of the wrong degree, and one with d^2 != 0
    (d(a*x) = a^3)."""
    yield DgaModel([("x1", 1), ("y1", 1)], {"y1": [(1, {"x1": 2})]})
    yield DgaModel([("a", 2), ("y", 3)], {"y": [(1, {"a": 1})]})
    yield DgaModel([("a", 2), ("x", 3), ("z", 4)], {"x": [(1, {"a": 2})], "z": [(1, {"a": 1, "x": 1})]})


def outcome(model: DgaModel, max_degree: int):
    """Each check's verdict, and the Betti numbers of both paths, or the
    refusal of the gate."""
    checks = [(c.name, c.passed) for c in check_model(model).checks]
    try:
        return checks, cohomology(model, max_degree).dims, cochain_complex(model, max_degree).betti().dims
    except GcaError:
        return checks, "refused"


def test_betti_numbers_and_gate_verdicts_survive_a_change_of_presentation():
    """On every fixture model, the Theorem 3 models n = 2..7, 100 seeded
    random models, 5 with coprime denominators, the odd-differential models
    (which fail minimality) and three models the gate refuses, each in
    three other presentations: 366 cases."""
    rng = random.Random(2001)
    cases = [(parse_path(path, kind="dga").value, 16) for path in sorted(FIXTURES.glob("*.dga"))]
    cases += [(theorem3_model(SpaceFormSpec(n, 2, 2)), 20) for n in range(2, 8)]
    cases += [(random_model(rng), 12) for _ in range(100)]
    cases += [(coprime_denominator_model(rng), 10) for _ in range(5)]
    cases += [(model, 8) for model in (*odd_differential_models(), *gate_failures())]
    checked = 0
    for model, max_degree in cases:
        expected = outcome(model, max_degree)
        gens, diffs = declaration(model)
        name = rng.choice(gens)[0]
        reordered = reorder_and_rename(rng, gens, diffs)
        scaled = scale_generator(name, rng.choice(FACTORS), gens, diffs)
        both = scale_generator(rng.choice(reordered[0])[0], rng.choice(FACTORS), *reordered)
        for variant in (reordered, scaled, both):
            assert outcome(DgaModel(*variant), max_degree) == expected, (model, variant)
            checked += 1
    assert checked == 366
