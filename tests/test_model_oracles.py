"""Seeded oracles for the model constructor and the validation gate.

Both references live here and import nothing from ``loopspace.gca``: the
constructor's is a plain normaliser of raw terms, and the gate's reads the
generators' names and degrees and the differentials' exponent tuples, with
degrees as exponent . degree sums, minimality offenders as sorted names and
d(dg) by the graded product rule on tuples.  Name sorting and the
``collapsed`` set must not depend on string hashing, so both tests also run
under fixed hash seeds in CI."""

import random
from fractions import Fraction

from loopspace.gca import DgaModel, check_model

from helpers import odd_differential_models, random_model

# -- the constructor -----------------------------------------------------------


def reference_normalise(generators, raw):
    """The {exponent tuple: Fraction} map of raw terms over generators in
    canonical order, and whether a term had a nonzero coefficient: zero
    coefficients are skipped, repeated factors add up, a term that squares
    an odd generator vanishes, and terms that cancel are dropped."""
    position = {name: i for i, (name, _) in enumerate(generators)}
    terms, had_nonzero = {}, False
    for coeff, exponents in raw:
        c = Fraction(coeff)
        if c == 0:
            continue
        had_nonzero = True
        mon = [0] * len(generators)
        for name, e in (exponents.items() if isinstance(exponents, dict) else exponents):
            mon[position[name]] += e
        if any(e > 1 and generators[i][1] % 2 for i, e in enumerate(mon)):
            continue
        terms[tuple(mon)] = terms.get(tuple(mon), 0) + c
    return {m: c for m, c in terms.items() if c}, had_nonzero


def random_raw_model(rng):
    """Generators declared in a shuffled order and raw differentials with
    dict and pair exponents, repeated factors, odd squares, cancelling
    terms and int, 'p/q' string and Fraction coefficients (zero included);
    the differentials need not be valid, only well formed."""
    names = [f"g{i}" for i in range(rng.randint(1, 5))]
    generators = [(name, rng.randint(1, 5)) for name in names]
    rng.shuffle(generators)
    diffs = {}
    for target in rng.sample(names, rng.randint(0, len(names))):
        raw = []
        for _ in range(rng.randint(0, 4)):
            factors = [(rng.choice(names), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                exponents = {}
                for name, e in factors:
                    exponents[name] = exponents.get(name, 0) + e
            else:
                exponents = factors
            kind = rng.randrange(3)
            if kind == 0:
                coeff = rng.randint(-3, 3)
            elif kind == 1:
                coeff = f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}"
            else:
                coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            raw.append((coeff, exponents))
            if rng.random() < 0.25:  # the same monomial again, cancelling it
                raw.append((-Fraction(coeff), exponents))
        diffs[target] = raw
    return generators, diffs


def test_construction_matches_the_reference_normaliser():
    """signature() and collapsed of 400 seeded models, and element() of
    their raw differentials, against the reference normaliser; the
    canonical order is the stable sort by degree."""
    rng = random.Random(3401)
    for _ in range(400):
        generators, diffs = random_raw_model(rng)
        model = DgaModel(generators, diffs, name="oracle")
        canonical = sorted(generators, key=lambda g: g[1])
        expected, collapsed = [], set()
        for name, _ in canonical:
            terms, had_nonzero = reference_normalise(canonical, diffs.get(name, []))
            expected.append((name, tuple(sorted(terms.items()))))
            if had_nonzero and not terms:
                collapsed.add(name)
        got_name, got_generators, got_diffs = model.signature()
        assert (got_name, tuple((g.name, g.degree) for g in got_generators), got_diffs) == (
            "oracle", tuple(canonical), tuple(expected)), (generators, diffs)
        assert model.collapsed == collapsed, (generators, diffs)
        for raw in diffs.values():
            assert model.element(raw).terms == reference_normalise(canonical, raw)[0], raw


# -- the validation gate -------------------------------------------------------


def reference_product(degrees, a, b):
    """The Koszul-signed product of two exponent tuples, or None when an odd
    generator would square: moving each odd factor of b left past the odd
    factors of a after it in canonical order flips the sign once."""
    odd = [i for i, d in enumerate(degrees) if d % 2]
    if any(a[i] and b[i] for i in odd):
        return None
    inversions = sum(1 for i in odd if a[i] for j in odd if b[j] and j < i)
    return (-1) ** inversions, tuple(x + y for x, y in zip(a, b))


def reference_d(degrees, diffs, mon):
    """d of a monomial by the graded product rule: with f_1 ... f_k its
    factors in canonical order, the sum over j of (-1)^(deg f_1 + ... +
    deg f_(j-1)) (f_1 ... f_(j-1)) * d f_j * (f_(j+1) ... f_k)."""
    factors = [i for i, e in enumerate(mon) for _ in range(e)]
    out = {}
    for j, i in enumerate(factors):
        before = tuple(factors[:j].count(k) for k in range(len(degrees)))
        after = tuple(factors[j + 1:].count(k) for k in range(len(degrees)))
        sign = -1 if sum(degrees[k] for k in factors[:j]) % 2 else 1
        for n, c in diffs[i].items():
            left = reference_product(degrees, before, n)
            right = left and reference_product(degrees, left[1], after)
            if right:
                out[right[1]] = out.get(right[1], 0) + sign * left[0] * right[0] * c
    return {m: c for m, c in out.items() if c}


def reference_checks(names, degrees, diffs, collapsed):
    """(name, passed, detail) of the four checks, from the generators in
    canonical order, each differential as {exponent tuple: coefficient} and
    the names of the collapsed declarations.  A generator whose dg has a
    term of its own parity (so of a degree of the wrong parity) is refused
    by the Leibniz rule, and d(dg) is not checked for a dg that holds one."""
    def degree(mon):
        return sum(e * d for e, d in zip(mon, degrees))

    raising, square, minimality = [], [], []
    refused = [h for h, dh in enumerate(diffs) if any(degree(n) % 2 == degrees[h] % 2 for n in dh)]
    for i, dg in enumerate(diffs):
        if not dg:
            continue
        found = sorted({degree(n) for n in dg})
        if len(found) > 1:
            raising.append(f"d{names[i]} is not homogeneous")
        elif found[0] != degrees[i] + 1:
            raising.append(f"d{names[i]} has degree {found[0]}, expected {degrees[i] + 1}")
        for n in dg:
            high = sorted(names[k] for k, e in enumerate(n) if e and degrees[k] >= degrees[i])
            if high:
                minimality.append(f"d{names[i]} uses {', '.join(high)} of degree >= {degrees[i]}")
                break
        held = [h for h in refused if any(n[h] for n in dg)]
        if held:
            h = names[held[0]]
            square.append(f"d(d{names[i]}) not checked: d{h} has a term of the parity of {h}: "
                          "the graded Leibniz rule needs a differential that changes parity")
        else:
            total = {}
            for n, c in dg.items():
                for m, v in reference_d(degrees, diffs, n).items():
                    total[m] = total.get(m, 0) + c * v
            if any(total.values()):
                square.append(f"d(d{names[i]}) != 0")
    degenerate = ""
    if collapsed:
        degenerate = (f"degenerate input: the declared differential of {', '.join(sorted(collapsed))} "
                      "vanishes identically")
    return [("degree-raising", not raising, "; ".join(raising)), ("d-squared", not square, "; ".join(square)),
            ("minimality", not minimality, "; ".join(minimality)),
            ("odd-square-exclusion", not collapsed, degenerate)]


def raw_of(model):
    """The generators and the differentials of a model as raw input."""
    generators = [(g.name, g.degree) for g in model.generators]
    diffs = {g.name: [(c, model.exponent_map(m)) for m, c in model.differential_of(g.name).terms.items()]
             for g in model.generators}
    return generators, diffs


def mutant(rng, model):
    """A model that fails one check, made from a valid one: a
    non-homogeneous dg, a dg of the wrong degree, a non-minimal dg, a part
    with d^2 != 0, a part whose differential keeps parity, or a collapsed
    declaration; the kind is returned with it."""
    generators, diffs = raw_of(model)
    names = [name for name, _ in generators]
    degree = dict(generators)
    target = rng.choice(names)
    kind = rng.choice(["non-homogeneous", "wrong degree", "non-minimal", "d-squared", "parity", "collapsed"])
    if kind == "non-homogeneous":
        x, y = rng.choice(names), rng.choice(names)
        diffs[target] = diffs[target] + [(1, {x: 1}), (2, [(x, 1), (y, 1)])]
    elif kind == "wrong degree":
        diffs[target] = [(rng.randint(1, 3), {rng.choice(names): 1})]
    elif kind == "non-minimal":
        high = rng.choice([name for name in names if degree[name] >= degree[target]])
        diffs[target] = diffs[target] + [(1, {high: 1})]
    elif kind == "d-squared":
        # dc = a*b and dy = c*x give d(dy) = a*b*x
        generators += [("p1", 1), ("q1", 1), ("r1", 1), ("s2", 2), ("t3", 3)]
        diffs["r1"] = [(1, [("p1", 1), ("q1", 1)])]
        diffs["t3"] = [(rng.randint(1, 3), [("r1", 1), ("s2", 1)])]
    elif kind == "parity":
        # db = a keeps the parity of b, and dy = b*g holds b
        generators += [("pa", 1), ("pb", 1), ("pg", 1), ("py", 1)]
        diffs["pb"] = [(1, {"pa": 1})]
        diffs["py"] = [(1, {"pb": 1, "pg": 1})]
    else:
        odd = [name for name in names if degree[name] % 2]
        if odd and rng.random() < 0.5:
            diffs[target] = [(1, {rng.choice(odd): 2})]  # an odd square
        else:
            mon = {rng.choice(names): 1}
            diffs[target] = [(Fraction(2, 3), mon), ("-2/3", mon)]  # cancels
    return kind, DgaModel(generators, diffs, name="mutant")


def test_check_model_matches_the_reference():
    """format() and failure_messages() of check_model on 200 seeded random
    models, the odd-differential models and 600 mutants, each failing
    one check by construction (and possibly others), against the reference
    checks; every check fails on some input, and every kind of mutant is
    made."""
    rng = random.Random(3402)
    valid = [random_model(rng) for _ in range(200)]
    cases = valid + list(odd_differential_models())
    kinds = set()
    for _ in range(600):
        kind, model = mutant(rng, rng.choice(valid))
        kinds.add(kind)
        cases.append(model)
    assert len(kinds) == 6
    failed = set()
    for model in cases:
        names = [g.name for g in model.generators]
        degrees = [g.degree for g in model.generators]
        diffs = [model.differential_of(name).terms for name in names]
        checks = reference_checks(names, degrees, diffs, model.collapsed)
        lines = [f"{'pass' if passed else 'FAIL'}  {name}" + (f"  ({detail})" if detail and not passed else "")
                 for name, passed, detail in checks]
        messages = [f"{name}: {detail}" for name, passed, detail in checks if not passed]
        report = check_model(model)
        assert (report.format(), report.failure_messages()) == ("\n".join(lines), messages), model
        failed.update(name for name, passed, _ in checks if not passed)
    assert failed == {"degree-raising", "d-squared", "minimality", "odd-square-exclusion"}
