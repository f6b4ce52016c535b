"""Seeded job lists for the four benchmark workloads.

A job is one library call or one in-process CLI invocation (``--json``,
stdout and stderr captured), paired with a check against an oracle from
``oracles.py``.  ``build(name, lib, seed, workdir)`` returns the fixed job
list of a workload and writes the DSL files its CLI jobs read;
``generate`` returns the list and the files' texts without writing them.
The same seed gives the same inputs.  ``smoke=True`` gives a tiny list with the same job
kinds, for the benchmark's own tests.

Why these four: each puts a different layer under load, so a change to one
layer shows on one workload and should leave the others flat.

* betti-sweep: ``cohomology()`` on Koszul-type models and the theorem-3
  models to degree 32.  Elimination and coefficient growth in gca.linalg.
* ring-gysin: ``ring-verify``, ``gysin-check`` and the total space's
  cohomology for d x = (p*u2 + q*v2)^a.  Representatives, class coordinates,
  spans and products: gca.cohomology, gca.algebra and spaceforms.
* certify-sweep: ``certify rp2`` on grids 8 to 72, ``certify theorem5`` and
  ``bott index``.  Almost all bott and serialize, no gca.
* cli-small: a thousand small jobs: CLI calls, DSL round trips and
  malformed documents.  cli, dsl and serialize, which do under 1% of the
  work elsewhere.

Every job takes a few to a few tens of milliseconds, so that the reference
runs the benchmark times around it see the same conditions (see run.py);
larger models, degrees and grids would need longer jobs.

The shapes of the jobs (model sizes, degrees, grids) are fixed; the seed
draws coefficients, step functions, specs and the job order, so the work in
a pass hardly depends on the seed.  ring-gysin runs the whole (p, q)
family with a fixed nilpotency and degree per pair, so there the seed only
orders the jobs.  No input is filtered by how the program
answers it: ring-gysin covers the whole (p, q) family, including the pairs
that the program's coefficient search cannot decide.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import (
    QUARTER_SURVIVOR,
    ScanFunction,
    cp_dims,
    homotopy_oracle,
    parse_poly,
    power_of_linear_form,
    proportional,
    quotient_ring_dims_oracle,
    raw_poly_key,
    series_product,
    symmetric_step_function,
    theorem3_shape,
    theorem4_candidates,
    theorem4_survives,
    theorem4_targets,
)

OK = ("ok", "")
ESTABLISHED = "contradiction-established"
INCONCLUSIVE = "inconclusive"


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(condition, detail: str) -> None:
    if not condition:
        raise Mismatch(detail)


@dataclass
class Job:
    """One timed call and the check of its output.

    ``check`` returns ("ok", "") or ("inconclusive", why) and raises
    :class:`Mismatch` when the output is wrong.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


# -- helpers -------------------------------------------------------------------


def cli_job(lib, label: str, argv: list[str], check) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return Job(label, run, check)


def json_result(output, kind: str, codes=(0,)) -> dict:
    code, out, err = output
    expect(code in codes, f"exit code {code}, expected {codes}; stderr {err.strip()[:200]!r}")
    doc = json.loads(out)
    expect(doc["kind"] == kind, f"document kind {doc['kind']!r}, expected {kind!r}")
    return doc["result"]


def first_difference(got, want) -> str:
    for d, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"degree {d}: {g}, oracle {w}"
    return f"length {len(got)}, oracle {len(want)}"


def monomial_text(exps: dict[str, int]) -> str:
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in sorted(exps.items()) if e)


def poly_text(terms, rng: random.Random | None = None) -> str:
    """DSL text of raw terms; with rng, terms are shuffled and unit
    coefficients sometimes written out, which parsing must normalise."""
    parts = []
    for c, exps in terms:
        mon = monomial_text(exps)
        if c == 1 and not (rng and rng.random() < 0.3):
            parts.append(mon)
        else:
            parts.append(f"{c}*{mon}")
    if rng:
        rng.shuffle(parts)
    return " + ".join(parts)


def model_doc(name: str, gens, diffs, rng: random.Random | None = None) -> str:
    lines = [f"model {name} {{"]
    lines += [f"  generator {g}:{d};" for g, d in gens]
    lines += [f"  d {g} = {poly_text(terms, rng)};" for g, terms in diffs.items()]
    return "\n".join(lines + ["}"]) + "\n"


def spaceform_doc(n: int, r: int, order: int) -> str:
    return f"spaceform {{\n  n = {n};\n  r = {r};\n  ord = {order};\n}}\n"


def bott_doc(disc, arcs, points) -> str:
    return (
        "bott {\n"
        f"  disc = {', '.join(str(Fraction(t)) for t in disc)};\n"
        f"  arcs = {', '.join(str(v) for v in arcs)};\n"
        f"  points = {', '.join(str(v) for v in points)};\n"
        "}\n"
    )


def koszul_model(rng: random.Random, k: int, exps, free, unit: bool):
    """Generators, differentials and Poincare factors of a Koszul-type model:
    k closed degree-2 generators y_i and odd x_i with d x_i = l_i^{e_i}, where
    l_i = y_i + sum_{j>i} c_ij y_j is a triangular coordinate change with
    entries in {-1, 0, 1} (unit) or seeded rationals, plus free generators."""
    gens = [(f"y{i}", 2) for i in range(k)]
    gens += [(f"x{i}", 2 * e - 1) for i, e in enumerate(exps)]
    gens += list(free)
    diffs = {}
    for i, e in enumerate(exps):
        form = {f"y{i}": Fraction(1)}
        for j in range(i + 1, k):
            if unit:
                form[f"y{j}"] = Fraction(rng.choice((-1, 0, 1)))
            else:
                form[f"y{j}"] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        diffs[f"x{i}"] = power_of_linear_form(form, e)
    factors = [("poly", e) for e in exps] + [("odd" if d % 2 else "even", d) for _, d in free]
    return gens, diffs, factors


def theorem3_raw(n: int):
    """The circle-quotient model of S^n/Gamma from the closed form of
    Theorem 3, with its Poincare factors."""
    mid, top, power = theorem3_shape(n)
    mid_name = "v2" if mid == 2 else f"u{mid}"
    gens = [("u2", 2), (mid_name, mid), (f"u{top}", top)]
    diffs = {f"u{top}": [(Fraction(1), {"u2": power})]}
    return gens, diffs, [("poly", power), ("even", mid)]


def random_step(rng: random.Random):
    """A seeded conjugation-symmetric step function on a grid j/den."""
    den = rng.randint(5, 24)
    grid = [Fraction(j, den) for j in range(1, den) if Fraction(j, den) < Fraction(1, 2)]
    breaks = rng.sample(grid, rng.randint(0, min(3, len(grid))))
    levels = [rng.choice((0, 0, 1, 2, 3)) for _ in range(len(breaks) + 1)]
    return symmetric_step_function(breaks, levels, rng.random() < 0.3)


# -- betti-sweep -------------------------------------------------------------------

# (k, exponents, free generators, max degree, jobs); half of each shape's
# jobs use unit coordinate changes, half rational ones.  Every job takes a few
# to a few tens of milliseconds: the benchmark normalises each job's time by
# reference runs right before and after it, which only works when the job is
# short next to the spells of contention on a shared host (see run.py).
BETTI_SHAPES = (
    (3, (2, 2, 2), (), 8, 2),
    (3, (2, 2, 3), (), 8, 2),
    (1, (3,), (("z", 3), ("w", 4)), 24, 16),
    (2, (2, 2), (("z", 3),), 12, 2),
    (2, (2, 3), (("w", 4),), 12, 2),
    (2, (2, 2), (), 16, 4),
    (2, (2, 3), (), 16, 4),
    (2, (3, 3), (), 16, 4),
    (2, (2, 4), (), 18, 4),
    (2, (3, 4), (), 20, 4),
    (1, (2,), (("z", 3),), 30, 16),
    (1, (3,), (("z", 3),), 30, 16),
    (1, (4,), (("w", 4),), 24, 16),
    (1, (5,), (("w", 4),), 24, 16),
    (1, (3,), (("z", 5),), 30, 16),
)
BETTI_SMOKE_SHAPES = ((2, (2, 2), (), 8, 2), (1, (3,), (("z", 3),), 10, 1))
THEOREM3_DEGREE = 32


def cohomology_job(lib, label, name, gens, diffs, max_degree, factors) -> Job:
    expected = series_product(factors, max_degree)

    def run():
        model = lib.algebra.DgaModel(gens, diffs, name=name)
        return tuple(lib.cohomology.cohomology(model, max_degree).dims)

    def check(dims):
        expect(list(dims) == expected, first_difference(list(dims), expected))
        return OK

    return Job(label, run, check)


def betti_sweep(lib, rng: random.Random, workdir: Path, files: dict, smoke: bool) -> list[Job]:
    jobs = []
    degree = 10 if smoke else THEOREM3_DEGREE
    for n in ((2, 3) if smoke else range(2, 8)):
        gens, diffs, factors = theorem3_raw(n)
        jobs.append(cohomology_job(lib, f"theorem3 n={n} D={degree}", f"quotient_s{n}",
                                   gens, diffs, degree, factors))
    for k, exps, free, max_degree, count in (BETTI_SMOKE_SHAPES if smoke else BETTI_SHAPES):
        for i in range(count):
            unit = i % 2 == 0
            gens, diffs, factors = koszul_model(rng, k, exps, free, unit)
            extra = "+".join(f"{g}{d}" for g, d in free) or "none"
            label = (f"koszul k={k} e={list(exps)} free={extra} D={max_degree} "
                     f"{'unit' if unit else 'rational'} #{i}")
            jobs.append(cohomology_job(lib, label, "koszul", gens, diffs, max_degree, factors))
    rng.shuffle(jobs)
    return jobs


# -- ring-gysin ----------------------------------------------------------------------

RING_P = tuple(range(-3, 4))
RING_Q = tuple(q for q in range(-3, 4) if q)
RING_NILPOTENCY = (2, 3, 4, 5)
RING_DEGREES = (12, 16, 20)


def ring_plan() -> list[tuple[tuple[int, int], int, int]]:
    """The whole (p, q) family, each pair with its nilpotency and degree.

    The assignment cycles through RING_NILPOTENCY and RING_DEGREES over the
    pairs in a fixed order, so every seed runs the same jobs (the seed only
    orders them) and the job costs, including those of the pairs the
    coefficient search cannot decide, do not drift with the seed.  Three
    degrees over 42 pairs put the median job inside one cluster of costs.
    """
    pairs = [(p, q) for p in RING_P for q in RING_Q]
    return [(pair, RING_NILPOTENCY[(i // len(RING_DEGREES)) % len(RING_NILPOTENCY)],
             RING_DEGREES[i % len(RING_DEGREES)])
            for i, pair in enumerate(pairs)]


def check_ring(p: int, q: int, a: int, max_degree: int):
    expected = quotient_ring_dims_oracle(a, max_degree)

    def check(output):
        res = json_result(output, "ring-verify", codes=(0, 1))
        actual = res["actual_dims"]
        expect(actual == expected, "Betti numbers " + first_difference(actual, expected))
        if res["passed"]:
            expect(output[0] == 0, "passing report with a nonzero exit code")
            expect(res["expected_dims"] == expected, "presented dimensions differ from Q[w,z]/(w^a)")
            expect(proportional(res["w"], p, q), f"w = {res['w']} is not a multiple of {p}*u2 + {q}*v2")
            expect(res["z"] is not None and not proportional(res["z"], p, q), f"z = {res['z']} is dependent on w")
            return OK
        expect(res["first_mismatch"] is None, "FAIL names a dimension mismatch the oracle does not have")
        # The Betti numbers match Q[w',z]/(w'^a) with w' = p*u2 + q*v2, so
        # the presentation holds; a FAIL here means the coefficient search
        # ran out, not that the presentation is refuted.
        return ("inconclusive", "search ran out: " + "; ".join(res["messages"]))

    return check


def check_gysin(max_degree: int):
    def check(output):
        res = json_result(output, "gysin-check")
        expect(res["passed"], f"rank identity reported false at degree {res['first_failure']}")
        expect(res["checked_up_to"] == max_degree - 2, f"checked up to {res['checked_up_to']}")
        return OK

    return check


def check_betti_json(expected: list[int]):
    def check(output):
        res = json_result(output, "cohomology")
        expect(res["dims"] == expected, first_difference(res["dims"], expected))
        reps = res["representatives"]
        expect([len(r) for r in reps] == expected, "representative count differs from the dimension")
        return OK

    return check


def ring_gysin(lib, rng: random.Random, workdir: Path, files: dict, smoke: bool) -> list[Job]:
    if smoke:
        # one pair the search decides and one it cannot
        plan = [((1, 2), 2, 10), ((3, 1), 3, 10)]
    else:
        plan = ring_plan()
    jobs = []
    for i, ((p, q), a, max_degree) in enumerate(plan):
        terms = power_of_linear_form({"u2": Fraction(p), "v2": Fraction(q)}, a)
        base = workdir / f"ring{i}.dga"
        files[base] = model_doc(f"ring{i}", [("u2", 2), ("v2", 2), ("x", 2 * a - 1)], {"x": terms})
        total = workdir / f"cp{a}.dga"
        files[total] = model_doc(f"cp{a - 1}", [("w", 2), ("y", 2 * a - 1)],
                                 {"y": [(Fraction(1), {"w": a})]})
        tag = f"p={p} q={q} a={a} D={max_degree}"
        jobs.append(cli_job(lib, f"ring-verify {tag}",
                            ["ring-verify", "--deg-w", "2", "--deg-z", "2", "--nilpotency", str(a),
                             "--max-degree", str(max_degree), "--json", str(base)],
                            check_ring(p, q, a, max_degree)))
        jobs.append(cli_job(lib, f"gysin-check {tag}",
                            ["gysin-check", "--max-degree", str(max_degree), "--json", str(base), str(total)],
                            check_gysin(max_degree)))
        jobs.append(cli_job(lib, f"cohomology CP^{a - 1} D={max_degree}",
                            ["cohomology", "--max-degree", str(max_degree), "--json", str(total)],
                            check_betti_json(cp_dims(a, max_degree))))
    rng.shuffle(jobs)
    return jobs


# -- certify-sweep -----------------------------------------------------------------------

# (grid N, value bound V); the cutoff is 2N+1.  Every N is a multiple of 4,
# so the quarter turns lie on the grid and the certificate is decided.
# The sixteen certificates on grids 16 to 72 cost more than any other job
# and nothing in their cost depends on the seed, so the 90th percentile
# falls among them.
RP2_LADDER = ((8, 1),) + tuple((grid, values) for grid in range(16, 80, 8) for values in (1, 2))
RP2_SMOKE = ((8, 1), (16, 2))
RP2_SAMPLES = 2
# The 80 bott index jobs and the 40 theorem-5 certificates of one length
# hold the median.  The index jobs draw their iterate from consecutive
# strata of 1..MAX_ITERATE, so that the spread of their costs does not
# change with the seed.
BOTT_INDEX_JOBS = 80
MAX_ITERATE = 300
THEOREM5_JOBS = 40
THEOREM5_ITERATES = 20


def check_rp2(grid: int, values: int, samples: list[int]):
    cutoff = 2 * grid + 1
    candidates = theorem4_candidates(grid, values)
    degree_cutoff, betti = theorem4_targets(cutoff)
    targets = {d: n for d, n in enumerate(betti) if n}
    quarter = 1 + (grid // 4 - 1) * (values + 1) + 1

    def check(output):
        res = json_result(output, "certificate")
        params = res["parameters"]
        expect(res["verdict"] == ESTABLISHED, f"verdict {res['verdict']}")
        expect(res["survivors"] == [QUARTER_SURVIVOR], f"survivors {res['survivors']}")
        expect(params["candidates"] == candidates, f"{params['candidates']} candidates, oracle {candidates}")
        expect(params["degree_cutoff"] == degree_cutoff and params["betti_targets"] == betti,
               "Betti targets differ from Q[w,z]/(w^2)")
        transcript = res["transcript"]
        expect(len(transcript) == candidates + 1, f"transcript has {len(transcript)} entries")
        matched = [i for i, entry in enumerate(transcript[:candidates]) if entry["matched"]]
        expect(matched == [quarter], f"matched candidates {matched}, oracle [{quarter}]")
        for i in samples:
            j, a = divmod(i - 1, values + 1)
            t = Fraction(j + 1, grid)
            entry = transcript[i]
            expect(entry["candidate"]["disc"] == [str(t), str(1 - t)] and entry["candidate"]["arcs"] == [a, 0],
                   f"transcript entry {i} is not candidate j={j + 1}, a={a}")
            f = ScanFunction((t, 1 - t), (a, 0), (0, 0))
            expect(entry["matched"] == theorem4_survives(f, cutoff, targets, degree_cutoff),
                   f"candidate {i} matched={entry['matched']}, scan disagrees")
        last = transcript[-1]
        expect(last["quarter_turns"] and last["degenerate_at_iterate_2"] and last["fails_nondegeneracy"],
               "survivor entry does not fail nondegeneracy at the quarter turns")
        return OK

    return check


def check_theorem5(r: int, order: int, k: int, iterates: int, f: ScanFunction):
    """Odd n: pi_1 of the equivariant loop space has order r / ord."""
    def check(output):
        code = output[0]
        res = json_result(output, "certificate", codes=(0, 1))
        pi1 = r // order
        expect(res["parameters"]["pi1_order"] == pi1, f"pi_1 order {res['parameters']['pi1_order']}, oracle {pi1}")
        if pi1 <= 1:
            expect(res["verdict"] == INCONCLUSIVE and code == 1, "trivial pi_1 must be inconclusive")
            return OK
        transcript = res["transcript"]
        expect(len(transcript) == iterates + 2, f"transcript has {len(transcript)} entries")
        all_even = True
        for l, entry in enumerate(transcript[: iterates + 1]):
            m = k * (1 + order * l)
            index = f.index(m)
            all_even = all_even and index % 2 == 0
            expect(entry["iterate"] == m and entry["index"] == index,
                   f"iterate {m}: index {entry['index']}, scan {index}")
            expect(entry["parity"] == ("odd" if index % 2 else "even"), f"iterate {m}: parity")
        verdict = ESTABLISHED if all_even else INCONCLUSIVE
        expect(res["verdict"] == verdict, f"verdict {res['verdict']}, oracle {verdict}")
        expect(code == (0 if all_even else 1), f"exit code {code}")
        return OK

    return check


def check_bott_index(f: ScanFunction, m: int):
    def check(output):
        res = json_result(output, "bott-index")
        index = f.index(m)
        want = {"iterate": m, "index": index, "parity": "odd" if index % 2 else "even",
                "nondegenerate": f.nondegenerate(m)}
        expect(res == want, f"{res}, scan {want}")
        return OK

    return check


def certify_sweep(lib, rng: random.Random, workdir: Path, files: dict, smoke: bool) -> list[Job]:
    jobs = []
    for grid, values in (RP2_SMOKE if smoke else RP2_LADDER):
        candidates = theorem4_candidates(grid, values)
        samples = sorted(rng.sample(range(1, candidates), min(RP2_SAMPLES, candidates - 1)))
        jobs.append(cli_job(lib, f"certify rp2 N={grid} V={values}",
                            ["certify", "rp2", "--grid", str(grid), "--values", str(values),
                             "--cutoff", str(2 * grid + 1), "--json"],
                            check_rp2(grid, values, samples)))
    for i in range(2 if smoke else THEOREM5_JOBS):
        n = rng.choice((3, 5, 7, 9, 11))
        order = rng.choice((2, 4, 6))
        r = order * rng.randint(1, 4)
        k = rng.randint(1, 3)
        while True:
            disc, arcs, points = random_step(rng)
            f = ScanFunction(disc, arcs, points)
            if f.index(k) == 0:  # the command's precondition: the minimal geodesic has index 0
                break
        iterates = THEOREM5_ITERATES
        spec = workdir / f"t5_{i}.spaceform"
        files[spec] = spaceform_doc(n, r, order)
        step = workdir / f"t5_{i}.bott"
        files[step] = bott_doc(disc, arcs, points)
        jobs.append(cli_job(lib, f"certify theorem5 n={n} r={r} ord={order} k={k} L={iterates} #{i}",
                            ["certify", "theorem5", "--k", str(k), "--iterates", str(iterates), "--json",
                             str(spec), str(step)],
                            check_theorem5(r, order, k, iterates, f)))
    for i in range(3 if smoke else BOTT_INDEX_JOBS):
        disc, arcs, points = random_step(rng)
        stratum = MAX_ITERATE // BOTT_INDEX_JOBS
        m = 1 + (i * MAX_ITERATE) // BOTT_INDEX_JOBS + rng.randrange(stratum)
        path = workdir / f"index{i}.bott"
        files[path] = bott_doc(disc, arcs, points)
        jobs.append(cli_job(lib, f"bott index m={m} #{i}",
                            ["bott", "index", "--iterate", str(m), "--json", str(path)],
                            check_bott_index(ScanFunction(disc, arcs, points), m)))
    rng.shuffle(jobs)
    return jobs


# -- cli-small ---------------------------------------------------------------------------

# The 150 cohomology runs are the costliest jobs and all of one shape, so
# the 90th percentile falls inside a group of equal jobs; the median falls
# inside the ~550 CLI calls whose cost is mostly the front end.
CLI_MIX = {"homotopy": 200, "spaceform-model": 100, "bott-index": 100, "cohomology": 150,
           "round-trip": 300, "malformed": 150}
CLI_SMOKE_MIX = {"homotopy": 2, "spaceform-model": 1, "bott-index": 2, "cohomology": 2,
                 "round-trip": 3, "malformed": 3}
_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|[{};:=^*,+]")


def random_spec(rng: random.Random):
    n = rng.randint(2, 12)
    if n % 2 == 0:
        return n, 2, 2
    order = rng.choice((2, 3, 4, 6))
    return n, order * rng.randint(1, 4), order


def small_model(rng: random.Random):
    k = rng.randint(1, 2)
    exps = tuple(rng.randint(2, 3) for _ in range(k))
    free = (("z", 3),) if rng.random() < 0.4 else ()
    return koszul_model(rng, k, exps, free, unit=rng.random() < 0.5)


def token_positions(text: str) -> list[tuple[int, int, str]]:
    """(line, column, token) of every token, 1-based like the parser's
    diagnostics; the documents written here have no comments."""
    out = []
    for lineno, line in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(line):
            out.append((lineno, m.start() + 1, m.group()))
    return out


def inject_fault(rng: random.Random, text: str, kind: str):
    """A malformed copy of a valid document and the (line, column) at which
    the first error must be reported: either a stray '@' before a token, or
    (for models) an undeclared generator in a differential."""
    lines = text.split("\n")
    if kind == "dga" and rng.random() < 0.4:
        d_lines = [i for i, line in enumerate(lines) if line.startswith("  d ")]
        if d_lines:
            i = rng.choice(d_lines)
            rhs = lines[i].index("=") + 1
            names = [m for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*", lines[i]) if m.start() > rhs]
            m = rng.choice(names)
            lines[i] = lines[i][: m.start()] + "zz" + lines[i][m.end():]
            return "\n".join(lines), (i + 1, m.start() + 1)
    line, col, _ = rng.choice(token_positions(text))
    lines[line - 1] = lines[line - 1][: col - 1] + "@" + lines[line - 1][col - 1:]
    return "\n".join(lines), (line, col)


def check_malformed(path: Path, position: tuple[int, int]):
    prefix = f"{path}:{position[0]}:{position[1]}: error:"

    def check(output):
        code, out, err = output
        expect(code == 2, f"exit code {code}, expected 2")
        expect(out == "", "malformed input produced output")
        first = err.split("\n", 1)[0]
        expect(first.startswith(prefix), f"first diagnostic {first!r}, expected at {position}")
        return OK

    return check


def check_homotopy(n, r, order, which, max_degree):
    want = homotopy_oracle(n, r, order, which, max_degree)

    def check(output):
        res = json_result(output, "homotopy")
        expect(res == want, f"{res}, oracle {want}")
        return OK

    return check


def check_spaceform_model(n: int):
    mid, top, power = theorem3_shape(n)

    def check(output):
        res = json_result(output, "spaceform-model")
        degrees = {g["name"]: g["degree"] for g in res["generators"]}
        expect(sorted(degrees.values()) == sorted((2, mid, top)), f"generator degrees {degrees}")
        top_name = [g for g, d in degrees.items() if d == top][0]
        closed = [g for g, d in degrees.items() if d == 2]
        want = {top_name: [{"coeff": "1", "monomial": [[closed[0], power]]}]}
        expect(res["differentials"] == want, f"differentials {res['differentials']}, oracle {want}")
        return OK

    return check


def round_trip_job(lib, label: str, text: str, check_text) -> Job:
    def run():
        first = lib.dsl.parse(text)
        printed = lib.dsl.document_text(first.value)
        second = lib.dsl.parse(printed)
        return first.ok, second.ok, first.value == second.value, printed, lib.dsl.document_text(second.value)

    def check(output):
        ok1, ok2, same, printed, reprinted = output
        expect(ok1 and ok2, "document did not parse")
        expect(same and printed == reprinted, "parse -> print -> parse is not the identity")
        check_text(printed)
        return OK

    return Job(label, run, check)


def check_model_text(gens, diffs):
    def check(printed: str):
        got_gens, got_diffs = {}, {}
        for line in printed.split("\n"):
            m = re.fullmatch(r"  generator (\w+):(\d+);", line)
            if m:
                got_gens[m.group(1)] = int(m.group(2))
            m = re.fullmatch(r"  d (\w+) = (.*);", line)
            if m:
                got_diffs[m.group(1)] = parse_poly(m.group(2))
        expect(got_gens == dict(gens), f"generators {got_gens}")
        want = {g: raw_poly_key(terms) for g, terms in diffs.items()}
        expect(got_diffs == want, "printed differentials differ from the document")

    return check


def check_exact_text(want: str):
    def check(printed: str):
        expect(printed == want, f"printed {printed!r}, expected {want!r}")

    return check


def loosen(rng: random.Random, text: str) -> str:
    """Non-canonical spelling of a document: a comment line and random
    spacing around tokens.  Parsing must give the same value."""
    out = []
    for line in text.split("\n"):
        out.append(" ".join(m.group() for m in _TOKEN.finditer(line)) if rng.random() < 0.5 else line)
    return f"# seeded document\n\t{chr(10).join(out)}\n"


def cli_small(lib, rng: random.Random, workdir: Path, files: dict, smoke: bool) -> list[Job]:
    mix = CLI_SMOKE_MIX if smoke else CLI_MIX
    jobs = []
    for i in range(mix["homotopy"]):
        n, r, order = random_spec(rng)
        which = rng.choice(("lambda", "quotient"))
        max_degree = rng.randint(1, 30)
        path = workdir / f"homotopy{i}.spaceform"
        files[path] = spaceform_doc(n, r, order)
        jobs.append(cli_job(lib, f"homotopy {which} n={n} r={r} ord={order} D={max_degree}",
                            ["homotopy", "--which", which, "--max-degree", str(max_degree), "--json", str(path)],
                            check_homotopy(n, r, order, which, max_degree)))
    for i in range(mix["spaceform-model"]):
        n, r, order = random_spec(rng)
        path = workdir / f"model{i}.spaceform"
        files[path] = spaceform_doc(n, r, order)
        jobs.append(cli_job(lib, f"spaceform-model n={n} r={r} ord={order}",
                            ["spaceform-model", "--json", str(path)], check_spaceform_model(n)))
    for i in range(mix["bott-index"]):
        disc, arcs, points = random_step(rng)
        m = rng.randint(1, 60)
        path = workdir / f"step{i}.bott"
        files[path] = bott_doc(disc, arcs, points)
        jobs.append(cli_job(lib, f"bott index m={m} #{i}", ["bott", "index", "--iterate", str(m), "--json", str(path)],
                            check_bott_index(ScanFunction(disc, arcs, points), m)))
    for i in range(mix["cohomology"]):
        gens, diffs, factors = koszul_model(rng, 1, (3,), (("z", 3),), unit=True)
        max_degree = 10
        path = workdir / f"small{i}.dga"
        files[path] = model_doc(f"small{i}", gens, diffs)
        jobs.append(cli_job(lib, f"cohomology small #{i} D={max_degree}",
                            ["cohomology", "--max-degree", str(max_degree), "--json", str(path)],
                            check_betti_json(series_product(factors, max_degree))))
    for i in range(mix["round-trip"]):
        kind = ("dga", "spaceform", "bott")[i % 3]
        if kind == "dga":
            gens, diffs, _ = small_model(rng)
            text = model_doc(f"trip{i}", gens, diffs, rng)
            checker = check_model_text(gens, diffs)
        elif kind == "spaceform":
            text = spaceform_doc(*random_spec(rng))
            checker = check_exact_text(text)
        else:
            text = bott_doc(*random_step(rng))
            checker = check_exact_text(text)
        jobs.append(round_trip_job(lib, f"round-trip {kind} #{i}", loosen(rng, text), checker))
    commands = {"dga": ["cohomology", "--max-degree", "4", "--json"],
                "spaceform": ["homotopy", "--which", "lambda", "--json"],
                "bott": ["bott", "index", "--iterate", "3", "--json"]}
    for i in range(mix["malformed"]):
        kind = ("dga", "spaceform", "bott")[i % 3]
        if kind == "dga":
            gens, diffs, _ = small_model(rng)
            text = model_doc(f"bad{i}", gens, diffs)
        elif kind == "spaceform":
            text = spaceform_doc(*random_spec(rng))
        else:
            text = bott_doc(*random_step(rng))
        bad, position = inject_fault(rng, text, kind)
        path = workdir / f"bad{i}.{kind}"
        files[path] = bad
        jobs.append(cli_job(lib, f"malformed {kind} at {position[0]}:{position[1]} #{i}",
                            commands[kind] + [str(path)], check_malformed(path, position)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "betti-sweep": betti_sweep,
    "ring-gysin": ring_gysin,
    "certify-sweep": certify_sweep,
    "cli-small": cli_small,
}


def generate(name: str, lib, seed: int, workdir: Path, smoke: bool = False):
    """The fixed job list of a workload and the DSL files its CLI jobs read
    ({path: text}), without writing them."""
    files: dict[Path, str] = {}
    jobs = WORKLOADS[name](lib, random.Random(f"{name}:{seed}"), workdir, files, smoke)
    return jobs, files


def build(name: str, lib, seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    """The fixed job list of a workload; writes its DSL files into workdir."""
    jobs, files = generate(name, lib, seed, workdir, smoke)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.write_text(text)
    return jobs
