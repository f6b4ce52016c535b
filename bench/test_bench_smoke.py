"""Smoke tests of the benchmark's generators, oracles and tracer.

Each workload has a tiny smoke size with the same job kinds as the full
list; these tests run it and check every output against its oracle.  Run
from the root of the repository:

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.append(str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def library() -> SimpleNamespace:
    return SimpleNamespace(**{k: importlib.import_module(v) for k, v in bench_run.LIBRARY.items()})


def outcomes(jobs):
    return [bench_run.classify(job, bench_run.run_job(job)) for job in jobs]


# -- oracles -----------------------------------------------------------------


def test_poincare_products():
    assert oracles.series_product([("poly", 3)], 6) == [1, 0, 1, 0, 1, 0, 0]
    assert oracles.series_product([("poly", 2), ("odd", 3)], 6) == [1, 0, 1, 1, 0, 1, 0]
    assert oracles.series_product([("poly", 2), ("even", 2)], 6) == [1, 0, 2, 0, 2, 0, 2]
    assert oracles.quotient_ring_dims_oracle(2, 6) == [1, 0, 2, 0, 2, 0, 2]
    assert oracles.cp_dims(3, 6) == [1, 0, 1, 0, 1, 0, 0]


def test_linear_form_powers_and_printed_polynomials():
    terms = oracles.power_of_linear_form({"u2": Fraction(1), "v2": Fraction(2)}, 2)
    assert oracles.raw_poly_key(terms) == {(("u2", 2),): 1, (("u2", 1), ("v2", 1)): 4, (("v2", 2),): 4}
    assert oracles.parse_poly("u2^2 + 4*u2*v2 + 4*v2^2") == oracles.raw_poly_key(terms)
    assert oracles.proportional("-1/2*u2 + -1*v2", 1, 2)
    assert not oracles.proportional("u2", 1, 2)


def test_scan_index_of_the_quarter_turn_function():
    f = oracles.ScanFunction((Fraction(1, 4), Fraction(3, 4)), (1, 0), (0, 0))
    for m in range(1, 30):
        # roots j/m strictly between the quarter turns
        assert f.index(m) == sum(1 for j in range(m) if m < 4 * j < 3 * m)
    assert not f.nondegenerate(2) and f.nondegenerate(3)


def test_space_form_closed_forms():
    assert oracles.homotopy_oracle(3, 8, 2, "lambda", 10) == {"dims": [[2, 1], [3, 1]], "pi1": 8}
    assert oracles.homotopy_oracle(3, 8, 2, "quotient", 10) == {"dims": [[2, 2], [3, 1]], "pi1": 4}
    assert oracles.homotopy_oracle(2, 2, 2, "lambda", 10)["pi1"] == 4
    assert oracles.theorem3_shape(4) == (6, 7, 4)
    assert oracles.theorem3_shape(2) == (2, 3, 2)


# -- workloads ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_matches_its_oracles(name, tmp_path):
    lib = library()
    jobs = workloads.build(name, lib, 7, tmp_path / "a", smoke=True)
    results = outcomes(jobs)
    bad = [(job.label, o) for job, o in zip(jobs, results) if o[0] not in ("ok", "inconclusive")]
    assert not bad
    assert sum(o[0] == "ok" for o in results) >= len(results) - 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    lib = library()
    first = workloads.build(name, lib, 3, tmp_path / "a", smoke=True)
    again = workloads.build(name, lib, 3, tmp_path / "b", smoke=True)
    assert [j.label for j in first] == [j.label for j in again]
    assert sorted(p.read_text() for p in (tmp_path / "a").iterdir()) == \
        sorted(p.read_text() for p in (tmp_path / "b").iterdir())


def test_search_exhaustion_is_inconclusive_and_wrong_dims_are_not():
    check = workloads.check_ring(3, 1, 2, 6)
    dims = oracles.quotient_ring_dims_oracle(2, 6)
    report = {"passed": False, "actual_dims": dims, "expected_dims": dims, "first_mismatch": None,
              "w": None, "z": None, "messages": ["no degree-2 class w was found"]}
    doc = json.dumps({"kind": "ring-verify", "result": report})
    assert check((1, doc, ""))[0] == "inconclusive"
    report.update(actual_dims=[1, 0, 1, 0, 1, 0, 1], first_mismatch=2)
    with pytest.raises(workloads.Mismatch):
        check((1, json.dumps({"kind": "ring-verify", "result": report}), ""))


def test_malformed_documents_point_at_the_fault():
    import random

    rng = random.Random(5)
    text = workloads.spaceform_doc(3, 8, 2)
    bad, (line, col) = workloads.inject_fault(rng, text, "spaceform")
    assert bad.split("\n")[line - 1][col - 1] == "@"


# -- tracing ----------------------------------------------------------------------


def test_tracing_changes_no_output_and_uninstalls(tmp_path):
    lib = library()
    jobs = [job for name in sorted(workloads.WORKLOADS)
            for job in workloads.build(name, lib, 11, tmp_path / name, smoke=True)]
    plain = [bench_run.fingerprint(bench_run.run_job(j), tmp_path) for j in jobs]
    originals = {name: getattr(lib.cli, name) for name in ("main", "gysin_check", "cohomology")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lib.cli.gysin_check is not originals["gysin_check"]
        traced = [bench_run.fingerprint(bench_run.run_job(j), tmp_path) for j in jobs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(getattr(lib.cli, name) is fn for name, fn in originals.items())
    metrics = tracer.metrics()
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["cli.commands"] > 0 and metrics["bott.index_calls"] > 0
    assert metrics["gca.linalg.rank_sum"] > 0 and metrics["gca.cohomology.matrix_cells"] > 0
    assert not tracer.hook_errors


def test_missing_entry_points_are_skipped(monkeypatch):
    library()
    points = dict(tracing.ENTRY_POINTS)
    points["gca.linalg"] = points["gca.linalg"] + ("no_such_function", "NoSuchClass.method")
    monkeypatch.setattr(tracing, "ENTRY_POINTS", points)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.skipped == ["gca.linalg.no_such_function", "gca.linalg.NoSuchClass.method"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_the_declared_metrics(trace, section):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-sweep", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace == 0:  # end-to-end metrics never read 0
        assert all(m["value"] > 0 for m in result["metrics"].values())
