"""The benchmark's untraced output digests, pinned.

Each workload of ``bench/`` is built at seed 43 and run once through the
harness's own ``run_job``, ``fingerprint`` and ``Verifier``, so the digest
here is the one ``python3 bench/run.py --workload W --seed 43 --trace 0``
reports.  A change that keeps every output byte-identical keeps these
digests; one that changes an output must say which and why.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SEED = 43
DIGESTS = {
    "betti-sweep": "a7ea205df85f8fb0de6651fb179c04e8c96760dfbdfbf03f6057fc1bf63e2efd",
    "ring-gysin": "afdd4b026dd9db6c299ffd17f664e6d9d3a5751e9fee3cfbb5784d8ed5ec2bcc",
    "certify-sweep": "ee516054140bfbe8cd91164169a64595b5c7cd91461df09acf447369a27b529e",
    "cli-small": "af3c1ef1843732c97522d464888f3ed9e8c7d94c3a5a88e2e3c32156f05aba9c",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_untraced_digest_at_seed_43(name, tmp_path):
    lib = SimpleNamespace(**{k: importlib.import_module(v) for k, v in bench_run.LIBRARY.items()})
    jobs = workloads.build(name, lib, SEED, tmp_path / "jobs")
    verifier = bench_run.Verifier(jobs, tmp_path)
    verifier.check_pass([bench_run.run_job(job) for job in jobs])
    assert verifier.failed == 0, sorted(verifier.problems.items())
    assert verifier.digests[0] == DIGESTS[name]
