"""loopspace benchmark: one workload, one process, one closed-loop client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload betti-sweep --seed 1 --seconds 25 --trace 0

The run imports the package from ``src/`` (pure Python, nothing to build),
generates the workload's job list from the seed, and then runs the list
again and again, one job after another, until the time is up.  Every output
of the first pass is checked against an oracle in ``oracles.py``; later
passes must reproduce the first pass's outputs exactly.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.

Times are normalised CPU times.  The benchmark runs on shared hosts where
another tenant on the same physical core makes the same code run up to two
times slower, in spells that last from milliseconds to minutes; raw times of
two runs of the same code then disagree by more than any useful bound.  So
each job's CPU time (``time.thread_time``, which also leaves out the time
the kernel or the hypervisor gives to others) is divided by the CPU time of
a fixed reference kernel, stdlib-only and independent of loopspace, that
runs right before and right after it: the job's cost in units of the
reference, which the slowdown changes little because it hits both alike.
The cost is converted back to seconds with REFERENCE_S, the reference's
CPU time on an unloaded calibration machine, so the figures read as the
seconds the job takes there.  A job's latency is its median normalised
time over the passes.  Jobs are kept short (tens of milliseconds) so that
the two reference runs see the same conditions as the job.  The report line
gives the raw CPU and wall-clock figures beside them.

* setup_s: import loopspace, generate the inputs from the seed, warm up
  (the DSL files are written once before); CPU time divided by the mean
  reference time of bursts before and after it, as one set-up spans many
  spells; median of several set-ups;
* list_cpu_norm_s: time of the fixed job list, the sum of the jobs'
  latencies;
* job_p50_cpu_norm_ms, job_p90_cpu_norm_ms: median and 90th percentile of
  the job latencies (every job list has at least 100 jobs, so at least ten
  lie beyond p90);
* verified_ratio: jobs whose output matched the oracle / jobs attempted,
  that is 1 - error_rate (an end-to-end metric must never read 0, so the
  benchmark reports the complement of the error rate);
* peak_rss_mib: peak resident memory of this process.

With ``--trace 1`` half the time runs untraced and half traced (see
``tracing.py``); the last line reports the per-layer metrics and
trace.overhead_ratio (normalised traced over untraced list time), and the
outputs of both halves must have the same digest.  Per-layer self times are
raw wall-clock seconds of a traced pass, so only their shares of the pass
compare between runs.  Lines before the last one give a readable summary
and a JSON report with the environment, the error rate, the inputs that
failed or were inconclusive, and (traced) the per-degree records of each
cochain complex.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# best CPU time of reference() on the calibration machine: a 2-core Xeon VM,
# CPython 3.11.7; see reference()
REFERENCE_S = 2.1e-4
# reference runs before and after each set-up (about 0.05 s each way); a
# set-up spans many spells of contention, so their mean stands for it
REFERENCE_BURST = 200
LIBRARY = {
    "cli": "loopspace.cli",
    "dsl": "loopspace.dsl",
    "serialize": "loopspace.serialize",
    "algebra": "loopspace.gca.algebra",
    "cohomology": "loopspace.gca.cohomology",
    "linalg": "loopspace.gca.linalg",
    "spaceforms": "loopspace.spaceforms",
    "bott": "loopspace.bott",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "list_cpu_norm_s": "s",
    "job_p50_cpu_norm_ms": "ms",
    "job_p90_cpu_norm_ms": "ms",
    "verified_ratio": "ratio",
    "peak_rss_mib": "MiB",
}
MAX_LISTED = 60


class Raised:
    """Output of a job that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


def load_library() -> SimpleNamespace:
    """Import loopspace afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "loopspace" or n.startswith("loopspace.")]:
        del sys.modules[name]
    return SimpleNamespace(**{key: importlib.import_module(name) for key, name in LIBRARY.items()})


def run_job(job):
    try:
        return job.run()
    except Exception as exc:  # a raising job is a failed job, not a failed run
        return Raised(exc)


def reference() -> Fraction:
    """The reference kernel: a fixed mix of what loopspace spends its time
    on (rational arithmetic on small integers, dict updates, int-to-string
    conversion), about 0.2 ms of CPU time.  It must not use loopspace, so
    that a change to the program does not change the unit it is measured in."""
    total, counts = Fraction(0), {}
    for i in range(1, 100):
        total += Fraction(i, i + 7)
        counts[i % 17] = counts.get(i % 17, 0) + len(str(i))
    return total


def reference_time() -> float:
    t0 = thread_time()
    reference()
    return thread_time() - t0


def reference_level() -> float:
    return statistics.fmean(reference_time() for _ in range(REFERENCE_BURST))


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the DSL files of the job list and of the warm-up once, before
    the timed set-ups: creating hundreds of files costs the file system,
    not loopspace, and on a shared disk its time varied two-fold between
    runs of the same code."""
    lib = load_library()
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.build(workload, lib, seed, workdir / "jobs")
    workloads.build(workload, lib, seed, workdir / "warm", smoke=True)


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the inputs from the seed, warm up; returns (jobs,
    normalised seconds, CPU seconds, wall seconds)."""
    before = reference_level()
    start, wall_start = thread_time(), perf_counter()
    lib = load_library()
    jobs, _ = workloads.generate(workload, lib, seed, workdir / "jobs")
    warm, _ = workloads.generate(workload, lib, seed, workdir / "warm", smoke=True)
    for job in warm:
        run_job(job)
    gc.collect()
    cpu, wall = thread_time() - start, perf_counter() - wall_start
    level = (before + reference_level()) / 2
    return jobs, cpu / level * REFERENCE_S, cpu, wall


def run_pass(jobs, tracer=None):
    """One pass over the jobs, each followed by a reference run: (wall
    seconds of the pass, normalised latencies, CPU latencies, wall
    latencies, outputs)."""
    norm, latencies, wall_latencies, outputs = [], [], [], []
    start = perf_counter()
    previous = reference_time()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        w0, t0 = perf_counter(), thread_time()
        outputs.append(run_job(job))
        t1, w1 = thread_time(), perf_counter()
        following = reference_time()
        latencies.append(t1 - t0)
        wall_latencies.append(w1 - w0)
        norm.append((t1 - t0) / (previous + following) * 2 * REFERENCE_S)
        previous = following
    return perf_counter() - start, norm, latencies, wall_latencies, outputs


def measure(jobs, seconds: float, verifier, tracer=None):
    """Passes until the next one would end after ``seconds``; at least one.
    Each pass's outputs are verified (untimed) and dropped before the next
    pass.  Returns a list of (wall, normalised latencies, CPU latencies,
    wall latencies, layer metrics or None)."""
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.record_degrees = not passes
        wall, *latencies, outputs = run_pass(jobs, tracer)
        verifier.check_pass(outputs)
        del outputs
        layer = None
        if tracer is not None:
            layer = tracer.metrics()
            layer["_spans"] = tracer.spans
            layer["_hook_s"] = tracer.hook_time
            layer["_hook_errors"] = dict(tracer.hook_errors)
            layer["_degrees"] = tracer.degree_records
        passes.append((wall, *latencies, layer))
        if perf_counter() - start + wall > seconds:
            return passes


def fingerprint(output, workdir: Path) -> str:
    text = repr(output).replace(str(workdir), "<work>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def classify(job, output) -> tuple[str, str]:
    if isinstance(output, Raised):
        return "raised", output.text
    try:
        return job.check(output)
    except workloads.Mismatch as exc:
        return "wrong", str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"unreadable output: {type(exc).__name__}: {exc}"


class Verifier:
    """Checks the first pass against the oracles and every later pass
    against the first pass's outputs."""

    def __init__(self, jobs, workdir: Path):
        self.jobs = jobs
        self.workdir = workdir
        self.reference: list[str] | None = None
        self.first_outcomes: list[tuple[str, str]] = []
        self.tally = {"ok": 0, "inconclusive": 0, "wrong": 0, "raised": 0}
        self.problems: dict[str, tuple[str, str]] = {}
        self.digests: list[str] = []

    def check_pass(self, outputs) -> None:
        prints = [fingerprint(out, self.workdir) for out in outputs]
        if self.reference is None:
            self.reference = prints
            self.first_outcomes = [classify(job, out) for job, out in zip(self.jobs, outputs)]
        for job, now, ref, first in zip(self.jobs, prints, self.reference, self.first_outcomes):
            outcome = first if now == ref else ("wrong", "output differs from the first pass")
            self.tally[outcome[0]] += 1
            if outcome[0] != "ok":
                self.problems.setdefault(job.label, outcome)
        self.digests.append(hashlib.sha256("".join(prints).encode()).hexdigest())

    @property
    def attempted(self) -> int:
        return sum(self.tally.values())

    @property
    def failed(self) -> int:
        return self.tally["wrong"] + self.tally["raised"]

    @property
    def errors(self) -> int:
        return self.failed + self.tally["inconclusive"]


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


NORMALISED, CPU, WALL = 1, 2, 3


def job_times(passes, clock: int = NORMALISED) -> list[float]:
    """Each job's median latency over the passes (seconds), in job order,
    by the clock named (NORMALISED, CPU or WALL)."""
    return [statistics.median(times) for times in zip(*(p[clock] for p in passes))]


def latency_metrics(times: list[float]) -> dict:
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {
        "total_s": sum(times),
        "p50_ms": statistics.median(times) * 1000,
        "p90_ms": p90 * 1000,
        "samples": len(times),
        "samples_beyond_p90": sum(1 for x in times if x > p90),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "loopspace" / "__init__.py").is_file():
        print(f"bench: no loopspace sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a terminated run still removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def benchmark(args, workdir: Path) -> int:
    write_inputs(args.workload, args.seed, workdir)
    setup_times, setup_cpu, setup_wall = [], [], []
    for _ in range(SETUP_REPEATS):
        jobs, seconds, cpu, wall = setup(args.workload, args.seed, workdir)
        setup_times.append(seconds)
        setup_cpu.append(cpu)
        setup_wall.append(wall)

    verifier = Verifier(jobs, workdir)
    report = {"environment": environment(args.workload, args.seed), "jobs_per_pass": len(jobs),
              "setup_s_each": setup_times, "setup_cpu_s_each": setup_cpu,
              "setup_wall_s_each": setup_wall, "reference_s": REFERENCE_S}
    if args.trace:
        untraced = measure(jobs, args.seconds / 2, verifier)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(jobs, args.seconds / 2, verifier, tracer)
        finally:
            tracer.uninstall()
        untraced_digest = verifier.digests[0]
        traced_digests = verifier.digests[len(untraced):]
        same = all(d == untraced_digest for d in traced_digests)
        layers = [p[-1] for p in traced]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in tracing.METRICS if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = sum(job_times(traced)) / sum(job_times(untraced))
        report.update({
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "pass_wall_s": {"untraced": [p[0] for p in untraced], "traced": [p[0] for p in traced]},
            "digest": {"untraced": untraced_digest, "traced": traced_digests, "identical": same},
            "trace": {
                "skipped_entry_points": tracer.skipped,
                "spans_per_pass": layers[0]["_spans"],
                "hook_s_per_pass": [layer["_hook_s"] for layer in layers],
                "hook_errors": layers[0]["_hook_errors"],
                "degree_fields": tracing.DEGREE_FIELDS,
                "degree_records": layers[0]["_degrees"],
            },
        })
        units = tracing.METRICS
    else:
        passes = measure(jobs, args.seconds, verifier)
        lat = latency_metrics(job_times(passes))
        cpu_lat = latency_metrics(job_times(passes, CPU))
        wall_lat = latency_metrics(job_times(passes, WALL))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "list_cpu_norm_s": lat["total_s"],
            "job_p50_cpu_norm_ms": lat["p50_ms"],
            "job_p90_cpu_norm_ms": lat["p90_ms"],
            "verified_ratio": verifier.tally["ok"] / verifier.attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report.update({
            "passes": len(passes),
            "pass_wall_s": [p[0] for p in passes],
            "latency_samples": lat["samples"],
            "samples_beyond_p90": lat["samples_beyond_p90"],
            "cpu_clock": {"setup_s": statistics.median(setup_cpu), "list_s": cpu_lat["total_s"],
                          "job_p50_ms": cpu_lat["p50_ms"], "job_p90_ms": cpu_lat["p90_ms"]},
            "wall_clock": {"setup_s": statistics.median(setup_wall), "list_s": wall_lat["total_s"],
                           "job_p50_ms": wall_lat["p50_ms"], "job_p90_ms": wall_lat["p90_ms"]},
            "digest": verifier.digests[0],
        })
        units = END_TO_END_UNITS

    error_rate = verifier.errors / verifier.attempted
    problems = sorted(verifier.problems.items())
    report.update({
        "outcomes": verifier.tally,
        "error_rate": error_rate,
        "problem_inputs": [{"input": label, "outcome": o, "detail": d} for label, (o, d) in problems],
    })
    # an output that differs between passes, traced or not, is already a
    # wrong outcome in the tally
    correct = verifier.failed == 0

    env = report["environment"]
    print(f"loopspace benchmark: {args.workload} seed={args.seed} trace={args.trace} "
          f"python {env['python']}, {env['cpu_model']}, nproc {env['nproc']}")
    print(f"jobs per pass {len(jobs)}, passes {report['passes']}, attempted {verifier.attempted}, "
          f"outcomes {verifier.tally}, error_rate {error_rate:.6f}")
    if not args.trace:
        print(f"job_p90_cpu_norm_ms over {report['latency_samples']} samples, "
              f"{report['samples_beyond_p90']} beyond it")
    for label, (outcome, detail) in problems[:MAX_LISTED]:
        print(f"  {outcome}: {label}: {detail}")
    if len(problems) > MAX_LISTED:
        print(f"  ... {len(problems) - MAX_LISTED} more in the report line")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
