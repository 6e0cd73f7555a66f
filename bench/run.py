"""The prodhardy benchmark: closed-loop CLI jobs, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process sends one job at a time.  A job is one in-process
call to ``prodhardy.cli.main(argv)`` whose inputs come from a job seed (see
workloads.py); the benchmark then reads the report the call wrote and applies
the program's own checks.  ``HARDY_THREADS`` is removed from the environment
and BLAS is held to one thread, so the program runs on one thread.

--trace 0 measures the end-to-end metrics with tracing off: cold set-up in
fresh interpreters, then jobs for --seconds.  --trace 1 runs each job seed
twice, untraced and then traced (tracer.py), and reports the per-layer
metrics.  Both print every metric by name with its unit, and as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Metric names
and units come from BENCHMARK.json at the root of the checkout.

The program is imported from ``src/`` of the checkout; without it the run
exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: the jobs are small matrix products,
# and spinning BLAS threads on a shared 2-core machine only add noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import POOL, WORKLOADS, Workload, job_seeds, write_spaces

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"          # job scratch files and span logs; git-ignored
SETUP_RUNS = 3                     # cold set-ups per run; setup_s is their median
MIN_TRACED = 2                     # traced jobs per run; exact counts come from these
LINE8 = {"metric": "euclidean",    # the CLI's built-in space, for certify's set-up
         "points": [{"id": i, "coords": [float(i)], "weight": 1.0} for i in range(8)]}


@dataclass
class Job:
    seed: int
    wall_s: float
    verified: bool
    digest: str                    # sha256 of the report bytes
    report_bytes: int


def is_timing(metric: str) -> bool:
    """Per-layer numbers that are times; every other one is an exact count."""
    return metric.endswith(".self_s") or metric.startswith("trace.")


def import_cli():
    """Import the program from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "prodhardy" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'prodhardy'} not found; nothing to measure")
    sys.path.insert(0, str(src))
    import prodhardy.cli
    return prodhardy.cli


def run_job(cli, workload: Workload, job_seed: int, tracer=None) -> Job:
    """One CLI call on the job seed's inputs, checked by the program's own verdicts."""
    workdir = Path(tempfile.mkdtemp(prefix="job-", dir=OUT))
    try:
        argv = workload.argv(job_seed, workdir)
        if tracer is not None:
            tracer.start_job()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end_job(wall)
        report = workdir / "report.json"
        data = report.read_bytes() if report.is_file() else b""
    finally:
        shutil.rmtree(workdir)
    try:
        verified = code is not None and workload.check(code, json.loads(data))
    except (ValueError, KeyError, TypeError):
        verified = False
    if not verified:
        print(f"bench: job seed {job_seed} failed its checks (exit code {code})",
              file=sys.stderr)
    return Job(job_seed, wall, verified, hashlib.sha256(data).hexdigest(), len(data))


def measure_setup(workload: Workload, job_seed: int) -> list[float]:
    """Cold set-up times, each in a fresh interpreter, on one job seed's documents."""
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        docs = [str(path) for _, path in
                write_spaces(workload.spaces(job_seed) or {"--space": LINE8}, workdir)]
        delta = workload.flags[workload.flags.index("--delta") + 1]
        argv = [sys.executable, str(HERE / "setup_probe.py"), workload.command, delta, *docs]
        return [float(subprocess.run(argv, check=True, capture_output=True, text=True,
                                     timeout=120).stdout)
                for _ in range(SETUP_RUNS)]
    finally:
        shutil.rmtree(workdir)


def run_seeds(workload: Workload, seed: int, seconds: float, recorded: dict):
    """(jobs per round, job seeds); a round takes about ``seconds`` on the seed code."""
    per_round = min(max(math.ceil(seconds / statistics.fmean(recorded["job_s"])), 1), POOL)
    return per_round, job_seeds(workload.name, seed, recorded["job_s"], per_round)


def end_to_end(cli, workload: Workload, seed: int, seconds: float, recorded: dict) -> tuple:
    """Cold set-ups, then jobs until a whole round has run and ``seconds`` have passed."""
    per_round, seeds = run_seeds(workload, seed, seconds, recorded)
    first = next(seeds)
    setups = measure_setup(workload, first)
    jobs: list[Job] = []
    start = time.perf_counter()
    for js in itertools.chain([first], seeds):
        jobs.append(run_job(cli, workload, js))
        if len(jobs) >= per_round and time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start
    n = len(jobs)
    numbers = {
        "setup_s": statistics.median(setups),
        "job_s.p50": statistics.median(j.wall_s for j in jobs),
        "jobs_per_s": n / loop_s,
        "verified_frac": sum(j.verified for j in jobs) / n,
        "report_match_frac": sum(j.digest == recorded["digest"][j.seed] for j in jobs) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"{n} jobs in {loop_s:.2f} s; job_s.p50 is the median of {n} samples",
             f"setup_s is the median of {len(setups)} cold set-ups: "
             + ", ".join(f"{s:.4f}" for s in setups)]
    return jobs, numbers, notes


def traced(cli, workload: Workload, seed: int, seconds: float, recorded: dict) -> tuple:
    """Pairs of the same job untraced and traced, for at least MIN_TRACED pairs
    and until ``seconds`` have passed."""
    tracer = Tracer()
    jobs: list[Job] = []
    plain: list[float] = []
    start = time.perf_counter()
    for js in run_seeds(workload, seed, seconds, recorded)[1]:
        jobs.append(run_job(cli, workload, js))
        plain.append(jobs[-1].wall_s)
        tracer.install()
        try:
            jobs.append(run_job(cli, workload, js, tracer))
        finally:
            tracer.uninstall()
        if len(plain) >= MIN_TRACED and time.perf_counter() - start >= seconds:
            break
    records = [dict(r["numbers"], **{"cli.report_bytes": j.report_bytes})
               for r, j in zip(tracer.jobs, jobs[1::2])]
    # times use every traced job; exact counts only the first MIN_TRACED
    numbers = {name: statistics.median(r[name] for r in (records if is_timing(name)
                                                         else records[:MIN_TRACED]))
               for name in records[0]}
    numbers["trace.overhead_frac"] = statistics.median(
        r["wall_s"] / wall for r, wall in zip(tracer.jobs, plain)) - 1.0
    span_log = OUT / f"spans-{workload.name}.jsonl"
    n_spans = tracer.write_spans(span_log)
    notes = [f"{len(records)} traced jobs, each after the same job untraced; "
             f"exact counts are medians over the first {MIN_TRACED}",
             f"{n_spans} spans written to {span_log.relative_to(ROOT)}"]
    return jobs, numbers, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads((HERE / "digests.json").read_text())[args.workload]
    os.environ.pop("HARDY_THREADS", None)
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    jobs, numbers, notes = measure(cli, workload, args.seed, args.seconds, recorded)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": numbers[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {numbers[m['name']]:>16.6g} {m['unit']}")
    for note in notes:
        print(note)
    failed = sum(not j.verified for j in jobs)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
