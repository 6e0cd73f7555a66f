"""Check that the benchmark's exact counts repeat between runs of the same code.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all by default) this makes two traced runs of
``bench/run.py`` on seed 0 with the run length of BENCHMARK.json, each in a
fresh interpreter, and checks that both
are correct and that every per-layer number that is not a time -- calls,
cubes, levels, the distinct-member fraction, pairs tested, hit ratio, repeat
fractions, family size, atoms and report bytes -- is identical.  Exits with
status 1 and names the differences if any are found.
"""

import json
import subprocess
import sys

from run import HERE, ROOT, is_timing
from workloads import WORKLOADS


def traced_metrics(workload: str) -> dict:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=600).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: a job failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items() if not is_timing(k)}


def main(names) -> int:
    bad = 0
    for name in names:
        first, second = traced_metrics(name), traced_metrics(name)
        diff = sorted(k for k in first if first[k] != second[k])
        print(f"{name}: {len(first)} exact counts, {len(diff)} differ {diff or ''}")
        bad += len(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
