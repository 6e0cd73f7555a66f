"""The benchmark's workloads.

A workload turns a job seed into the argv of one ``prodhardy`` CLI call.
Space documents are drawn from the job seed and written into the job's
scratch directory; the program sees only those files and the flags.  Each
workload also names the program's own pass/fail checks on its report.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Job seeds a run draws from.  Every (workload, job seed) has its report digest
# and job time recorded in digests.json, so the pool is finite.
POOL = 24


def _points_doc(coords, weights) -> dict:
    return {"metric": "euclidean",
            "points": [{"id": i, "coords": [float(c) for c in np.atleast_1d(x)],
                        "weight": float(w)}
                       for i, (x, w) in enumerate(zip(coords, weights))]}


def _weighted_line(seed: int) -> dict[str, dict]:
    rng = np.random.default_rng([seed, 1])
    return {"--space": _points_doc(np.arange(24.0), np.exp(rng.uniform(-2.0, 2.0, 24)))}


def _deep_pair(seed: int) -> dict[str, dict]:
    # fixed points; the job seed reaches the program only as the CLI --seed,
    # which draws the function to decompose
    return {"--space": _points_doc([1.0, 4.0, 16.0], np.ones(3)),
            "--space2": _points_doc([3.0 ** k for k in range(5)], np.ones(5))}


def _cloud(seed: int) -> dict[str, dict]:
    rng = np.random.default_rng([seed, 4])
    pts = rng.uniform(0.0, 1.0, (512, 2))
    return {"--space": _points_doc(pts, np.exp(rng.uniform(-3.0, 3.0, 512)))}


def _no_space(seed: int) -> dict[str, dict]:
    return {}                                  # the CLI's built-in 8-point line


def write_spaces(spaces: dict[str, dict], workdir: Path) -> list[tuple[str, Path]]:
    """Write each space document as JSON; return (CLI flag, path) pairs."""
    out = []
    for flag, doc in spaces.items():
        path = workdir / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(doc))
        out.append((flag, path))
    return out


def _decompose_ok(report: dict) -> bool:
    return report["residual"] <= 1e-8 and report["all_certificates_pass"] is True


def _certify_ok(report: dict) -> bool:
    return report["all_exact_pass"] is True


def _exit_code_only(report: dict) -> bool:
    """``build`` reports no verdict of its own; its exit code is the check."""
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]
    spaces: Callable[[int], dict[str, dict]]
    report_ok: Callable[[dict], bool]

    def argv(self, job_seed: int, workdir: Path) -> list[str]:
        """Write this job's space documents into workdir; return the CLI argv."""
        argv = [self.command, *self.flags, "--seed", str(job_seed),
                "--out", str(workdir / "report.json")]
        for flag, path in write_spaces(self.spaces(job_seed), workdir):
            argv += [flag, str(path)]
        return argv

    def check(self, exit_code: int, report: dict) -> bool:
        """The program's own verdict: exit code 0 and the report's pass flags."""
        return (exit_code == 0 and report.get("command") == self.command
                and self.report_ok(report))


WORKLOADS = {w.name: w for w in (
    Workload("decompose-line", "decompose",
             ("--delta", "0.25", "--p", "1", "--q", "2"), _weighted_line, _decompose_ok),
    Workload("decompose-deep", "decompose",
             ("--delta", "0.9", "--p", "0.8", "--q", "1.5"), _deep_pair, _decompose_ok),
    Workload("certify-corpus", "certify",
             ("--delta", "0.25", "--corpus", "50"), _no_space, _certify_ok),
    Workload("build-cloud", "build", ("--delta", "0.25"), _cloud, _exit_code_only),
)}


def cost_strata(job_s: list[float], k: int) -> list[np.ndarray]:
    """Split the pool, ranked by recorded job time, into ``k`` contiguous strata.

    The cuts minimise the summed squared spread of log job time within the
    strata (one-dimensional k-means, solved exactly by dynamic programming),
    so a stratum never spans a jump in cost, such as the one between
    decompose-deep's 9-atom jobs and its larger ones.
    """
    ranked = np.argsort(job_s, kind="stable")
    x = np.log(np.asarray(job_s, dtype=float)[ranked])
    s1 = np.concatenate([[0.0], np.cumsum(x)])
    s2 = np.concatenate([[0.0], np.cumsum(x * x)])

    def spread(i, j):                          # of x[i:j]
        return s2[j] - s2[i] - (s1[j] - s1[i]) ** 2 / (j - i)

    n = len(x)
    best = {(0, 0): (0.0, 0)}                  # (strata, end) -> (cost, start of last)
    for c in range(1, k + 1):
        for j in range(c, n - k + c + 1):
            best[c, j] = min((best[c - 1, i][0] + spread(i, j), i)
                             for i in range(c - 1, j) if (c - 1, i) in best)
    cuts = [n]
    for c in range(k, 0, -1):
        cuts.append(best[c, cuts[-1]][1])
    cuts.reverse()
    return [ranked[a:b] for a, b in zip(cuts, cuts[1:])]


def job_seeds(workload: str, seed: int, job_s: list[float], per_round: int) -> Iterator[int]:
    """A run's job seeds, round after round: one from each cost stratum per round.

    Every round mixes cheap and costly jobs in the same proportion, so a
    round's median and throughput hardly depend on which jobs were drawn,
    while the jobs themselves, and their order, change with the run seed.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    strata = cost_strata(job_s, per_round)
    while True:
        for i in rng.permutation(per_round):
            yield int(rng.choice(strata[i]))
