"""Golden CLI reports: a refactor must leave each report byte-identical.

Each digest is the SHA-256 of the report bytes that ``prodhardy`` writes
for a fixed input, recorded before the space constants were rewritten
(symmetric blocked a0, prefix-measure cmu).  A change that moves any of
them changes a number some user sees, so it needs a deliberate update.
"""

import hashlib
import json

import numpy as np
import pytest

from prodhardy.cli import main


def _points_doc(coords, weights):
    return {"metric": "euclidean",
            "points": [{"id": i, "coords": [float(c) for c in np.atleast_1d(x)],
                        "weight": float(w)}
                       for i, (x, w) in enumerate(zip(coords, weights))]}


def _weighted_cloud():
    rng = np.random.default_rng([7, 150])
    return _points_doc(rng.uniform(0.0, 1.0, (150, 2)), np.exp(rng.uniform(-3.0, 3.0, 150)))


def _weighted_line():
    rng = np.random.default_rng([7, 12])
    return _points_doc(np.arange(12.0), np.exp(rng.uniform(-2.0, 2.0, 12)))


CASES = {
    "build-cloud150": (["build", "--delta", "0.25", "--seed", "0"], _weighted_cloud,
                       "8a4bfb9468186b4894426438190e41353412ad32caad5879c1d19d592d3bc1ec"),
    "decompose-line12": (["decompose", "--delta", "0.25", "--seed", "3"], _weighted_line,
                         "d3d304a0df123c850205c338582d00e819c0bd332f4be7657e512c795c0427d8"),
    "certify-corpus5": (["certify", "--delta", "0.25", "--corpus", "5", "--seed", "1"], None,
                        "021c1752bf3983a1b4ff88fb162cc96fc6c043a36cdeb4c1c25ebac0219aefe0"),
}


def report_digest(name, tmp_path):
    argv, space, _ = CASES[name]
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    if space is not None:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space()))
        argv += ["--space", str(path)]
    assert main(argv) == 0
    return hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    assert report_digest(name, tmp_path) == CASES[name][2]
