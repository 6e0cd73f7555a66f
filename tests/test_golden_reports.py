"""Golden CLI reports: a refactor must leave each report byte-identical.

Each digest is the SHA-256 of the report bytes that ``prodhardy`` writes
for a fixed input.  The first three were recorded before the space
constants were rewritten (symmetric blocked a0, prefix-measure cmu); the
deep pair and the snowflake pair, the two cases with 1 < q < 2 (where
``verify_atom`` weighs rectangle atoms by the stretch ratio), before stretch
and tau moved onto the cube geometry; the certify run on the snowflake pair
(unequal weighted factors, p < 1 < q < 2) before certify's corpus ran in
stacked passes; the two deep runs on the built-in line (delta 0.999) before
the rectangle questions moved onto the chain tops, and those must also
finish within ``SECONDS``.  A change that moves any of them changes a
number some user sees, so it needs a deliberate update.  Each golden runs
with builtin ``sum`` refusing floats, so every report sum adds in one order
on every Python.
"""

import builtins
import hashlib
import json
import math
import time

import numpy as np
import pytest

from prodhardy import (ProductSpace, building_blocks, cmo_p, generate_atom, make_space,
                       product_transform, verify_atom)
from prodhardy import atoms, cli, product
from prodhardy.dyadic import Cube, DyadicSystem
from prodhardy.cli import main

from blocks import block_square_function


def _points_doc(coords, weights, **extra):
    return {"metric": "euclidean",
            "points": [{"id": i, "coords": [float(c) for c in np.atleast_1d(x)],
                        "weight": float(w)}
                       for i, (x, w) in enumerate(zip(coords, weights))], **extra}


def _weighted_cloud():
    rng = np.random.default_rng([7, 150])
    return (_points_doc(rng.uniform(0.0, 1.0, (150, 2)), np.exp(rng.uniform(-3.0, 3.0, 150))),)


def _weighted_line():
    rng = np.random.default_rng([7, 12])
    return (_points_doc(np.arange(12.0), np.exp(rng.uniform(-2.0, 2.0, 12))),)


def _deep_pair():
    # few points over wide distance ranges: long chains of single-child cubes
    return (_points_doc([1.0, 4.0, 16.0], np.ones(3)),
            _points_doc([3.0 ** k for k in range(5)], np.ones(5)))


def _snowflake_pair():
    rng = np.random.default_rng([7, 25])
    return (_points_doc(np.arange(6.0), np.exp(rng.uniform(-2.0, 2.0, 6)), snowflake=2.5),
            _points_doc(np.arange(5.0), np.exp(rng.uniform(-2.0, 2.0, 5)), snowflake=2.5))


CASES = {
    "build-cloud150": (["build", "--delta", "0.25", "--seed", "0"], _weighted_cloud,
                       "8a4bfb9468186b4894426438190e41353412ad32caad5879c1d19d592d3bc1ec"),
    "decompose-line12": (["decompose", "--delta", "0.25", "--seed", "3"], _weighted_line,
                         "d3d304a0df123c850205c338582d00e819c0bd332f4be7657e512c795c0427d8"),
    "certify-corpus5": (["certify", "--delta", "0.25", "--corpus", "5", "--seed", "1"], None,
                        "021c1752bf3983a1b4ff88fb162cc96fc6c043a36cdeb4c1c25ebac0219aefe0"),
    "decompose-deep-pair": (
        ["decompose", "--delta", "0.9", "--p", "0.8", "--q", "1.5", "--seed", "0"], _deep_pair,
        "8605118042bbab1ff57904f90000f1c3db833b5eddf2e0d224e7275032d54b95"),
    "decompose-snowflake-pair": (
        ["decompose", "--delta", "0.5", "--p", "0.9", "--q", "1.5", "--seed", "2"],
        _snowflake_pair, "faa1430eb000d60dbfd4cde147ef667fc51a50e095c93165996f0b8606c1f2fe"),
    "certify-snowflake-pair": (
        ["certify", "--delta", "0.5", "--p", "0.8", "--q", "1.5", "--corpus", "30",
         "--seed", "4"],
        _snowflake_pair, "df0fc4ffe6387146c3b3bfaef5a63a89c8585ea7eb26474e15f016dbbe6ffa4b"),
    "certify-line-deep": (["certify", "--delta", "0.999", "--seed", "0"], None,
                          "3bec436595f6254c7677fd2af85af2c64807e142e7f7148dd4b1ba22d539db93"),
    "decompose-line-deep": (["decompose", "--delta", "0.999", "--seed", "0"], None,
                            "0f46c7c56aae725f4dd2a783aea028175e579cdba126c0e345cdcf0f8d1817bb"),
}

# The built-in 8-point line at delta 0.999 has 5695 cubes per factor over
# 14 member sets.  Asked once per member set, its rectangle questions take
# well under a second; asked of every cube pair, they took over a minute.
SECONDS = {"certify-line-deep": 10.0, "decompose-line-deep": 10.0}


def report_digest(name, tmp_path, run=main):
    argv, spaces, _ = CASES[name]
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    for flag, doc in zip(("--space", "--space2"), spaces() if spaces else ()):
        path = tmp_path / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(doc))
        argv += [flag, str(path)]
    assert run(argv) == 0
    return hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch, tmp_path):
    # Python 3.12's sum compensates float sums, so a report sum written with
    # it would change its last bits with the interpreter: while the CLI runs,
    # sum refuses floats.  Only then: the test machinery (Hypothesis among
    # it) adds floats with it.
    int_sum = builtins.sum

    def sum_without_floats(items, start=0):
        items = list(items)
        if any(isinstance(v, float) for v in [start, *items]):
            raise AssertionError(f"builtin sum over floats: {items[:3]}")
        return int_sum(items, start)

    def run(argv):
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", sum_without_floats)
            return main(argv)

    start = time.perf_counter()
    assert report_digest(name, tmp_path, run) == CASES[name][2]
    assert time.perf_counter() - start < SECONDS.get(name, math.inf)


@pytest.mark.parametrize("name", ["certify-corpus5", "certify-snowflake-pair"])
def test_certify_report_is_the_same_one_grid_per_stack(name, monkeypatch, tmp_path):
    # certify's corpus runs in stacks of at most SUM_BATCH entries; a budget
    # below one grid cuts every stack down to a single grid
    monkeypatch.setattr(product, "SUM_BATCH", 1)
    assert report_digest(name, tmp_path) == CASES[name][2]



@pytest.mark.parametrize("name", ["decompose-line12", "decompose-deep-pair"])
def test_decompose_report_is_the_same_one_level_set_per_stack(name, monkeypatch, tmp_path):
    # each B_j half test runs on the wavelet cubes over stacks of level sets
    # of at most SUM_BATCH wavelet pairs, one set at least: one stack here,
    # and with a budget below one set's pairs one stack per set, with the
    # same report
    stacks = []
    original = atoms._majority

    def bounded(pspace, masks, rows1, rows2):
        b1, b2 = pspace.bases
        assert rows1 is b1.cube_rows and rows2 is b2.cube_rows
        assert len(masks) <= max(1, product.SUM_BATCH // (b1.n_wavelets * b2.n_wavelets))
        stacks.append(len(masks))
        return original(pspace, masks, rows1, rows2)

    monkeypatch.setattr(atoms, "_majority", bounded)
    assert report_digest(name, tmp_path) == CASES[name][2]
    [n_sets] = stacks
    stacks.clear()
    monkeypatch.setattr(product, "SUM_BATCH", 1)
    assert report_digest(name, tmp_path) == CASES[name][2]
    assert n_sets > 1 and stacks == [1] * n_sets

def test_certify_corpus_runs_in_stacked_passes(monkeypatch, tmp_path):
    # 50 functions on the built-in 8-point line: one transform for the basis
    # checks, one per p for Lp <= Hp, one for the H^p norms of the 20
    # equivalence functions, one for their decompositions and one for all
    # their atoms' ||S(a)||_p
    calls = []
    original = product.product_transform

    def counted(pspace, f):
        calls.append(np.shape(f))
        return original(pspace, f)

    for module in (product, cli, atoms):
        monkeypatch.setattr(module, "product_transform", counted)
    assert main(["certify", "--corpus", "50", "--seed", "0",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert calls[:5] == [(50, 8, 8)] * 3 + [(20, 8, 8)] * 2
    assert len(calls) == 6 and calls[5][1:] == (8, 8)


def test_reports_need_no_rectangle_masks(monkeypatch, tmp_path):
    """Wavelet rectangles are flat cube indices of the systems' arrays: the
    pipeline never lists ``Cube`` records or builds one."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a rectangle from cube objects")

    monkeypatch.setattr(DyadicSystem, "all_cubes", refuse)
    monkeypatch.setattr(Cube, "__init__", refuse)
    for name in sorted(CASES):
        assert report_digest(name, tmp_path) == CASES[name][2]

    pts = np.arange(6.0)
    x = make_space(np.abs(pts[:, None] - pts[None, :]), np.array([1, 2, 3, 2, 1, 2.0]))
    ps = ProductSpace(x, x, delta=0.5)
    rng = np.random.default_rng(0)
    f = ps.random_function(rng)
    assert cmo_p(ps, product_transform(ps, f), 1.0) > 0
    gamma = x.omega + 1.0
    blocks = [building_blocks(x, w, gamma, 1.0)[1] for w in ps.bases[0].wavelets]
    vals, _ = block_square_function(ps, f, blocks, blocks, 0, 0)
    assert vals.any()
    atoms = [generate_atom(ps, rng, 1.0, 2.0, 1, 0) for _ in range(4)]
    assert all(verify_atom(ps, a)["passed"] for a in atoms if a is not None)
