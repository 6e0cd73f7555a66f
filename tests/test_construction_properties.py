"""Property tests: ``build_system`` against the level-by-level, cube-by-cube
construction of ``per_cube``, and counts of how often it does the work.

``build_system`` grows one vector of distances to the net and runs the
greedy scan only at levels whose net changes; a kept net is its own parent
net.  It sums the weights of each distinct member set once and reads one
center row per chain top.  Every array, constant and report
must equal the per-level, per-cube construction bit for bit, at deltas up
to 0.99 (hundreds of levels over a few distinct nets), on tied distances,
weights over six decades and permuted scan orders.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prodhardy import ProductSpace, build_system, verify_system
from prodhardy import dyadic as dyadic_mod
from prodhardy.oracles import _build_net_by_point

import per_cube
from conftest import line_space
from strategies import CHECK, inexact_spaces, instances

DEEP = (0.99, 0.9, 0.5, 0.25)
ARRAYS = ("first", "centers", "parent", "labels", "members", "sizes", "measures",
          "_far", "_near")

# decompose-deep's factors: three points over one decade and five over two,
# at delta 0.9; most levels keep the net above them
DEEP_PAIR = ProductSpace(line_space([1.0, 4.0, 16.0]), line_space(3.0 ** np.arange(5)),
                         delta=0.9)
# diam = delta^0: the net at level 0 holds both points, so k_min drops to -1
EDGE = ProductSpace(line_space([0.0, 1.0], [0.3, 0.7]), line_space([0.0, 2.0, 5.0]), delta=0.5)


def assert_same_system(got, want):
    assert (got.k_min, got.k_max) == (want.k_min, want.k_max)
    assert got.nets == want.nets
    for name in ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("C0_measured", "inner_tight", "outer_tight"):
        assert getattr(got, name) == getattr(want, name), name
    assert verify_system(got) == verify_system(want)
    np.testing.assert_array_equal(
        got.tops, np.flatnonzero((want.parent < 0) | (want.sizes[want.parent] != want.sizes)))


@CHECK
@given(instances(inexact_spaces(), DEEP), st.none() | st.integers(0, 2 ** 32 - 1))
@example((DEEP_PAIR, None), None)
@example((DEEP_PAIR, None), 3)
@example((EDGE, None), None)
def test_build_system_is_the_per_level_per_cube_construction(inst, order_seed):
    ps, _ = inst
    delta = ps.systems[0].delta
    for space in (ps.x1, ps.x2):
        assert_same_system(build_system(space, delta, order_seed),
                           per_cube.build_system(space, delta, order_seed))


def test_a_kept_net_is_the_net_above_with_identity_parents():
    system = DEEP_PAIR.systems[1]
    kept = [k for k in system.levels()[1:] if system.nets[k] == system.nets[k - 1]]
    assert len(kept) == len(system.levels()) - 5
    for k in kept:
        lo, hi = system.first[k - system.k_min], system.first[k - system.k_min + 1]
        np.testing.assert_array_equal(system.parent[lo:hi] - system.first[k - system.k_min - 1],
                                      np.arange(hi - lo))
    assert_same_system(system, per_cube.build_system(DEEP_PAIR.x2, 0.9))


def test_the_k_min_edge_adds_a_one_point_level():
    space = EDGE.x1
    system = build_system(space, 0.5)
    assert system.k_min == -1 and len(_build_net_by_point(space, 0.5, 0)) == 2
    assert system.nets[-1] == [0] and system.parent[:3].tolist() == [-1, 0, 0]
    assert_same_system(system, per_cube.build_system(space, 0.5))


def counted(monkeypatch, name) -> list:
    calls, original = [], getattr(dyadic_mod, name)

    def count(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dyadic_mod, name, count)
    return calls


@pytest.mark.parametrize("coords, delta, levels, nets, tops", [
    ([1.0, 4.0, 16.0], 0.9, 17, 3, 5),
    (3.0 ** np.arange(5), 0.9, 37, 5, 9),
    (np.arange(8.0), 0.999, 1947, 5, 14),          # the CLI's built-in line
], ids=["deep-3", "deep-5", "line8-0.999"])
def test_seed_checks_and_center_rows_run_once_per_net_and_member_set(
        monkeypatch, coords, delta, levels, nets, tops):
    scans = counted(monkeypatch, "_jump_scan")
    passes = counted(monkeypatch, "_center_pass")
    system = build_system(line_space(coords), delta)
    assert len(system.levels()) == levels
    assert len({tuple(net) for net in system.nets.values()}) == nets
    # one seed check per level whose net changes, the first level's included:
    # a scan, at radius delta^k, of the candidates against the net above
    assert [args[-1] for args in scans] == [delta ** k for k in system.levels()
                                            if k == system.k_min
                                            or system.nets[k] != system.nets[k - 1]]
    assert len(scans) == nets
    # one center pass over one row per member set: the tops
    assert len(passes) == 1 and len(system.tops) == tops
    np.testing.assert_array_equal(passes[0][-1], system.tops)
    # the kept levels' runs, filled at once, equal the per-level construction
    monkeypatch.undo()
    assert_same_system(system, per_cube.build_system(system.space, delta))
