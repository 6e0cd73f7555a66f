"""a0's rows of tiles shared between threads: the same constants for every
CPU count, and no thread left behind.

``make_space`` scans a0 on up to ``space._A0_THREADS`` threads (two), no
more than the usable CPUs (``space._cpus``) or the rows of tiles, while the
calling thread computes cmu.  33 points is the first size with two rows; up
to 32 points no thread starts.  The CPU count is patched, so these run the
same on a machine of any size; some tests raise the thread cap, to run
several helpers at once.
"""

import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given

from prodhardy import build_system, make_space
from prodhardy import space as space_mod
from prodhardy.cli import main
from prodhardy.oracles import _doubling_constant_exhaustive, _quasi_triangle_constant_exhaustive

from strategies import CHECK, instances

CPUS = [1, 2, 3, 8]


def cloud(n, seed=0):
    """n weighted plane points under the snowflake d^1.5, so a0 > 1 is set
    by one pair, weights over two decades."""
    rng = np.random.default_rng([n, seed])
    pts = rng.uniform(0.0, 1.0, (n, 2))
    dist = ((pts[:, None] - pts[None, :]) ** 2).sum(-1) ** 0.75
    np.fill_diagonal(dist, 0.0)
    return dist, 10.0 ** rng.uniform(-1.0, 1.0, n)


def tile_rows(n):
    return len(range(0, n, min(n, max(1, math.isqrt(space_mod._A0_TILE // n // 2)))))


def helpers(n, cpus):
    return min(cpus, tile_rows(n), space_mod._A0_THREADS) - 1


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    threads, base = [], threading.Thread

    class Counted(base):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return threads


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("n", [33, 40, 64, 140])
def test_clouds_give_the_serial_constants_for_every_cpu_count(monkeypatch, started, n, cpus):
    dist, weight = cloud(n)
    monkeypatch.setattr(space_mod, "_cpus", lambda: cpus)
    before = threading.active_count()
    sp = make_space(dist, weight)
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in started)
    assert len(started) == helpers(n, cpus) <= 1
    assert sp.a0 == _quasi_triangle_constant_exhaustive(sp.dist) > 1.0
    assert sp.cmu == _doubling_constant_exhaustive(sp.dist, sp.weight)


@pytest.mark.parametrize("cpus, threads", [(2, 2), (8, 2), (3, 4), (8, 4)])
@pytest.mark.parametrize("n", [33, 140])
def test_helpers_alone_give_a0(monkeypatch, n, cpus, threads):
    # the calling thread waits in ``meanwhile`` until every helper has run
    # out of rows, so every row is scanned by a helper
    scan, done = space_mod._scan_tile_rows, []

    def counted(*args):
        worst = scan(*args)
        done.append(threading.current_thread())
        return worst

    def wait():
        deadline = time.monotonic() + 60.0
        while len(done) < helpers(n, cpus) and time.monotonic() < deadline:
            time.sleep(1e-3)

    monkeypatch.setattr(space_mod, "_A0_THREADS", threads)
    monkeypatch.setattr(space_mod, "_scan_tile_rows", counted)
    monkeypatch.setattr(space_mod, "_cpus", lambda: cpus)
    dist, _ = cloud(n)
    a0 = space_mod._quasi_triangle_constant(dist, wait)
    assert threading.current_thread() not in done[:-1]
    assert a0 == _quasi_triangle_constant_exhaustive(dist) > 1.0


@pytest.mark.parametrize("cpus", CPUS)
@CHECK
@given(instances())
def test_instance_factors_give_the_serial_constants_for_every_cpu_count(cpus, instance):
    ps, _ = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_mod, "_cpus", lambda: cpus)
        for factor in (ps.x1, ps.x2):
            before = threading.active_count()
            sp = make_space(factor.dist, factor.weight)
            assert threading.active_count() == before
            assert sp.a0 == _quasi_triangle_constant_exhaustive(sp.dist) == factor.a0
            assert sp.cmu == factor.cmu


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_a_helper_that_raises_raises_in_the_caller(monkeypatch, cpus):
    scan = space_mod._scan_tile_rows
    caller = threading.current_thread()

    def failing(*args):
        if threading.current_thread() is not caller:
            raise ZeroDivisionError("helper failed")
        return scan(*args)

    monkeypatch.setattr(space_mod, "_scan_tile_rows", failing)
    monkeypatch.setattr(space_mod, "_cpus", lambda: cpus)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="helper failed"):
        make_space(*cloud(64))
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [2, 4])
def test_a_failing_cmu_joins_every_helper(monkeypatch, threads):
    # each helper waits until it is joined, so it is joined only after cmu
    # has failed, and it must then find no row left
    scan, taken, started = space_mod._scan_tile_rows, [], []
    caller, joined = threading.current_thread(), threading.Event()

    class Held(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

        def join(self, timeout=None):
            joined.set()
            super().join(timeout)

    def counted(dist, todo, *args):
        if threading.current_thread() is not caller:
            joined.wait(60.0)

        def rows():
            for x0 in todo:
                taken.append(x0)
                yield x0
        return scan(dist, rows(), *args)

    def failing(*args):
        raise MemoryError("cmu failed")

    monkeypatch.setattr(threading, "Thread", Held)
    monkeypatch.setattr(space_mod, "_A0_THREADS", threads)
    monkeypatch.setattr(space_mod, "_scan_tile_rows", counted)
    monkeypatch.setattr(space_mod, "_max_growth", failing)
    monkeypatch.setattr(space_mod, "_cpus", lambda: 8)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="cmu failed"):
        make_space(*cloud(140))
    assert len(started) == threads - 1
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    assert taken == []


@pytest.mark.parametrize("ok", [0, 1, 2])
def test_a_helper_that_cannot_start_leaves_its_rows_to_the_others(monkeypatch, ok):
    # the process is at its thread limit after ``ok`` helpers
    started = []

    class Limited(threading.Thread):
        def start(self):
            if len(started) == ok:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Limited)
    monkeypatch.setattr(space_mod, "_A0_THREADS", 4)
    monkeypatch.setattr(space_mod, "_cpus", lambda: 8)
    before = threading.active_count()
    sp = make_space(*cloud(140))
    assert len(started) == ok
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    assert sp.a0 == _quasi_triangle_constant_exhaustive(sp.dist) > 1.0
    assert sp.cmu == _doubling_constant_exhaustive(sp.dist, sp.weight)


def test_cpus_counts_the_cpus_this_process_may_run_on():
    if hasattr(os, "sched_getaffinity"):
        assert space_mod._cpus() == len(os.sched_getaffinity(0))
    else:
        assert space_mod._cpus() == (os.cpu_count() or 1)


def test_spaces_of_at_most_32_points_start_no_thread(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(space_mod, "_cpus", lambda: 8)
    monkeypatch.setattr(threading, "Thread", refuse)
    for n in range(1, 33):
        dist, weight = cloud(n)
        sp = make_space(dist, weight)
        assert sp.a0 == _quasi_triangle_constant_exhaustive(sp.dist)
        build_system(sp, delta=0.5)
    assert main(["decompose", "--seed", "1", "--out", str(tmp_path / "dec.json")]) == 0
    with pytest.raises(AssertionError, match="a thread was started"):
        make_space(*cloud(33))
