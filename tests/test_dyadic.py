import dataclasses
import math

import numpy as np
import pytest

from prodhardy import DyadicSystem, build_haar, build_system, verify_system
from prodhardy.dyadic import _build_net_by_point, _jump_scan, _system_document, dilate_mask

from conftest import line_space


def test_net_single_point():
    sp = line_space([0.0])
    assert build_system(sp, 0.5).nets == {0: [0]}


def test_net_greedy_hand_simulation(canon):
    # radius 3 = (1/3)^-1: greedy takes 0, skips 1 and 2 (within 3), takes 10
    assert build_system(canon, 1.0 / 3.0).nets[-1] == [0, 3]


def test_net_finest_scale_takes_everything(canon):
    # radius 0.5: all pairwise distances >= 1, so the finest net holds every
    # point, in the order the coarser nets took them
    assert build_system(canon, 0.5).nets[1] == [0, 3, 2, 1]


@pytest.mark.parametrize("k,seed,order", [
    (1100, [1], None),            # delta^k underflows to 0: every point joins once
    (1100, [], [2, 2, 1]),
    (0, [], [3, 3, 0, 3]),        # a repeated candidate joins once
    (-1, [3], [2, 1, 0]),
])
def test_net_edge_cases_equal_the_per_point_scan(canon, k, seed, order):
    # the scan as build_system runs it: candidates in scan order, each with
    # its distance to the seed net
    scan = np.arange(canon.n) if order is None else np.asarray(order, dtype=np.intp)
    mind = canon.dist[seed].min(axis=0)[scan] if seed else np.full(scan.size, np.inf)
    net = _jump_scan(list(seed), mind, canon.dist[:, scan], scan, max(0.5 ** k, math.ulp(0.0)))
    assert net == _build_net_by_point(canon, 0.5, k, seed, order)


def test_single_point_system():
    sp = line_space([0.0])
    system = build_system(sp, 0.25)
    assert system.k_min == system.k_max == 0
    assert len(system.cubes[0]) == 1
    verify_system(system)


def test_verify_system_caches_no_member_masks(canon):
    # verify_system reads the label matrix and the center pass's extremes,
    # so verifying a system never builds the incidence matrix whose rows
    # are the masks
    system = build_system(canon, 0.25)
    verify_system(system)
    assert "incidence" not in system.__dict__


def test_line_system_hand_trace(canon):
    system = build_system(canon, 0.25)
    # delta^k first drops below 8 at k = -1 (4 < 8 <= 16), splitting {0,1,2} | {10}
    assert system.k_min == -2 and system.k_max == 1
    top = system.cubes[-2]
    assert len(top) == 1 and list(top[0].members) == [0, 1, 2, 3]
    level = {tuple(c.members) for c in system.cubes[-1]}
    assert level == {(0, 1, 2), (3,)}
    assert all(len(c.members) == 1 for c in system.cubes[1])


def test_disjoint_union_measures(canon):
    system = build_system(canon, 0.25)
    for k in system.levels():
        assert sum(c.measure for c in system.cubes[k]) == pytest.approx(
            canon.total_measure, abs=0)


def test_pairwise_cube_nesting_exhaustive(canon):
    system = build_system(canon, 0.25)
    cubes = list(system.all_cubes())
    for a in cubes:
        for b in cubes:
            if b.level < a.level:
                continue
            sa, sb = set(a.members.tolist()), set(b.members.tolist())
            assert sb <= sa or not (sa & sb)


def test_verify_reports_constants(canon):
    system = build_system(canon, 0.25)
    rep = verify_system(system)
    assert rep["c0"] == 1.0
    assert rep["C0_measured"] < 1.0          # maximal nets cover within delta^k
    assert rep["C1_certified"] == 2.0 * canon.a0 * 1.0
    assert rep["c1_certified"] == 1.0 / (3.0 * canon.a0 ** 2)
    assert rep["regular_family_ok"]
    assert rep["ah_reference"]["C1"] == 6.0 * canon.a0 ** 4


def test_certified_constants_hold_when_conformant():
    rng = np.random.default_rng(3)
    for seed in range(4):
        pts = np.sort(rng.random(20)) * 50
        sp = line_space(pts)
        delta = 1.0 / (13.0 * sp.a0 ** 3)
        system = build_system(sp, delta)
        rep = verify_system(system)
        assert rep["conformant_delta"]
        assert rep["inner_certificate_holds"] and rep["outer_certificate_holds"]


def test_quasi_metric_certificates():
    rng = np.random.default_rng(11)
    pts = rng.random((15, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)) ** 1.4
    np.fill_diagonal(d, 0.0)
    from prodhardy import make_space
    sp = make_space(d)
    assert sp.a0 > 1.0
    system = build_system(sp, 1.0 / (13.0 * sp.a0 ** 3))
    rep = verify_system(system)
    assert rep["conformant_delta"]
    assert rep["inner_certificate_holds"] and rep["outer_certificate_holds"]


def test_dilate_contains_cube(canon):
    system = build_system(canon, 0.25)
    for cube in system.all_cubes():
        assert dilate_mask(system, cube, 1.0)[cube.members].all()


def test_dilate_top_cube_catches_all(canon):
    system = build_system(canon, 0.25)
    top = system.cubes[system.k_min][0]
    assert dilate_mask(system, top, 2.0).all()


def test_dilate_singleton_stays_singleton(canon):
    system = build_system(canon, 0.25)
    # level k_max: side 1/4, effective C1 = 2, radius 1/2 < min distance 1
    leaf = system.cubes[system.k_max][0]
    assert np.flatnonzero(dilate_mask(system, leaf, 1.0)).tolist() == leaf.members.tolist()


def test_cube_lookups_reject_a_cube_the_system_lacks(line8):
    # levels -2..1 hold 1, 2, 8 and 8 cubes; unchecked, flat(-1, 2) gives
    # cube (0, 0), cube(-1, -1) gives (-1, 1) and member_mask(-3, 0) reads
    # level 1's labels and comes back all False
    system = build_system(line8, 0.25)
    assert system.first.tolist() == [0, 1, 3, 11, 19]
    for k, alpha in ((-1, 2), (-1, -1), (-3, 0), (2, 0)):
        message = rf"no cube \({k}, {alpha}\): levels -2..1 hold 1, 2, 8, 8 cubes"
        for lookup in (system.flat, system.cube, system.member_mask):
            with pytest.raises(ValueError, match=message):
                lookup(k, alpha)
    assert system.flat(-1, 1) == 2 and system.cube(-1, 1).id == (-1, 1)
    assert system.member_mask(1, 7).sum() == 1


def test_geometry_is_built_on_first_use(canon):
    system = build_system(canon, 0.25)
    verify_system(system)
    _system_document(system)
    basis = build_haar(system)
    for name in ("incidence", "cubes"):    # building a system never needs them
        assert name not in vars(system)
    incidence = system.incidence
    np.testing.assert_array_equal(incidence[basis.cube_rows[0]] > 0,
                                  system.member_mask(*basis.wavelets[0].cube))
    assert incidence is system.incidence
    assert incidence.shape == (system.n_cubes(), canon.n)
    assert system.parent[0] == -1 and (system.parent[1:] >= 0).all()
    assert not incidence.flags.writeable
    assert system.cubes is system.cubes and len(system.cubes) == len(system.levels())


def test_geometry_first_use_from_threads(line8):
    # threads racing on the first use of each lazy view each get a complete one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def members(cubes):
        return [c.members.tolist() for level in cubes.values() for c in level]

    expect = build_system(line8, 0.25)
    names = ("incidence", "cubes") * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                system = build_system(line8, 0.25)
                views = list(pool.map(lambda name: getattr(system, name), names, timeout=60))
                for name, view in zip(names, views):
                    if name == "cubes":
                        assert members(view) == members(expect.cubes)
                    else:
                        np.testing.assert_array_equal(view, getattr(expect, name))
    finally:
        sys.setswitchinterval(interval)


def test_doubling_of_dilates(canon):
    rng = np.random.default_rng(19)
    pts = np.sort(rng.random(30)) * 40
    spaces = [canon, line_space(pts)]
    for sp in spaces:
        system = build_system(sp, 0.25)
        ratio = system.outer_cert / system.inner_cert
        for cube in system.all_cubes():
            for lam in (1.0, 2.0, 4.0):
                measure = sp.weight[dilate_mask(system, cube, lam)].sum()
                assert measure <= (lam * ratio) ** sp.omega * cube.measure + 1e-12


def from_document(space, doc) -> DyadicSystem:
    """The tree ``DyadicSystem`` builds from a system document's nets and parents."""
    return DyadicSystem(space, doc["delta"], doc["k_min"], doc["k_max"],
                        {int(k): v for k, v in doc["nets"].items()},
                        {int(k): v for k, v in doc["parents"].items()}, doc["mode"])


def test_export_import_round_trip(canon):
    # the document's nets and parents rebuild the same tree, bit for bit
    system = build_system(canon, 0.25)
    doc = _system_document(system)
    back = from_document(canon, doc)
    assert _system_document(back) == doc     # parent arrays and constants included
    for k in system.levels():
        for a, c in enumerate(system.cubes[k]):
            assert back.cubes[k][a].parent == c.parent
            assert np.array_equal(back.cubes[k][a].members, c.members)


def test_randomized_family_members_verify(line8):
    # members of the Auscher-Hytonen regular family: C1 and C1/c1 within the reference
    for seed in range(3):
        system = build_system(line8, 0.25, order_seed=seed)
        rep = verify_system(system)
        assert rep["regular_family_ok"]
        ref = rep["ah_reference"]
        assert rep["C1_certified"] <= ref["C1"]
        assert rep["C1_certified"] / rep["c1_certified"] <= ref["ratio"]


def test_top_level_single_cube_on_exact_diameter():
    # diameter 1 equals delta^0 exactly; the k_min guard must keep one top cube
    sp = line_space([0.0, 1.0])
    for delta in (0.5, 0.25):
        system = build_system(sp, delta)
        assert len(system.cubes[system.k_min]) == 1


def test_reference_mode_default_delta(canon):
    system = build_system(canon)
    assert system.mode == "reference"
    assert system.delta == min(0.5, 1e-3 * canon.a0 ** -10)
    rep = verify_system(system)
    assert rep["conformant_delta"]


def test_invalid_delta(canon):
    with pytest.raises(ValueError):
        build_system(canon, 1.5)


# -- verify_system's structural checks on hand-corrupted systems -------------

def corruptible_system():
    """A fresh system on 24 plane points (each test corrupts its own copy),
    and a level k whose cubes number at least two and have at least two
    parents' worth of children."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, (24, 2))
    from prodhardy import make_space
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    system = build_system(make_space(d), 0.25)
    kids = np.bincount(system.parent[system.parent >= 0], minlength=system.n_cubes())
    k = next(k for k in range(system.k_min, system.k_max)
             if (kids[system.first[k - system.k_min]:system.first[k - system.k_min + 1]]
                 >= 2).sum() >= 2)
    return system, k


def test_verify_system_accepts_the_uncorrupted_system():
    system, _ = corruptible_system()
    verify_system(system)


def test_cube_records_are_read_only():
    system, k = corruptible_system()
    cube = next(c for c in system.cubes[k] if len(c.members) >= 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cube.members = cube.members[1:]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cube.parent = None
    assert not cube.members.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cube.members[0] = cube.members[-1]
    for arr in (system.first, system.level_rows, system.parent, system.labels):
        assert not arr.flags.writeable


def test_verify_system_rejects_an_empty_cube(line8):
    # every level-0 cube under cube (-1, 0) leaves (-1, 1) with no point
    doc = _system_document(build_system(line8, 0.25))
    doc["parents"]["0"] = [0] * len(doc["parents"]["0"])
    system = from_document(line8, doc)
    assert system.cubes[-1][1].members.size == 0
    with pytest.raises(AssertionError, match="level -1: cube 1 does not hold its center"):
        verify_system(system)


def test_verify_system_rejects_a_parent_two_levels_up(line8):
    # no level's parents can reach two levels up, so the parent array is
    # replaced after construction, as the net tests replace a net
    system = build_system(line8, 0.25)
    parent = system.parent.copy()
    parent[system.first[2]] = 0              # cube (0, 0) under the root (-2, 0)
    system.parent = parent
    with pytest.raises(AssertionError, match="level 0: cube 0 has no parent one level up"):
        verify_system(system)


def test_verify_system_rejects_nets_that_are_not_nested():
    system, k = corruptible_system()
    system.nets[k + 1] = [z for z in system.nets[k + 1] if z != system.nets[k][-1]]
    with pytest.raises(AssertionError, match="nets not nested"):
        verify_system(system)


@pytest.mark.parametrize("repeat", [False, True])
def test_verify_system_rejects_a_net_that_is_not_separated(repeat):
    system, k = corruptible_system()
    # a finer net point outside the level-k net lies within delta^k of it;
    # a point listed twice is at distance 0 from itself
    extra = (system.nets[k][0] if repeat
             else next(z for z in system.nets[k + 1] if z not in system.nets[k]))
    system.nets[k] = system.nets[k] + [extra]
    with pytest.raises(AssertionError, match="is not separated"):
        verify_system(system)
