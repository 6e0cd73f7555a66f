import numpy as np
import pytest

from prodhardy import (RegularFamilyPolicy, adjacent_systems, build_net,
                       build_system, dilate_cube, export_system, import_system,
                       verify_system)

from conftest import line_space


def test_net_single_point():
    sp = line_space([0.0])
    assert build_net(sp, 0.5, 0, []) == [0]


def test_net_greedy_hand_simulation(canon):
    # radius 3 = (1/3)^-1: greedy takes 0, skips 1 and 2 (within 3), takes 10
    assert build_net(canon, 1.0 / 3.0, -1, []) == [0, 3]


def test_net_finest_scale_takes_everything(canon):
    # radius 0.5: all pairwise distances >= 1
    assert build_net(canon, 0.5, 1, []) == [0, 1, 2, 3]


def test_net_rejects_unseparated_seed(canon):
    with pytest.raises(ValueError, match="separated"):
        build_net(canon, 1.0 / 3.0, -1, seed_net=[0, 1])


def test_single_point_system():
    sp = line_space([0.0])
    system = build_system(sp, 0.25)
    assert system.k_min == system.k_max == 0
    assert len(system.cubes[0]) == 1
    verify_system(system)


def test_verify_system_caches_no_member_masks(canon):
    # the inner certificate reads cube members directly, so verifying a
    # system does not leave one cached mask per cube behind
    system = build_system(canon, 0.25)
    verify_system(system)
    assert system._masks == {}


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
        b = dilate_cube(system, cube, 1.0)
        assert set(cube.members.tolist()) <= set(b.members.tolist())


def test_dilate_top_cube_catches_all(canon):
    system = build_system(canon, 0.25)
    top = system.cubes[system.k_min][0]
    assert dilate_cube(system, top, 2.0).measure == canon.total_measure


def test_dilate_singleton_stays_singleton(canon):
    system = build_system(canon, 0.25)
    # level k_max: side 1/4, effective C1 = 2, radius 1/2 < min distance 1
    leaf = system.cubes[system.k_max][0]
    b = dilate_cube(system, leaf, 1.0)
    assert b.measure == leaf.measure
    with pytest.raises(ValueError):
        dilate_cube(system, leaf, 0.5)


def test_geometry_is_built_on_first_use(canon):
    system = build_system(canon, 0.25)
    verify_system(system)
    export_system(system)
    assert "geometry" not in vars(system)       # building a system never needs it
    g = system.geometry
    assert g is system.geometry
    assert g.incidence.shape == (system.n_cubes(), canon.n)
    assert g.parent[0] == -1 and (g.parent[1:] >= 0).all()
    assert not g.incidence.flags.writeable


def test_geometry_first_use_from_threads(line8):
    # threads racing on the first use each get a complete view
    import sys
    from concurrent.futures import ThreadPoolExecutor
    expect = build_system(line8, 0.25).geometry
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                system = build_system(line8, 0.25)
                views = list(pool.map(lambda _: system.geometry, range(8), timeout=60))
                for g in views:
                    np.testing.assert_array_equal(g.incidence, expect.incidence)
                    np.testing.assert_array_equal(g.parent, expect.parent)
                    np.testing.assert_array_equal(g.sides, expect.sides)
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
                b = dilate_cube(system, cube, lam)
                assert b.measure <= (lam * ratio) ** sp.omega * cube.measure + 1e-12


def test_export_import_round_trip(canon):
    system = build_system(canon, 0.25)
    text = export_system(system)
    back = import_system(canon, text)
    assert export_system(back) == text      # bit-exact, parent arrays included
    for k in system.levels():
        for a, c in enumerate(system.cubes[k]):
            assert back.cubes[k][a].parent == c.parent
            assert np.array_equal(back.cubes[k][a].members, c.members)


def test_randomized_family_members_verify(line8):
    policy = RegularFamilyPolicy.auscher_hytonen(line8.a0)
    for seed in range(3):
        system = build_system(line8, 0.25, order_seed=seed)
        rep = verify_system(system, policy)
        assert rep["regular_family_ok"]


def test_adjacent_systems_stub(canon):
    system = build_system(canon, 0.25)
    assert adjacent_systems(system) == [system]


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
