"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured constants.  Tolerances are pinned here, not configurable."""

import math
import time

import numpy as np
import pytest

from prodhardy import (OpenSet, ProductSpace, atomic_decompose, build_haar,
                       build_system, building_blocks, cmo_p, generate_atom,
                       hp_seminorm, journe_check,
                       make_space, product_transform,
                       square_function, strong_maximal, verify_atom, verify_system)
from prodhardy.oracles import cmo_p_exhaustive, strong_maximal_exhaustive

from blocks import block_certificates, recombine
from conftest import cube, flat, key, layer_cake_ratio, line_space, rectangle_mask


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_metric_space(rng, n):
    pts = rng.random((n, 3)) * 10.0
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    return make_space(d)


def random_quasi_metric_space(rng, n, s=1.4):
    pts = rng.random((n, 2)) * 5.0
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)) ** s
    np.fill_diagonal(d, 0.0)
    return make_space(d)


@pytest.fixture(scope="module")
def pspace8():
    sp = line_space(np.arange(8.0))
    return ProductSpace(sp, sp, delta=0.25)


def test_criterion_1_dyadic_axioms():
    t0 = time.time()
    spaces = []
    for seed in range(25):
        rng = np.random.default_rng(seed)
        spaces.append(random_metric_space(rng, int(20 + 7.2 * seed)))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        sp = random_quasi_metric_space(rng, 25 + 5 * seed)
        assert sp.a0 > 1.0
        spaces.append(sp)
    all_ok = True
    for sp in spaces:
        system = build_system(sp, 1.0 / (13.0 * sp.a0 ** 3))
        rep = verify_system(system)     # raises on any exact violation
        all_ok &= rep["conformant_delta"]
        all_ok &= rep["inner_certificate_holds"] and rep["outer_certificate_holds"]
    elapsed = time.time() - t0
    report(1, "dyadic axioms",
           all_ok and elapsed <= 10.0,
           f"30 spaces (max n = {max(s.n for s in spaces)}), certified "
           f"c1=(3a0^2)^-1, C1=2a0C0 hold, {elapsed:.2f}s <= 10s")


def test_criterion_2_basis():
    t0 = time.time()
    rng = np.random.default_rng(0)
    sp = random_metric_space(rng, 64)
    system = build_system(sp, 1.0 / (13.0 * sp.a0 ** 3))
    basis = build_haar(system)
    gram_err = float(np.abs(basis.gram() - np.eye(sp.n)).max())
    counts = {}
    for w in basis.wavelets:
        counts[w.cube] = counts.get(w.cube, 0) + 1
    # N(Q) - 1 wavelets on each cube Q, N(Q) its children in system.parent
    kids = np.bincount(system.parent[system.parent >= 0], minlength=system.n_cubes())
    counts_ok = all(counts.get(key(c), 0) == max(kids[flat(system, c)] - 1, 0)
                    for c in system.all_cubes())
    counts_ok &= basis.n_wavelets == sp.n - 1
    recon_err = 0.0
    for _ in range(100):
        f = rng.standard_normal(sp.n)
        back = basis.matrix.T @ (basis.matrix @ (f * sp.weight))
        fn = math.sqrt(float((f ** 2 * sp.weight).sum()))
        recon_err = max(recon_err,
                        math.sqrt(float(((back - f) ** 2 * sp.weight).sum())) / fn)
    elapsed = time.time() - t0
    report(2, "basis",
           gram_err < 1e-10 and counts_ok and recon_err < 1e-10 and elapsed <= 5.0,
           f"gram {gram_err:.2e} < 1e-10, counts N(Q)-1 ok, recon {recon_err:.2e} "
           f"< 1e-10 on 100 f, {elapsed:.2f}s <= 5s")


def test_criterion_3_building_blocks():
    t0 = time.time()
    rng = np.random.default_rng(1)
    sp = random_metric_space(rng, 64)
    system = build_system(sp, 1.0 / (13.0 * sp.a0 ** 3))
    basis = build_haar(system)
    w_dim = sp.omega
    worst_tel, worst_mean = 0.0, 0.0
    for gamma, cbar in ((w_dim + 1.0, 2.0), (2.0 * w_dim + 1.0, 4.0)):
        for w in basis.wavelets:
            kappa, blocks = building_blocks(sp, w, gamma, cbar)
            psi_t = w.values / kappa
            scale = float(np.abs(psi_t).max())
            worst_tel = max(worst_tel, float(np.abs(recombine(blocks, gamma, cbar)
                                                    - psi_t).max()) / scale)
            for phi in blocks:
                pscale = max(float(np.abs(phi).max()), 1e-300)
                worst_mean = max(worst_mean,
                                 abs(float((phi * sp.weight).sum())) / pscale)
            block_certificates(sp, w, blocks, cbar)    # raises if a support ball leaks
    elapsed = time.time() - t0
    report(3, "building blocks",
           worst_tel <= 1e-12 and worst_mean <= 1e-12 and elapsed <= 10.0,
           f"telescoping {worst_tel:.2e} <= 1e-12 rel, mean {worst_mean:.2e} <= "
           f"1e-12*scale, support radii exact, 63 wavelets x 2 params, "
           f"{elapsed:.2f}s <= 10s")


def test_criterion_4_square_function(pspace8):
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    ratios = []
    for _ in range(100):
        f = pspace8.random_function(rng)
        sf = square_function(pspace8, product_transform(pspace8, f))
        fn = pspace8.lq_norm(f, 2.0)
        worst = max(worst, abs(pspace8.lq_norm(sf, 2.0) - fn) / fn)
        ratios.append(layer_cake_ratio(pspace8, sf))
    elapsed = time.time() - t0
    bracket_ok = all(0.5 <= r <= 2.0 for r in ratios)
    report(4, "square function",
           worst <= 1e-10 and bracket_ok and elapsed <= 5.0,
           f"||Sf||_2 = ||f||_2 err {worst:.2e} <= 1e-10, layer-cake ratio in "
           f"[{min(ratios):.3f}, {max(ratios):.3f}] within [1/2, 2], "
           f"{elapsed:.2f}s <= 5s")


def test_criterion_5_lp_below_hp(pspace8):
    cps = {0.8: [], 1.0: []}
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for p in cps:
            worst = 0.0
            for _ in range(100):
                f = pspace8.random_function(rng)
                lp = float(((np.abs(f) ** p) * pspace8.weights).sum() ** (1 / p))
                worst = max(worst, lp / hp_seminorm(pspace8, f, p))
            cps[p].append(worst)
    ok = True
    detail = []
    for p, vals in cps.items():
        stable = max(vals) / min(vals)
        ok &= all(math.isfinite(v) for v in vals) and stable <= 2.0
        detail.append(f"C_{p}: {min(vals):.3f}..{max(vals):.3f} (x{stable:.2f})")
    report(5, "L^p <= C_p H^p", ok,
           "; ".join(detail) + " over seeds 0-4, stability <= 2x")


def test_criterion_6_journe(pspace8):
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = {0.5: 0.0, 1.0: 0.0, 2.0: 0.0}
    n_checked = 0
    while n_checked < 50:
        mask = rng.random(pspace8.shape) < 0.4
        if not mask.any():
            continue
        n_checked += 1
        om = OpenSet.from_mask(pspace8, mask)
        for d, rep in zip(list(worst), journe_check(pspace8, om, worst)):
            worst[d] = max(worst[d], rep["C1"], rep["C2"])
    c1 = cube(pspace8.systems[0], -1, 0)
    c2 = cube(pspace8.systems[1], -1, 1)
    single = OpenSet.from_mask(pspace8, rectangle_mask(pspace8, c1, c2))
    single_ok = True
    for rep in journe_check(pspace8, single, worst):
        single_ok &= rep["C1"] <= 1.0 and rep["C2"] <= 1.0
    elapsed = time.time() - t0
    report(6, "Journe covering",
           all(math.isfinite(v) for v in worst.values()) and single_ok
           and elapsed <= 30.0,
           f"50 random omegas, max C(delta) = "
           + ", ".join(f"{d}: {v:.3f}" for d, v in sorted(worst.items()))
           + f"; single rectangle <= 1 exactly; {elapsed:.2f}s <= 30s")


def test_criterion_7_forward_decomposition(pspace8):
    rng = np.random.default_rng(4)
    worst_resid = 0.0
    all_verified = True
    constants = []
    for _ in range(50):
        f = pspace8.random_function(rng)
        dec = atomic_decompose(pspace8, f, 1.0, 2.0)
        worst_resid = max(worst_resid, dec.residual)
        all_verified &= all(verify_atom(pspace8, t.atom)["passed"] for t in dec.terms)
        constants.append(dec.report["lam_sum_constant"])
    c_main = max(constants)
    seed_cs = []
    for seed in range(5):
        rng = np.random.default_rng(50 + seed)
        seed_cs.append(max(
            atomic_decompose(pspace8, pspace8.random_function(rng), 1.0, 2.0)
            .report["lam_sum_constant"] for _ in range(10)))
    stable = max(seed_cs) / min(seed_cs)
    both_q_ok = True
    for q in (1.5, 3.0):
        rng = np.random.default_rng(int(q * 100))
        for _ in range(10):
            dec = atomic_decompose(pspace8, pspace8.random_function(rng), 1.0, q)
            both_q_ok &= dec.residual <= 1e-8
            both_q_ok &= all(verify_atom(pspace8, t.atom)["passed"]
                             for t in dec.terms)
    report(7, "forward atomic decomposition",
           worst_resid <= 1e-8 and all_verified and both_q_ok
           and math.isfinite(c_main) and stable <= 2.0,
           f"50 f: residual {worst_resid:.2e} <= 1e-8, all atoms verified, "
           f"sum|lam|^p <= C ||Sf||_p^p with C = {c_main:.3f}, seed stability "
           f"x{stable:.2f} <= 2; q in {{1.5, 3}} pass on 10 f each")


def test_criterion_8_converse_uniform_bound(pspace8):
    rng = np.random.default_rng(5)
    alt1 = build_system(pspace8.x1, 0.25, order_seed=21)
    alt2 = build_system(pspace8.x2, 0.25, order_seed=22)
    alt3 = build_system(pspace8.x1, 0.5, order_seed=23)
    worst = 0.0
    made = alt_count = 0
    while made < 200:
        l1 = int(rng.integers(0, 4))
        l2 = int(rng.integers(0, 4))
        grids = None
        if made % 3 == 0:
            grids = (alt1, alt2) if made % 2 else (alt3, alt2)
        atom = generate_atom(pspace8, rng, 1.0, 2.0, l1, l2, grids=grids)
        if atom is None:
            continue
        made += 1
        alt_count += grids is not None
        worst = max(worst, hp_seminorm(pspace8, atom.values, 1.0))
    report(8, "converse uniform bound",
           math.isfinite(worst) and worst > 0 and alt_count >= 40,
           f"200 (p,q)-atoms (l1,l2 <= 3, {alt_count} on non-reference grids): "
           f"max ||S(a)||_L1 = {worst:.4f}, finite")


def test_criterion_9_oracle_equivalences():
    rng = np.random.default_rng(6)
    micro_pairs = [
        (line_space([0.0, 1.0]), line_space([0.0, 1.0])),
        (line_space([0.0, 1.0]), line_space([0.0, 1.0, 2.5])),
        (line_space([0.0, 1.0, 2.0]), line_space([0.0, 2.0, 3.0, 7.0])),
        (line_space([0.0, 1.0]), line_space([0.0, 1.0, 3.0, 4.0, 9.0])),
    ]
    ms_err = 0.0
    cmo_err = 0.0
    for x1, x2 in micro_pairs:
        ps = ProductSpace(x1, x2, delta=0.5)
        assert x1.n * x2.n <= 12
        for _ in range(3):
            g = rng.standard_normal(ps.shape)
            ms_err = max(ms_err, float(np.abs(
                strong_maximal(ps, g) - strong_maximal_exhaustive(ps, g)).max()))
            f = ps.random_function(rng)
            co = product_transform(ps, f)
            v1 = cmo_p(ps, co, 1.0)
            v2 = cmo_p_exhaustive(ps, co, 1.0)
            cmo_err = max(cmo_err, abs(v1 - v2) / max(v2, 1e-300))
    report(9, "oracle equivalences",
           ms_err == 0.0 and cmo_err <= 1e-10,
           f"strong maximal exact match (err {ms_err}), CMO candidate sup = "
           f"exhaustive sup (rel err {cmo_err:.2e}) on {len(micro_pairs)} micro "
           f"instances <= 12 product points")
