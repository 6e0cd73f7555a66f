import math

import numpy as np
import pytest

from prodhardy import build_haar, build_system, building_blocks
from prodhardy.wavelet import _ramp

from blocks import block_certificates, recombine
from conftest import line_space


def test_two_point_haar_values(two_pt):
    basis = build_haar(build_system(two_pt, 0.5))
    assert basis.n_wavelets == 1
    np.testing.assert_allclose(basis.wavelets[0].values,
                               [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)


def test_two_point_weighted_haar():
    w1, w2 = 1.0, 3.0
    sp = line_space([0.0, 1.0], weights=[w1, w2])
    basis = build_haar(build_system(sp, 0.5))
    expect = [math.sqrt(w2 / (w1 * (w1 + w2))), -math.sqrt(w1 / (w2 * (w1 + w2)))]
    np.testing.assert_allclose(basis.wavelets[0].values, expect, atol=1e-15)


def test_wavelet_count_is_n_minus_one(canon, line8):
    for sp in (canon, line8):
        basis = build_haar(build_system(sp, 0.25))
        assert basis.n_wavelets == sp.n - 1


def test_counts_match_children_cube_by_cube(canon):
    system = build_system(canon, 0.25)
    basis = build_haar(system)
    per_cube = {}
    for w in basis.wavelets:
        per_cube[w.cube] = per_cube.get(w.cube, 0) + 1
    # each cube's children, read off the parent array
    kids = np.bincount(system.parent[system.parent >= 0], minlength=system.n_cubes())
    for c in system.all_cubes():
        assert per_cube.get(c.id, 0) == max(kids[system.flat(*c.id)] - 1, 0)


def test_wavelets_mean_zero_unit_norm_supported(canon):
    system = build_system(canon, 0.25)
    basis = build_haar(system)
    for w in basis.wavelets:
        norm = float((w.values ** 2 * canon.weight).sum())
        assert abs(float((w.values * canon.weight).sum())) <= 1e-12 * math.sqrt(norm)
        assert norm == pytest.approx(1.0, abs=1e-12)
        outside = np.ones(canon.n, dtype=bool)
        outside[system.cube(*w.cube).members] = False
        assert not w.values[outside].any()


def test_gram_identity(line8):
    basis = build_haar(build_system(line8, 0.25))
    g = basis.gram()
    assert np.abs(g - np.eye(line8.n)).max() < 1e-10


def test_transform_of_scaling_and_wavelets(line8):
    # the weighted pairings <f, psi> are one product with the basis matrix
    basis = build_haar(build_system(line8, 0.25))
    c = basis.matrix @ (basis.scaling * line8.weight)
    expect = np.zeros(line8.n)
    expect[-1] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-12)
    c = basis.matrix @ (basis.wavelets[2].values * line8.weight)
    expect = np.zeros(line8.n)
    expect[2] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-12)


def test_reconstruction_and_parseval(line8):
    basis = build_haar(build_system(line8, 0.25))
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.standard_normal(line8.n)
        c = basis.matrix @ (f * line8.weight)
        back = basis.matrix.T @ c
        fn = math.sqrt(float((f ** 2 * line8.weight).sum()))
        err = math.sqrt(float(((back - f) ** 2 * line8.weight).sum()))
        assert err <= 1e-10 * fn
        # quadrature oracle for the L2 norm
        assert abs(float((c ** 2).sum()) - fn ** 2) <= 1e-10 * fn ** 2


def test_cutoff_plateau_and_vanishing(canon):
    h = _ramp(canon, 0, 4.0)
    assert h[0] == 1.0                             # d = 0 <= R0/4
    assert h[1] == 1.0                             # d = 1 = R0/4
    assert h[3] == 0.0                             # d = 10 >= a0^2 R0 = 4
    # mid ramp, by the formula: (4 - 2) / (4 - 1)
    assert h[2] == pytest.approx((4.0 - 2.0) / (4.0 - 1.0), abs=1e-15)


def blocks_oracle(space, wavelet, gamma, cbar):
    """Direct evaluation of the five defining formulas, test-local."""
    kappa = math.sqrt(float(space.weight[space.ball_mask(wavelet.center, wavelet.scale)].sum()))
    psi = wavelet.values / kappa
    supp = wavelet.values != 0

    def h(ell):
        r0 = cbar * 2.0 ** ell * wavelet.scale
        top = space.a0 ** 2 * r0
        return np.clip((top - space.dist[wavelet.center]) / (top - r0 / 4), 0.0, 1.0)

    L = 0
    while not (h(L)[supp] == 1.0).all():
        L += 1
    lam = [h(0) * psi] + [(h(l) - h(l - 1)) * psi for l in range(1, L + 1)]
    a = [float((x * space.weight).sum()) for x in lam]
    s = np.cumsum(a)
    xi = [h(l) / float((h(l) * space.weight).sum()) for l in range(L + 2)]
    out = []
    for l in range(L + 1):
        lt = lam[l] + (s[l - 1] * xi[l] if l > 0 else 0.0)
        if l < L:
            lt = lt - s[l] * xi[l + 1]
        out.append((cbar * 2.0 ** l) ** gamma * lt)
    return out


def test_blocks_match_hand_telescoping(two_pt, canon):
    # the block array holds the floats of the formulas evaluated block by block
    decades = line_space([0.0, 1.0, 3.0, 7.0, 15.0, 40.0], [1e-4, 1.0, 1e3, 10.0, 1e-2, 5.0])
    for space, delta in ((two_pt, 0.5), (canon, 0.25), (decades, 0.5)):
        for w in build_haar(build_system(space, delta)).wavelets:
            for gamma, cbar in ((space.omega + 1.0, 2.0), (2.0 * space.omega + 1.0, 1.0)):
                kappa, blocks = building_blocks(space, w, gamma, cbar)
                oracle = np.array(blocks_oracle(space, w, gamma, cbar))
                assert kappa == math.sqrt(float(space.weight[
                    space.ball_mask(w.center, w.scale)].sum()))
                assert blocks.shape == oracle.shape and not blocks.flags.writeable
                assert blocks.tobytes() == oracle.tobytes()


def test_blocks_telescoping_mean_zero_support(canon):
    basis = build_haar(build_system(canon, 0.25))
    gamma = canon.omega + 1.0
    for w in basis.wavelets:
        kappa, blocks = building_blocks(canon, w, gamma, cbar=2.0)
        psi_t = w.values / kappa
        recon = recombine(blocks, gamma, 2.0)
        scale = np.abs(psi_t).max()
        assert np.abs(recon - psi_t).max() <= 1e-12 * scale
        for phi in blocks:
            mean = abs(float((phi * canon.weight).sum()))
            assert mean <= 1e-12 * max(np.abs(phi).max(), 1e-300)
        certs = block_certificates(canon, w, blocks, 2.0)   # raises if support leaks
        assert math.isfinite(certs["boundedness"])
        assert math.isfinite(certs["holder"])


def test_single_block_case(two_pt):
    basis = build_haar(build_system(two_pt, 0.5))
    w = basis.wavelets[0]
    # support radius from the center is 1 = scale; cbar/4 * scale >= 1 forces L = 0
    cbar, gamma = 4.0 / w.scale, two_pt.omega + 1.0
    kappa, blocks = building_blocks(two_pt, w, gamma, cbar)
    assert len(blocks) == 1
    np.testing.assert_allclose(blocks[0], cbar ** gamma * w.values / kappa, atol=1e-12)


def test_blocks_reject_small_gamma(canon):
    basis = build_haar(build_system(canon, 0.25))
    with pytest.raises(ValueError, match="gamma"):
        building_blocks(canon, basis.wavelets[0], gamma=canon.omega, cbar=2.0)
    with pytest.raises(ValueError, match="cbar"):
        building_blocks(canon, basis.wavelets[0], gamma=canon.omega + 1, cbar=0.5)
