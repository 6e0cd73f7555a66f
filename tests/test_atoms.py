import math

import numpy as np
import pytest

from prodhardy import (ChannelError, OpenSet, ProductSpace, atomic_decompose,
                       double_center, enlarge, epsilon0, equivalence_report, generate_atom, hp_seminorm, level_sets,
                       make_space, product_transform, square_function, verify_atom)
from prodhardy.atoms import ProductAtom, _lams
from prodhardy.dyadic import build_system


def product_pair(pspace, i, j):
    return np.outer(pspace.bases[0].wavelets[i].values,
                    pspace.bases[1].wavelets[j].values)


def corner(pspace) -> OpenSet:
    """The open set of the one grid point (0, 0)."""
    mask = np.zeros(pspace.shape, dtype=bool)
    mask[0, 0] = True
    return OpenSet.from_mask(pspace, mask)


def reconstruct(dec, shape) -> np.ndarray:
    """sum_t lambda_t a_t, the function a decomposition writes as atoms."""
    out = np.zeros(shape)
    for t in dec.terms:
        out += t.lam * t.atom.values
    return out


def test_zero_function_empty_decomposition(pspace8):
    dec = atomic_decompose(pspace8, np.zeros(pspace8.shape), 1.0, 2.0)
    assert not dec.terms and dec.residual == 0.0
    assert dec.report["lam_sum"] == 0.0


def assert_exact_verified(pspace, f, dec, q):
    assert dec.terms
    recon = sum(t.lam * t.atom.values for t in dec.terms)
    assert pspace.lq_norm(recon - f, q) / pspace.lq_norm(f, q) <= 1e-8
    assert all(verify_atom(pspace, t.atom)["passed"] for t in dec.terms)


def test_small_functions_decompose(pspace8):
    # coefficients below 1e-14 are selected relative to the largest one
    rng = np.random.default_rng(20)
    f = 1e-15 * pspace8.random_function(rng)
    assert_exact_verified(pspace8, f, atomic_decompose(pspace8, f, 1.0, 2.0), 2.0)


def test_tiny_weights_decompose(line8):
    x = make_space(line8.dist, line8.weight * 1e-30)
    ps = ProductSpace(x, x, delta=0.25)
    f = ps.random_function(np.random.default_rng(21))
    assert_exact_verified(ps, f, atomic_decompose(ps, f, 1.0, 2.0), 2.0)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-320])
def test_coefficients_without_normal_square_rejected(pspace8, scale):
    f = double_center(pspace8, np.random.default_rng(22).standard_normal(pspace8.shape))
    with pytest.raises(ValueError, match="largest wavelet coefficient"):
        atomic_decompose(pspace8, scale * f, 1.0, 2.0)


def rounding_case(name):
    if name == "block":
        # six decades of weight on three points (omega ~ 20): a building block
        # is a small difference of large pieces and keeps 1e-10 of its mass
        # in its mean
        d = np.array([[0.0, 1.0, 2.0 ** 1.5], [1.0, 0.0, 1.0], [2.0 ** 1.5, 1.0, 0.0]])
        x1 = make_space(np.array([[0.0, 1.0], [1.0, 0.0]]), np.full(2, 1e3))
        x2 = make_space(d, 1e3 * np.array([1e-2, 1e-3, 1e3]))
        return ProductSpace(x1, x2, delta=0.25), 1.0, 2.0, 0
    if name == "contributions":
        # blocks within ~1e-12 of mean zero whose pair contributions to one
        # rectangle atom nearly cancel, leaving 2e-10 of its mass
        d1 = np.array([[0, 2, 1, 1, 1], [2, 0, 1, 3, 1], [1, 1, 0, 2, 3],
                       [1, 3, 2, 0, 1], [1, 1, 3, 1, 0]], dtype=float)
        d2 = np.ones((4, 4)) - np.eye(4)
        d2[0, 1] = d2[1, 0] = 2.0
        x1 = make_space(d1, 1e3 * np.array([0.01, 0.01, 10.0, 10.0, 1.0]))
        x2 = make_space(d2, 1e3 * np.array([1000.0, 1000.0, 1000.0, 10.0]))
        return ProductSpace(x1, x2, delta=0.25), 1.0, 2.0, 1
    if name == "slow-passes":
        # weights over four decades: each column-then-row pass shrinks the
        # worst line's share only about sixfold, and two passes left 1.3e-10
        pts = np.array([0.0, 5.0, 7.0, 4.0])
        x1 = make_space(np.abs(pts[:, None] - pts[None, :]) ** 1.5,
                        1e-30 * np.array([1.0, 0.1, 1e-3, 1e3]))
        x2 = make_space(np.abs(np.arange(5.0)[:, None] - np.arange(5.0)[None, :]),
                        np.full(5, 1e-30))
        return ProductSpace(x1, x2, delta=0.5), 1.0, 2.0, 0
    # a heavy point where the wavelet is tiny: a column of rounding-level
    # entries, whose integral is noise of its own size
    pts = np.array([0.0, 1.0, 7.0, 6.0, -2.0])
    x1 = make_space(np.abs(pts[:, None] - pts[None, :]) ** 1.5,
                    np.array([1e-3, 1e-2, 1e-2, 10.0, 10.0]))
    x2 = make_space(np.array([[0.0, 5.0, 6.0], [5.0, 0.0, 1.0], [6.0, 1.0, 0.0]]),
                    np.array([1e-2, 1e3, 1e-2]))
    return ProductSpace(x1, x2, delta=0.5), 0.8, 1.5, 28029


@pytest.mark.parametrize("name", ["block", "contributions", "slow-passes",
                                  "noise-column"])
def test_atoms_cancel_despite_rounding(name):
    ps, p, q, seed = rounding_case(name)
    f = ps.random_function(np.random.default_rng(seed))
    assert_exact_verified(ps, f, atomic_decompose(ps, f, p, q), q)


def test_single_wavelet_hand_trace(pspace8):
    f = product_pair(pspace8, 1, 3)
    dec = atomic_decompose(pspace8, f, 1.0, 2.0)
    # one classified rectangle, one j-shell: provenance j identical across terms
    js = {t.provenance[0] for t in dec.terms}
    assert len(js) == 1
    c1, c2 = pspace8.wavelet_rectangle(1, 3)
    mu = c1.measure * c2.measure
    # the j-shell is the largest j with 2^j < mu^(-1/2)
    (jstar,) = js
    assert 2.0 ** jstar < mu ** -0.5 <= 2.0 ** (jstar + 1)
    # reconstruction is exact and the lambda-sum compares to ||Sf||_p^p = mu^(1-p/2)
    assert dec.residual <= 1e-12
    assert dec.report["sf_p_norm"] == pytest.approx(mu ** 0.5, rel=1e-12)
    assert 0 < dec.report["lam_sum"] < math.inf
    for t in dec.terms:
        assert verify_atom(pspace8, t.atom)["passed"]


def test_random_functions_reconstruct_and_verify(pspace8):
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = pspace8.random_function(rng)
        dec = atomic_decompose(pspace8, f, 1.0, 2.0)
        assert dec.residual <= 1e-8
        assert math.isfinite(dec.report["lam_sum_constant"])
        for t in dec.terms:
            cert = verify_atom(pspace8, t.atom)
            assert cert["passed"], cert["failures"]


@pytest.mark.parametrize("q", [1.5, 3.0])
def test_both_q_branches(pspace8, q):
    rng = np.random.default_rng(1)
    for _ in range(3):
        f = pspace8.random_function(rng)
        dec = atomic_decompose(pspace8, f, 1.0, q)
        assert dec.residual <= 1e-8
        for t in dec.terms:
            cert = verify_atom(pspace8, t.atom)
            assert cert["passed"], cert["failures"]
            if q < 2:
                assert "C_q_delta_iii_b" in cert
                assert cert["delta_default"] == pytest.approx(q / 2.0)
            else:
                assert "C_q_iii_a" in cert


def test_gamma_constraint_rejected(pspace8):
    f = product_pair(pspace8, 0, 0)
    lo = pspace8.x1.omega * (1.0 + 0.5)
    with pytest.raises(ValueError, match="gamma constraint"):
        atomic_decompose(pspace8, f, 1.0, 2.0, gamma1=lo, gamma2=lo)


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_non_finite_gamma_rejected(pspace8, gamma):
    # NaN fails no plain `gamma <= lo` test and inf passes it
    f = product_pair(pspace8, 0, 0)
    with pytest.raises(ValueError, match="gamma constraint"):
        atomic_decompose(pspace8, f, 1.0, 2.0, gamma2=gamma)


@pytest.mark.parametrize("q", [1.0, np.nan, np.inf])
def test_q_outside_the_finite_range_rejected(pspace8, q):
    with pytest.raises(ValueError, match="q must be a finite number above 1"):
        atomic_decompose(pspace8, product_pair(pspace8, 0, 0), 1.0, q)


def test_non_mean_zero_rejected(pspace8):
    f = np.ones(pspace8.shape)
    with pytest.raises(ChannelError) as exc:
        atomic_decompose(pspace8, f, 1.0, 2.0)
    assert "ss" in exc.value.norms


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_point_factor_centers_to_zero_and_still_rejects(n):
    rng = np.random.default_rng(n)
    pts = np.cumsum(np.r_[0.0, 10.0 ** rng.uniform(-2, 1, n - 1)])
    one = make_space(np.zeros((1, 1)), np.array([10.0 ** rng.uniform(-2, 2)]))
    line = make_space(np.abs(pts[:, None] - pts[None, :]), 10.0 ** rng.uniform(-2, 2, n))
    for ps in (ProductSpace(one, line), ProductSpace(line, one)):
        f = double_center(ps, rng.standard_normal(ps.shape))
        assert not f.any()
        dec = atomic_decompose(ps, f, 1.0, 2.0)
        assert dec.terms == [] and dec.residual == 0.0
        with pytest.raises(ChannelError):
            atomic_decompose(ps, np.ones(ps.shape), 1.0, 2.0)


def test_hand_centred_function_on_a_one_point_factor_gets_no_terms():
    # centring by the two weighted means written out leaves rounding of the
    # uncentred draw, all of it in the mean over the one point (62 of these
    # 300 draws keep some); measured against itself, that channel would fail
    rng = np.random.default_rng(1)
    for _ in range(300):
        w = 10.0 ** rng.uniform(-2, 2, 3)
        d = 10.0 ** rng.uniform(-2, 1)
        one = make_space(np.zeros((1, 1)), w[:1])
        two = make_space(np.array([[0.0, d], [d, 0.0]]), w[1:])
        ps = ProductSpace(one, two)
        g = rng.standard_normal(ps.shape)
        f = g - (one.weight @ g)[None, :] / one.weight.sum()
        f = f - (f @ two.weight)[:, None] / two.weight.sum()
        dec = atomic_decompose(ps, f, 1.0, 2.0)
        assert dec.terms == []
        assert dec.residual == (1.0 if f.any() else 0.0)     # the residue is left over


@pytest.mark.parametrize("two_first", [False, True], ids=["1x2", "2x1"])
def test_hand_centred_x1_first_in_both_factor_orders_never_gets_terms(two_first):
    # centred over x1 and then over x2: on 1 x 2 the one-point mean comes
    # first, and the last centring leaves the mean over both factors at the
    # rounding of the residue; on 2 x 1 the one-point mean comes last and
    # leaves a residue whose mean over both factors is as large as itself,
    # which the scale-free channel test cannot tell from an uncentred draw,
    # so some of these raise
    rng = np.random.default_rng(0)
    raised = 0
    for _ in range(300):
        w = 10.0 ** rng.uniform(-2, 2, 3)
        d = 10.0 ** rng.uniform(-2, 1)
        one = make_space(np.zeros((1, 1)), w[2:] if two_first else w[:1])
        two = make_space(np.array([[0.0, d], [d, 0.0]]), w[:2] if two_first else w[1:])
        ps = ProductSpace(two, one) if two_first else ProductSpace(one, two)
        g = rng.standard_normal(ps.shape)
        f = g - (ps.x1.weight @ g)[None, :] / ps.x1.weight.sum()
        f = f - (f @ ps.x2.weight)[:, None] / ps.x2.weight.sum()
        try:
            dec = atomic_decompose(ps, f, 1.0, 2.0)
        except ChannelError:
            raised += 1
            continue
        assert dec.terms == [] and dec.residual == (1.0 if f.any() else 0.0)
    if not two_first:
        assert raised == 0


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (1, 3), (3, 1)])
def test_mass_over_a_one_point_factor_is_left_over_in_full(shape):
    # centred along the factor of several points only, f is all in the mean
    # over the one point, which no scale-free test tells from rounding: it
    # gets no terms and a residual of 1, which `decompose` does not pass
    rng = np.random.default_rng(5)
    x1, x2 = (make_space(np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float),
                         10.0 ** rng.uniform(-2, 2, n)) for n in shape)
    ps = ProductSpace(x1, x2)
    g = rng.standard_normal(ps.shape)
    if shape[0] > 1:
        f = g - (x1.weight @ g)[None, :] / x1.weight.sum()
    else:
        f = g - (g @ x2.weight)[:, None] / x2.weight.sum()
    for h in (f, 1e-12 * f):
        dec = atomic_decompose(ps, h, 1.0, 2.0)
        assert dec.terms == [] and dec.residual == 1.0
        assert equivalence_report(ps, [h], 1.0, 2.0)["per_function"][0]["residual"] == 1.0
    if shape == (2, 1):
        pair = ProductSpace(make_space(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2)),
                            make_space(np.zeros((1, 1)), np.ones(1)))
        dec = atomic_decompose(pair, np.array([[1.0], [-1.0]]), 1.0, 2.0)
        assert dec.terms == [] and dec.residual == 1.0


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (3, 3)])
def test_real_mixed_channel_mass_still_raises(shape):
    rng = np.random.default_rng(4)
    x1, x2 = (make_space(np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float),
                         10.0 ** rng.uniform(-2, 2, n)) for n in shape)
    ps = ProductSpace(x1, x2)
    g = rng.standard_normal(ps.shape)
    with pytest.raises(ChannelError):
        atomic_decompose(ps, g, 1.0, 2.0)                  # nothing centred
    with pytest.raises(ChannelError):
        atomic_decompose(ps, np.ones(ps.shape), 1.0, 2.0)   # scaling x scaling mass
    if min(shape) > 1:
        # mean-zero along x2 only: its x1-mean is left, in the sw channel
        with pytest.raises(ChannelError) as exc:
            atomic_decompose(ps, g - (g @ x2.weight)[:, None] / x2.weight.sum(), 1.0, 2.0)
        assert exc.value.norms["sw"] > 1e-3 * exc.value.norms["ww"]


def test_classification_membership_facts(pspace8):
    """Independent re-derivation: majority mass in Omega_j, not in Omega_{j+1},
    mu(R \\ Omega_{j+1}) >= mu(R)/2, and R inside the eps0 enlargement."""
    rng = np.random.default_rng(2)
    f = pspace8.random_function(rng)
    co = product_transform(pspace8, f)
    sf = square_function(pspace8, co)
    sets = level_sets(pspace8, sf)
    eps0 = epsilon0(pspace8)
    seen = set()
    for i in range(co.n_wav[0]):
        for j in range(co.n_wav[1]):
            if abs(co.ww[i, j]) < 1e-12:
                continue
            c1, c2 = pspace8.wavelet_rectangle(i, j)
            if c1.id + c2.id in seen:
                continue
            seen.add(c1.id + c2.id)
            rm = pspace8.rectangle_mask(c1, c2)
            mu = c1.measure * c2.measure
            w = pspace8.weights
            hits = [jj for jj in sets if w[rm & sets[jj].mask].sum() > mu / 2.0]
            assert hits, "every nonzero rectangle must classify"
            jstar = max(hits)
            nxt = sets[jstar + 1].mask if jstar + 1 in sets else np.zeros_like(rm)
            inside_next = w[rm & nxt].sum()
            assert inside_next <= mu / 2.0            # unique B_j
            assert mu - inside_next >= mu / 2.0       # mu(R minus Omega_{j+1}) >= mu(R)/2
            om_t = enlarge(pspace8, sets[jstar], eps0)
            assert not (rm & ~om_t.mask).any()        # R inside the enlargement


def test_reconstruction_matches_ww_channel_only(pspace8):
    rng = np.random.default_rng(3)
    f = pspace8.random_function(rng)
    dec = atomic_decompose(pspace8, f, 1.0, 2.0)
    recon = reconstruct(dec, pspace8.shape)
    assert pspace8.lq_norm(recon - f, 2.0) <= 1e-10 * pspace8.lq_norm(f, 2.0)


def test_scaling_homogeneity_power_of_two(pspace8):
    rng = np.random.default_rng(4)
    f = pspace8.random_function(rng)
    base = atomic_decompose(pspace8, f, 1.0, 2.0)
    hp = hp_seminorm(pspace8, f, 1.0)
    for t in (4.0, 1024.0):
        dec = atomic_decompose(pspace8, t * f, 1.0, 2.0)
        assert dec.report["lam_sum"] == pytest.approx(t * base.report["lam_sum"], rel=1e-10)
        assert hp_seminorm(pspace8, t * f, 1.0) == pytest.approx(t * hp, rel=1e-12)


def test_verify_hand_built_single_rectangle_atom(pspace8):
    rng = np.random.default_rng(5)
    s1, s2 = pspace8.systems
    c1, c2 = s1.cube(-1, 0), s2.cube(-1, 1)
    om = OpenSet.from_mask(pspace8, pspace8.rectangle_mask(c1, c2))
    om_t = enlarge(pspace8, om, epsilon0(pspace8))
    from prodhardy import maximal_rectangles
    key = sorted(maximal_rectangles(pspace8, om_t, "both").m_all)[0]
    lam1, lam2 = _lams(pspace8, 0, 0)
    from prodhardy.dyadic import dilate_mask
    u = dilate_mask(s1, s1.cube(*key[:2]), lam1)
    v = dilate_mask(s2, s2.cube(*key[2:]), lam2)
    block = rng.standard_normal((int(u.sum()), int(v.sum())))
    wu, wv = pspace8.x1.weight[u], pspace8.x2.weight[v]
    block -= np.outer(np.ones(len(wu)), wu @ block) / wu.sum()
    block -= np.outer(block @ wv, np.ones(len(wv))) / wv.sum()
    vals = np.zeros(pspace8.shape)
    vals[np.ix_(u, v)] = block
    atom = ProductAtom(values=vals, omega=om, ell1=0, ell2=0, p=1.0, q=2.0,
                       grids=pspace8.systems, rectangle_atoms={key: vals})
    cert = verify_atom(pspace8, atom)
    assert cert["passed"], cert["failures"]
    growth = om_t.measure      # ell = 0: growth factor 1
    assert cert["C_q_size"] == pytest.approx(
        pspace8.lq_norm(vals, 2.0) / growth ** (0.5 - 1.0), rel=1e-12)


def test_verify_zero_atom(pspace8):
    om = corner(pspace8)
    atom = ProductAtom(values=np.zeros(pspace8.shape), omega=om, ell1=0, ell2=0,
                       p=1.0, q=2.0, grids=pspace8.systems, rectangle_atoms={})
    cert = verify_atom(pspace8, atom)
    assert cert["passed"] and cert["C_q_size"] == 0.0


def test_verify_detects_broken_cancellation(pspace8):
    rng = np.random.default_rng(6)
    atom = None
    while atom is None:
        atom = generate_atom(pspace8, rng, 1.0, 2.0, 0, 0)
    key, vals = next(iter(atom.rectangle_atoms.items()))
    bad = vals.copy()
    bad[vals != 0] += np.abs(vals).max()
    atom.rectangle_atoms[key] = bad
    atom.values = atom.values - vals + bad
    cert = verify_atom(pspace8, atom)
    assert not cert["passed"]
    assert any("(3)(ii)" in f for f in cert["failures"])


def test_cancellation_check_is_scale_invariant():
    # weights near 1e6: a row's integral of the atom carries round-off near
    # 1e-16 of its integral of |a|, far above 1e-10 max|a|, so the check must
    # scale with the weights, not with the values
    pts = np.arange(6.0)
    dist = np.abs(pts[:, None] - pts[None, :])
    for seed in range(8):
        rng = np.random.default_rng([seed, 6])
        ps = ProductSpace(make_space(dist, np.exp(rng.uniform(-2.0, 2.0, 6)) * 1e6),
                          make_space(dist, np.exp(rng.uniform(-2.0, 2.0, 6)) * 1e6),
                          delta=0.25)
        atom = generate_atom(ps, rng, 1.0, 2.0, 0, 0)
        assert atom is not None
        cert = verify_atom(ps, atom)
        assert cert["passed"], cert["failures"]


def test_atom_hp_bound_zero(pspace8):
    om = corner(pspace8)
    atom = ProductAtom(values=np.zeros(pspace8.shape), omega=om, ell1=0, ell2=0,
                       p=1.0, q=2.0, grids=pspace8.systems, rectangle_atoms={})
    assert hp_seminorm(pspace8, atom.values, 1.0) == 0.0


def test_atom_hp_bound_single_wavelet_two_paths(pspace8):
    lam = 3.7
    f = product_pair(pspace8, 2, 2)
    om = corner(pspace8)
    atom = ProductAtom(values=f / lam, omega=om, ell1=0, ell2=0, p=1.0, q=2.0,
                       grids=pspace8.systems, rectangle_atoms={})
    got = hp_seminorm(pspace8, atom.values, 1.0)
    # path 1: the module's seminorm of f, normalized
    assert got == pytest.approx(hp_seminorm(pspace8, f, 1.0) / lam, rel=1e-12)
    # path 2: closed form for a single term, mu(R)^(1/p - 1/2) / lam
    c1, c2 = pspace8.wavelet_rectangle(2, 2)
    mu = c1.measure * c2.measure
    assert got == pytest.approx(mu ** 0.5 / lam, rel=1e-12)


def test_generated_atom_corpus_uniform_bound(pspace8):
    rng = np.random.default_rng(7)
    alt1 = build_system(pspace8.x1, 0.25, order_seed=5)
    alt2 = build_system(pspace8.x2, 0.25, order_seed=9)
    worst = 0.0
    made = 0
    while made < 25:
        l1, l2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        grids = (alt1, alt2) if made % 3 == 0 else None
        atom = generate_atom(pspace8, rng, 1.0, 2.0, l1, l2, grids=grids)
        if atom is None:
            continue
        made += 1
        cert = verify_atom(pspace8, atom)
        assert cert["passed"], cert["failures"]
        assert cert["C_q_size"] == pytest.approx(1.0, rel=1e-10)   # budget-normalized
        worst = max(worst, hp_seminorm(pspace8, atom.values, 1.0))
    assert math.isfinite(worst) and worst > 0


def test_generated_atom_q_small_branch(pspace8):
    rng = np.random.default_rng(8)
    atom = None
    while atom is None:
        atom = generate_atom(pspace8, rng, 1.0, 1.5, 1, 0)
    cert = verify_atom(pspace8, atom)
    assert cert["passed"], cert["failures"]
    assert set(cert["C_q_delta_iii_b"]) >= {0.5, 1.0, 2.0, 0.75}


def test_c_q_regression_guard(pspace8):
    """Condition-(2) constants: corpus-level max is seed-stable within 2x.

    Individual atoms spread wider (observed up to ~3x between single corpus
    functions); the guard is on the seeded-corpus aggregate plus an absolute
    band pinned from the observed runs.
    """
    maxima = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        cqs = []
        for _ in range(10):
            f = pspace8.random_function(rng)
            dec = atomic_decompose(pspace8, f, 1.0, 2.0)
            cqs.extend(verify_atom(pspace8, t.atom)["C_q_size"] for t in dec.terms)
        maxima.append(max(cqs))
        assert all(0.05 < c < 10.0 for c in cqs)
    assert max(maxima) / min(maxima) <= 2.0


def test_gamma_degradation_monotone(pspace8):
    """lambda-sum constant grows monotonically as gamma drops to the bound."""
    rng = np.random.default_rng(11)
    f = pspace8.random_function(rng)
    lo = pspace8.x1.omega * (1.0 + 0.5)      # p = 1, q = 2: omega (1/p + 1/q')
    cs = []
    for g in (lo + 0.05, lo + 0.3, lo + 1.0, lo + 2.0):
        dec = atomic_decompose(pspace8, f, 1.0, 2.0, gamma1=g, gamma2=g)
        assert dec.residual <= 1e-8
        cs.append(dec.report["lam_sum_constant"])
    print("gamma degradation toward the constraint boundary:", cs)
    assert all(a >= b for a, b in zip(cs, cs[1:]))


def test_equivalence_report(pspace8):
    rng = np.random.default_rng(9)
    corpus = [product_pair(pspace8, 0, 1)] + [pspace8.random_function(rng)
                                              for _ in range(3)]
    rep = equivalence_report(pspace8, corpus, 1.0, 2.0)
    assert rep["all_finite"]
    lo, hi = rep["upper_ratio_range"]
    assert 0 < lo <= hi < math.inf
    assert math.isfinite(rep["max_sa_p"])
    with pytest.raises(ValueError, match="empty corpus"):
        equivalence_report(pspace8, [], 1.0, 2.0)


def test_equivalence_report_accepts_a_generator(pspace8):
    rng = np.random.default_rng(9)
    corpus = [pspace8.random_function(rng) for _ in range(2)]
    rep = equivalence_report(pspace8, (f for f in corpus), 1.0, 2.0)
    assert len(rep["per_function"]) == 2
    assert rep == equivalence_report(pspace8, corpus, 1.0, 2.0)
    with pytest.raises(ValueError, match="empty corpus"):
        equivalence_report(pspace8, iter([]), 1.0, 2.0)


def test_atoms_on_alternate_grid_verify_against_their_own_grids(pspace8):
    rng = np.random.default_rng(10)
    alt1 = build_system(pspace8.x1, 0.5, order_seed=1)
    alt2 = build_system(pspace8.x2, 0.5, order_seed=2)
    atom = None
    while atom is None:
        atom = generate_atom(pspace8, rng, 1.0, 2.0, 0, 1, grids=(alt1, alt2))
    assert atom.grids == (alt1, alt2)
    cert = verify_atom(pspace8, atom)
    assert cert["passed"], cert["failures"]
    assert math.isfinite(hp_seminorm(pspace8, atom.values, 1.0))
