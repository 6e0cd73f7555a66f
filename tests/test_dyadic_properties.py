"""Property tests: a dyadic system's cube tree against a walk up each
point's parent chain, and its measured constants and ball certificates
against the per-cube loops kept beside them in ``dyadic``, and its greedy
nets against the per-point scan.

``C0_measured``, ``inner_tight``, ``outer_tight`` and both certificate
booleans of ``verify_system`` must equal the oracles bit for bit.  Spaces
are the small random factors of ``strategies``, whose many small levels
share one block of the 64-row center pass, and plane clouds of 63-65 and
127-129 points, whose finest levels hold as many cubes, so blocks both
span and split levels; delta is given or chosen by the reference rule.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from prodhardy import build_system, make_space, oracles, verify_system
from prodhardy.oracles import (_build_net_by_point, _certificates_by_cube,
                               _covering_constant_by_net, _tight_constants_by_cube)

from strategies import CHECK, spaces


@CHECK
@given(spaces(), st.sampled_from([0.25, 0.5, 0.9]), st.sampled_from([None, 0, 1, 2, 3]))
def test_cube_tree_equals_the_parent_chain_walk(space, delta, order_seed):
    system = build_system(space, delta, order_seed=order_seed)
    first, nets = system.first, system.nets
    # each parent: the first nearest center one level up
    for l, k in enumerate(system.levels()):
        for alpha, z in enumerate(nets[k]):
            up = (-1 if l == 0 else first[l - 1] + min(
                range(len(nets[k - 1])), key=lambda b: space.dist[z, nets[k - 1][b]]))
            assert system.parent[first[l] + alpha] == up
    walk = np.empty((len(system.levels()), space.n), dtype=int)
    for x in range(space.n):
        a = first[-2] + nets[system.k_max].index(x)          # x's singleton
        for l in reversed(range(len(walk))):
            walk[l, x], a = a, system.parent[a]
    np.testing.assert_array_equal(system.labels, walk)
    for c in system.all_cubes():
        l = c.level - system.k_min
        a = first[l] + c.index
        np.testing.assert_array_equal(c.members, np.flatnonzero(system.labels[l] == a))
        assert c.parent == (None if l == 0 else system.parent[a] - first[l - 1])
        assert c.measure == space.weight[c.members].sum()


@st.composite
def clouds(draw):
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(0.0, 1.0, (n, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, 0.0)
    return make_space(dist ** draw(st.sampled_from([1.0, 1.5])))


@CHECK
@given(st.one_of(spaces(), clouds()), st.sampled_from([0.25, 0.5, 0.9]),
       st.sampled_from([None, 0, 3]))
def test_nets_equal_the_per_point_scan(space, delta, order_seed):
    # every level of build_system's chain: the net seeded with the one above
    # it (the top from scratch), in id order or a permuted order
    system = build_system(space, delta, order_seed=order_seed)
    order = (None if order_seed is None
             else list(np.random.default_rng(order_seed).permutation(space.n)))
    for k in system.levels():
        seed = system.nets[k - 1] if k > system.k_min else []
        assert system.nets[k] == _build_net_by_point(space, delta, k, seed_net=seed, order=order)


@CHECK
@given(st.one_of(spaces(), clouds()), st.sampled_from([None, 0.25, 0.5, 0.9]))
def test_cube_constants_equal_the_oracles(space, delta):
    system = build_system(space, delta)
    rep = verify_system(system)
    assert (system.inner_tight, system.outer_tight) == _tight_constants_by_cube(system)
    assert system.C0_measured == _covering_constant_by_net(system)
    assert ((rep["inner_certificate_holds"], rep["outer_certificate_holds"])
            == _certificates_by_cube(system))


def test_fast_path_never_calls_the_oracles(monkeypatch):
    def refuse(*args):
        raise AssertionError("fast path called a per-cube oracle")

    for name in ("_certificates_by_cube", "_covering_constant_by_net",
                 "_tight_constants_by_cube"):
        monkeypatch.setattr(oracles, name, refuse)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 1.0, (70, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, 0.0)
    for delta in (None, 0.5):
        rep = verify_system(build_system(make_space(dist), delta))
        assert rep["C1_measured_tight"] > 0.0
