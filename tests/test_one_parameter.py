"""One-parameter sanity harness: the same machinery on a single factor.

Classical-style atoms (ball support, mean zero, L2 size mu(B)^(1/2 - 1/p))
run through the factor wavelet transform and the one-parameter square
function; the corpus maximum of ||S1(a)||_{L^p} stays finite and order one.
"""

import math

import numpy as np

from prodhardy import build_haar, build_system

from conftest import cube, line_space, member_mask


def one_parameter_square_function(basis, system, f):
    c = basis.matrix @ (f * basis.space.weight)
    s2 = np.zeros(basis.space.n)
    for i, w in enumerate(basis.wavelets):
        q = cube(system, *w.cube)
        s2 += c[i] ** 2 / q.measure * member_mask(system, q)
    return np.sqrt(s2)


def make_cw_atom(space, rng, p):
    center = int(rng.integers(space.n))
    radius = float(rng.choice(np.unique(space.dist[center])[1:]) * 1.01) \
        if space.n > 1 else 1.0
    members = np.flatnonzero(space.ball_mask(center, radius))
    if len(members) < 2:
        return None
    vals = np.zeros(space.n)
    block = rng.standard_normal(len(members))
    w = space.weight[members]
    block -= (block @ w) / w.sum()
    vals[members] = block
    l2 = math.sqrt(float((vals ** 2 * space.weight).sum()))
    if l2 == 0:
        return None
    return vals * (float(w.sum()) ** (0.5 - 1.0 / p) / l2), members


def test_one_parameter_atoms_have_bounded_square_function():
    sp = line_space(np.arange(8.0))
    system = build_system(sp, 0.25)
    basis = build_haar(system)
    rng = np.random.default_rng(0)
    worst = 0.0
    made = 0
    while made < 50:
        out = make_cw_atom(sp, rng, p=1.0)
        if out is None:
            continue
        vals, members = out
        made += 1
        assert abs(float((vals * sp.weight).sum())) <= 1e-12
        outside = np.ones(sp.n, dtype=bool)
        outside[members] = False
        assert not vals[outside].any()
        sf = one_parameter_square_function(basis, system, vals)
        worst = max(worst, float((sf * sp.weight).sum()))
    print("one-parameter corpus max ||S1(a)||_L1 =", worst)
    assert math.isfinite(worst) and 0 < worst < 100.0


def test_one_parameter_square_function_plancherel():
    sp = line_space(np.arange(8.0))
    system = build_system(sp, 0.25)
    basis = build_haar(system)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(sp.n)
    f -= (f @ sp.weight) / sp.weight.sum()
    sf = one_parameter_square_function(basis, system, f)
    l2 = math.sqrt(float((f ** 2 * sp.weight).sum()))
    s2 = math.sqrt(float((sf ** 2 * sp.weight).sum()))
    assert abs(s2 - l2) <= 1e-10 * l2
