"""Per-cube oracles: the rectangle questions asked of every cube pair.

The package asks containment, the half test and the stretches only of the
tops of single-child chains (``DyadicSystem.tops``), since every cube of a
chain holds one member set.  These are the all-cube forms it replaced, kept
here as the specification: the ancestor-or-self matrix read off the labels,
containment as a point count against |Q1||Q2|, the half test against a
mu(Q1 x Q2)/2 table of every cube pair, and the maximal family with its
stretches from them.

The construction is kept the same way: ``build_system`` here builds a
fresh greedy net on the net above at every level and takes the parents of
every level by ``argmin``, and its ``PerCubeSystem`` sums each cube's
weights and reads each cube's center row, where the package builds each
distinct net once and asks each distinct member set once.

``cmo_p`` is the CMO^p candidate supremum as it was first written: a
(C1, C2) energy table of every cube pair and a point mask of every cube
pair's rectangle, where the package keeps one energy per distinct wavelet
rectangle and scores the single rectangles at the chain tops.
"""

import itertools
import math

import numpy as np

from prodhardy.dyadic import DyadicSystem
from prodhardy.journe import CMO_MAX_UNION, CMO_MICRO_LIMIT, _measure_in, maximal_rectangles
from prodhardy.maximal import OpenSet
from prodhardy.oracles import _build_net_by_point
from prodhardy.space import _exact_sums


class PerCubeSystem(DyadicSystem):
    """A ``DyadicSystem`` whose measures and measured constants come from
    every cube: each cube's own pairwise sum and each cube's center row."""

    def _measure(self, which):
        ends = self.member_first.tolist()
        self.measures = np.array([self.space.weight[self.members[lo:hi]].sum()
                                  for lo, hi in zip(ends, ends[1:])])
        self._far, self._near, cover = center_pass(self)
        level_sides = np.array([self.side(k) for k in self.levels()])
        self._sides = level_sides[self.level_rows]
        self.C0_measured = float((cover.max(axis=1) / level_sides).max())
        self.inner_tight = float((self._near / self._sides).min())
        self.outer_tight = float((self._far / self._sides).max())


def center_pass(system):
    """far and near of every cube, and cover of every level and point: the
    largest center-member and smallest center-non-member distance, and the
    distance to the level's nearest center, one cube's row at a time."""
    far, near = np.empty(system.n_cubes()), np.empty(system.n_cubes())
    cover = np.full(system.labels.shape, np.inf)
    for a, (z, l) in enumerate(zip(system.centers, system.level_rows)):
        d, inside = system.space.dist[z], system.labels[l] == a
        far[a] = d.max(where=inside, initial=0.0)
        near[a] = d.min(where=~inside, initial=np.inf)
        np.minimum(cover[l], d, out=cover[l])
    return far, near, cover


def build_system(space, delta, order_seed=None) -> PerCubeSystem:
    """``dyadic.build_system`` one level at a time: every level's net is a
    fresh ``_build_net_by_point`` on the net above, and every level's parents
    an ``argmin`` over the distances between the two nets."""
    order = (None if order_seed is None
             else list(np.random.default_rng(order_seed).permutation(space.n)))
    if space.n == 1 or space.diameter == 0:
        k_min = k_max = 0
    else:
        k_min = math.floor(math.log(space.diameter) / math.log(delta))
        while delta ** k_min < space.diameter:
            k_min -= 1
        k_max = math.floor(math.log(space.min_positive_distance()) / math.log(delta)) + 1
        while delta ** k_max >= space.min_positive_distance():
            k_max += 1
        k_max = max(k_max, k_min + 1)
    nets, prev = {}, []
    for k in range(k_min, k_max + 1):
        nets[k] = prev = _build_net_by_point(space, delta, k, seed_net=prev, order=order)
    while len(nets[k_min]) > 1:
        k_min -= 1
        nets[k_min] = _build_net_by_point(space, delta, k_min, order=order)
    parents = {k: np.argmin(space.dist[np.ix_(nets[k], nets[k - 1])], axis=1)
               for k in range(k_min + 1, k_max + 1)}
    return PerCubeSystem(space, delta, k_min, k_max, nets, parents, "desk")


def ancestors(system) -> np.ndarray:
    """(n_cubes, n_cubes) bool, True where cube b is a or an ancestor of a."""
    # a cube holds its center: the center's cubes up to its level are its ancestors-or-self
    up, a = np.nonzero(np.arange(len(system.labels))[:, None] <= system.level_rows)
    out = np.zeros((system.n_cubes(), system.n_cubes()), dtype=bool)
    out[a, system.labels[up, system.centers[a]]] = True
    return out


def containment(ps, masks) -> np.ndarray:
    """inside[..., a, b]: cubes1[a] x cubes2[b] lies in the set, for every cube pair."""
    s1, s2 = ps.systems
    counts = s1.incidence @ np.asarray(masks, dtype=float) @ s2.incidence.T
    return counts == np.outer(s1.sizes, s2.sizes)


def majority(ps, masks) -> np.ndarray:
    """passes[..., a, b] = mu((Q1 x Q2) cap Omega) > mu(Q1 x Q2)/2 for every
    cube pair, with the per-rectangle sum deciding the pairs near their half."""
    s1, s2 = ps.systems
    masks = np.asarray(masks, dtype=bool)
    meas = s1.incidence @ np.where(masks, ps.weights, 0.0) @ s2.incidence.T
    half = np.outer(s1.measures, s2.measures) / 2.0
    passes = meas > half
    if not _exact_sums(ps.weights.ravel()):
        k = ps.weights.size + sum(ps.weights.shape)
        margin = 2.0 * k * (np.finfo(float).eps * meas + np.finfo(float).tiny)
        for *lead, a, b in np.argwhere(np.abs(meas - half) <= margin):
            passes[(*lead, a, b)] = _measure_in(ps, masks[tuple(lead)], s1.incidence[a] > 0,
                                                s2.incidence[b] > 0) > half[a, b]
    return passes


def family(ps, mask):
    """rows, cols, hat1, hat2 of one set's maximal family over every cube
    pair: contained rectangles whose parent extensions are not, each
    stretched to its coarsest ancestor-or-self keeping the majority."""
    s1, s2 = ps.systems
    inside = containment(ps, mask)
    grows1 = (s1.parent >= 0)[:, None] & inside[s1.parent, :]
    grows2 = (s2.parent >= 0)[None, :] & inside[:, s2.parent]
    rows, cols = np.nonzero(inside & ~grows1 & ~grows2)
    passes = majority(ps, mask)
    hat2 = (ancestors(s2)[cols] & passes[rows]).argmax(axis=1)
    hat1 = (ancestors(s1)[rows] & passes[:, cols].T).argmax(axis=1)
    return rows, cols, hat1, hat2


def tau(ps, fam, rows, cols) -> np.ndarray:
    """The position of the first family rectangle whose factors are
    ancestors-or-self of each rectangle's factors (the rectangle must have one)."""
    s1, s2 = ps.systems
    covers = ancestors(s1)[np.ix_(rows, fam.rows)] & ancestors(s2)[np.ix_(cols, fam.cols)]
    assert covers.any(axis=1).all()
    return covers.argmax(axis=1) if len(rows) else np.zeros(0, dtype=int)


def indicators(ps, rows, cols) -> np.ndarray:
    """0/1 indicators of the rectangles cubes1[rows[k]] x cubes2[cols[k]]
    (flat indices of each system's cubes), one flattened grid per row."""
    s1, s2 = ps.systems
    return (s1.incidence[rows][:, :, None]
            * s2.incidence[cols][:, None, :]).reshape(len(rows), ps.x1.n * ps.x2.n)


def cmo_p(ps, coeffs, p) -> float:
    """The CMO^p candidate supremum over every cube pair's rectangle, the
    unions of <= CMO_MAX_UNION maximal rectangles of the coefficient support
    and, with at most CMO_MICRO_LIMIT energy rectangles, every union of
    them: a rectangle lies in a candidate when all of its points do.  The
    cube pairs go 4096 at a time, so the masks of a deep system fit."""
    s1, s2 = ps.systems
    b1, b2 = ps.bases
    energy = np.zeros((s1.n_cubes(), s2.n_cubes()))      # sum of |<f,psi psi>|^2 per cube pair
    np.add.at(energy, (b1.cube_rows[:, None], b2.cube_rows[None, :]), coeffs.ww ** 2)
    ra, rb = np.nonzero(energy > 0)
    rects = indicators(ps, ra, rb)                        # the rectangles carrying energy
    pairs = np.indices(energy.shape).reshape(2, -1)
    stacks = (indicators(ps, *pairs[:, lo:lo + 4096]) > 0
              for lo in range(0, pairs.shape[1], 4096))
    if len(ra):
        support = OpenSet.from_mask(ps, rects.any(axis=0).reshape(ps.shape))
        fam = maximal_rectangles(ps, support)
        unions = [union_masks(indicators(ps, fam.rows, fam.cols), CMO_MAX_UNION)]
        if len(ra) <= CMO_MICRO_LIMIT:
            unions.append(union_masks(rects, len(ra)))
        stacks = itertools.chain(stacks, unions)
    best = 0.0
    for cands in stacks:
        cands = cands.astype(float)
        mu = cands @ ps.weights.ravel()
        inside = cands @ rects.T == rects.sum(axis=1)
        vals = np.sqrt(mu ** (1.0 - 2.0 / p) * (inside @ energy[ra, rb]))
        best = max(best, float(vals.max(initial=0.0)))
    return best


def union_masks(rects: np.ndarray, max_size: int) -> np.ndarray:
    """Every union of one to ``max_size`` of the indicator rows."""
    combos = [list(c) for r in range(1, min(max_size, len(rects)) + 1)
              for c in itertools.combinations(range(len(rects)), r)]
    pick = np.zeros((len(combos), len(rects)))
    for row, combo in enumerate(combos):
        pick[row, combo] = 1.0
    return pick @ rects > 0
