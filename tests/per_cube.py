"""Per-cube oracles: the rectangle questions asked of every cube pair.

The package asks containment, the half test and the stretches only of the
tops of single-child chains (``maximal._tops``), since every cube of a
chain holds one member set.  These are the all-cube forms it replaced, kept
here as the specification: the ancestor-or-self matrix read off the labels,
containment as a point count against |Q1||Q2|, the half test against a
mu(Q1 x Q2)/2 table of every cube pair, and the maximal family with its
stretches from them.
"""

import numpy as np

from prodhardy.journe import _measure_in
from prodhardy.space import _exact_sums


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
