"""Haar-type orthonormal bases on a dyadic system, plus the machinery that
turns a wavelet into compactly supported mean-zero building blocks.

Each cube with N >= 2 children carries exactly N-1 orthonormal mean-zero
functions spanning the mean-zero span of its child indicators; one global
scaling function (constant mu(X)^{-1/2}) completes the basis.  Haar functions
are exactly supported in their cube, so the size/support/cancellation/
orthonormality facts the downstream theory needs hold with equality rather
than up to exponential tails.  A wavelet's building blocks are its kappa and
one read-only array, a block per row; the decomposition reads nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicSystem
from .space import FiniteSpace, _normal


@dataclass
class Wavelet:
    level: int                   # k of the supporting cube
    index: int                   # alpha: position within the basis ordering
    cube: tuple[int, int]        # supporting cube id (k, alpha-in-level)
    center: int                  # y: first child's center
    scale: float                 # delta^k
    values: np.ndarray           # dense per-point values

    @property
    def id(self) -> tuple[int, int]:
        return (self.level, self.index)


class WaveletBasis:
    """One read-only matrix, wavelet rows then the scaling function; row i is
    ``wavelets[i].values``, supported on the system's cube ``cube_rows[i]``."""

    def __init__(self, system: DyadicSystem, wavelets: list[Wavelet], matrix: np.ndarray,
                 cube_rows: np.ndarray):
        self.system = system
        self.wavelets = wavelets
        self.matrix = matrix            # (n, n): wavelet rows then scaling
        self.scaling = matrix[-1]
        self.cube_rows = cube_rows
        self.n_wavelets = len(wavelets)

    @property
    def space(self) -> FiniteSpace:
        return self.system.space

    def gram(self) -> np.ndarray:
        return (self.matrix * self.space.weight) @ self.matrix.T


def build_haar(system: DyadicSystem) -> WaveletBasis:
    """Per cube with N children, N-1 nested-difference Haar functions.

    Children are taken in ascending center id; function i is positive on the
    first i children and negative on child i+1, which for two unit-weight
    children gives (1/sqrt2, -1/sqrt2).  Total count over the tree is n - 1.
    A normalisation (or its square, or the square's denominator) that is no
    finite positive normal float is a ValueError naming the factor and the
    cube.
    """
    space, lo = system.space, int(system.first[1])
    if not _normal(space.total_measure):
        raise _abnormal(system, "the scaling function", f"total measure {space.total_measure!r}")
    # the cubes below k_min, grouped by parent (flat order), each group by center
    kids = lo + np.lexsort((system.centers[lo:], system.parent[lo:]))
    n_kids = np.bincount(system.parent[lo:], minlength=system.n_cubes())
    kid_first = np.cumsum([0, *n_kids])
    matrix = np.zeros((int(np.maximum(n_kids - 1, 0).sum()) + 1, space.n))
    matrix[-1] = space.total_measure ** -0.5
    ends, rows = system.member_first.tolist(), []
    for a in np.flatnonzero(n_kids >= 2).tolist():
        group = kids[kid_first[a]:kid_first[a + 1]]
        masses = system.measures[group]
        csum = np.cumsum(masses).tolist()
        masses = masses.tolist()          # Python floats overflow and underflow silently
        members = np.concatenate([system.members[ends[q]:ends[q + 1]] for q in group.tolist()])
        cuts = np.cumsum(system.sizes[group]).tolist()
        for i in range(1, len(group)):
            mi, m_next = csum[i - 1], masses[i]
            den_t, den_r = mi * (mi + m_next), m_next * (mi + m_next)
            if not (_normal(den_t, den_r) and _normal(m_next / den_t, mi / den_r)):
                raise _abnormal(system, f"cube {system.keys([a])[0]}",
                                f"child measures {mi!r} and {m_next!r}")
            t = math.sqrt(m_next / den_t)
            r = math.sqrt(mi / den_r)
            matrix[len(rows), members[:cuts[i - 1]]] = t
            matrix[len(rows), members[cuts[i - 1]:cuts[i]]] = -r
            rows.append(a)
    matrix.flags.writeable = False
    cube_rows = np.array(rows, dtype=int)
    cube_rows.flags.writeable = False
    centers = system.centers[kids[kid_first[cube_rows]]].tolist()      # first child's center
    wavelets = [Wavelet(level=cube[0], index=i, cube=cube, center=y,
                        scale=system.side(cube[0]), values=matrix[i])
                for i, (cube, y) in enumerate(zip(system.keys(cube_rows), centers))]
    return WaveletBasis(system, wavelets, matrix, cube_rows)


def _abnormal(system: DyadicSystem, where: str, what: str) -> ValueError:
    w = system.space.weight
    return ValueError(f"Haar normalisation of {where} on the {system.space.n}-point factor "
                      f"(weights {float(w.min())!r} to {float(w.max())!r}) is no finite positive "
                      f"normal float ({what}); rescale the weights")


def _ramp(space: FiniteSpace, x0: int, r0: float) -> np.ndarray:
    """Ramp cut-off: 1 on B(x0, r0/4), 0 off B(x0, a0^2 r0), linear between.

    h(x) = clamp((a0^2 r0 - d(x, x0)) / (a0^2 r0 - r0/4), 0, 1); the ramp is
    Lipschitz, hence eta-Holder for every eta <= 1.
    """
    top = space.a0 ** 2 * r0
    return np.clip((top - space.dist[x0]) / (top - r0 / 4.0), 0.0, 1.0)


def building_blocks(space: FiniteSpace, wavelet: Wavelet, gamma: float,
                    cbar: float) -> tuple[float, np.ndarray]:
    """Split a wavelet into blocks via nested cut-offs (telescoping construction).

    With h_l the ramp cut-off at radius cbar 2^l delta^k centered at the
    wavelet's center:

        Lambda_0 = h_0 psi~,   Lambda_l = (h_l - h_{l-1}) psi~
        a_l = integral of Lambda_l,   s_l = a_0 + ... + a_l
        xi_l = h_l / integral of h_l
        phi_l = (cbar 2^l)^gamma (Lambda_l + s_{l-1} xi_l - s_l xi_{l+1})

    where psi~ = psi / kappa and kappa = mu(B(y, delta^k))^(1/2).  So
    psi~ = sum_l (cbar 2^l)^(-gamma) phi_l exactly, and each phi_l is mean-zero
    and vanishes off B(y, 2 a0^2 cbar 2^l delta^k).  The series stops at the
    first L with h_L identically 1 on the wavelet's support: there s_L = 0
    (it equals the integral of h_L psi~ = 0) and the trailing xi_{L+1} term
    is dropped, which keeps the telescoping exact.  A block that is a small
    difference of large pieces (weights over many decades on few points)
    keeps their rounding in its mean: up to ~1e-10 of its L1 mass, where a
    directly rounded block would keep ~1e-16.

    Returns kappa and the blocks as one read-only (L + 1, n) array, row l
    holding phi_l.  A cut-off radius a0^2 cbar 2^l delta^k that overflows is a
    ValueError naming a0, the factor and the wavelet's cube.
    """
    if gamma <= space.omega:
        raise ValueError(f"gamma = {gamma} must exceed the upper dimension {space.omega}")
    if cbar < 1:
        raise ValueError("cbar must be >= 1")
    kappa = float(np.sqrt(space.weight[space.ball_mask(wavelet.center, wavelet.scale)].sum()))
    psi_t = wavelet.values / kappa
    supp = wavelet.values != 0
    hs = []
    while not hs or not (hs[-1][supp] == 1.0).all():
        r0 = cbar * 2.0 ** len(hs) * wavelet.scale
        if not math.isfinite(space.a0 ** 2 * r0):
            raise ValueError(f"a0 = {space.a0!r} is too large: the cut-off radius a0^2 * {r0!r} "
                             f"of the wavelet on cube {wavelet.cube} of the {space.n}-point "
                             "factor overflows")
        hs.append(_ramp(space, wavelet.center, r0))
    hs = np.array(hs)
    blocks = np.diff(hs, axis=0, prepend=0.0) * psi_t          # the Lambda_l
    carry = np.cumsum((blocks * space.weight).sum(axis=1))[:-1, None] * (
        hs[1:] / (hs[1:] * space.weight).sum(axis=1)[:, None])  # s_l xi_{l+1}, l < L
    blocks[1:] += carry
    blocks[:-1] -= carry
    try:
        scales = [(cbar * 2.0 ** ell) ** gamma for ell in range(len(hs))]
    except OverflowError:
        raise ValueError(f"gamma = {gamma!r} is too large: the block scale (cbar 2^l)^gamma of "
                         f"the wavelet on cube {wavelet.cube} of the {space.n}-point factor "
                         f"overflows for some l < {len(hs)}") from None
    blocks *= np.array(scales)[:, None]
    blocks.flags.writeable = False
    return kappa, blocks
