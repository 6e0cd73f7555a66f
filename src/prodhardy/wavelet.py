"""Haar-type orthonormal bases on a dyadic system, plus the machinery that
turns a wavelet into compactly supported mean-zero building blocks.

Each cube with N >= 2 children carries exactly N-1 orthonormal mean-zero
functions spanning the mean-zero span of its child indicators; one global
scaling function (constant mu(X)^{-1/2}) completes the basis.  Haar functions
are exactly supported in their cube, so the size/support/cancellation/
orthonormality facts the downstream theory needs hold with equality rather
than up to exponential tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class BuildingBlockSet:
    """Decomposition of a normalized wavelet into compactly supported blocks.

    psi / kappa = sum_l (cbar 2^l)^(-gamma) phi_l exactly (finite telescoping),
    each phi_l mean-zero with supp phi_l inside B(y, 2 a0^2 cbar 2^l delta^k).
    """

    gamma: float
    cbar: float
    eta: float
    center: int
    scale: float
    kappa: float
    blocks: list[np.ndarray]
    support_radii: list[float] = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def weight(self, ell: int) -> float:
        return (self.cbar * 2.0 ** ell) ** -self.gamma

    def recombine(self) -> np.ndarray:
        out = np.zeros_like(self.blocks[0])
        for ell, phi in enumerate(self.blocks):
            out += self.weight(ell) * phi
        return out


def building_blocks(space: FiniteSpace, wavelet: Wavelet, gamma: float,
                    cbar: float) -> BuildingBlockSet:
    """Split a wavelet into blocks via nested cut-offs (telescoping construction).

    With h_l the ramp cut-off at radius cbar 2^l delta^k centered at the
    wavelet's center:

        Lambda_0 = h_0 psi~,   Lambda_l = (h_l - h_{l-1}) psi~
        a_l = integral of Lambda_l,   s_l = a_0 + ... + a_l
        xi_l = h_l / integral of h_l
        phi_l = (cbar 2^l)^gamma (Lambda_l + s_{l-1} xi_l - s_l xi_{l+1})

    The series stops at the first L with h_L identically 1 on the wavelet's
    support: there s_L = 0 (it equals the integral of h_L psi~ = 0) and the
    trailing xi_{L+1} term is dropped, which keeps the telescoping exact.
    A block that is a small difference of large pieces (weights over many
    decades on few points) keeps their rounding in its mean: up to ~1e-10
    of its L1 mass, where a directly rounded block would keep ~1e-16.
    """
    if gamma <= space.omega:
        raise ValueError(f"gamma = {gamma} must exceed the upper dimension {space.omega}")
    if cbar < 1:
        raise ValueError("cbar must be >= 1")
    kappa = float(np.sqrt(space.weight[space.ball_mask(wavelet.center, wavelet.scale)].sum()))
    psi_t = wavelet.values / kappa
    supp = wavelet.values != 0

    hs = []
    L = 0
    while True:
        h = _ramp(space, wavelet.center, cbar * 2.0 ** L * wavelet.scale)
        hs.append(h)
        if supp.any() and (h[supp] == 1.0).all():
            break
        if not supp.any():
            break
        L += 1
        if L > 300:
            raise RuntimeError("cut-off never saturates the wavelet support")

    lambdas = [hs[0] * psi_t]
    for ell in range(1, L + 1):
        lambdas.append((hs[ell] - hs[ell - 1]) * psi_t)
    a_ell = [float((lam * space.weight).sum()) for lam in lambdas]
    s_ell = list(np.cumsum(a_ell))
    xis = [h / float((h * space.weight).sum()) for h in hs]

    blocks = []
    for ell in range(L + 1):
        lt = lambdas[ell].copy()
        if ell > 0:
            lt += s_ell[ell - 1] * xis[ell]
        if ell < L:
            lt -= s_ell[ell] * xis[ell + 1]
        blocks.append((cbar * 2.0 ** ell) ** gamma * lt)

    radii = [2.0 * space.a0 ** 2 * cbar * 2.0 ** ell * wavelet.scale for ell in range(L + 1)]
    # the ramp cut-offs are Lipschitz, so the blocks are certified 1-Holder
    return BuildingBlockSet(gamma=gamma, cbar=cbar, eta=1.0, center=wavelet.center,
                            scale=wavelet.scale, kappa=kappa, blocks=blocks,
                            support_radii=radii)


def block_certificates(space: FiniteSpace, bset: BuildingBlockSet) -> dict:
    """Measured boundedness and Holder constants for a block set.

    Boundedness: |phi_l(x)| <= C (cbar 2^l)^omega / mu(B(y, cbar 2^l delta^k)).
    Holder, over pairs with d(x,y) <= delta^k:
    |phi_l(x)-phi_l(y)| <= C (cbar 2^l delta^k)^-eta (cbar 2^l)^omega d(x,y)^eta
                            / mu(B(y, cbar 2^l delta^k)).
    The construction only guarantees such constants exist; the certificate
    pins the realized values.
    """
    c_bound = 0.0
    c_holder = 0.0
    d_y = space.dist[bset.center]
    close = space.dist <= bset.scale
    np.fill_diagonal(close, False)
    for ell, phi in enumerate(bset.blocks):
        t = bset.cbar * 2.0 ** ell
        mu_ball = float(space.weight[d_y < t * bset.scale].sum())
        c_bound = max(c_bound, float(np.abs(phi).max()) * mu_ball / t ** space.omega)
        if close.any():
            i, j = np.nonzero(close)
            num = np.abs(phi[i] - phi[j]) * mu_ball
            den = (t * bset.scale) ** -bset.eta * t ** space.omega * space.dist[i, j] ** bset.eta
            c_holder = max(c_holder, float((num / den).max()))
        # support check is exact: points outside the stated ball carry 0
        outside = d_y >= bset.support_radii[ell]
        if np.abs(phi[outside]).max(initial=0.0) != 0.0:
            raise AssertionError(f"block {ell} leaks outside its support ball")
    return {"boundedness": c_bound, "holder": c_holder}
