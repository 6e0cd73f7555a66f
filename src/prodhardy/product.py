"""Product-space structure on X1 x X2: transforms, the product square
function, H^p seminorms, CMO^p candidate suprema and the block square function.

Functions on the product grid are (n1, n2) matrices; the product measure is
the weight outer product.  Coefficients carry four channels: wavelet x
wavelet (the H^p theory acts here), the two mixed channels, and scaling x
scaling.  Doubly mean-zero functions live entirely in the ww channel.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicSystem, build_system
from .space import FiniteSpace
from .wavelet import BuildingBlockSet, WaveletBasis, build_haar

MEMO_ENTRIES = 64            # values a ProductSpace keeps; the least recently used go first


class ProductSpace:
    def __init__(self, x1: FiniteSpace, x2: FiniteSpace,
                 system1: DyadicSystem | None = None, system2: DyadicSystem | None = None,
                 delta: float | None = None):
        self.x1, self.x2 = x1, x2
        if x2 is x1 and system1 is None and system2 is None:
            system1 = system2 = build_system(x1, delta)    # a repeated factor: one system
        self.systems = (
            system1 if system1 is not None else build_system(x1, delta),
            system2 if system2 is not None else build_system(x2, delta),
        )
        basis1 = build_haar(self.systems[0])
        self.bases = (basis1, basis1 if self.systems[1] is self.systems[0]
                      else build_haar(self.systems[1]))
        # p0 = max omega_i / (omega_i + eta) with Holder exponent eta = 1:
        # the ramp cut-offs are Lipschitz
        self.p0 = max(x1.omega / (x1.omega + 1.0), x2.omega / (x2.omega + 1.0))
        self._memo: OrderedDict = OrderedDict()

    def memoized(self, key, compute):
        """``compute()`` once per key while it stays among this space's last
        MEMO_ENTRIES keys used.  The value is shared with every later caller
        of the key, so no caller may mutate it."""
        memo = self._memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        value = memo[key] = compute()
        if len(memo) > MEMO_ENTRIES:
            memo.popitem(last=False)
        return value

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x1.n, self.x2.n)

    @property
    def weights(self) -> np.ndarray:
        return np.outer(self.x1.weight, self.x2.weight)

    def total_measure(self) -> float:
        return self.x1.total_measure * self.x2.total_measure

    def set_measure(self, mask: np.ndarray) -> float:
        return float(self.weights[mask].sum())

    def lq_norm(self, f: np.ndarray, q: float) -> float:
        return float(((np.abs(f) ** q) * self.weights).sum() ** (1.0 / q))

    def rectangle_mask(self, cube1, cube2) -> np.ndarray:
        return np.outer(self.systems[0].member_mask(*cube1.id),
                        self.systems[1].member_mask(*cube2.id))

    def rectangle_indicators(self, rows, cols) -> np.ndarray:
        """0/1 indicators of the rectangles cubes1[rows[k]] x cubes2[cols[k]]
        (flat indices of each system's ``geometry``), one flattened grid per row."""
        g1, g2 = self.systems[0].geometry, self.systems[1].geometry
        return (g1.incidence[rows][:, :, None]
                * g2.incidence[cols][:, None, :]).reshape(len(rows), self.x1.n * self.x2.n)

    def wavelet_rectangle(self, i: int, j: int):
        """Supporting dyadic rectangle of the (i, j) product wavelet pair."""
        c1 = self.systems[0].cube(*self.bases[0].wavelets[i].cube)
        c2 = self.systems[1].cube(*self.bases[1].wavelets[j].cube)
        return c1, c2

    def random_function(self, rng, mean_zero: bool = True) -> np.ndarray:
        f = rng.standard_normal(self.shape)
        return double_center(self, f) if mean_zero else f


def double_center(pspace: ProductSpace, f: np.ndarray) -> np.ndarray:
    """Project onto doubly mean-zero functions (kills all non-ww channels)."""
    return _mean_zero(f, pspace.x1.weight, pspace.x2.weight)


def _mean_zero(f: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """f minus its w1-mean down each column, then minus its w2-mean along each row."""
    if w1.size == 1 or w2.size == 1:
        # the mean of one value is that value: exact zeros, not rounding residue
        return np.zeros(f.shape)
    f = f - (w1 @ f)[None, :] / w1.sum()
    return f - (f @ w2)[:, None] / w2.sum()


@dataclass
class ProductCoefficients:
    """Full coefficient matrix, wavelet rows/cols first, scaling last."""

    matrix: np.ndarray           # (n1, n2)
    n_wav: tuple[int, int]

    @property
    def ww(self) -> np.ndarray:
        return self.matrix[: self.n_wav[0], : self.n_wav[1]]

    @property
    def ws(self) -> np.ndarray:
        return self.matrix[: self.n_wav[0], self.n_wav[1]:]

    @property
    def sw(self) -> np.ndarray:
        return self.matrix[self.n_wav[0]:, : self.n_wav[1]]

    @property
    def ss(self) -> np.ndarray:
        return self.matrix[self.n_wav[0]:, self.n_wav[1]:]

    def channel_norms(self) -> dict[str, float]:
        """L2 norm of each channel; squares that overflow are scaled down first."""
        norms = {}
        for c in ("ww", "ws", "sw", "ss"):
            m = getattr(self, c)
            with np.errstate(over="ignore"):
                sq = (m ** 2).sum()
            if sq == math.inf and np.isfinite(m).all():
                big = float(np.abs(m).max())
                norms[c] = big * math.sqrt(float(((m / big) ** 2).sum()))
            else:
                norms[c] = float(np.sqrt(sq))
        return norms

    def entries(self, pspace: ProductSpace, tol: float = 0.0):
        """Sparse view of the ww channel: ((k1, a1, k2, a2), value) tuples."""
        b1, b2 = pspace.bases
        for i in range(self.n_wav[0]):
            for j in range(self.n_wav[1]):
                v = float(self.ww[i, j])
                if abs(v) > tol:
                    yield (b1.wavelets[i].id + b2.wavelets[j].id), v


def product_transform(pspace: ProductSpace, f: np.ndarray) -> ProductCoefficients:
    f = np.asarray(f, dtype=float)
    if f.shape != pspace.shape:
        raise ValueError(f"expected grid shape {pspace.shape}, got {f.shape}")
    b1, b2 = pspace.bases
    mat = (b1.matrix * pspace.x1.weight) @ f @ (b2.matrix * pspace.x2.weight).T
    return ProductCoefficients(matrix=mat, n_wav=(b1.n_wavelets, b2.n_wavelets))


def inverse_product_transform(pspace: ProductSpace, coeffs: ProductCoefficients) -> np.ndarray:
    b1, b2 = pspace.bases
    return b1.matrix.T @ coeffs.matrix @ b2.matrix


def square_function(pspace: ProductSpace, coeffs: ProductCoefficients) -> np.ndarray:
    """Product Littlewood-Paley square function of the ww channel.

    S(f)^2(x1,x2) = sum |<f, psi1 psi2>|^2 chi_Q1(x1) chi_Q2(x2) / (mu(Q1) mu(Q2)),
    the rectangle indicator normalized in L^2 of the product measure.
    """
    u1, u2 = (_indicator_over_measure(b) for b in pspace.bases)
    s2 = u1.T @ (coeffs.ww ** 2) @ u2
    return np.sqrt(np.maximum(s2, 0.0))


def _indicator_over_measure(basis: WaveletBasis) -> np.ndarray:
    """Row i: the indicator of wavelet i's cube divided by the cube's measure."""
    g, rows = basis.system.geometry, basis.cube_rows
    return g.incidence[rows] / g.measures[rows, None]


def hp_seminorm(pspace: ProductSpace, f: np.ndarray, p: float,
                warn: list | None = None) -> float:
    """||S(f)||_{L^p} for p in (0, 1]; defined for p > p0; below it a
    note is appended to ``warn`` when a list is given."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if p <= pspace.p0 and warn is not None:
        warn.append(f"p = {p} is at or below p0 = {pspace.p0:.6g}; outside the theory's range")
    sf = square_function(pspace, product_transform(pspace, f))
    return float(((sf ** p) * pspace.weights).sum() ** (1.0 / p))


CMO_MAX_UNION = 3      # unions of up to this many maximal rectangles are candidates
CMO_MICRO_LIMIT = 15   # up to this many energy rectangles, every union of them is one


def cmo_p(pspace: ProductSpace, coeffs: ProductCoefficients, p: float,
          candidates=None) -> float:
    """Lower bound for the CMO^p supremum over a structured candidate family.

    Candidate value: (mu(Omega)^(1-2/p) * sum_{R in Omega} |<f,psi psi>|^2)^(1/2),
    the sum over wavelet rectangles contained in Omega.  Default candidates:
    every single dyadic rectangle, unions of <= CMO_MAX_UNION maximal rectangles
    of the coefficient support, and -- when at most CMO_MICRO_LIMIT rectangles
    carry nonzero coefficients -- all unions of those rectangles, which makes
    the candidate supremum equal to the exhaustive all-subsets supremum (the
    optimum is always attained at such a union: dropping points outside the
    contained rectangles shrinks mu(Omega) without losing energy).
    """
    from .journe import maximal_rectangles   # local import to avoid a cycle
    from .maximal import OpenSet

    g1, g2 = pspace.systems[0].geometry, pspace.systems[1].geometry
    b1, b2 = pspace.bases
    energy = np.zeros((len(g1.cubes), len(g2.cubes)))    # sum of |<f,psi psi>|^2 per cube pair
    np.add.at(energy, (b1.cube_rows[:, None], b2.cube_rows[None, :]), coeffs.ww ** 2)
    ra, rb = np.nonzero(energy > 0)
    rects = pspace.rectangle_indicators(ra, rb)           # the rectangles carrying energy

    if candidates is None:
        stacks = [pspace.rectangle_indicators(*np.indices(energy.shape).reshape(2, -1)) > 0]
        if len(ra):
            support = OpenSet.from_mask(pspace, rects.any(axis=0).reshape(pspace.shape))
            fam = maximal_rectangles(pspace, support)
            stacks.append(_unions(pspace.rectangle_indicators(fam.rows, fam.cols), CMO_MAX_UNION))
            if len(ra) <= CMO_MICRO_LIMIT:
                stacks.append(_unions(rects, len(ra)))
        cands = np.concatenate(stacks).astype(float)
    else:
        candidates = list(candidates)
        cands = (np.array(candidates, dtype=bool)
                 .reshape(len(candidates), pspace.x1.n * pspace.x2.n).astype(float))
    mu = cands @ pspace.weights.ravel()
    if candidates is not None and (mu <= 0).any():
        raise ValueError("empty candidate set")
    # a rectangle lies in a candidate when all of its points do
    inside = cands @ rects.T == rects.sum(axis=1)
    keep = mu > 0
    vals = np.sqrt(mu[keep] ** (1.0 - 2.0 / p) * (inside[keep] @ energy[ra, rb]))
    return float(vals.max(initial=0.0))


def _unions(rects: np.ndarray, max_size: int) -> np.ndarray:
    """Every union of one to ``max_size`` of the indicator rows."""
    combos = [list(c) for r in range(1, min(max_size, len(rects)) + 1)
              for c in itertools.combinations(range(len(rects)), r)]
    pick = np.zeros((len(combos), len(rects)))
    for row, combo in enumerate(combos):
        pick[row, combo] = 1.0
    return pick @ rects > 0


def cmo_p_exhaustive(pspace: ProductSpace, coeffs: ProductCoefficients, p: float) -> float:
    """All-subsets oracle; only feasible on micro instances (n1*n2 <= ~14)."""
    n1, n2 = pspace.shape
    cells = n1 * n2
    if cells > 16:
        raise ValueError("exhaustive CMO oracle limited to micro instances")
    best = 0.0
    c2 = coeffs.ww ** 2
    rects = []
    for i in range(coeffs.n_wav[0]):
        for j in range(coeffs.n_wav[1]):
            if c2[i, j] > 0:
                r1, r2 = pspace.wavelet_rectangle(i, j)
                rects.append((pspace.rectangle_mask(r1, r2), float(c2[i, j])))
    for bits in range(1, 2 ** cells):
        mask = np.asarray([(bits >> c) & 1 for c in range(cells)],
                          dtype=bool).reshape(n1, n2)
        mu = pspace.set_measure(mask)
        energy = sum(e for rm, e in rects if (rm & ~mask).sum() == 0)
        if energy > 0:
            best = max(best, math.sqrt(mu ** (1.0 - 2.0 / p) * energy))
    return best


def block_square_function(pspace: ProductSpace, g: np.ndarray,
                          blocks1: list[BuildingBlockSet], blocks2: list[BuildingBlockSet],
                          ell1: int, ell2: int, rectangles=None, qprime: float = 2.0):
    """Square function built from building blocks at cell (ell1, ell2).

    Evaluates (sum_R |<phi_{ell1} phi_{ell2}, g>|^2 chi_R / mu(R))^(1/2) over
    the supplied rectangle family (default: all wavelet rectangles, skipping
    wavelets whose block series ended before the requested index) and returns
    the values together with the measured ratio against
    2^(ell1 omega1 + ell2 omega2) ||g||_{q'}.
    """
    if not blocks1 or not blocks2:
        raise ValueError("building blocks missing for one factor")
    g = np.asarray(g, dtype=float)
    w1, w2 = pspace.x1.weight, pspace.x2.weight
    phi1 = np.array([b.blocks[ell1] if ell1 < b.n_blocks else 0.0 * w1 for b in blocks1])
    phi2 = np.array([b.blocks[ell2] if ell2 < b.n_blocks else 0.0 * w2 for b in blocks2])
    inner = (phi1 * w1) @ g @ (phi2 * w2).T            # <phi_ell1 phi_ell2, g> per pair
    picked = np.ones(inner.shape) if rectangles is None else np.zeros(inner.shape)
    for i, j in [] if rectangles is None else rectangles:
        picked[i, j] += 1.0
    u1, u2 = (_indicator_over_measure(b) for b in pspace.bases)
    s2 = u1.T @ (picked * inner ** 2) @ u2
    vals = np.sqrt(s2)
    norm = pspace.lq_norm(vals, qprime)
    gnorm = pspace.lq_norm(g, qprime)
    scale = 2.0 ** (ell1 * pspace.x1.omega + ell2 * pspace.x2.omega)
    ratio = norm / (scale * gnorm) if gnorm > 0 else 0.0
    return vals, {"lq_norm": norm, "g_norm": gnorm, "scale": scale, "ratio": ratio}
