"""Product-space structure on X1 x X2: transforms, the product square
function and H^p seminorms.

Functions on the product grid are (n1, n2) matrices; the product measure is
the weight outer product.  Coefficients carry four channels: wavelet x
wavelet (the H^p theory acts here), the two mixed channels, and scaling x
scaling.  Doubly mean-zero functions live entirely in the ww channel.

The transforms, the square function, the norms and ``double_center`` also
take a stack of grids (..., n1, n2) and give each grid the floats of its own
call: a matmul over a stack, a sum over the trailing axes of a C-ordered
stack and an entrywise power act grid by grid, and each grid's final root
stays a scalar power (an array power can differ in the last bit).  A norm of
one grid is a float, of a stack an array; ``stack_slices`` cuts a corpus into
stacks of at most SUM_BATCH entries, and ``_ordered_sums`` runs many ordered
sums of grids in shared passes of at most SUM_BATCH entries.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .dyadic import DyadicSystem, build_system
from .space import FiniteSpace, _normal
from .wavelet import WaveletBasis, build_haar

SUM_BATCH = 1 << 16          # grid entries per stacked pass (a corpus stack, an ordered sum)


class ProductSpace:
    def __init__(self, x1: FiniteSpace, x2: FiniteSpace,
                 system1: DyadicSystem | None = None, system2: DyadicSystem | None = None,
                 delta: float | None = None):
        self.x1, self.x2 = x1, x2
        # Python floats: a product past the float range is 0.0 or inf, silently
        low = float(x1.weight.min()) * float(x2.weight.min())
        high = float(x1.weight.max()) * float(x2.weight.max())
        total = x1.total_measure * x2.total_measure
        if not _normal(low, high, total):
            raise ValueError(f"product weights {low!r} to {high!r} with total measure {total!r} "
                             "leave the positive normal floats; rescale the factors' weights")
        if x2 is x1 and system1 is None and system2 is None:
            system1 = system2 = build_system(x1, delta)    # a repeated factor: one system
        self.systems = (
            system1 if system1 is not None else build_system(x1, delta),
            system2 if system2 is not None else build_system(x2, delta),
        )
        basis1 = build_haar(self.systems[0])
        self.bases = (basis1, basis1 if self.systems[1] is self.systems[0]
                      else build_haar(self.systems[1]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x1.n, self.x2.n)

    @cached_property
    def weights(self) -> np.ndarray:
        """The product measure's weight grid, built once and read-only."""
        w = np.outer(self.x1.weight, self.x2.weight)
        w.flags.writeable = False
        return w

    def total_measure(self) -> float:
        return self.x1.total_measure * self.x2.total_measure

    def set_measure(self, mask: np.ndarray) -> float:
        return float(self.weights[mask].sum())

    def lq_norm(self, f: np.ndarray, q: float) -> float | np.ndarray:
        """||f||_{L^q} of a grid, or of each grid of a stack; a ValueError
        naming q when a power on the way overflows."""
        with np.errstate(over="ignore"):
            sums = ((np.abs(f) ** q) * self.weights).sum(axis=(-2, -1))
            norms = [s ** (1.0 / q) for s in np.ravel(sums)]
        if not all(map(math.isfinite, norms)):
            raise ValueError(f"the L^q norm at q = {q!r} leaves the floats: |f|^{q!r}, its "
                             f"weighted sum or the sum's 1/{q!r}-th power overflows")
        return float(norms[0]) if sums.ndim == 0 else np.array(norms).reshape(sums.shape)

    def random_function(self, rng) -> np.ndarray:
        return double_center(self, rng.standard_normal(self.shape))


def stack_slices(pspace: ProductSpace, k: int, entries: int | None = None) -> list[slice]:
    """Cuts of k items of ``entries`` entries each (default one grid's) into
    stacks of at most SUM_BATCH entries, one item at least."""
    step = max(1, SUM_BATCH // (entries or pspace.x1.n * pspace.x2.n))
    return [slice(lo, min(lo + step, k)) for lo in range(0, k, step)]


def _ordered_sums(sizes, shape: tuple[int, int], fill) -> np.ndarray:
    """out[i] = the sizes[i] terms of unit i added one after another from
    +0.0, for units whose terms are numbered consecutively, unit by unit;
    ``fill(idx, out)`` writes the terms numbered ``idx`` (a (k, a) array)
    into ``out`` (k, a, n1, n2).

    Units go longest first, in chunks narrow enough that a pass can add
    three terms per unit (on a large grid, copying the running sums into a
    pass is then at most a quarter of its traffic).  Each pass stacks the
    running sums of the chunk's units that still have terms as slice 0 and
    their next terms after it, at most SUM_BATCH entries and no further than
    the shortest of them reaches, and reduces over the leading axis: NumPy
    adds the slices of a C-ordered stack one after another, summing pairwise
    only along the inner loop, here the units' grid entries (a grid that
    carries terms has at least two points per factor).  ``np.add.reduceat``
    would sum each unit's run pairwise, in other floats.  The passes are
    planned first, so one scratch stack per call fits the largest; a chunk's
    sums are scattered into place once its last pass is done.
    """
    sizes = np.asarray(sizes, dtype=int)
    grid = math.prod(shape)
    order = np.argsort(-sizes, kind="stable")
    firsts = (np.cumsum(sizes) - sizes)[order]
    chunk = max(1, SUM_BATCH // (4 * grid))
    plan = []          # (first unit, its passes: (units with terms left, terms done, terms added))
    for lo in range(0, len(sizes), chunk):
        left = (-sizes[order[lo:lo + chunk]]).tolist()      # ascending
        steps, done = [], 0
        while done < -left[0]:
            a = bisect.bisect_left(left, -done)
            k = min(max(1, SUM_BATCH // (a * grid) - 1), -left[a - 1] - done)
            steps.append((a, done, k))
            done += k
        if steps:
            plan.append((lo, steps))
    out = np.zeros((len(sizes), *shape))
    acc = np.empty((min(chunk, len(sizes)), *shape))      # one chunk's running sums
    scratch = np.empty(max([(k + 1) * a * grid for _, steps in plan for a, _, k in steps],
                           default=0))
    for lo, steps in plan:
        acc.fill(0.0)
        for a, done, k in steps:
            stack = scratch[:(k + 1) * a * grid].reshape(k + 1, a, *shape)
            stack[0] = acc[:a]
            fill(firsts[lo:lo + a] + np.arange(done, done + k)[:, None], stack[1:])
            np.add.reduce(stack, axis=0, out=acc[:a])
        out[order[lo:lo + steps[0][0]]] = acc[:steps[0][0]]
    return out


def _left_sum(values):
    """The values added left to right from the int 0, as ``sum`` adds them
    before Python 3.12 (which compensates float sums): the report sums keep
    their floats on every interpreter, and no terms give ``0``."""
    return reduce(operator.add, values, 0)


def _outer_sum(s: np.ndarray, u: np.ndarray, urows: np.ndarray, v: np.ndarray,
               vrows: np.ndarray, sizes) -> np.ndarray:
    """For each unit i, sum_k s[k] outer(u[urows[k]], v[vrows[k]]) over its
    sizes[i] consecutive terms, added in k order from zero: the same floats
    as the loop acc = acc + s[k] * np.outer(...), one unit after another.
    The rows are read pass by pass."""
    def fill(idx, out):
        np.multiply(u[urows[idx]][..., :, None], v[vrows[idx]][..., None, :], out=out)
        out *= s[idx][..., None, None]
    return _ordered_sums(sizes, (u.shape[1], v.shape[1]), fill)


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """True at entry 0 and wherever any key differs from the entry before."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def double_center(pspace: ProductSpace, f: np.ndarray) -> np.ndarray:
    """Project onto doubly mean-zero functions (kills all non-ww channels)."""
    return _mean_zero(f, pspace.x1.weight, pspace.x2.weight)


def _mean_zero(f: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """f minus its w1-mean down each column, then minus its w2-mean along each
    row, pass after pass for each grid until no column's or row's integral
    keeps more than 1e-12 of that line's integral of |f| (``_cancels``).

    Weights over many decades leave the rounding of a heavy point's mean in
    the light points' lines, which one more pass takes out; a grid that
    cancels after a pass keeps its floats.
    """
    if w1.size == 1 or w2.size == 1:
        # the mean of one value is that value: exact zeros, not rounding residue
        return np.zeros(f.shape)
    done = np.zeros(f.shape[:-2], dtype=bool)
    for _ in range(50):     # at most as many passes as _recancelled makes
        g = f - (w1 @ f)[..., None, :] / w1.sum()
        f = np.where(done[..., None, None], f, g - (g @ w2)[..., :, None] / w2.sum())
        done = _cancels(w1, w2, f, 1e-12)
        if done.all():
            break
    return f


def _cancels(w1: np.ndarray, w2: np.ndarray, vals: np.ndarray, tol: float):
    """Each column's |int a dmu1| and each row's |int a dmu2| is at most
    ``tol`` times that column's or row's own int |a|: a bool for one grid,
    an array for each grid of a stack."""
    mag = np.abs(vals)
    return ~((np.abs(w1 @ vals) > tol * (w1 @ mag)).any(axis=-1)
             | (np.abs(vals @ w2) > tol * (mag @ w2)).any(axis=-1))


@dataclass
class ProductCoefficients:
    """Full coefficient matrix, wavelet rows/cols first, scaling last."""

    matrix: np.ndarray           # (..., n1, n2)
    n_wav: tuple[int, int]

    @property
    def ww(self) -> np.ndarray:
        return self.matrix[..., : self.n_wav[0], : self.n_wav[1]]

    @property
    def ws(self) -> np.ndarray:
        return self.matrix[..., : self.n_wav[0], self.n_wav[1]:]

    @property
    def sw(self) -> np.ndarray:
        return self.matrix[..., self.n_wav[0]:, : self.n_wav[1]]

    @property
    def ss(self) -> np.ndarray:
        return self.matrix[..., self.n_wav[0]:, self.n_wav[1]:]

    def channel_norms(self) -> dict[str, float | np.ndarray]:
        """L2 norm of each channel, a float for one grid's coefficients and an
        array for a stack's; squares that overflow are scaled down first."""
        lead = self.matrix.shape[:-2]
        norms = {}
        for c in ("ww", "ws", "sw", "ss"):
            m = getattr(self, c)
            m = m.reshape(math.prod(lead), *m.shape[-2:])
            with np.errstate(over="ignore"):
                norm = np.sqrt((m ** 2).sum(axis=(1, 2)))
            for i in np.flatnonzero(norm == math.inf):
                if np.isfinite(m[i]).all():
                    big = float(np.abs(m[i]).max())
                    norm[i] = big * math.sqrt(float(((m[i] / big) ** 2).sum()))
            norms[c] = norm.reshape(lead) if lead else float(norm[0])
        return norms


def _check_grids(pspace: ProductSpace, a: np.ndarray) -> None:
    """A ValueError unless the two trailing axes of ``a`` are the grid's."""
    if a.shape[-2:] != pspace.shape:
        raise ValueError(f"expected grid shape {pspace.shape} on the last two axes, "
                         f"got {a.shape}")


def product_transform(pspace: ProductSpace, f: np.ndarray) -> ProductCoefficients:
    f = np.asarray(f, dtype=float)
    _check_grids(pspace, f)
    b1, b2 = pspace.bases
    mat = (b1.matrix * pspace.x1.weight) @ f @ (b2.matrix * pspace.x2.weight).T
    return ProductCoefficients(matrix=mat, n_wav=(b1.n_wavelets, b2.n_wavelets))


def inverse_product_transform(pspace: ProductSpace, coeffs: ProductCoefficients) -> np.ndarray:
    _check_grids(pspace, coeffs.matrix)
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
    system, rows = basis.system, basis.cube_rows
    return system.incidence[rows] / system.measures[rows, None]


def hp_seminorm(pspace: ProductSpace, f: np.ndarray, p: float) -> float | np.ndarray:
    """||S(f)||_{L^p} for p in (0, 1], of a grid or of each grid of a stack."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    return pspace.lq_norm(square_function(pspace, product_transform(pspace, f)), p)


def cell_scale(pspace: ProductSpace, ell1: int, ell2: int) -> float:
    """2^(l1 w1 + l2 w2), the scale of cell (l1, l2)."""
    return 2.0 ** (ell1 * pspace.x1.omega + ell2 * pspace.x2.omega)
