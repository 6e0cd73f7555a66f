"""Product (p,q)-atoms and the constructive atomic decomposition.

Forward direction: a doubly mean-zero grid function is expanded in the
product wavelet basis, its square-function level sets Omega_j are formed,
every coefficient rectangle is classified into the unique B_j where its
majority mass first drops below half, the wavelets are split into building
blocks, and the (j, l1, l2) cells are normalized into atoms with explicit
coefficients.  All sums are finite, so reconstruction is exact rather than
limiting.

Rectangle atoms are indexed by the maximal rectangles of the epsilon_0
enlargement of the placeholder set (the enlargement is the set the
containment proof actually provides; the un-enlarged family does not contain
the classified rectangles in general).  Pairs are grouped by tau's family
positions and the checks read the family's flat cube indices; only
``ProductAtom.rectangle_atoms`` keys its atoms by (k1, a1, k2, a2).

Converse direction: any atom is a grid function, so its H^p seminorm against
the reference wavelet basis is computed directly; corpus runners aggregate
the maximum as the certified uniform constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicSystem
from .journe import MaximalRectangleFamily, _level_drops, _majority, maximal_rectangles, tau
from .maximal import OpenSet, ell_enlarge, enlarge, epsilon0, level_sets
from .product import (ProductCoefficients, ProductSpace, _cancels, _left_sum, _mean_zero,
                      _ordered_sums, _outer_sum, _run_starts, cell_scale, hp_seminorm,
                      product_transform, square_function, stack_slices)
from .space import _normal
from .wavelet import building_blocks


class ChannelError(ValueError):
    """Input is not doubly mean-zero; carries the offending channel norms."""

    def __init__(self, norms: dict):
        self.norms = norms
        super().__init__(f"function has nonzero mixed/scaling channels: {norms}")


@dataclass
class ProductAtom:
    values: np.ndarray
    omega: OpenSet               # placeholder open set
    ell1: int
    ell2: int
    p: float
    q: float
    grids: tuple[DyadicSystem, DyadicSystem]
    rectangle_atoms: dict = field(default_factory=dict)   # (k1, a1, k2, a2) -> values
    pool: tuple[float, OpenSet, MaximalRectangleFamily] | None = None   # what it was built on


@dataclass
class DecompositionTerm:
    lam: float                   # full coefficient: weight * lam_raw
    lam_raw: float               # lambda_{j, l1, l2}
    weight: float                # 2^(-l1 g1 - l2 g2)
    atom: ProductAtom
    provenance: tuple[int, int, int]     # (j, l1, l2)


@dataclass
class AtomicDecomposition:
    terms: list[DecompositionTerm]
    p: float
    q: float
    gammas: tuple[float, float]
    residual: float
    report: dict = field(default_factory=dict)


def _recancelled(pspace: ProductSpace, vals: np.ndarray) -> np.ndarray:
    """``vals``, or, when a column's or row's integral keeps more than 1e-12
    of its mass, ``vals`` with each column's and then each row's integral
    taken out in proportion to |vals|, pass after pass until none does.

    Building blocks vanish in the mean only up to their rounding, and pair
    contributions that nearly cancel can lift that past verify_atom's 1e-10.
    Proportional corrections keep zeros at zero, so supports stay, and give
    a line of tiny entries tiny corrections.
    """
    w1, w2 = pspace.x1.weight, pspace.x2.weight
    if _cancels(w1, w2, vals, 1e-12):
        return vals
    mag = np.abs(vals)
    m1, m2 = w1 @ mag, mag @ w2
    for _ in range(50):     # row passes disturb columns: a pass may shrink the share only ~6x
        vals = vals - mag * np.divide(w1 @ vals, m1, out=np.zeros_like(m1), where=m1 > 0)
        vals = vals - mag * np.divide(vals @ w2, m2, out=np.zeros_like(m2), where=m2 > 0)[:, None]
        if _cancels(w1, w2, vals, 1e-12):
            break
    return vals


COEFF_TOL = 1e-14            # coefficients below this share of the largest are dropped
CANCEL_TOL = 1e-10           # condition (3)(ii): allowed share of a line's int |a|
STRETCH_DELTAS = (0.5, 1.0, 2.0)   # extra deltas of the 1 < q < 2 stretch ratios
MAX_RECTS = 4                # rectangle atoms drawn per generated atom


def _pools(view: ProductSpace, sets: list) -> list:
    """The Chang-Fefferman pool of each open set: epsilon_0, the enlargement
    Omega~ = {M_s chi_Omega > epsilon_0} and Omega~'s maximal rectangles.
    Sets with one mask share one pool, and pools with one Omega~ one family;
    callers must not mutate them."""
    eps0 = epsilon0(view)
    pools, families = {}, {}
    for omega in sets:
        key = omega.key()
        if key not in pools:
            omega_t = enlarge(view, omega, eps0)
            if omega_t.key() not in families:
                families[omega_t.key()] = maximal_rectangles(view, omega_t)
            pools[key] = eps0, omega_t, families[omega_t.key()]
    return [pools[omega.key()] for omega in sets]


def _block_stacks(pspace: ProductSpace, gammas: tuple[float, float]) -> list:
    """Each factor's building-block count per wavelet at its gamma, and the
    stack kphi[i, l] = kappa_i phi_{i,l} (zero past the count); a repeated
    factor (one basis at an equal gamma) shares one stack."""
    stacks = {}
    for basis, gamma in zip(pspace.bases, gammas):
        if (basis, gamma) not in stacks:
            space = basis.system.space
            sets = [building_blocks(space, w, gamma, cbar=1.0) for w in basis.wavelets]
            counts = np.array([len(phi) for _, phi in sets], dtype=int)
            kphi = np.zeros((len(sets), counts.max(initial=0), space.n))
            for i, (kappa, phi) in enumerate(sets):
                kphi[i, :len(phi)] = kappa * phi
            stacks[basis, gamma] = counts, kphi
    return [stacks[key] for key in zip(pspace.bases, gammas)]


def _budget_measure(view: ProductSpace, omega_t: OpenSet, ell1: int, ell2: int) -> float:
    """(1 + l1 w1 + l2 w2) 2^(l1 w1 + l2 w2) mu(Omega~), the (l1, l2) atom budget's measure."""
    return ((1.0 + ell1 * view.x1.omega + ell2 * view.x2.omega) * cell_scale(view, ell1, ell2)
            * omega_t.measure)


def _budget_power(view: ProductSpace, omega_t: OpenSet, ell1: int, ell2: int,
                  exponent: float, p: float) -> float:
    """The (l1, l2) atom budget's measure to ``exponent``, a power of 1/p, or
    a ValueError naming p when that is no positive finite float."""
    measure = _budget_measure(view, omega_t, ell1, ell2)
    try:
        power = measure ** exponent
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ValueError(f"the ({ell1}, {ell2}) atom budget's measure {measure!r} to the power "
                         f"{exponent!r} leaves the floats at p = {p!r}")
    return power


def _size_budget(view: ProductSpace, omega_t: OpenSet, ell1: int, ell2: int,
                 p: float, q: float) -> float:
    """The condition-(2) size budget of an (l1, l2) atom."""
    return _budget_power(view, omega_t, ell1, ell2, 1.0 / q - 1.0 / p, p)


def _nonzero_norms(view: ProductSpace, f: np.ndarray, q: float) -> float | np.ndarray:
    """``view.lq_norm(f, q)``, or a ValueError naming q when a grid that is
    not 0 gets norm 0: each |f|^q underflows."""
    norms = view.lq_norm(f, q)
    zero = np.asarray(norms) == 0.0
    if zero.any() and (zero & (f != 0.0).any(axis=(-2, -1))).any():
        raise ValueError(f"the L^q norm at q = {q!r} of a nonzero grid underflows to 0: every "
                         f"|f|^{q!r} is below the smallest float")
    return norms


def _lams(view: ProductSpace, ell1: int, ell2: int) -> tuple[float, float]:
    """The cell's support multipliers lam_i = 2 a0_i^2 2^l_i: the rectangle
    atoms' support constants, scaled by the cell."""
    return 2.0 * view.x1.a0 ** 2 * 2.0 ** ell1, 2.0 * view.x2.a0 ** 2 * 2.0 ** ell2


def _boxes(view: ProductSpace, family: MaximalRectangleFamily, ell1: int, ell2: int):
    """The cell's multipliers (``_lams``) and each factor's dilates at them
    over the family: row i of factor 1's (2's) matrix is the box lam_i Q of
    rectangle i's first (second) cube."""
    lams = _lams(view, ell1, ell2)
    return lams, tuple(s.dilate_matrix(lam, rows) for s, lam, rows
                       in zip(view.systems, lams, (family.rows, family.cols)))


def _gammas(pspace: ProductSpace, p: float, q: float, gamma1: float | None,
            gamma2: float | None) -> tuple[float, float]:
    """gamma1 and gamma2 (None: unit slack), once p, q and they are checked."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if not 1 < q < math.inf:                 # each comparison fails on NaN
        raise ValueError(f"q must be a finite number above 1, got {q!r}")
    qprime = q / (q - 1.0)
    lo1, lo2 = (x.omega * (1.0 / p + 1.0 / qprime) for x in (pspace.x1, pspace.x2))
    gamma1 = lo1 + 1.0 if gamma1 is None else gamma1
    gamma2 = lo2 + 1.0 if gamma2 is None else gamma2
    if not (lo1 < gamma1 < math.inf and lo2 < gamma2 < math.inf):
        raise ValueError(
            f"gamma constraint violated: need finite gamma1 > {lo1:.6g} and gamma2 > {lo2:.6g}, "
            f"got ({gamma1:.6g}, {gamma2:.6g})")
    return gamma1, gamma2


def atomic_decompose(pspace: ProductSpace, f: np.ndarray, p: float, q: float,
                     gamma1: float | None = None, gamma2: float | None = None
                     ) -> AtomicDecomposition:
    """Decompose f into (p,q)-atoms with explicit coefficients.

    Requires f doubly mean-zero (no mixed channels), p in (0,1], finite q > 1
    and finite gamma_i > omega_i (1/p + 1/q').  The coefficient for cell (j, l1, l2) is

        lambda = 2^(l1 w1 + l2 w2) ||S(f_Bj)||_r
                 ((1 + l1 w1 + l2 w2) 2^(l1 w1 + l2 w2) mu(Omega~_j))^(1/p - 1/r)

    with r = q for q >= 2 and r = 2 for 1 < q < 2, and the atom is the
    block sum over B_j divided by lambda.  Terms assemble back to f exactly
    up to floating point (finite telescoping).  A product with a one-point
    factor has no wavelet pairs, so there f gets no terms, and a nonzero f
    a residual of 1.
    """
    gammas = _gammas(pspace, p, q, gamma1, gamma2)
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"expected one grid of shape {pspace.shape}, got shape {f.shape}")
    stack = _decompose_stack(pspace, f[None], p, q, gammas, _block_stacks(pspace, gammas))
    return _records(pspace, stack, 0, p, q, gammas)


def _records(pspace: ProductSpace, stack: tuple, k: int, p: float, q: float,
             gammas: tuple[float, float]) -> AtomicDecomposition:
    """Function k's decomposition, records and all, from ``_decompose_stack``'s arrays."""
    terms, avals, vals, residual, reports = stack
    lo = sum(r["n_terms"] for r in reports[:k])
    out = []
    for (omega, pool, (jj, l1, l2), lam, lam_raw, weight, keys, u), values in zip(
            terms[lo:lo + reports[k]["n_terms"]], avals[lo:]):
        atom = ProductAtom(values=values, omega=omega, ell1=l1, ell2=l2, p=p, q=q,
                           grids=pspace.systems,
                           rectangle_atoms=dict(zip(keys, vals[u:u + len(keys)])), pool=pool)
        out.append(DecompositionTerm(lam=lam, lam_raw=lam_raw, weight=weight,
                                     atom=atom, provenance=(jj, l1, l2)))
    return AtomicDecomposition(terms=out, p=p, q=q, gammas=gammas, residual=residual[k],
                               report=reports[k])


def _decompose_stack(pspace: ProductSpace, fs: np.ndarray, p: float, q: float,
                     gammas: tuple[float, float], blocks: list) -> tuple:
    """The decompositions of each grid of the stack fs (k, n1, n2), with the
    floats of one grid's, as arrays: (terms, atoms, rectangle atoms,
    residuals, reports).  ``blocks`` is ``_block_stacks(pspace, gammas)``.
    Terms go by function, then cell; term t is (Omega_j, its pool,
    (j, l1, l2), lambda = weight lambda_raw, lambda_raw, weight, its
    rectangle keys, the row of its first rectangle atom) and its atom is
    atoms[t].

    The passes are stacked: one transform, square function and half test
    for the stack; one ordered sum over every (function, j) shell's
    restricted square function, one over every (function, j, l1, l2,
    rectangle) unit's rectangle atom, one over each cell's atom and one over
    each function's reconstruction; one cancellation test and one max-|a|
    test over all units and cells.
    """
    gamma1, gamma2 = gammas
    coeffs = product_transform(pspace, fs)
    cmax = np.abs(coeffs.ww).max(axis=(1, 2), initial=0.0)     # each grid's largest |c|
    busy = _checked(pspace, fs, coeffs, cmax)
    fq = pspace.lq_norm(fs, q).tolist()
    empty = {"n_terms": 0, "lam_sum": 0.0, "sf_p_norm": 0.0}
    if not busy.any():          # no terms: the reconstruction is 0, and ||0 - f|| = ||f||
        none = np.zeros((0, *pspace.shape))
        return [], none, none, [1.0 if v > 0 else 0.0 for v in fq], [dict(empty) for _ in fs]
    sf = square_function(pspace, coeffs)
    fams = {k: level_sets(pspace, sf[k]) for k in np.flatnonzero(busy).tolist()}
    fn, ii, jw, rows, cols, j_of = _classified(pspace, coeffs.ww, cmax, busy, fams)
    s1, s2 = pspace.systems
    new = _run_starts(fn, j_of)
    shell = np.cumsum(new) - 1                  # shells: the pairs of one (function, j)
    shells = list(zip(fn[new].tolist(), j_of[new].tolist()))
    pools = _pools(pspace, [fams[k][jj] for k, jj in shells])
    group = _covering(pspace, pools, shell, rows, cols)

    # c ** 2 on scalars is C pow; an array's ** 2 is c * c, which can
    # differ from it in the last bit
    cs = coeffs.ww[fn, ii, jw]
    sq = np.array([c ** 2 for c in cs.tolist()])
    sfb2 = _outer_sum(sq / (s1.measures[rows] * s2.measures[cols]), s1.incidence, rows,
                      s2.incidence, cols, np.bincount(shell))
    r = q if q >= 2 else 2.0
    sfb_norm = _nonzero_norms(pspace, np.sqrt(sfb2), r)

    (nb1, kphi1), (nb2, kphi2) = blocks
    (pair, ell1, ell2, cell), cells, (unit_sizes, unit_cell, unit_rect) = _cell_units(
        shell, group, np.where(sfb_norm[shell] != 0.0, nb1[ii] * nb2[jw], 0), nb2[jw])
    sfb_norm = sfb_norm.tolist()
    lam_raw = [cell_scale(pspace, l1, l2) * sfb_norm[t]
               * _budget_power(pspace, pools[t][1], l1, l2, 1.0 / p - 1.0 / r, p)
               for t, l1, l2 in cells]
    with np.errstate(over="ignore", invalid="ignore"):     # inf, and inf - inf
        vals = _outer_sum(cs[pair] / np.array(lam_raw)[cell],
                          kphi1.reshape(-1, pspace.x1.n), ii[pair] * kphi1.shape[1] + ell1,
                          kphi2.reshape(-1, pspace.x2.n), jw[pair] * kphi2.shape[1] + ell2,
                          unit_sizes)
    if not np.isfinite(vals).all():
        raise ValueError("a rectangle atom, c / lambda_raw times building blocks that carry "
                         f"(2^l1)^gamma1 (2^l2)^gamma2, overflows at gamma1 = {gamma1!r} and "
                         f"gamma2 = {gamma2!r}")
    for u in np.flatnonzero(~_cancels(pspace.x1.weight, pspace.x2.weight, vals, 1e-12)):
        vals[u] = _recancelled(pspace, vals[u])
    rects = np.bincount(unit_cell, minlength=len(cells))
    avals = _ordered_sums(rects, pspace.shape,
                          lambda idx, out: np.take(vals, idx, axis=0, out=out))

    kept = np.flatnonzero(np.abs(avals).max(axis=(1, 2), initial=0.0) != 0.0)
    if len(kept) < len(avals):
        avals = avals[kept]
    first_rect = (np.cumsum(rects) - rects).tolist()
    terms, lams, fn_of = [], [], []
    for c in kept.tolist():
        t, l1, l2 = cells[c]
        k, jj = shells[t]
        m_all, u = pools[t][2].m_all, first_rect[c]
        weight = 2.0 ** (-l1 * gamma1 - l2 * gamma2)
        lams.append(weight * lam_raw[c])
        terms.append((fams[k][jj], pools[t], (jj, l1, l2), lams[-1], lam_raw[c], weight,
                      [m_all[g] for g in unit_rect[u:u + rects[c]]], u))
        fn_of.append(k)

    n_terms = np.bincount(fn_of, minlength=len(fs)).tolist()
    lam_arr = np.array(lams)
    recon = _ordered_sums(n_terms, pspace.shape,
                          lambda idx, out: np.multiply(lam_arr[idx][..., None, None],
                                                       avals[idx], out=out))
    err = pspace.lq_norm(recon - fs, q).tolist()
    residual = [e / v if v > 0 else 0.0 for e, v in zip(err, fq)]
    sf_p = ((sf ** p) * pspace.weights).sum(axis=(1, 2)).tolist()
    reports, at = [], 0
    for k, n in enumerate(n_terms):
        lam_sum = _left_sum(abs(lam) ** p for lam in lams[at:at + n])
        at += n
        reports.append({
            "n_terms": n,
            "lam_sum": lam_sum,
            "sf_p_norm": sf_p[k],
            "lam_sum_constant": lam_sum / sf_p[k] if sf_p[k] > 0 else 0.0,
            "epsilon0": pools[0][0],     # one epsilon_0 per space
            "gammas": gammas,
        } if k in fams else dict(empty))
    return terms, avals, vals, residual, reports


def _checked(pspace: ProductSpace, fs: np.ndarray, coeffs: ProductCoefficients,
             cmax: np.ndarray) -> np.ndarray:
    """Which grids of the stack get terms, after each grid's input checks:
    the mixed channels against ||f|| (Parseval), which does not vanish with
    them, and a finite normal square of the largest wavelet coefficient
    (``cmax``, each grid's largest |coefficient|).

    The channels of a mean over one point are the function itself, whose
    centring leaves the rounding of what was centred, so they are not
    tested; a product with a one-point factor has no wavelet pairs, and
    its functions get no terms (a nonzero one keeps a residual of 1).
    """
    norms = coeffs.channel_norms()
    cmax = cmax.tolist()
    tested = [c for c, n in (("ws", pspace.x2.n), ("sw", pspace.x1.n), ("ss", 2)) if n > 1]
    busy = np.zeros(len(fs), dtype=bool)
    for k, f in enumerate(fs):
        one = {c: float(v[k]) for c, v in norms.items()}
        if max(one[c] for c in tested) > 1e-10 * math.hypot(*one.values()):
            raise ChannelError(one)
        busy[k] = coeffs.ww[k].size > 0 and f.any()
        if busy[k] and not _normal(cmax[k] * cmax[k]):
            raise ValueError(f"largest wavelet coefficient {cmax[k]!r} has no finite normal "
                             "square; rescale the function or the weights")
    return busy


def _classified(pspace: ProductSpace, cw: np.ndarray, cmax: np.ndarray, busy: np.ndarray,
                fams: dict):
    """Each busy function's live pairs (function, i, j) with their cube rows
    and B_j, in shell order: by function, then j, then as argwhere lists them.

    A pair is live when its coefficient is above COEFF_TOL of its
    function's largest (``cmax``); its B_j is its function's last level set
    on which the pair's rectangle keeps its majority, from half tests on the
    wavelet cubes over every function's level sets in stacks of at most
    SUM_BATCH wavelet pairs (one set at least), each keeping only its sets'
    hits on their pairs.
    """
    fn, ii, jw = np.nonzero((np.abs(cw) > COEFF_TOL * cmax[:, None, None]) & busy[:, None, None])
    b1, b2 = pspace.bases
    rows, cols = b1.cube_rows[ii], b2.cube_rows[jw]
    pairs = {k: slice(*np.searchsorted(fn, (k, k + 1)).tolist()) for k in fams}
    sets = [(k, jj) for k, fam in fams.items() for jj in fam]     # function by function
    hits = []                   # each set's half test on its function's pairs
    for s in stack_slices(pspace, len(sets), b1.n_wavelets * b2.n_wavelets):
        passes = _majority(pspace, np.array([fams[k][jj].mask for k, jj in sets[s]]),
                           b1.cube_rows, b2.cube_rows)
        hits += [passes[i, ii[pairs[k]], jw[pairs[k]]] for i, (k, _) in enumerate(sets[s])]
    j_of = np.empty(len(fn), dtype=int)
    at = 0
    for k, fam in fams.items():
        js = np.array(list(fam))
        hit = np.array(hits[at:at + len(js)])         # (set, pair) of function k
        at += len(js)
        if not hit.any(axis=0).all():
            raise AssertionError("nonzero-coefficient rectangle escaped classification")
        j_of[pairs[k]] = js[len(js) - 1 - hit[::-1].argmax(axis=0)]
    order = np.lexsort((j_of, fn))
    return tuple(a[order] for a in (fn, ii, jw, rows, cols, j_of))


def _covering(pspace: ProductSpace, pools: list, shell: np.ndarray, rows: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """Each pair's covering rectangle (tau's position in its shell's family);
    shells with one enlargement (so one family) are handled together.  tau
    raises, naming the rectangle, exactly when it escapes its enlargement: a
    contained rectangle climbs through contained parent extensions to a
    maximal one."""
    alike: dict = {}
    for t, (_, omega_t, _) in enumerate(pools):
        alike.setdefault(omega_t.key(), []).append(t)
    group = np.zeros(len(shell), dtype=int)
    for ts in alike.values():
        sel = np.flatnonzero(np.isin(shell, ts))
        group[sel] = tau(pspace, pools[ts[0]][2], rows[sel], cols[sel])
    return group


def _cell_units(shell: np.ndarray, group: np.ndarray, per_pair: np.ndarray,
                n2b: np.ndarray):
    """The terms of every (shell, l1, l2) cell, split into units.

    Pair k has per_pair[k] = n1b[k] n2b[k] terms (or none), one in each cell
    with l1 < n1b[k] and l2 < n2b[k].  Cells go by shell, l1, then l2; a
    cell's units are its pairs of one covering rectangle (``group``), first
    seen first, each keeping its pairs in order.  Returns each term's
    (pair, l1, l2, cell), each cell's (shell, l1, l2) and each unit's
    (size, cell, rectangle).
    """
    pair = np.repeat(np.arange(len(shell)), per_pair)
    nth = np.arange(len(pair)) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair)
    ell1, ell2 = nth // n2b[pair], nth % n2b[pair]
    order = np.lexsort((ell2, ell1, shell[pair]))
    pair, ell1, ell2 = pair[order], ell1[order], ell2[order]
    new = _run_starts(shell[pair], ell1, ell2)
    cell = np.cumsum(new) - 1
    cells = list(zip(shell[pair][new].tolist(), ell1[new].tolist(), ell2[new].tolist()))
    _, seen, inverse = np.unique(cell * (group.max() + 1) + group[pair], return_index=True,
                                 return_inverse=True)
    order = np.argsort(seen[inverse], kind="stable")
    pair, ell1, ell2, cell = pair[order], ell1[order], ell2[order], cell[order]
    new = _run_starts(cell, group[pair])
    return ((pair, ell1, ell2, cell), cells,
            (np.bincount(np.cumsum(new) - 1), cell[new], group[pair][new].tolist()))


def _view_on(pspace: ProductSpace, grids) -> ProductSpace:
    """The product space on other grids (None or the space's own: itself)."""
    if grids is None or grids == pspace.systems:
        return pspace
    return ProductSpace(pspace.x1, pspace.x2, system1=grids[0], system2=grids[1])


def verify_atom(pspace: ProductSpace, atom: ProductAtom) -> dict:
    """Check every (p,q)-atom condition numerically.

    Exact checks (support containments, rectangle-atom indexing, per-variable
    cancellation, decomposition into rectangle atoms) either pass or name the
    failing condition and rectangle; size-type conditions report measured
    constants.  Stretch ratios for the 1 < q < 2 branch are certified at the
    default delta = q/(2p) and at STRETCH_DELTAS.
    """
    view = _view_on(pspace, atom.grids)
    p, q = atom.p, atom.q
    failures: list[str] = []
    eps0, omega_t, family = atom.pool or _pools(view, [atom.omega])[0]
    (lam1, lam2), (dil1, dil2) = _boxes(view, family, atom.ell1, atom.ell2)
    support = ell_enlarge(view, omega_t, atom.ell1, atom.ell2, lam1, lam2)

    scale = float(np.abs(atom.values).max())
    if scale > 0 and (np.abs(atom.values) > 1e-14 * scale)[~support.mask].any():
        failures.append("condition (1): support escapes the enlarged open set")

    budget = _size_budget(view, omega_t, atom.ell1, atom.ell2, p, q)
    a_q = _nonzero_norms(view, atom.values, q)
    c_q_size = a_q / budget

    at = {key: i for i, key in enumerate(family.m_all)}      # key -> family position
    w1, w2 = view.x1.weight, view.x2.weight

    total = np.zeros(view.shape)
    for key, vals in atom.rectangle_atoms.items():
        total += vals
        if key not in at:
            failures.append(f"condition (3): rectangle {key} is not in the maximal family")
            continue
        box = np.outer(dil1[at[key]], dil2[at[key]])
        vscale = float(np.abs(vals).max())
        if vscale == 0:
            continue
        livemask = np.abs(vals) > 1e-14 * vscale
        if (livemask & ~box).any():
            failures.append(f"condition (3)(i): rectangle atom {key} escapes its dilated box")
        if (livemask & ~support.mask).any():
            failures.append(f"condition (3)(i): rectangle atom {key} escapes the enlargement")
        if not _cancels(w1, w2, vals, CANCEL_TOL):
            failures.append(f"condition (3)(ii): cancellation fails on rectangle {key}")

    if scale > 0 and np.abs(total - atom.values).max() > 1e-12 * scale:
        failures.append("condition (3): rectangle atoms do not sum to the atom")

    cert: dict = {
        "passed": not failures,
        "failures": failures,
        "C_q_size": c_q_size,
        "n_rectangle_atoms": len(atom.rectangle_atoms),
        "epsilon0": eps0,
    }
    # each rectangle atom's ||a_R||_q^q, in key order
    norms_q = [view.lq_norm(vals, q) ** q for vals in atom.rectangle_atoms.values()]
    if q >= 2:
        cert["C_q_iii_a"] = (_left_sum(norms_q) ** (1.0 / q)) / budget
    else:
        ratios = {}
        delta_default = q / (2.0 * p)
        s2 = view.systems[1]
        drops = _level_drops(s2, family.cols, family.hat2)
        # (rho_R, ||a_R||_q^q) of the family's rectangles, rho_R = delta^drop
        weighed = [(s2.delta ** drops[at[key]], n) for key, n in zip(atom.rectangle_atoms, norms_q)
                   if key in at]
        for d in sorted(set(STRETCH_DELTAS) | {delta_default}):
            s = _left_sum(rho ** d * n for rho, n in weighed)
            ratios[d] = (s ** (1.0 / q)) / budget
        cert["C_q_delta_iii_b"] = ratios
        cert["delta_default"] = delta_default
    return cert


def generate_atom(pspace: ProductSpace, rng, p: float, q: float,
                  ell1: int, ell2: int,
                  grids: tuple[DyadicSystem, DyadicSystem] | None = None
                  ) -> ProductAtom | None:
    """Random (p,q)-atom: rectangle atoms on the maximal rectangles of a
    random open set's enlargement, per-variable mean-zeroed by projection,
    normalized to the condition-(2) budget (C_q = 1).

    Returns None when the random draw degenerates (single-point boxes cannot
    carry cancellation); callers redraw.
    """
    view = _view_on(pspace, grids)
    s1, s2 = view.systems

    mask = np.zeros(view.shape, dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        a = int(rng.integers(s1.n_cubes()))
        b = int(rng.integers(s2.n_cubes()))
        mask |= np.outer(s1.incidence[a] > 0, s2.incidence[b] > 0)
    omega = OpenSet.from_mask(view, mask)
    pool = _pools(view, [omega])[0]
    _, omega_t, family = pool
    if not family.m_all:
        return None
    _, (dil1, dil2) = _boxes(view, family, ell1, ell2)
    rect_atoms = {}
    values = np.zeros(view.shape)
    for i in rng.permutation(len(family.m_all))[:MAX_RECTS]:
        u, v = dil1[i], dil2[i]
        if u.sum() < 2 or v.sum() < 2:
            continue
        block = _mean_zero(rng.standard_normal((int(u.sum()), int(v.sum()))),
                           view.x1.weight[u], view.x2.weight[v])
        vals = np.zeros(view.shape)
        vals[np.ix_(u, v)] = block
        key = family.m_all[i]
        rect_atoms[key] = rect_atoms.get(key, 0.0) + vals
        values = values + vals
    if not rect_atoms or np.abs(values).max() == 0.0:
        return None

    budget = _size_budget(view, omega_t, ell1, ell2, p, q)
    norm = view.lq_norm(values, q)
    scale = budget / norm
    values = values * scale
    rect_atoms = {k: v * scale for k, v in rect_atoms.items()}
    return ProductAtom(values=values, omega=omega, ell1=ell1, ell2=ell2, p=p, q=q,
                       grids=view.systems, rectangle_atoms=rect_atoms, pool=pool)


def _stacked_hp(pspace: ProductSpace, grids, p: float) -> list[float]:
    """``hp_seminorm`` of each grid of a list or stack, computed on stacks of
    at most SUM_BATCH entries."""
    return [float(v) for s in stack_slices(pspace, len(grids))
            for v in hp_seminorm(pspace, np.asarray(grids[s], dtype=float), p)]


def equivalence_report(pspace: ProductSpace, corpus, p: float, q: float) -> dict:
    """Two-sided comparison of the H^p seminorm with atomic coefficient sums.

    Per corpus function: upper ratio sum|lam|^p / ||f||_Hp^p from the forward
    construction, lower ratio its reciprocal certified through the converse
    uniform bound max ||S(a)||_p over the produced atoms.
    """
    corpus = list(corpus)          # a generator would be used up by the emptiness test
    if not corpus:
        raise ValueError("empty corpus")
    hp = _stacked_hp(pspace, corpus, p)
    gammas = _gammas(pspace, p, q, None, None)
    blocks = _block_stacks(pspace, gammas)
    rows = []
    for s in stack_slices(pspace, len(corpus)):
        _, avals, _, residual, reports = _decompose_stack(
            pspace, np.asarray(corpus[s], dtype=float), p, q, gammas, blocks)
        sa = _stacked_hp(pspace, avals, p)
        last = 0
        for hp_f, res, rep in zip(hp[s], residual, reports):
            hp_p = hp_f ** p
            lam_sum = rep["lam_sum"]
            sa_f, last = sa[last:last + rep["n_terms"]], last + rep["n_terms"]
            rows.append({
                "hp_p": hp_p,
                "lam_sum": lam_sum,
                "upper_ratio": lam_sum / hp_p if hp_p > 0 else 0.0,
                "lower_ratio": hp_p / lam_sum if lam_sum > 0 else 0.0,
                "residual": res,
                "max_sa_p": max(sa_f, default=0.0),
            })
    ups = [r["upper_ratio"] for r in rows if r["upper_ratio"] > 0]
    los = [r["lower_ratio"] for r in rows if r["lower_ratio"] > 0]
    return {
        "per_function": rows,
        "upper_ratio_range": (min(ups), max(ups)) if ups else (0.0, 0.0),
        "lower_ratio_range": (min(los), max(los)) if los else (0.0, 0.0),
        "max_sa_p": max(r["max_sa_p"] for r in rows),
        "all_finite": all(math.isfinite(r["upper_ratio"]) and math.isfinite(r["lower_ratio"])
                          for r in rows),
    }
