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
the classified rectangles in general).

Converse direction: any atom is a grid function, so its H^p seminorm against
the reference wavelet basis is computed directly; corpus runners aggregate
the maximum as the certified uniform constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicSystem
from .journe import MaximalRectangleFamily, majority_matrix, maximal_rectangles, tau
from .maximal import (OpenSet, containment_matrix, ell_enlarge, enlarge, epsilon0,
                      growth_factor, level_sets)
from .product import (ProductSpace, _mean_zero, hp_seminorm, product_transform,
                      square_function)
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
    rectangle_atoms: dict = field(default_factory=dict)   # (q1,q2) key -> values


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

    def lam_sum(self) -> float:
        return sum(abs(t.lam) ** self.p for t in self.terms)

    def reconstruct(self, shape) -> np.ndarray:
        out = np.zeros(shape)
        for t in self.terms:
            out += t.lam * t.atom.values
        return out


def _cancels(w1: np.ndarray, w2: np.ndarray, vals: np.ndarray, tol: float) -> bool:
    """Each column's |int a dmu1| and each row's |int a dmu2| is at most
    ``tol`` times that column's or row's own int |a|."""
    return not ((np.abs(w1 @ vals) > tol * (w1 @ np.abs(vals))).any()
                or (np.abs(vals @ w2) > tol * (np.abs(vals) @ w2)).any())


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


def _pool(view: ProductSpace, omega: OpenSet) -> tuple[float, OpenSet, MaximalRectangleFamily]:
    """The Chang-Fefferman pool of ``omega``: epsilon_0, the enlargement
    Omega~ = {M_s chi_Omega > epsilon_0} and Omega~'s maximal rectangles."""
    eps0 = epsilon0(view)
    omega_t = enlarge(view, omega, eps0)
    return eps0, omega_t, maximal_rectangles(view, omega_t, "both")


def _budget_measure(view: ProductSpace, omega_t: OpenSet, ell1: int, ell2: int) -> float:
    """(1 + l1 w1 + l2 w2) 2^(l1 w1 + l2 w2) mu(Omega~), the (l1, l2) atom budget's measure."""
    return growth_factor(view, ell1, ell2) * omega_t.measure


def _support_multipliers(pspace: ProductSpace, ell1: int, ell2: int) -> tuple[float, float]:
    # rectangle-atom support constants C_i = 2 a0_i^2, scaled by the cell
    return (2.0 * pspace.x1.a0 ** 2 * 2.0 ** ell1,
            2.0 * pspace.x2.a0 ** 2 * 2.0 ** ell2)


def _boxes(view: ProductSpace, ell1: int, ell2: int):
    """The cell's support multipliers and each factor's dilate matrix at
    them: row a of factor i's matrix is the box lam_i Q of cube a."""
    lams = _support_multipliers(view, ell1, ell2)
    return lams, tuple(s.dilate_matrix(lam) for s, lam in zip(view.systems, lams))


def atomic_decompose(pspace: ProductSpace, f: np.ndarray, p: float, q: float,
                     gamma1: float | None = None, gamma2: float | None = None
                     ) -> AtomicDecomposition:
    """Decompose f into (p,q)-atoms with explicit coefficients.

    Requires f doubly mean-zero (no mixed channels), p in (0,1], q > 1 and
    gamma_i > omega_i (1/p + 1/q').  The coefficient for cell (j, l1, l2) is

        lambda = 2^(l1 w1 + l2 w2) ||S(f_Bj)||_r
                 ((1 + l1 w1 + l2 w2) 2^(l1 w1 + l2 w2) mu(Omega~_j))^(1/p - 1/r)

    with r = q for q >= 2 and r = 2 for 1 < q < 2, and the atom is the
    block sum over B_j divided by lambda.  Terms assemble back to f exactly
    up to floating point (finite telescoping).
    """
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if q <= 1:
        raise ValueError("q must exceed 1")
    qprime = q / (q - 1.0)
    lo1, lo2 = (x.omega * (1.0 / p + 1.0 / qprime) for x in (pspace.x1, pspace.x2))
    gamma1 = lo1 + 1.0 if gamma1 is None else gamma1     # default: unit slack
    gamma2 = lo2 + 1.0 if gamma2 is None else gamma2
    if gamma1 <= lo1 or gamma2 <= lo2:
        raise ValueError(
            f"gamma constraint violated: need gamma1 > {lo1:.6g} and gamma2 > {lo2:.6g}, "
            f"got ({gamma1:.6g}, {gamma2:.6g})")

    f = np.asarray(f, dtype=float)
    coeffs = product_transform(pspace, f)
    norms = coeffs.channel_norms()
    fscale = max(norms.values())
    if fscale > 0 and max(norms["ws"], norms["sw"], norms["ss"]) > 1e-10 * fscale:
        raise ChannelError(norms)

    dec = AtomicDecomposition(terms=[], p=p, q=q, gammas=(gamma1, gamma2),
                              residual=0.0)
    cw = coeffs.ww
    cmax = float(np.abs(cw).max(initial=0.0))
    if cmax == 0.0 and not f.any():
        dec.report = {"n_terms": 0, "lam_sum": 0.0, "sf_p_norm": 0.0}
        return dec
    if not np.finfo(float).tiny <= cmax * cmax < math.inf:
        raise ValueError(f"largest wavelet coefficient {cmax!r} has no finite normal "
                         "square; rescale the function or the weights")
    live = np.argwhere(np.abs(cw) > COEFF_TOL * cmax)

    sf = square_function(pspace, coeffs)
    fam, _ = level_sets(pspace, sf)
    b1, b2 = pspace.bases
    g1, g2 = pspace.systems[0].geometry, pspace.systems[1].geometry
    rows, cols = b1.cube_rows[live[:, 0]], b2.cube_rows[live[:, 1]]

    # B_j: the last level set on which the pair's rectangle keeps its majority
    j_of = np.full(len(live), fam.j_lo - 1)
    for jj in fam.js():
        j_of[majority_matrix(pspace, fam.sets[jj])[rows, cols]] = jj
    if (j_of < fam.j_lo).any():
        raise AssertionError("nonzero-coefficient rectangle escaped classification")

    blocks1 = [building_blocks(pspace.x1, w, gamma1, cbar=1.0) for w in b1.wavelets]
    blocks2 = [building_blocks(pspace.x2, w, gamma2, cbar=1.0) for w in b2.wavelets]
    w1o, w2o = pspace.x1.omega, pspace.x2.omega
    sf_p = float(((sf ** p) * pspace.weights).sum())
    recon = np.zeros(pspace.shape)

    for jj in sorted(set(j_of.tolist())):
        sel = j_of == jj
        pairs = np.column_stack([live, rows, cols])[sel].tolist()     # rows [i, j, a, b]
        omega_j = fam.sets[jj]
        eps0, omega_t, family = _pool(pspace, omega_j)
        escaped = ~containment_matrix(pspace, omega_t)[rows[sel], cols[sel]]
        if escaped.any():
            _, _, a, b = pairs[int(escaped.argmax())]
            raise AssertionError(f"classified rectangle {g1.cubes[a].id + g2.cubes[b].id} "
                                 "escapes the enlargement")

        rects = list(dict.fromkeys((a, b) for _, _, a, b in pairs))
        tau_of = dict(zip(rects, tau(pspace, family,
                                     [g1.cubes[a].id + g2.cubes[b].id for a, b in rects])))

        s2 = np.zeros(pspace.shape)
        for i, j, a, b in pairs:
            s2 += (cw[i, j] ** 2 / (g1.measures[a] * g2.measures[b])
                   * np.outer(g1.incidence[a], g2.incidence[b]))
        sfb = np.sqrt(s2)
        r = q if q >= 2 else 2.0
        sfb_norm = pspace.lq_norm(sfb, r)
        if sfb_norm == 0.0:
            continue
        Lmax1 = max(blocks1[i].n_blocks for i, _, _, _ in pairs)
        Lmax2 = max(blocks2[j].n_blocks for _, j, _, _ in pairs)
        for ell1 in range(Lmax1):
            for ell2 in range(Lmax2):
                cell = [(i, j, a, b) for (i, j, a, b) in pairs
                        if blocks1[i].n_blocks > ell1 and blocks2[j].n_blocks > ell2]
                if not cell:
                    continue
                lam_raw = (2.0 ** (ell1 * w1o + ell2 * w2o) * sfb_norm
                           * _budget_measure(pspace, omega_t, ell1, ell2) ** (1.0 / p - 1.0 / r))
                weight = 2.0 ** (-ell1 * gamma1 - ell2 * gamma2)
                rect_atoms: dict = {}
                for i, j, a, b in cell:
                    tkey = tau_of[a, b]
                    bs1, bs2 = blocks1[i], blocks2[j]     # kappa * phi_ell per factor
                    contrib = np.outer(bs1.kappa * bs1.blocks[ell1], bs2.kappa * bs2.blocks[ell2])
                    contrib = cw[i, j] / lam_raw * contrib
                    if tkey in rect_atoms:
                        rect_atoms[tkey] = rect_atoms[tkey] + contrib
                    else:
                        rect_atoms[tkey] = contrib
                rect_atoms = {k: _recancelled(pspace, v) for k, v in rect_atoms.items()}
                avals = np.zeros(pspace.shape)
                for v in rect_atoms.values():
                    avals += v
                if np.abs(avals).max() == 0.0:
                    continue
                atom = ProductAtom(values=avals, omega=omega_j, ell1=ell1, ell2=ell2,
                                   p=p, q=q, grids=pspace.systems,
                                   rectangle_atoms=rect_atoms)
                term = DecompositionTerm(lam=weight * lam_raw, lam_raw=lam_raw,
                                         weight=weight, atom=atom,
                                         provenance=(jj, ell1, ell2))
                dec.terms.append(term)
                recon += term.lam * avals

    fq = pspace.lq_norm(f, q)
    dec.residual = pspace.lq_norm(recon - f, q) / fq if fq > 0 else 0.0
    lam_sum = dec.lam_sum()
    dec.report = {
        "n_terms": len(dec.terms),
        "lam_sum": lam_sum,
        "sf_p_norm": sf_p,
        "lam_sum_constant": lam_sum / sf_p if sf_p > 0 else 0.0,
        "epsilon0": eps0,
        "gammas": (gamma1, gamma2),
    }
    return dec


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
    eps0, omega_t, family = _pool(view, atom.omega)
    (lam1, lam2), (dil1, dil2) = _boxes(view, atom.ell1, atom.ell2)
    support, _ = ell_enlarge(view, omega_t, atom.ell1, atom.ell2, lam1, lam2)

    scale = float(np.abs(atom.values).max())
    if scale > 0 and (np.abs(atom.values) > 1e-14 * scale)[~support.mask].any():
        failures.append("condition (1): support escapes the enlarged open set")

    budget = _budget_measure(view, omega_t, atom.ell1, atom.ell2) ** (1.0 / q - 1.0 / p)
    a_q = view.lq_norm(atom.values, q)
    c_q_size = a_q / budget if budget > 0 else math.inf

    keys_all = {r.key for r in family.m_all}
    g1, g2 = view.systems[0].geometry, view.systems[1].geometry
    w1, w2 = view.x1.weight, view.x2.weight

    total = np.zeros(view.shape)
    sum_q = 0.0
    for key, vals in atom.rectangle_atoms.items():
        total += vals
        sum_q += view.lq_norm(vals, q) ** q
        if key not in keys_all:
            failures.append(f"condition (3): rectangle {key} is not in the maximal family")
            continue
        box = np.outer(dil1[g1.flat(*key[:2])], dil2[g2.flat(*key[2:])])
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
    if q >= 2:
        cert["C_q_iii_a"] = (sum_q ** (1.0 / q)) / budget if budget > 0 else math.inf
    else:
        ratios = {}
        delta_default = q / (2.0 * p)
        for d in sorted(set(STRETCH_DELTAS) | {delta_default}):
            s = 0.0
            for key in atom.rectangle_atoms:
                if key not in keys_all:
                    continue
                rho = view.systems[1].delta ** (key[2] - family.stretch2[key][0])
                s += rho ** d * view.lq_norm(atom.rectangle_atoms[key], q) ** q
            ratios[d] = (s ** (1.0 / q)) / budget if budget > 0 else math.inf
        cert["C_q_delta_iii_b"] = ratios
        cert["delta_default"] = delta_default
    return cert


def atom_hp_bound(pspace: ProductSpace, atom: ProductAtom, p: float) -> float:
    """||S(a)||_{L^p} computed directly with the reference wavelet basis."""
    return hp_seminorm(pspace, atom.values, p)


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
    g1, g2 = view.systems[0].geometry, view.systems[1].geometry

    mask = np.zeros(view.shape, dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        a = int(rng.integers(len(g1.cubes)))
        b = int(rng.integers(len(g2.cubes)))
        mask |= np.outer(g1.incidence[a] > 0, g2.incidence[b] > 0)
    omega = OpenSet.from_mask(view, mask)
    _, omega_t, family = _pool(view, omega)
    if not family.m_all:
        return None
    pool = [family.m_all[int(i)] for i in rng.permutation(len(family.m_all))[:MAX_RECTS]]

    _, (dil1, dil2) = _boxes(view, ell1, ell2)
    rect_atoms = {}
    values = np.zeros(view.shape)
    for ref in pool:
        u, v = dil1[g1.flat(*ref.q1)], dil2[g2.flat(*ref.q2)]
        if u.sum() < 2 or v.sum() < 2:
            continue
        block = _mean_zero(rng.standard_normal((int(u.sum()), int(v.sum()))),
                           view.x1.weight[u], view.x2.weight[v])
        vals = np.zeros(view.shape)
        vals[np.ix_(u, v)] = block
        key = ref.key
        rect_atoms[key] = rect_atoms.get(key, 0.0) + vals
        values = values + vals
    if not rect_atoms or np.abs(values).max() == 0.0:
        return None

    budget = _budget_measure(view, omega_t, ell1, ell2) ** (1.0 / q - 1.0 / p)
    norm = view.lq_norm(values, q)
    scale = budget / norm
    values = values * scale
    rect_atoms = {k: v * scale for k, v in rect_atoms.items()}
    return ProductAtom(values=values, omega=omega, ell1=ell1, ell2=ell2, p=p, q=q,
                       grids=view.systems, rectangle_atoms=rect_atoms)


def equivalence_report(pspace: ProductSpace, corpus, p: float, q: float) -> dict:
    """Two-sided comparison of the H^p seminorm with atomic coefficient sums.

    Per corpus function: upper ratio sum|lam|^p / ||f||_Hp^p from the forward
    construction, lower ratio its reciprocal certified through the converse
    uniform bound max ||S(a)||_p over the produced atoms.
    """
    corpus = list(corpus)          # a generator would be used up by the emptiness test
    if not corpus:
        raise ValueError("empty corpus")
    rows = []
    for f in corpus:
        dec = atomic_decompose(pspace, f, p, q)
        hp_p = hp_seminorm(pspace, f, p) ** p
        lam_sum = dec.lam_sum()
        sa_max = max((atom_hp_bound(pspace, t.atom, p) for t in dec.terms), default=0.0)
        rows.append({
            "hp_p": hp_p,
            "lam_sum": lam_sum,
            "upper_ratio": lam_sum / hp_p if hp_p > 0 else 0.0,
            "lower_ratio": hp_p / lam_sum if lam_sum > 0 else 0.0,
            "residual": dec.residual,
            "max_sa_p": sa_max,
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
