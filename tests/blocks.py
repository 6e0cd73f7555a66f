"""The building blocks' measured constants and their square function.

``wavelet.building_blocks`` gives kappa and one wavelet's blocks phi_l as an
(L + 1, n) array, and the pipeline reads nothing else.  Criterion 3 and the
block tests check the construction with these helpers: the recombination
sum_l (cbar 2^l)^(-gamma) phi_l = psi / kappa, the support balls
B(y, 2 a0^2 cbar 2^l delta^k) and the measured boundedness and Holder
constants (eta = 1: the ramp cut-offs are Lipschitz).  The block square
function at a cell (l1, l2) is the one of the converse proof.
"""

import numpy as np

from prodhardy.product import _indicator_over_measure, cell_scale


def recombine(blocks: np.ndarray, gamma: float, cbar: float) -> np.ndarray:
    """sum_l (cbar 2^l)^(-gamma) phi_l, which is psi / kappa."""
    out = np.zeros_like(blocks[0])
    for ell, phi in enumerate(blocks):
        out += (cbar * 2.0 ** ell) ** -gamma * phi
    return out


def block_certificates(space, wavelet, blocks: np.ndarray, cbar: float) -> dict:
    """Measured boundedness and Holder constants of one wavelet's blocks.

    With t = cbar 2^l, y the wavelet's center and delta^k its scale:
    boundedness |phi_l(x)| <= C t^omega / mu(B(y, t delta^k)), and Holder,
    over pairs with d(x, x') <= delta^k,
    |phi_l(x) - phi_l(x')| <= C (t delta^k)^-1 t^omega d(x, x') / mu(B(y, t delta^k)).
    The construction only guarantees such constants exist; the certificate
    pins the realized values.  A block that is nonzero off its support ball
    B(y, 2 a0^2 t delta^k) is an AssertionError.
    """
    c_bound = c_holder = 0.0
    d_y, scale = space.dist[wavelet.center], wavelet.scale
    close = space.dist <= scale
    np.fill_diagonal(close, False)
    i, j = np.nonzero(close)
    for ell, phi in enumerate(blocks):
        t = cbar * 2.0 ** ell
        mu_ball = float(space.weight[d_y < t * scale].sum())
        c_bound = max(c_bound, float(np.abs(phi).max()) * mu_ball / t ** space.omega)
        if len(i):
            num = np.abs(phi[i] - phi[j]) * mu_ball
            den = t ** space.omega * space.dist[i, j] / (t * scale)
            c_holder = max(c_holder, float((num / den).max()))
        outside = d_y >= 2.0 * space.a0 ** 2 * t * scale
        if np.abs(phi[outside]).max(initial=0.0) != 0.0:
            raise AssertionError(f"block {ell} leaks outside its support ball")
    return {"boundedness": c_bound, "holder": c_holder}


def block_square_function(pspace, g: np.ndarray, blocks1: list, blocks2: list,
                          ell1: int, ell2: int):
    """Square function built from building blocks at cell (ell1, ell2).

    ``blocks1`` and ``blocks2`` hold each factor's block arrays, one per
    wavelet.  Evaluates (sum_R |<phi_{ell1} phi_{ell2}, g>|^2 chi_R / mu(R))^(1/2)
    over all wavelet rectangles (a wavelet whose block series ended before the
    requested index contributes 0) and returns the values together with the
    measured ratio against 2^(ell1 omega1 + ell2 omega2) ||g||_2.
    """
    if not blocks1 or not blocks2:
        raise ValueError("building blocks missing for one factor")
    g = np.asarray(g, dtype=float)
    w1, w2 = pspace.x1.weight, pspace.x2.weight
    phi1 = np.array([b[ell1] if ell1 < len(b) else np.zeros_like(w1) for b in blocks1])
    phi2 = np.array([b[ell2] if ell2 < len(b) else np.zeros_like(w2) for b in blocks2])
    inner = (phi1 * w1) @ g @ (phi2 * w2).T            # <phi_ell1 phi_ell2, g> per pair
    u1, u2 = (_indicator_over_measure(b) for b in pspace.bases)
    vals = np.sqrt(u1.T @ inner ** 2 @ u2)
    norm = pspace.lq_norm(vals, 2.0)
    gnorm = pspace.lq_norm(g, 2.0)
    scale = cell_scale(pspace, ell1, ell2)
    ratio = norm / (scale * gnorm) if gnorm > 0 else 0.0
    return vals, {"lq_norm": norm, "g_norm": gnorm, "scale": scale, "ratio": ratio}
