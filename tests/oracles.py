"""Independent slow-route oracles used by the tests only.

These deliberately avoid the production code paths: the star-product oracle
expands one factor in plane-wave modes and applies the half-shift rule mode
by mode, the moment oracles integrate the damped integrand by adaptive
quadrature or through its closed forms, and the alpha -> 0+ limit is reached
by Neville extrapolation over a damping sequence.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1, expi, factorial

from phasespin.grids import PhaseGrid


def brute_star(f: np.ndarray, g: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Mode-by-mode evaluation of the Moyal product (O(N^2) FFTs).

    Writes g as its trigonometric interpolant and uses the fact that a star
    product against the plane wave e^{i(lam x + mu p)} evaluates the other
    factor at (x - hbar mu / 2, p + hbar lam / 2).
    """
    hbar = grid.hbar
    n_p, n_x = grid.n_p, grid.n_x
    G = np.fft.fft2(g)
    F = np.fft.fft2(f)
    mu = 2.0 * np.pi * np.fft.fftfreq(n_p, d=grid.dp)     # p-conjugate
    lam = 2.0 * np.pi * np.fft.fftfreq(n_x, d=grid.dx)    # x-conjugate
    P, X = np.meshgrid(grid.p, grid.x, indexing="ij")
    out = np.zeros((n_p, n_x), dtype=complex)
    for k in range(n_p):
        for l in range(n_x):
            if G[k, l] == 0:
                continue
            wave = np.exp(1j * (mu[k] * (P - grid.p_min) + lam[l] * (X - grid.x_min)))
            # f evaluated at (x - hbar mu_k / 2, p + hbar lam_l / 2)
            shift = np.exp(-1j * lam[:, None].T * 0)  # placeholder shape
            phase = np.exp(1j * (-lam[None, :] * (hbar * mu[k] / 2.0)
                                 + mu[:, None] * (hbar * lam[l] / 2.0)))
            f_shift = np.fft.ifft2(F * phase)
            out += G[k, l] * wave * f_shift
    return out / (n_p * n_x)


def gaussian_wigner(grid: PhaseGrid, x0: float, p0: float, sigma: float) -> np.ndarray:
    """Wigner function of the Gaussian packet exp(-(x-x0)^2/(2 sigma^2) + i p0 x / hbar)."""
    P, X = np.meshgrid(grid.p, grid.x, indexing="ij")
    hbar = grid.hbar
    return (1.0 / (np.pi * hbar)) * np.exp(-(X - x0) ** 2 / sigma ** 2
                                           - sigma ** 2 * (P - p0) ** 2 / hbar ** 2)


def quad_damped_moment(kind, order: int, x: float, alpha: float,
                       pole_window: float = 8.0) -> float:
    """Adaptive-quadrature value of integral p^n e^{-alpha|p|} (term)(p, x) dp.

    The damping regularizes the oscillatory tails of principal-value and
    smooth lines, which are integrated over the whole line.  Delta lines
    integrate exactly and are left undamped, matching the alpha-independent
    delta-line moments of the production closed forms.
    """
    from phasespin.distributions import DeltaLine, PVLine, Smooth

    if isinstance(kind, DeltaLine):
        return float(kind.weight(x)) * kind.p0 ** order
    if isinstance(kind, PVLine):
        p0 = kind.p0

        def fn(p):
            return p ** order * np.exp(-alpha * abs(p)) * kind.envelope(p, x)

        inner = quad(fn, p0 - pole_window, p0 + pole_window,
                     weight="cauchy", wvar=p0, limit=400)[0]
        left = quad(lambda p: fn(p) / (p - p0), -np.inf, p0 - pole_window, limit=800)[0]
        right = quad(lambda p: fn(p) / (p - p0), p0 + pole_window, np.inf, limit=800)[0]
        return inner + left + right
    if isinstance(kind, Smooth):
        def fn(p):
            return p ** order * np.exp(-alpha * abs(p)) * kind.profile(p, x)

        pieces = [(-np.inf, kind.r - 5.0), (kind.r - 5.0, kind.r + 5.0),
                  (kind.r + 5.0, np.inf)]
        return sum(quad(fn, a, b, limit=800)[0] for a, b in pieces)
    raise TypeError(type(kind).__name__)


# -- closed-form damped moments and their extrapolated limit -----------------
#
# Every damped integral of a term reduces to two closed forms:
#
#     B_n(alpha, k) = integral p^n e^{-alpha|p|} e^{i k p} dp
#                   = n! [ (alpha - i k)^{-(n+1)} + (-1)^n (alpha + i k)^{-(n+1)} ]
#
#     P(alpha, k, p0) = vp integral e^{-alpha|p|} e^{i k p} / (p - p0) dp,
#
# the latter expressed with exponential integrals of complex argument.

#: geometric damping sequence for the Neville limit
NEVILLE_ALPHAS = tuple(0.1 * 2.0 ** (-k) for k in range(13))


def _osc_moments(order: int, alphas: np.ndarray, k: float) -> np.ndarray:
    """B_n(alpha, k) for n = 0..order; shape (order+1, n_alpha)."""
    s_m = alphas - 1j * k
    s_p = alphas + 1j * k
    n = np.arange(order + 1)[:, None]
    return factorial(n) * (s_m ** -(n + 1) + (-1.0) ** n * s_p ** -(n + 1))


def _pv_base(alphas: np.ndarray, k: float, p0: float) -> np.ndarray:
    """P(alpha, k, p0) = vp integral e^{-alpha|p|} e^{ikp}/(p - p0) dp."""
    if p0 == 0.0:
        return 2j * np.arctan(k / alphas)

    def half_line(s, y):
        # vp integral_0^inf e^{-s p}/(p - y) dp
        if y < 0:
            return np.exp(-s * y) * exp1(-s * y)
        return -np.exp(-s * y) * expi(s * y)

    return half_line(alphas - 1j * k, p0) - half_line(alphas + 1j * k, -p0)


def _pole_moment(order: int, alphas: np.ndarray, k: float, p0: float) -> np.ndarray:
    """Z_n = integral p^n e^{-alpha|p|} e^{i k (p - p0)} / (p - p0) dp."""
    b = _osc_moments(max(order - 1, 0), alphas, k)
    acc = _pv_base(alphas, k, p0) * p0 ** order
    for j in range(order):
        acc = acc + p0 ** (order - 1 - j) * b[j]
    return np.exp(-1j * k * p0) * acc


def damped_moments(kind, order: int, x: float, alphas) -> np.ndarray:
    """The alpha-damped moment of one term kind at position x, per alpha.

    Delta lines integrate exactly and are alpha-independent; principal-value
    and smooth oscillatory lines use the closed forms above.
    """
    from phasespin.distributions import DeltaLine, PVLine, Smooth

    alphas = np.asarray(alphas, dtype=float)
    if isinstance(kind, DeltaLine):
        return np.full(alphas.shape, float(kind.weight(x)) * kind.p0 ** order)
    theta0 = kind.k_x * x + kind.phi0
    if isinstance(kind, PVLine):
        z = _pole_moment(order, alphas, kind.a_x * x + kind.b0, kind.p0)
    elif isinstance(kind, Smooth):
        z = (_pole_moment(order, alphas, kind.a1 * x + kind.b1, kind.r)
             - _pole_moment(order, alphas, kind.a2 * x + kind.b2, kind.r))
    else:
        raise TypeError(type(kind).__name__)
    return kind.amp * (cmath.exp(1j * theta0) * z).imag


def neville_moment(dw, order: int, x: float) -> float:
    """alpha -> 0+ moment of a term list: Neville extrapolation of the summed
    damped forms through polynomials of order 4 in alpha."""
    a = np.asarray(NEVILLE_ALPHAS)
    t = np.zeros(len(a))
    for term in dw.terms:
        if term.window.contains(x):
            t += damped_moments(term.kind, order, x, a)
    for m in range(1, 5):
        for i in range(len(t) - 1, m - 1, -1):
            t[i] = (a[i - m] * t[i] - a[i] * t[i - 1]) / (a[i - m] - a[i])
    return float(t[-1])


def windowed_linear_star(x: np.ndarray, p: np.ndarray, s: float, hbar: float) -> np.ndarray:
    """Closed form of (x w) * (p w) for the window w = exp(-(x^2 + p^2)/(2 s^2)).

    With z = x + i p the linear rules z * h = (z + hbar d/dzbar) h and
    zbar * h = (zbar - hbar d/dz) h hold, and w * z = q z * w,
    w * zbar = zbar * w / q with q = (1 + k)/(1 - k), k = hbar/(2 s^2).
    Writing x w = (x * w + w * x)/2 and p w = (p * w + w * p)/2, moving every
    w to the right and using the Gaussian rule for w2 = w * w leaves a
    quadratic polynomial in z, zbar applied to w2.
    """
    k = hbar / (2.0 * s * s)
    q = (1.0 + k) / (1.0 - k)
    al, be = 1.0 + q, 1.0 + 1.0 / q
    a = 1.0 / (2.0 * s * s)
    c2 = 1.0 / (1.0 + (hbar * a) ** 2)
    gam = 2.0 * a * c2
    g = hbar * gam
    w2 = c2 * np.exp(-gam * (x ** 2 + p ** 2))
    z, zb = x + 1j * p, x - 1j * p
    zz = (1 - g) ** 2 * z * z                    # z * z * w2 / w2
    zzb = (1 + g) * ((1 - g) * z * zb + hbar)    # z * zbar * w2 / w2
    zbz = (1 - g) * ((1 + g) * z * zb - hbar)    # zbar * z * w2 / w2
    zbzb = (1 + g) ** 2 * zb * zb                # zbar * zbar * w2 / w2
    poly = q * al * al * zz - al * be / q * zzb + q * al * be * zbz - be * be / q * zbzb
    return poly * w2 / 16j
