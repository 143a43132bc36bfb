"""Densities, currents and regularized momentum moments.

Moments of distributional Wigner terms diverge when taken literally; they are
defined through the damping e^{-alpha |p|} followed by the limit
alpha -> 0+.  For kappa = a x + b != 0 that limit is exact, term by term:

    DeltaLine  w(x) delta(p - p0)
               -> w(x) p0^n
    PVLine     amp sin(theta0 + kappa q) vp 1/q
               -> amp pi p0^n sgn(kappa) cos(theta0)
    Smooth     amp [sin(theta0 + kappa1 q) - sin(theta0 + kappa2 q)] / q
               -> amp pi r^n (sgn kappa1 - sgn kappa2) cos(theta0)

with q = p - p0 (or p - r): the damped oscillatory moments
integral p^j e^{-alpha|p|} e^{i kappa q} dp vanish in the limit, and the
damped principal value of e^{i kappa q}/q tends to i pi sgn(kappa).

Two kinds of point have no finite moment and raise instead of returning one:
kappa = 0 inside a term's window (``ExtrapolationError``; the higher moments
diverge there) and x on a finite edge of a term's window
(``GridDomainError``; the term switches on or off at that x).
"""

from __future__ import annotations

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .distributions import DeltaLine, DistributionalWigner, PVLine, Smooth
from .errors import ExtrapolationError, GridDomainError
from .grids import PhaseGrid, WignerField
from .states import SpinorWaveState

__all__ = [
    "CurrentSample",
    "regularized_moment",
    "correlation_moment",
    "spatial_density",
    "current_nonrel",
    "current_dirac",
    "current_field_nonrel",
    "current_field_dirac",
    "oracle_current_wavefunction",
    "continuity_residual",
    "beam_decompose",
    "BeamDecomposition",
]

#: kept for callers of the former extrapolation policies; the exact limit needs none
TIGHT_POLICY = None


@dataclass(frozen=True)
class CurrentSample:
    x: float
    j: float
    side: str | None = None  # "left"/"right" of a barrier, when meaningful


MAX_MOMENT_ORDER = 3


def _sign(kappa: float, term, order: int, x: float) -> float:
    if kappa == 0.0:
        raise ExtrapolationError(
            f"moment of order {order} diverges at x = {x}: kappa = 0 for the "
            f"{type(term.kind).__name__} term {term.mn} {term.label!r}")
    return math.copysign(1.0, kappa)


def _term_limit(term, order: int, x: float) -> float:
    """alpha -> 0+ limit of the damped moment of one term at x."""
    k = term.kind
    if isinstance(k, DeltaLine):
        return float(k.weight(x)) * k.p0 ** order
    cos_theta0 = math.cos(k.k_x * x + k.phi0)
    if isinstance(k, PVLine):
        return (k.amp * math.pi * k.p0 ** order * cos_theta0
                * _sign(k.a_x * x + k.b0, term, order, x))
    if isinstance(k, Smooth):
        signs = (_sign(k.a1 * x + k.b1, term, order, x)
                 - _sign(k.a2 * x + k.b2, term, order, x))
        return k.amp * math.pi * k.r ** order * signs * cos_theta0
    raise TypeError(f"unknown term kind {type(k).__name__}")


def regularized_moment(dw: DistributionalWigner, order: int, x: float, *,
                       component: tuple[int, int] | None = None) -> float:
    """integral dp p^order W(p, x) in the alpha -> 0+ sense (exact limit).

    Sums all internal components unless ``component`` selects one.  Raises
    GridDomainError when x lies on a finite edge of any term's window and
    ExtrapolationError when kappa = 0 for a term whose window contains x.
    """
    if not 0 <= order <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must lie in 0..{MAX_MOMENT_ORDER}")
    total = 0.0
    for t in dw.terms:
        if x == t.window.lo or x == t.window.hi:
            raise GridDomainError(
                f"x = {x} lies on the edge of the window of term {t.mn} {t.label!r}")
        if (component is None or t.mn == component) and t.window.contains(x):
            total += _term_limit(t, order, x)
    return total


# -- densities and currents ---------------------------------------------------

def _interp_on_x(values_x: np.ndarray, grid: PhaseGrid, x: float) -> float:
    if not grid.x_min <= x <= grid.x_max:
        raise GridDomainError(f"x = {x} outside the grid range")
    return float(np.interp(x, grid.x, values_x))


# ``policy`` below is accepted and ignored: the moments are exact limits and need none.

def spatial_density(w, x: float, policy=None) -> float:
    """rho(x) = sum_{m,n} integral dp W(p, x, phi_m, n)."""
    if isinstance(w, WignerField):
        return _interp_on_x(w.marginal_x(), w.grid, x)
    return regularized_moment(w, 0, x)


def current_nonrel(w, x: float, mass: float = 1.0, policy=None) -> float:
    """j(x) = (1/M) sum_{m,n} integral dp p W -- probability current."""
    if isinstance(w, WignerField):
        return _interp_on_x(current_field_nonrel(w, mass), w.grid, x)
    return regularized_moment(w, 1, x) / mass


def current_dirac(w, x: float, q: float = 1.0, c: float = 1.0, policy=None) -> float:
    """j(x) = q c integral dp [W(phi_0,0) + W(phi_0,1) - W(phi_1,0) - W(phi_1,1)]."""
    if isinstance(w, WignerField):
        return _interp_on_x(current_field_dirac(w, q, c), w.grid, x)
    total = 0.0
    for m, n, sign in ((0, 0, 1.0), (0, 1, 1.0), (1, 0, -1.0), (1, 1, -1.0)):
        total += sign * regularized_moment(w, 0, x, component=(m, n))
    return q * c * total


def current_field_nonrel(w: WignerField, mass: float = 1.0) -> np.ndarray:
    """Current on the whole x grid (grid route).

    The p integral is the lattice sum of :meth:`WignerField.marginal_x`, so
    density and current are built by one rule.
    """
    return (w.grid.p @ w.values.sum(axis=(0, 1))) * (w.grid.dp / mass)


def current_field_dirac(w: WignerField, q: float = 1.0, c: float = 1.0) -> np.ndarray:
    """Dirac current on the whole x grid; p lattice sum as for the density."""
    signed = (w.values[0, 0] + w.values[0, 1] - w.values[1, 0] - w.values[1, 1])
    return q * c * w.grid.dp * signed.sum(axis=0)


def oracle_current_wavefunction(state: SpinorWaveState, x: float, mode: str, *,
                                mass: float = 1.0, q: float = 1.0, c: float = 1.0,
                                hbar: float = 1.0, grid: PhaseGrid | None = None) -> float:
    """Position-representation current; the independent oracle for pure states.

    mode "nonrel": j = (hbar/M) Im(sum_s conj(Psi_s) dPsi_s/dx);
    mode "dirac":  j = q c (Psi_1 conj(Psi_0) + Psi_0 conj(Psi_1)).

    Sampled states are evaluated at ``x`` itself, on or off the grid nodes,
    through the trigonometric interpolant of the samples and of their
    spectral derivative; ``x`` outside the grid raises GridDomainError.
    """
    if state.is_piecewise:
        psi = state.evaluate(np.asarray([x]), hbar)[:, 0]
        dpsi = state.derivative(np.asarray([x]), hbar)[:, 0]
    else:
        if grid is None:
            raise ValueError("sampled states require a grid for the oracle current")
        if not grid.x_min <= x <= grid.x_max:
            raise GridDomainError(f"x = {x} outside the grid range")
        psi_arr = state.samples
        n = psi_arr.shape[1]
        spec = np.fft.fft(psi_arr, axis=1)
        kvals = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.dx)
        wave = np.exp(1j * kvals * (x - grid.x_min)) / n
        psi = spec @ wave
        dpsi = spec @ (1j * kvals * wave)
    if mode == "nonrel":
        return float(hbar / mass * np.imag(np.vdot(psi, dpsi)))
    if mode == "dirac":
        return float(q * c * 2.0 * np.real(psi[0] * np.conj(psi[1])))
    raise ValueError("mode must be 'nonrel' or 'dirac'")


def continuity_residual(trajectory, x: float, t: float, *, current: str = "nonrel",
                        mass: float = 1.0, q: float = 1.0, c: float = 1.0,
                        derivative: str = "central") -> float:
    """d rho / dt + d j / dx at (x, t) from a sampled trajectory.

    Uses central differences in time over the frames bracketing ``t``; the
    spatial derivative is central by default or spectral when requested
    (sharper than the grid's O(dx^2) when the current field is band-limited).
    Density and current both use the p lattice sum, so for an exact
    trajectory the residual is the truncation of the time difference alone:
    delta^2 rho_ttt / 6 for frames spaced delta apart.  Frame spacing must
    keep that term below the tolerance the caller applies.
    """
    times = np.asarray(trajectory.times)
    if len(times) < 3:
        raise ValueError("need at least three time samples")
    it = int(np.argmin(np.abs(times - t)))
    if it == 0 or it == len(times) - 1:
        raise ValueError("t must be bracketed by trajectory samples")
    grid = trajectory.grid
    w_prev, w_mid, w_next = (trajectory.fields[i] for i in (it - 1, it, it + 1))

    rho_prev, rho_next = w_prev.marginal_x(), w_next.marginal_x()
    drho_dt = (rho_next - rho_prev) / (times[it + 1] - times[it - 1])

    if current == "nonrel":
        j = current_field_nonrel(w_mid, mass)
    elif current == "dirac":
        j = current_field_dirac(w_mid, q, c)
    else:
        raise ValueError("current must be 'nonrel' or 'dirac'")

    i = int(np.argmin(np.abs(grid.x - x)))
    if i == 0 or i == grid.n_x - 1:
        raise GridDomainError("x must be interior to the grid")
    if derivative == "central":
        dj_dx = (j[i + 1] - j[i - 1]) / (2.0 * grid.dx)
    elif derivative == "spectral":
        kvals = 2.0 * math.pi * np.fft.fftfreq(grid.n_x, d=grid.dx)
        dj = np.fft.ifft(np.fft.fft(j) * 1j * kvals).real
        dj_dx = dj[i]
    else:
        raise ValueError("derivative must be 'central' or 'spectral'")
    return float(drho_dt[i] + dj_dx)


_STENCILS = {
    # central finite-difference stencils (offset multiples of h, weights)
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def correlation_moment(state: SpinorWaveState, order: int, x: float,
                       hbar: float = 1.0, dxi: float = 0.05,
                       component: tuple[int, int] | None = None) -> float:
    """Grid-route momentum moment through the correlation representation.

    Uses integral dp p^n W(p, x) = (i hbar)^n d^n/dxi^n A(xi, x) at xi = 0,
    where A is the spin-contracted correlation psi(x - xi/2) psi_bar(x + xi/2)
    sampled on a xi lattice of spacing ``dxi`` (central differences).  Plain
    momentum-space quadrature cannot see the cancellation of oscillatory
    1/(p - p0) tails; this route can, because the tails correspond to xi
    support away from zero.
    """
    if not 0 <= order <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must lie in 0..{MAX_MOMENT_ORDER}")
    if not state.is_piecewise:
        raise ValueError("correlation route requires plane-wave pieces")
    from .quantizer import omega_array
    omega = omega_array()

    def corr(xi: float) -> float:
        left = state.evaluate(np.asarray([x - 0.5 * xi]), hbar)[:, 0]
        right = state.evaluate(np.asarray([x + 0.5 * xi]), hbar)[:, 0]
        if component is None:
            # sum over (m, n): the Omega matrices add to twice the identity
            return complex(np.vdot(right, left))
        m, n = component
        return complex(0.5 * np.einsum("s,st,t->", right.conj(), omega[m, n], left))

    acc = 0.0 + 0.0j
    for offset, weight in _STENCILS[order]:
        acc += weight * corr(offset * dxi)
    acc /= dxi ** order if order else 1.0
    return float(((1j * hbar) ** order * acc).real)


# -- beam decomposition -------------------------------------------------------

@dataclass(frozen=True)
class BeamDecomposition:
    j_inc: float
    j_ref: float
    j_total: float
    mean_abs_momentum: float
    table: tuple[tuple[float, float, float, float], ...]  # (G, estimate, j_inc_G, j_ref_G)


def beam_decompose(state: SpinorWaveState, x_left: float, g_values,
                   mode: str, *, mass: float = 1.0, q: float = 1.0, c: float = 1.0,
                   hbar: float = 1.0) -> BeamDecomposition:
    """Split the current left of the barrier into incident and reflected parts.

    The finite-G estimator integrates the projected density against the
    eigenvalue of the momentum-magnitude weight (sqrt(2 M H) for the
    nonrelativistic case, sqrt(H^2 - M^2 c^4)/c for the Dirac one; both act
    as the scalar p on the stationary state), then combines the G -> inf
    limit with half the conserved total current.
    """
    if not state.is_piecewise:
        raise ValueError("beam decomposition requires plane-wave pieces")
    g_values = sorted(float(g) for g in g_values)
    if not g_values or g_values[0] <= 0:
        raise ValueError("G values must be positive")

    left = [pc for pc in state.pieces
            if math.isinf(pc.a) and pc.a < 0 and pc.b >= x_left]
    if not left:
        raise ValueError("no plane-wave pieces on x < x_left")
    p_mag = abs(left[0].momentum)
    if any(not math.isclose(abs(pc.momentum), p_mag, rel_tol=1e-12) for pc in left):
        raise ValueError("left pieces must share one momentum magnitude")
    a_amp = np.zeros(2, dtype=complex)
    b_amp = np.zeros(2, dtype=complex)
    for pc in left:
        if pc.momentum > 0:
            a_amp += pc.amps
        else:
            b_amp += pc.amps

    if mode == "nonrel":
        weight = 1.0 / (2.0 * mass)
    elif mode == "dirac":
        energy = math.sqrt((c * p_mag) ** 2 + (mass * c * c) ** 2)
        weight = q * c * c / (2.0 * energy)
    else:
        raise ValueError("mode must be 'nonrel' or 'dirac'")

    sum_sq = float(np.sum(np.abs(a_amp) ** 2 + np.abs(b_amp) ** 2))
    cross = complex(np.sum(a_amp * b_amp.conj()))
    j_total = oracle_current_wavefunction(
        state, x_left - 0.5, mode, mass=mass, q=q, c=c, hbar=hbar)

    rows = []
    estimates = []
    for g in g_values:
        osc = hbar / (2j * p_mag) * (cmath.exp(2j * p_mag * x_left / hbar)
                                     - cmath.exp(-2j * p_mag * g / hbar))
        integral = (x_left + g) * sum_sq + 2.0 * (cross * osc).real
        est = p_mag * integral / g
        estimates.append(est)
        rows.append((g, est, weight * est + 0.5 * j_total,
                     -weight * est + 0.5 * j_total))

    # est(G) = est_inf + O(1/G): fit G*est against G; the slope is the limit
    gs = np.asarray(g_values)
    est_inf = float(np.polyfit(gs, gs * np.asarray(estimates), 1)[0])
    return BeamDecomposition(
        j_inc=weight * est_inf + 0.5 * j_total,
        j_ref=-weight * est_inf + 0.5 * j_total,
        j_total=j_total,
        mean_abs_momentum=est_inf,
        table=tuple(rows),
    )
