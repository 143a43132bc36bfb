"""Independent reference computations for the benchmark checks.

Everything here is built from the physics directly, with numpy only: wave
functions from matching conditions at the step, the Moyal Gaussian rule, a
position-space split-step propagator and closed-form Gaussian Wigner
functions.  Nothing here imports phasespin.

Conventions follow the package: spinors are ordered (upper, lower) =
(|1>, |0>), the Dirac Hamiltonian is c p sigma_x + M c^2 sigma_z + V(x), the
step sits at x = 0, and the density of a pure state is rho = sum_s |psi_s|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


# -- the discrete quantizer, from its displacement-operator sum ---------------

def omega_matrices() -> np.ndarray:
    """Omega(m, n) = 1/2 sum_{k,l} (-1)^{kl} e^{-i pi (k m + l n)} D(k, l).

    D(k, l) = e^{-i pi k l / 2} R^k V^l with V = diag(-1, 1) and R = sigma_x
    in the basis order (|1>, |0>).  Shape (2, 2, 2, 2) indexed (m, n, i, j).
    """
    v = np.diag([-1.0, 1.0]).astype(complex)
    r = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    for m in (0, 1):
        for n in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    d = np.exp(-0.5j * math.pi * k * l) \
                        * np.linalg.matrix_power(r, k) @ np.linalg.matrix_power(v, l)
                    out[m, n] += 0.5 * (-1.0) ** (k * l) * (-1.0) ** (k * m + l * n) * d
    return out


OMEGA = omega_matrices()


def internal_symbol(mat: np.ndarray) -> np.ndarray:
    """Discrete symbol Tr{M Omega(m, n)}, shape (2, 2)."""
    return np.einsum("ij,mnji->mn", mat, OMEGA)


def spinor_symbol(c: np.ndarray) -> np.ndarray:
    """Internal Wigner weights 1/2 <c| Omega(m, n) |c> of a unit spinor."""
    return 0.5 * np.einsum("s,mnst,t->mn", c.conj(), OMEGA, c).real


# -- step scattering by matching at x = 0 --------------------------------------

@dataclass(frozen=True)
class StepWave:
    """psi(x) = sum of (amplitude spinor) e^{i k x} on each side of the step."""

    left: tuple    # ((spinor, k), ...) on x < 0
    right: tuple   # ((spinor, k), ...) on x > 0
    j_inc: float
    j_ref: float
    j_trans: float

    def psi(self, x: float) -> np.ndarray:
        waves = self.left if x < 0 else self.right
        return sum(s * np.exp(1j * k * x) for s, k in waves)

    def density(self, x: float) -> float:
        return float(np.sum(np.abs(self.psi(x)) ** 2))

    def current(self, x: float) -> float:
        """The conserved current on the side of x (constant there)."""
        return self.j_inc + self.j_ref if x < 0 else self.j_trans

    @property
    def transmission(self) -> float:
        return abs(self.j_trans) / abs(self.j_inc)

    @property
    def reflection(self) -> float:
        return abs(self.j_ref) / abs(self.j_inc)


def nonrel_step(energy: float, v0: float, spinor, mass: float = 1.0,
                hbar: float = 1.0) -> StepWave:
    """Spin-1/2 step with transmitted amplitude 1: solve psi and psi'
    continuity, A + B = 1 and p (A - B) = p_t, for A and B."""
    p = math.sqrt(2.0 * mass * energy)
    pt = math.sqrt(2.0 * mass * (energy - v0))
    a, b = np.linalg.solve(np.array([[1.0, 1.0], [p, -p]]), np.array([1.0, pt]))
    s = np.asarray(spinor, dtype=complex)
    norm = float(np.sum(np.abs(s) ** 2))
    k, kt = p / hbar, pt / hbar
    return StepWave(left=((a * s, k), (b * s, -k)), right=((s, kt),),
                    j_inc=p / mass * a * a * norm, j_ref=-p / mass * b * b * norm,
                    j_trans=pt / mass * norm)


def _dirac_spinor(p: float, kinetic_energy: float, mass: float, c: float) -> np.ndarray:
    """Eigen-spinor (c p / (E - M c^2), 1) of c p sigma_x + M c^2 sigma_z."""
    return np.array([c * p / (kinetic_energy - mass * c * c), 1.0], dtype=complex)


def _dirac_current(s: np.ndarray, q: float, c: float) -> float:
    return float(2.0 * q * c * np.real(s[0] * np.conj(s[1])))


def dirac_step(energy: float, v0: float, mass: float = 1.0, c: float = 1.0,
               q: float = 1.0, hbar: float = 1.0) -> StepWave:
    """1-D Dirac step with incident spinor (c p / (E - M c^2), 1): solve
    spinor continuity chi_inc + r chi_ref = t chi_trans for r and t.

    The transmitted wave is e^{+i p_t x / hbar} with p_t >= 0 in both
    regimes, so in the Klein regime (V0 >= E + M c^2) its current is negative.
    """
    mc2 = mass * c * c
    p = math.sqrt(energy * energy - mc2 * mc2) / c
    pt = math.sqrt((energy - v0) ** 2 - mc2 * mc2) / c
    inc = _dirac_spinor(p, energy, mass, c)
    ref = _dirac_spinor(-p, energy, mass, c)
    trans = _dirac_spinor(pt, energy - v0, mass, c)
    r, t = np.linalg.solve(np.column_stack([ref, -trans]), -inc)
    return StepWave(left=((inc, p / hbar), (r * ref, -p / hbar)),
                    right=((t * trans, pt / hbar),),
                    j_inc=_dirac_current(inc, q, c),
                    j_ref=_dirac_current(r * ref, q, c),
                    j_trans=_dirac_current(t * trans, q, c))


def klein_row(energy: float, v0: float, mass: float = 1.0, c: float = 1.0,
              q: float = 1.0) -> dict:
    """One Klein-scan row (V0 >= E + M c^2) from spinor matching."""
    wave = dirac_step(energy, v0, mass, c, q)
    # the transmitted and reflected spinors have lower component 1
    n_t = float(wave.right[0][0][1].real)
    n_r = float(wave.left[1][0][1].real)
    return {"n_trans": n_t, "n_ref": n_r,
            "transmission": wave.transmission, "reflection": wave.reflection,
            "t_signed": wave.j_trans / wave.j_inc}


# -- Moyal Gaussian rule --------------------------------------------------------

def gaussian_star(a: float, b: float, z2: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """e^{-a|z|^2} * e^{-b|z|^2} = e^{-(a+b)|z|^2/(1+hbar^2 ab)} / (1+hbar^2 ab),
    with |z|^2 = (x - x0)^2 + (p - p0)^2 about a common centre."""
    d = 1.0 + hbar * hbar * a * b
    return np.exp(-(a + b) * z2 / d) / d


# -- Gaussian Wigner functions -------------------------------------------------

def gaussian_packet(x: np.ndarray, x0: float, p0: float, sigma: float,
                    hbar: float = 1.0) -> np.ndarray:
    """Normalized (pi sigma^2)^{-1/4} e^{-(x-x0)^2/(2 sigma^2) + i p0 x/hbar}."""
    return (math.pi * sigma * sigma) ** -0.25 * np.exp(
        -(x - x0) ** 2 / (2.0 * sigma * sigma) + 1j * p0 * x / hbar)


def gaussian_wigner(p: np.ndarray, x: np.ndarray, x0: float, p0: float,
                    sigma: float, hbar: float = 1.0) -> np.ndarray:
    """Wigner function of :func:`gaussian_packet` on the (p, x) mesh."""
    return np.exp(-(x - x0) ** 2 / sigma ** 2
                  - sigma ** 2 * (p - p0) ** 2 / hbar ** 2) / (math.pi * hbar)


# -- position-space Dirac propagation ---------------------------------------------

def dirac_split_step(psi0: np.ndarray, dx: float, potential: np.ndarray, t: float,
                     n_steps: int, mass: float = 1.0, c: float = 1.0,
                     hbar: float = 1.0) -> np.ndarray:
    """Strang splitting of i hbar dpsi/dt = (c p sigma_x + M c^2 sigma_z + V) psi
    on a periodic lattice: half potential steps around an exact kinetic step,
    e^{-i tau (a.sigma)} = cos(tau |a|) - i sin(tau |a|) a.sigma / |a| per mode."""
    k = 2.0 * math.pi * np.fft.fftfreq(psi0.shape[1], d=dx)
    ax, az = c * k, mass * c * c / hbar
    norm = np.hypot(ax, az)
    tau = t / n_steps
    cos_t, sin_t = np.cos(tau * norm), np.sin(tau * norm) / norm
    half = np.exp(-0.5j * tau * potential / hbar)
    psi = np.asarray(psi0, dtype=complex)
    for _ in range(n_steps):
        spec = np.fft.fft(psi * half, axis=1)
        up = cos_t * spec[0] - 1j * sin_t * (az * spec[0] + ax * spec[1])
        down = cos_t * spec[1] - 1j * sin_t * (ax * spec[0] - az * spec[1])
        psi = np.fft.ifft(np.array([up, down]), axis=1) * half
    return psi
