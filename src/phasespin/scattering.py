"""Closed-form solvers: free eigenstates and step-potential scattering.

Natural units by default (hbar = M = c = q = 1).  The step is V(x) = 0 for
x < 0 and V0 for x >= 0.  Every solver returns exact distributional Wigner
functions built by the pairwise plane-wave factory together with the
closed-form currents and transmission/reflection coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .distributions import DeltaLine, DistributionalWigner, Term
from .errors import UnsupportedModelError
from .exactalg import QC, qc_matmul
from .grids import FULL_LINE
from .quantizer import omega_array, wigner_distributional
from .states import PlaneWavePiece, SpinorWaveState

__all__ = [
    "ScatterConfig",
    "ScatterReport",
    "FreeState",
    "StepSolution",
    "free_eigenstate_nonrel",
    "free_eigenstate_dirac",
    "free_dirac_nonrel_limit_weights",
    "solve_step_nonrel",
    "solve_step_dirac",
    "klein_scan",
    "KleinRow",
    "verify_free_eigen_distributional",
    "FreeEigenReport",
]

_PAIR_LABELS = {
    frozenset((0,)): "inc",
    frozenset((1,)): "ref",
    frozenset((2,)): "trans",
    frozenset((0, 1)): "inc-ref",
    frozenset((0, 2)): "inc-trans",
    frozenset((1, 2)): "ref-trans",
}


@dataclass(frozen=True)
class ScatterConfig:
    energy: float
    v0: float
    mass: float = 1.0
    c: float = 1.0
    q: float = 1.0
    hbar: float = 1.0
    spin_up: complex = 1.0 + 0j
    spin_down: complex = 0.0 + 0j
    mode: str = "nonrel"

    def __post_init__(self):
        if self.mode not in ("nonrel", "dirac"):
            raise ValueError("mode must be 'nonrel' or 'dirac'")
        if min(self.mass, self.c, self.hbar) <= 0:
            raise ValueError("mass, c and hbar must be positive")
        if self.mode == "nonrel":
            norm = abs(self.spin_up) ** 2 + abs(self.spin_down) ** 2
            if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-12):
                raise ValueError("spin amplitudes must satisfy |A1|^2 + |A0|^2 = 1")
            if self.v0 < 0 or self.energy <= self.v0:
                raise ValueError("nonrelativistic step requires E > V0 >= 0")

    @property
    def rest_energy(self) -> float:
        return self.mass * self.c ** 2

    def dirac_regime(self) -> str:
        mc2 = self.rest_energy
        if self.energy <= mc2:
            raise UnsupportedModelError(
                "energy at or below the rest energy is outside the treated regimes")
        if self.v0 >= self.energy + mc2:
            return "klein"
        if self.energy - self.v0 > mc2:
            return "above-barrier"
        raise UnsupportedModelError(
            "evanescent window E - Mc^2 < V0 < E + Mc^2 is out of scope")


@dataclass(frozen=True)
class ScatterReport:
    p: float
    p_tilde: float
    j_inc: float
    j_ref: float
    j_trans: float
    transmission: float
    reflection: float
    n_trans: float | None = None
    n_ref: float | None = None
    regime: str = "nonrel"

    @property
    def t_signed(self) -> float:
        return self.j_trans / self.j_inc


@dataclass(frozen=True)
class FreeState:
    wigner: DistributionalWigner
    current: float
    energy: float
    state: SpinorWaveState | None = None


@dataclass(frozen=True)
class StepSolution:
    report: ScatterReport
    wigner: DistributionalWigner
    state: SpinorWaveState

    def current_terms(self) -> DistributionalWigner:
        """Only the incident/reflected/transmitted self terms, the families
        that carry the currents."""
        return self.wigner.filtered(("inc", "ref", "trans"))


# ---------------------------------------------------------------------------
# Free eigenstates
# ---------------------------------------------------------------------------

def _spin_coefficients(spin) -> np.ndarray:
    if isinstance(spin, str):
        if spin == "up":
            return np.array([[0.0, 0.5], [0.0, 0.5]])
        if spin == "down":
            return np.array([[0.5, 0.0], [0.5, 0.0]])
        raise ValueError("spin must be 'up', 'down' or a (2, 2) coefficient table")
    coeff = np.asarray(spin, dtype=float)
    if coeff.shape != (2, 2):
        raise ValueError("coefficient table must have shape (2, 2) indexed (m, n)")
    if not math.isclose(float(coeff.sum()), 1.0, rel_tol=0, abs_tol=1e-12):
        raise ValueError("coefficients must sum to 1")
    # the table is the symbol of the internal density matrix
    # rho = sum C[m, n] Omega(m, n), which must be positive semidefinite
    # (its marginal pair sums are then nonnegative as well)
    rho = np.einsum("mn,mnij->ij", coeff, omega_array())
    if np.linalg.eigvalsh(rho)[0] < -1e-12:
        raise ValueError("coefficients must give a positive semidefinite "
                         "internal density matrix")
    return coeff


def free_eigenstate_nonrel(p: float, spin="up", *, mass: float = 1.0,
                           hbar: float = 1.0) -> FreeState:
    """Free spin-1/2 momentum eigenstate: x-independent delta-line Wigner.

    ``spin`` is 'up', 'down' or a (2, 2) table of real coefficients C[m, n]
    with unit sum whose internal density matrix rho = sum C[m, n] Omega(m, n)
    is positive semidefinite.  The current equals
    p / (2 pi hbar M) regardless of the internal coefficients.
    """
    coeff = _spin_coefficients(spin)
    state = None
    if isinstance(spin, str):
        amp = 1.0 / math.sqrt(2.0 * math.pi * hbar)
        up_amp = amp if spin == "up" else 0.0
        down_amp = amp if spin == "down" else 0.0
        state = SpinorWaveState(pieces=[
            PlaneWavePiece(-math.inf, math.inf, up_amp, down_amp, p)])
        dw = wigner_distributional(state, hbar)
    else:
        terms = tuple(
            Term((m, n), FULL_LINE,
                 DeltaLine(p0=p, amp=coeff[m, n] / (2.0 * math.pi * hbar)))
            for m in (0, 1) for n in (0, 1) if coeff[m, n] != 0.0)
        dw = DistributionalWigner(terms, hbar)
    current = p / (2.0 * math.pi * hbar * mass)
    return FreeState(wigner=dw, current=current, energy=p * p / (2.0 * mass),
                     state=state)


def _dirac_weights(p: float, energy: float, mass: float, c: float) -> np.ndarray:
    """Delta-line weights of the free Dirac eigenstate, indexed (m, n).

    Normalized so the weights sum to 2 (total marginal (2 pi hbar)^{-1} after
    the 1/(4 pi hbar) prefactor).
    """
    cp = c * p
    gap = energy - mass * c * c
    den = cp * cp + gap * gap
    if den == 0.0:  # p = 0: all weight on the rest-energy components
        w = np.zeros((2, 2))
        col = 1 if energy > 0 else 0
        w[:, col] = 1.0
        return w
    return np.array([
        [gap * (cp + gap) / den, cp * (cp + gap) / den],      # m = 0: (n=0, n=1)
        [gap * (gap - cp) / den, cp * (cp - gap) / den],      # m = 1
    ])


def free_eigenstate_dirac(p: float, branch: str = "particle", *, mass: float = 1.0,
                          c: float = 1.0, q: float = 1.0,
                          hbar: float = 1.0) -> FreeState:
    """Free 1-D Dirac eigenstate of momentum p and energy sign ``branch``.

    Exactly one of the four delta-line components is negative for p != 0.
    The charge current is q c^2 p / (2 pi hbar E); it flips sign between the
    particle and antiparticle branches.
    """
    if branch not in ("particle", "antiparticle"):
        raise ValueError("branch must be 'particle' or 'antiparticle'")
    if mass <= 0 or c <= 0:
        raise ValueError("mass and c must be positive")
    sign = 1.0 if branch == "particle" else -1.0
    energy = sign * math.sqrt((c * p) ** 2 + (mass * c * c) ** 2)

    weights = _dirac_weights(p, energy, mass, c)
    terms = tuple(
        Term((m, n), FULL_LINE,
             DeltaLine(p0=p, amp=weights[m, n] / (4.0 * math.pi * hbar)))
        for m in (0, 1) for n in (0, 1) if weights[m, n] != 0.0)
    dw = DistributionalWigner(terms, hbar)

    gap = energy - mass * c * c
    if gap != 0.0:
        upper = c * p / gap
        norm = 1.0 / math.sqrt((upper * upper + 1.0) * 2.0 * math.pi * hbar)
        spinor = (upper * norm, norm)
    else:
        spinor = (1.0 / math.sqrt(2.0 * math.pi * hbar), 0.0)
    state = SpinorWaveState(pieces=[
        PlaneWavePiece(-math.inf, math.inf, spinor[0], spinor[1], p)])
    current = q * c * c * p / (2.0 * math.pi * hbar * abs(energy)) * sign
    return FreeState(wigner=dw, current=current, energy=energy, state=state)


def free_dirac_nonrel_limit_weights(branch: str = "particle") -> np.ndarray:
    """Limiting weights for Mc^2 >> |c p|: all weight on two components."""
    w = np.zeros((2, 2))
    w[:, 1 if branch == "particle" else 0] = 1.0
    return w


# ---------------------------------------------------------------------------
# Step potential: nonrelativistic
# ---------------------------------------------------------------------------

def solve_step_nonrel(cfg: ScatterConfig) -> StepSolution:
    """Scattering of a spin-1/2 beam with E > V0 on the sharp step at x = 0.

    The wave function is 1/2 (1 + pt/p) e^{ipx/h} + 1/2 (1 - pt/p) e^{-ipx/h}
    on the left and e^{i pt x / h} on the right, carrying an arbitrary unit
    spinor; T and R do not depend on the spinor.
    """
    if cfg.mode != "nonrel":
        raise ValueError("config mode must be 'nonrel'")
    m, hbar = cfg.mass, cfg.hbar
    p = math.sqrt(2.0 * m * cfg.energy)
    pt = math.sqrt(2.0 * m * (cfg.energy - cfg.v0))
    r = pt / p
    a1, a0 = complex(cfg.spin_up), complex(cfg.spin_down)
    state = SpinorWaveState(pieces=[
        PlaneWavePiece(-math.inf, 0.0, 0.5 * (1 + r) * a1, 0.5 * (1 + r) * a0, p),
        PlaneWavePiece(-math.inf, 0.0, 0.5 * (1 - r) * a1, 0.5 * (1 - r) * a0, -p),
        PlaneWavePiece(0.0, math.inf, a1, a0, pt),
    ])
    dw = wigner_distributional(state, hbar, _PAIR_LABELS)
    j_inc = 0.25 * (1 + r) ** 2 * p / m
    j_ref = -0.25 * (1 - r) ** 2 * p / m
    j_trans = pt / m
    report = ScatterReport(
        p=p, p_tilde=pt, j_inc=j_inc, j_ref=j_ref, j_trans=j_trans,
        transmission=j_trans / j_inc, reflection=abs(j_ref) / j_inc,
        regime="nonrel")
    return StepSolution(report=report, wigner=dw, state=state)


# ---------------------------------------------------------------------------
# Step potential: 1-D Dirac (Klein paradox)
# ---------------------------------------------------------------------------

def _n_trans_closed_form(energy: float, mass: float, c: float, v0: float) -> float:
    """Matching amplitude from the continuity of the spinor at x = 0."""
    mc2 = mass * c * c
    root1 = math.sqrt(energy * energy - mc2 * mc2)
    root2 = math.sqrt((energy - v0) ** 2 - mc2 * mc2)
    return (1.0 + energy / mc2 + mc2 / v0 + root1 * root2 / (mc2 * v0)
            - energy * energy / (mc2 * v0))


def _dirac_step_report(cfg: ScatterConfig) -> ScatterReport:
    """Momenta, matching amplitudes, currents and T, R of the Dirac step."""
    regime = cfg.dirac_regime()
    e, m, c, q, v0 = cfg.energy, cfg.mass, cfg.c, cfg.q, cfg.v0
    mc2 = m * c * c
    p = math.sqrt(e * e - mc2 * mc2) / c
    pt = math.sqrt((e - v0) ** 2 - mc2 * mc2) / c

    gap_in = e - mc2
    gap_out = e - v0 - mc2
    if regime == "klein" and v0 > 0:
        n_trans = _n_trans_closed_form(e, m, c, v0)
    else:
        n_trans = 2.0 * p * gap_out / (p * gap_out + pt * gap_in)
    n_ref = n_trans - 1.0

    j_inc = 2.0 * c * c * q * p / gap_in
    j_ref = -2.0 * c * c * q * p * n_ref ** 2 / gap_in
    j_trans = 2.0 * c * c * q * pt * n_trans ** 2 / gap_out if pt != 0.0 else 0.0
    return ScatterReport(
        p=p, p_tilde=pt, j_inc=j_inc, j_ref=j_ref, j_trans=j_trans,
        transmission=abs(j_trans) / abs(j_inc), reflection=abs(j_ref) / abs(j_inc),
        n_trans=n_trans, n_ref=n_ref, regime=regime)


def solve_step_dirac(cfg: ScatterConfig) -> StepSolution:
    """Dirac step scattering in the Klein regime (V0 >= E + Mc^2) or the
    above-barrier regime (E - V0 > Mc^2).

    In the Klein regime the transmitted branch has E = -sqrt(pt^2 c^2 +
    M^2 c^4) + V0, the transmitted current is negative and R - T = 1.
    """
    if cfg.mode != "dirac":
        raise ValueError("config mode must be 'dirac'")
    rep = _dirac_step_report(cfg)
    mc2 = cfg.mass * cfg.c * cfg.c
    gap_in = cfg.energy - mc2
    gap_out = cfg.energy - cfg.v0 - mc2
    up_in = cfg.c * rep.p / gap_in
    up_out = cfg.c * rep.p_tilde / gap_out if gap_out != 0.0 else 0.0
    state = SpinorWaveState(pieces=[
        PlaneWavePiece(-math.inf, 0.0, up_in, 1.0, rep.p),
        PlaneWavePiece(-math.inf, 0.0, -rep.n_ref * up_in, rep.n_ref, -rep.p),
        PlaneWavePiece(0.0, math.inf, rep.n_trans * up_out, rep.n_trans, rep.p_tilde),
    ])
    dw = wigner_distributional(state, cfg.hbar, _PAIR_LABELS)
    return StepSolution(report=rep, wigner=dw, state=state)


@dataclass(frozen=True)
class KleinRow:
    v0: float
    n_trans: float | None
    n_ref: float | None
    transmission: float | None
    reflection: float | None
    t_signed: float | None
    error: str | None = None

    @property
    def r_minus_t(self) -> float | None:
        if self.transmission is None:
            return None
        return self.reflection - self.transmission


def klein_scan(energy: float, mass: float, c: float, q: float,
               v0_values) -> list[KleinRow]:
    """Transmission table over step heights in the Klein regime.

    Each row needs only the scattering report, so no Wigner function is built.
    """

    def one(v0: float) -> KleinRow:
        try:
            if v0 < energy + mass * c * c:
                raise UnsupportedModelError(
                    "scan rows must satisfy V0 >= E + Mc^2")
            rep = _dirac_step_report(ScatterConfig(
                energy=energy, v0=v0, mass=mass, c=c, q=q, mode="dirac"))
            return KleinRow(v0, rep.n_trans, rep.n_ref, rep.transmission,
                            rep.reflection, rep.t_signed)
        except (UnsupportedModelError, ValueError) as exc:
            return KleinRow(v0, None, None, None, None, None, error=str(exc))

    return [one(float(v)) for v in v0_values]


# ---------------------------------------------------------------------------
# Exact star-eigenvalue checks for the free states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeEigenReport:
    mode: str
    momentum: float
    branch: str
    residuals: tuple  # ((m, n, complex_residual), ...) as floats
    exact_zero: bool
    x_independent: bool


def _omega_qc(d: Fraction):
    om = omega_array()
    out = {}
    for m in (0, 1):
        for n in (0, 1):
            # entries are 0, +-1/2, 1: exact binary floats
            out[(m, n)] = [[QC.make(Fraction(om[m, n][i, j].real), 0,
                                    Fraction(om[m, n][i, j].imag), 0, d=d)
                            for j in (0, 1)] for i in (0, 1)]
    return out


def verify_free_eigen_distributional(mode: str, p, branch: str = "particle", *,
                                     mass=1, c=1,
                                     energy_offset=0) -> FreeEigenReport:
    """Substitute the exact delta-line eigenfunction into the four coupled
    star-eigenvalue component equations and check the residuals are
    identically zero (exact rational arithmetic in Q(E) + iQ(E)).

    ``energy_offset`` shifts E to demonstrate nonzero detection; inputs are
    taken as exact rationals (floats convert via their binary expansion).
    """
    p = Fraction(p) if not isinstance(p, Fraction) else p
    mass = Fraction(mass) if not isinstance(mass, Fraction) else mass
    c = Fraction(c) if not isinstance(c, Fraction) else c
    offset = Fraction(energy_offset) if not isinstance(energy_offset, Fraction) else energy_offset

    if mode == "nonrel":
        d = Fraction(0)
        e_val = QC.make(p * p / (2 * mass) + offset, d=d)
        # all four Hamilton components are p^2 / 2M: a scalar internal matrix
        ham = [[QC.make(p * p / (2 * mass), d=d), QC.make(0, d=d)],
               [QC.make(0, d=d), QC.make(p * p / (2 * mass), d=d)]]
        # spin-up projector in basis (|1>, |0>)
        upr = QC.make(1, d=d)
        zer = QC.make(0, d=d)
        dens = [[upr, zer], [zer, zer]] if branch != "down" else [[zer, zer], [zer, upr]]
    elif mode == "dirac":
        d = (c * p) ** 2 + (mass * c * c) ** 2
        sign = 1 if branch == "particle" else -1
        e_val = QC.make(offset, sign, d=d)
        cp = QC.make(c * p, d=d)
        mc2 = QC.make(mass * c * c, d=d)
        zer = QC.make(0, d=d)
        ham = [[mc2, cp], [cp, zer - mc2]]
        # eigen-spinor (c p / (E - Mc^2), 1); density matrix normalized exactly
        gap = QC.make(-mass * c * c, sign, d=d)  # E - Mc^2
        if p == 0:
            chi = [QC.make(1, d=d), zer] if sign > 0 else [zer, QC.make(1, d=d)]
        else:
            chi = [cp / gap, QC.make(1, d=d)]
        nrm = chi[0] * chi[0].conj() + chi[1] * chi[1].conj()
        dens = [[chi[i] * chi[j].conj() / nrm for j in (0, 1)] for i in (0, 1)]
    else:
        raise ValueError("mode must be 'nonrel' or 'dirac'")

    omegas = _omega_qc(d)
    prod = qc_matmul(ham, dens)
    residuals = []
    exact = True
    for m in (0, 1):
        for n in (0, 1):
            om = omegas[(m, n)]
            # Tr{(H rho - E rho) Omega}
            tr = QC.make(0, d=d)
            for i in (0, 1):
                for j in (0, 1):
                    tr = tr + (prod[i][j] - e_val * dens[i][j]) * om[j][i]
            residuals.append((m, n, tr.to_complex()))
            exact = exact and tr.is_zero()

    # structural x-independence of the eigenfunction term list: pure delta
    # lines with constant weights on the full line, so every derivative term
    # of the star expansion is identically absent
    if mode == "nonrel":
        free = free_eigenstate_nonrel(float(p), "up" if branch != "down" else "down",
                                      mass=float(mass))
    else:
        free = free_eigenstate_dirac(float(p), branch, mass=float(mass), c=float(c))
    x_indep = all(isinstance(t.kind, DeltaLine) and t.kind.k_x == 0.0
                  and t.window.is_full_line for t in free.wigner.terms)
    return FreeEigenReport(mode=mode, momentum=float(p), branch=branch,
                           residuals=tuple(residuals), exact_zero=exact,
                           x_independent=x_indep)
