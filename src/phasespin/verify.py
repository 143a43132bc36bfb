"""Machine-checkable identity suite.

Each criterion function returns a list of named checks with explicit
tolerances; the CLI ``verify`` command and the acceptance test module both
run these, so the whole contract is exercisable without reading module
internals.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import time

import numpy as np

from .continuity import (
    beam_decompose,
    continuity_residual,
    correlation_moment,
    current_dirac,
    current_field_nonrel,
    current_nonrel,
    oracle_current_wavefunction,
    regularized_moment,
)
from .distributions import sample_distributional
from .grids import Matrix2, PhaseGrid, SymbolField, WignerField
from .quantizer import (
    discrete_quantizer,
    discrete_quantizer_from_sum,
    hamilton_symbol,
    matrix_to_symbol,
    symbol_to_matrix,
    wigner_distributional,
)
from .scattering import (
    ScatterConfig,
    free_eigenstate_dirac,
    free_eigenstate_nonrel,
    klein_scan,
    solve_step_dirac,
    solve_step_nonrel,
    verify_free_eigen_distributional,
)
from .star import evolve, star, star_apply_hamiltonian, star_discrete, star_discrete_direct, star_eigen_residual
from .states import PlaneWavePiece, SpinorWaveState

__all__ = ["IdentityCheck", "CRITERIA", "run_criterion", "run_all"]


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""


def _check(name: str, value: float, tol: float, detail: str = "") -> IdentityCheck:
    return IdentityCheck(name, float(value), float(tol), bool(value <= tol), detail)


def _timed(checks: list[IdentityCheck], started: float, budget: float) -> list[IdentityCheck]:
    elapsed = time.perf_counter() - started
    checks.append(_check("runtime-seconds", elapsed, budget))
    return checks


# -- criterion 1: quantizer fidelity -----------------------------------------

_OMEGA_LITERALS = {
    (0, 0): [[0.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]],
    (1, 0): [[0.0, -0.5 - 0.5j], [-0.5 + 0.5j, 1.0]],
    (0, 1): [[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 0.0]],
    (1, 1): [[1.0, -0.5 + 0.5j], [-0.5 - 0.5j, 0.0]],
}


def criterion_quantizer(seed: int = 0) -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    dev_list = max(np.max(np.abs(discrete_quantizer(m, n).a - np.asarray(lit)))
                   for (m, n), lit in _OMEGA_LITERALS.items())
    checks.append(_check("omega-matches-tabulated-forms", dev_list, 0.0))
    dev_sum = max(np.max(np.abs(discrete_quantizer(m, n).a
                                - discrete_quantizer_from_sum(m, n).a))
                  for m in (0, 1) for n in (0, 1))
    checks.append(_check("omega-two-construction-routes", dev_sum, 0.0))

    rng = np.random.default_rng(seed)
    worst_rt = 0.0
    worst_herm = 0.0
    for _ in range(200):
        f = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        worst_rt = max(worst_rt, float(np.max(np.abs(
            matrix_to_symbol(symbol_to_matrix(f)) - f))))
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = Matrix2(h + h.conj().T)
        worst_rt = max(worst_rt, float(np.max(np.abs(
            symbol_to_matrix(matrix_to_symbol(h)).a - h.a))))
        worst_herm = max(worst_herm, float(np.max(np.abs(
            matrix_to_symbol(h).imag))))
    checks.append(_check("symbol-matrix-round-trip", worst_rt, 1e-14))
    checks.append(_check("hermitian-gives-real-symbol", worst_herm, 1e-14))

    mass, c = 1.25, 0.75
    hd = hamilton_symbol("dirac", mass=mass, c=c)
    want = np.zeros((2, 2, 3))
    for m in (0, 1):
        for n in (0, 1):
            want[m, n] = ((-1.0) ** (n + 1) * mass * c * c, (-1.0) ** m * c, 0.0)
    checks.append(_check("free-dirac-kinetic-table",
                         float(np.max(np.abs(hd.kinetic - want))), 0.0))
    hn = hamilton_symbol("nonrel", mass=mass, v00=0.3, v11=-0.8,
                         potential=lambda x: x * 0.0 + 1.0)
    want_k = np.zeros((2, 2, 3))
    want_k[:, :, 2] = 1.0 / (2.0 * mass)
    want_v = np.array([[0.3, -0.8], [0.3, -0.8]])
    checks.append(_check("nonrel-kinetic-table",
                         float(np.max(np.abs(hn.kinetic - want_k))), 0.0))
    checks.append(_check("nonrel-potential-weights",
                         float(np.max(np.abs(hn.v_weight - want_v))), 0.0))
    # potential weights must equal the trace of the internal operator
    v01 = 0.4 - 0.9j
    hdp = hamilton_symbol("dirac", mass=1.0, c=1.0, v00=0.2, v11=0.7, v01=v01,
                          potential=lambda x: x)
    vint = np.array([[0.7, np.conj(v01)], [v01, 0.2]])
    trace_route = matrix_to_symbol(Matrix2(vint)).real
    checks.append(_check("dirac-potential-weights-trace-route",
                         float(np.max(np.abs(hdp.v_weight - trace_route))), 1e-15))
    return _timed(checks, started, 1.0)


# -- criterion 2: star-product equivalence -----------------------------------

def criterion_star_equivalence(seed: int = 1) -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    # 16 basis symbols (four point indicators times the four quarter phases),
    # hence 256 ordered pairs, compared exactly
    basis = []
    for m in (0, 1):
        for n in (0, 1):
            for phase in (1.0, 1.0j, -1.0, -1.0j):
                e = np.zeros((2, 2), dtype=complex)
                e[m, n] = phase
                basis.append(e)
    worst = 0.0
    for f in basis:
        for g in basis:
            worst = max(worst, float(np.max(np.abs(
                star_discrete(f, g) - star_discrete_direct(f, g)))))
    checks.append(_check("discrete-star-256-pairs", worst, 0.0))

    grid = PhaseGrid(-10, 10, 256, -8, 8, 256)
    p, x = np.meshgrid(grid.p, grid.x, indexing="ij")
    rng = np.random.default_rng(seed)
    w = np.zeros((2, 2, grid.n_p, grid.n_x), dtype=complex)
    for m in (0, 1):
        for n in (0, 1):
            w[m, n] = rng.uniform(0.2, 1.0) * np.exp(
                -(x - rng.uniform(-1, 1)) ** 2 - (p - rng.uniform(-1, 1)) ** 2)
    field = SymbolField(grid, w)
    h = hamilton_symbol("nonrel", mass=1.0)
    via_diff = star_apply_hamiltonian(h, field, "left")
    hsym = SymbolField(grid, np.broadcast_to(p * p / 2.0, w.shape).astype(complex).copy())
    via_fft = star(hsym, field)
    rel = (via_fft - via_diff).l2_norm() / via_diff.l2_norm()
    checks.append(_check("continuous-star-vs-differential-256", rel, 1e-6))
    return _timed(checks, started, 30.0)


# -- criterion 3: free states -------------------------------------------------

def _smeared_residual_curve(mode: str, momentum: float, sigmas) -> list[float]:
    if mode == "nonrel":
        free = free_eigenstate_nonrel(momentum, "up")
        h = hamilton_symbol("nonrel", mass=1.0)
    else:
        free = free_eigenstate_dirac(momentum, "particle")
        h = hamilton_symbol("dirac", mass=1.0, c=1.0)
    grid = PhaseGrid(-1.0, 1.0, 16, -4.0, 4.0, 1024)
    out = []
    for sig in sigmas:
        field = sample_distributional(free.wigner, grid, sig)
        res = star_eigen_residual(h, SymbolField.from_wigner(field), free.energy)
        norm = SymbolField.from_wigner(field).l2_norm()
        out.append(res.total / norm)
    return out


def criterion_free_states() -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    worst = 0.0
    for mode, branch in (("nonrel", "up"), ("nonrel", "down"),
                         ("dirac", "particle"), ("dirac", "antiparticle")):
        rep = verify_free_eigen_distributional(mode, 0.75, branch)
        worst = max(worst, max(abs(z) for _, _, z in rep.residuals))
        if not (rep.exact_zero and rep.x_independent):
            worst = max(worst, 1.0)
    checks.append(_check("distributional-eigen-residuals-identically-zero", worst, 0.0))

    sigmas = (0.4, 0.2, 0.1, 0.05, 0.025)
    for mode in ("nonrel", "dirac"):
        curve = _smeared_residual_curve(mode, 0.9, sigmas)
        ratio = max(curve[k + 1] / curve[k] for k in range(len(curve) - 1))
        checks.append(_check(f"smeared-residual-monotone-{mode}", ratio, 0.999,
                             detail=" ".join(f"{v:.3e}" for v in curve)))

    p0, mass = 1.4, 1.0
    fn = free_eigenstate_nonrel(p0, "up", mass=mass)
    jn = current_nonrel(fn.wigner, 0.3, mass)
    checks.append(_check("free-nonrel-current",
                         abs(jn - p0 / (2.0 * math.pi * mass)), 1e-12))
    for branch, sign in (("particle", 1.0), ("antiparticle", -1.0)):
        fd = free_eigenstate_dirac(p0, branch, mass=1.0, c=1.0)
        jd = current_dirac(fd.wigner, -0.4, q=1.0, c=1.0)
        want = sign * p0 / (2.0 * math.pi * math.sqrt(p0 ** 2 + 1.0))
        checks.append(_check(f"free-dirac-current-{branch}", abs(jd - want), 1e-12))
    return _timed(checks, started, 30.0)


# -- criterion 4: nonrelativistic step ----------------------------------------

def criterion_step_nonrel(seed: int = 2024) -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    rng = np.random.default_rng(seed)
    worst_sum = 0.0
    worst_cont = 0.0
    for _ in range(1000):
        e = rng.uniform(0.05, 10.0)
        v0 = rng.uniform(0.0, 0.999 * e)
        rep = solve_step_nonrel(ScatterConfig(energy=e, v0=v0, mode="nonrel")).report
        worst_sum = max(worst_sum, abs(rep.transmission + rep.reflection - 1.0))
        worst_cont = max(worst_cont, abs(rep.j_inc + rep.j_ref - rep.j_trans))
    checks.append(_check("transmission-plus-reflection-sweep", worst_sum, 1e-12))
    checks.append(_check("current-continuity-at-step", worst_cont, 1e-12))

    sol = solve_step_nonrel(ScatterConfig(
        energy=1.0, v0=0.5, mode="nonrel",
        spin_up=math.sqrt(0.4), spin_down=math.sqrt(0.6)))
    rep = sol.report
    worst_mom = 0.0
    worst_oracle = 0.0
    for xx in (-2.7, -1.1, -0.4, 0.6, 1.9, 3.3):
        want = rep.j_trans if xx > 0 else rep.j_inc + rep.j_ref
        jm = current_nonrel(sol.wigner, xx, 1.0)
        jo = oracle_current_wavefunction(sol.state, xx, "nonrel", mass=1.0)
        worst_mom = max(worst_mom, abs(jm - want))
        worst_oracle = max(worst_oracle, abs(jo - want))
    checks.append(_check("wigner-moment-currents-vs-closed-forms", worst_mom, 1e-10))
    checks.append(_check("closed-forms-vs-position-oracle", worst_oracle, 1e-12))
    return _timed(checks, started, 10.0)


# -- criterion 5: Klein paradox -----------------------------------------------

def criterion_klein() -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    v0s = [3.0 + 0.01] + list(np.arange(3.5, 20.0001, 0.5))
    rows = klein_scan(2.0, 1.0, 1.0, 1.0, v0s)
    worst_rt = max(abs(r.r_minus_t - 1.0) for r in rows)
    checks.append(_check("klein-r-minus-t-scan", worst_rt, 1e-12))
    jt_ok = all(solve_step_dirac(ScatterConfig(energy=2.0, v0=v, mode="dirac")).report.j_trans < 0
                for v in v0s)
    checks.append(_check("transmitted-current-negative", 0.0 if jt_ok else 1.0, 0.0))
    t_vals = [r.transmission for r in rows]
    mono = min(t_vals[k + 1] - t_vals[k] for k in range(len(t_vals) - 1))
    checks.append(_check("transmission-monotone-in-v0", -mono, 1e-12,
                         detail=f"T ranges {t_vals[0]:.4f}..{t_vals[-1]:.4f}"))

    edge = solve_step_dirac(ScatterConfig(energy=2.0, v0=3.0, mode="dirac")).report
    checks.append(_check("n-trans-at-v0-equals-e-plus-mc2", abs(edge.n_trans - 2.0), 1e-12))
    checks.append(_check("transmission-zero-at-edge", abs(edge.transmission), 1e-12))
    big = solve_step_dirac(ScatterConfig(energy=2.0, v0=1e6, mode="dirac")).report
    checks.append(_check("n-trans-asymptote", abs(big.n_trans - (3.0 + math.sqrt(3.0))), 1e-3))
    return _timed(checks, started, 5.0)


# -- criterion 6: interference vanishing --------------------------------------

def criterion_interference(seed: int = 7) -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    rng = np.random.default_rng(seed)
    dxi = 2.0 * (16.0 / 512.0)  # xi lattice of a 512-point grid over (-8, 8)
    worst_dist = 0.0
    worst_grid = 0.0
    for _ in range(6):
        edges = np.sort(rng.uniform(-5.0, 5.0, size=4))
        if edges[1] - edges[0] < 0.2 or edges[3] - edges[2] < 0.2 or edges[2] - edges[1] < 0.3:
            continue
        amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pc1 = PlaneWavePiece(edges[0], edges[1], amps[0, 0], amps[0, 1], rng.uniform(-2, 2))
        pc2 = PlaneWavePiece(edges[2], edges[3], amps[1, 0], amps[1, 1], rng.uniform(-2, 2))
        full = SpinorWaveState(pieces=[pc1, pc2])
        cross = wigner_distributional(full, 1.0, {frozenset((0, 1)): "x"}).filtered(("x",))
        singles = [SpinorWaveState(pieces=[pc]) for pc in (pc1, pc2)]
        for xx in rng.uniform(edges[0], edges[3], size=3):
            if any(abs(xx - e) < 1e-6 for e in edges):
                continue
            for order in range(4):
                worst_dist = max(worst_dist, abs(regularized_moment(
                    cross, order, float(xx))))
                gridv = correlation_moment(full, order, float(xx), dxi=dxi) \
                    - sum(correlation_moment(s, order, float(xx), dxi=dxi) for s in singles)
                worst_grid = max(worst_grid, abs(gridv))
    checks.append(_check("interference-moments-distributional", worst_dist, 1e-12))
    checks.append(_check("interference-moments-grid-route", worst_grid, 1e-8))
    return _timed(checks, started, 30.0)


# -- criterion 7: evolution / continuity --------------------------------------

def criterion_evolution(n: int = 256) -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    grid = PhaseGrid(-10, 10, n, -8, 8, n)
    p, x = np.meshgrid(grid.p, grid.x, indexing="ij")
    x0, p0, sig = -2.0, 2.0, 1.0
    packet = (1.0 / math.pi) * np.exp(-(x - x0) ** 2 / sig ** 2 - sig ** 2 * (p - p0) ** 2)
    vals = np.zeros((2, 2, grid.n_p, grid.n_x))
    vals[0, 1] = 0.5 * packet
    vals[1, 1] = 0.5 * packet
    w0 = WignerField(grid, vals)
    h = hamilton_symbol("nonrel", mass=1.0)
    dt = 0.45 * grid.dx / 8.0
    delta = 5e-4
    traj = evolve(w0, h, 1.0 + delta, dt, sample_times=[1.0 - delta, 1.0, 1.0 + delta])

    end = traj.fields[2]
    total = end.values.sum(axis=(0, 1))
    norm = float(np.sum(total) * grid.dp * grid.dx)
    cx = float(np.sum(total * x) * grid.dp * grid.dx) / norm
    cp = float(np.sum(total * p) * grid.dp * grid.dx) / norm
    cent_err = math.hypot(cx - (x0 + p0 * 1.0), cp - p0)
    checks.append(_check("free-packet-centroid", cent_err, 1e-6))
    checks.append(_check("norm-drift", abs(traj.norms[2] - traj.norms[0]), 1e-6))
    jmax = float(np.max(np.abs(current_field_nonrel(end))))
    resid = abs(continuity_residual(traj, x=0.5, t=1.0, current="nonrel",
                                    mass=1.0, derivative="spectral"))
    checks.append(_check("continuity-residual-interior", resid, 1e-6 * jmax,
                         detail=f"max|j| = {jmax:.3f}"))
    return _timed(checks, started, 60.0)


# -- criterion 8: beam decomposition ------------------------------------------

def criterion_beam() -> list[IdentityCheck]:
    started = time.perf_counter()
    checks = []
    p0, mass, hbar = 1.3, 1.0, 1.0
    a = (0.8 + 0.1j, 0.35 - 0.2j)
    b = (-0.25 + 0.3j, 0.4 + 0.05j)
    state = SpinorWaveState(pieces=[
        PlaneWavePiece(-math.inf, 0.0, a[0], a[1], p0),
        PlaneWavePiece(-math.inf, 0.0, b[0], b[1], -p0),
        PlaneWavePiece(0.0, math.inf, 0.1, 0.2, 0.7),
    ])
    gs = [20.0 * 2.0 ** k for k in range(8)]
    dec = beam_decompose(state, 0.0, gs, "nonrel", mass=mass, hbar=hbar)
    j_inc_want = p0 / mass * (abs(a[0]) ** 2 + abs(a[1]) ** 2)
    j_ref_want = -p0 / mass * (abs(b[0]) ** 2 + abs(b[1]) ** 2)
    rel = max(abs(dec.j_inc - j_inc_want) / abs(j_inc_want),
              abs(dec.j_ref - j_ref_want) / abs(j_ref_want))
    checks.append(_check("beam-extrapolated-currents", rel, 0.01))

    errs = [abs(row[1] - dec.mean_abs_momentum) for row in dec.table]
    slope = np.polyfit(np.log([row[0] for row in dec.table]), np.log(errs), 1)[0]
    checks.append(_check("finite-g-first-order-trend", abs(slope + 1.0), 0.35,
                         detail=f"slope {slope:.3f}"))

    sol = solve_step_dirac(ScatterConfig(energy=2.0, v0=5.0, mode="dirac"))
    decd = beam_decompose(sol.state, 0.0, gs, "dirac", mass=1.0, c=1.0, q=1.0)
    reld = max(abs(decd.j_inc - sol.report.j_inc) / abs(sol.report.j_inc),
               abs(decd.j_ref - sol.report.j_ref) / abs(sol.report.j_ref))
    checks.append(_check("beam-dirac-klein-currents", reld, 0.01))
    return _timed(checks, started, 10.0)


CRITERIA = {
    "quantizer-fidelity": criterion_quantizer,
    "star-product-equivalence": criterion_star_equivalence,
    "free-states": criterion_free_states,
    "nonrelativistic-step": criterion_step_nonrel,
    "klein-paradox": criterion_klein,
    "interference-vanishing": criterion_interference,
    "evolution-continuity": criterion_evolution,
    "beam-decomposition": criterion_beam,
}


def run_criterion(name: str) -> list[IdentityCheck]:
    return CRITERIA[name]()


def run_all() -> dict[str, list[IdentityCheck]]:
    return {name: fn() for name, fn in CRITERIA.items()}
