"""The three benchmark workloads: one per computational route of phasespin.

Each workload draws its parameters from the seed, builds the program's
inputs in :meth:`setup` (timed as set-up), computes its independent
references in :meth:`prepare` (untimed), and returns a fixed list of
operations.  A run repeats that list as whole rounds.  Every operation's
output is checked against the references after each round, outside the
timed region.

The program is reached only through its public API, passed in as ``ps`` (a
namespace of phasespin modules).  Operations look functions up on the
modules at call time, so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import hashlib
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

import references as ref


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    # the exception type of a known program fault this operation hits
    fault: type | None = None


def _close(name, got, want, rel, problems, scale=1.0):
    """Append a problem unless |got - want| <= rel * max(scale, |want|)."""
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    bound = rel * max(scale, float(np.max(np.abs(want))))
    if not err <= bound:
        problems.append(f"{name}: error {err:.3g} > {bound:.3g}")


def _at_time(frames: dict, t: float, name: str, problems: list):
    """The frame sampled at time t (to 1e-9), or a problem if none was."""
    for time, frame in frames.items():
        if abs(time - t) < 1e-9:
            return frame
    problems.append(f"{name}: no frame at t = {t:g}")
    return None


def _marginal(values: np.ndarray, dp: float) -> np.ndarray:
    """rho(x) = sum over (m, n) of the p lattice sum of W(p, x), times dp."""
    return values.sum(axis=(0, 1, 2)) * dp


def _unit_spinor(rng) -> np.ndarray:
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    return c / np.linalg.norm(c)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self._digests = {}

    def setup(self, ps) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference values; runs once, after set-up, untimed."""

    def trace_extras(self, ps) -> None:
        """Calls made once per round in the traced run only."""

    def final_checks(self, ps) -> list:
        raise NotImplementedError

    def _json_op_digest(self, path: Path, problems: list):
        """Repeated rounds write the same JSON, byte for byte."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self._digests.setdefault(path.name, digest)
        if digest != first:
            problems.append(f"{path.name}: JSON differs from the first round's")

    def _json_twice(self, ps, command: str, params: dict) -> list:
        """cli.run writes byte-identical JSON for the same input."""
        paths = [self.out_dir / f"twice-{k}.json" for k in (0, 1)]
        for path in paths:
            ps.cli.run(ps.cli.RunConfig(command, dict(params), output=str(path),
                                        format="json", seed=7))
        if paths[0].read_bytes() != paths[1].read_bytes():
            return [f"{command}: two JSON writes of one input differ"]
        return []


# ---------------------------------------------------------------------------
# scatter-profile: the distributional route
# ---------------------------------------------------------------------------

class ScatterProfile(Workload):
    """Step problems profiled through ``cli step``, Klein tables through
    ``cli klein-scan``, exact star-eigen checks, and fixed near-step probes."""

    name = "scatter-profile"
    N_PROFILE = 11          # 10 profile points on [-4, 4]; x = 0 is skipped
    PER_REGIME = 3
    SCANS, SCAN_ROWS = 4, 200
    # near-step probes on the Klein solution E = 2, V0 = 5 (seed-independent)
    PROBE = (2.0, 5.0)
    PROBES = (("current", 1e-6), ("current", 1e-5), ("current", 1e-4),
              ("current", -1e-4), ("density", 1e-4), ("density", -1e-4))
    TOL = 1e-9

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        r = self.rng
        self.problems = []
        for _ in range(self.PER_REGIME):
            e = r.uniform(0.8, 2.0)
            self.problems.append(("nonrel", e, e * r.uniform(0.1, 0.8), _unit_spinor(r)))
            e = r.uniform(1.3, 3.0)
            self.problems.append(("dirac", e, e + 1.0 + r.uniform(0.3, 4.0), None))
            e = r.uniform(2.5, 4.0)
            self.problems.append(("dirac", e, r.uniform(0.2, e - 1.5), None))
        self.scans = []
        for _ in range(self.SCANS):
            e = r.uniform(1.3, 3.0)
            start = e + 1.0 + r.uniform(0.01, 0.2)
            self.scans.append((e, start + r.uniform(0.02, 0.08) * np.arange(self.SCAN_ROWS)))
        # exact_zero must hold at the true energy and fail at a shifted one
        self.exact = []
        for mode, branch in (("nonrel", "up"), ("dirac", "particle")):
            p = Fraction(int(r.integers(1, 40)), int(r.integers(1, 20)))
            self.exact.append((mode, branch, p, Fraction(0)))
            self.exact.append((mode, branch, p, Fraction(1, int(r.integers(2, 9)))))

    def setup(self, ps):
        cli = ps.cli
        self.step_cfgs = []
        for i, (mode, e, v0, spin) in enumerate(self.problems):
            params = {"mode": mode, "e": e, "v0": v0, "n_profile": self.N_PROFILE}
            if spin is not None:
                params.update(spin_up=complex(spin[0]), spin_down=complex(spin[1]))
            self.step_cfgs.append(cli.RunConfig("step", params, output=str(
                self.out_dir / f"step-{i}.json"), format="json"))
        self.scan_cfgs = [cli.RunConfig(
            "klein-scan", {"e": e, "v0": ",".join(repr(float(v)) for v in v0s)},
            output=str(self.out_dir / f"scan-{i}.json"), format="json")
            for i, (e, v0s) in enumerate(self.scans)]
        e, v0 = self.PROBE
        self.probe_solution = ps.scattering.solve_step_dirac(
            ps.scattering.ScatterConfig(energy=e, v0=v0, mode="dirac"))
        self.policy = ps.continuity.TIGHT_POLICY
        self.ops = self._ops(ps)

    def prepare(self):
        self.step_refs = [ref.nonrel_step(e, v0, spin) if mode == "nonrel"
                          else ref.dirac_step(e, v0)
                          for mode, e, v0, spin in self.problems]
        self.scan_refs = [[ref.klein_row(e, float(v)) for v in v0s]
                          for e, v0s in self.scans]
        self.probe_ref = ref.dirac_step(*self.PROBE)

    def _ops(self, ps):
        ops = []
        for i, cfg in enumerate(self.step_cfgs):
            ops.append(Op("step", lambda cfg=cfg: ps.cli.run(cfg),
                          lambda rep, i=i: self._check_step(rep, i)))
        for i, cfg in enumerate(self.scan_cfgs):
            ops.append(Op("klein-scan", lambda cfg=cfg: ps.cli.run(cfg),
                          lambda rep, i=i: self._check_scan(rep, i)))
        for mode, branch, p, offset in self.exact:
            ops.append(Op("exact", lambda mode=mode, branch=branch, p=p, offset=offset:
                          ps.scattering.verify_free_eigen_distributional(
                              mode, p, branch, energy_offset=offset),
                          lambda rep, offset=offset: self._check_exact(rep, offset)))
        for what, x in self.PROBES:
            ops.append(Op(f"probe-{what}", lambda what=what, x=x: self._probe(ps, what, x),
                          lambda val, what=what, x=x: self._check_probe(val, what, x),
                          fault=ps.errors.ExtrapolationError))
        return ops

    def _probe(self, ps, what, x):
        cont = ps.continuity
        if what == "density":
            return cont.spatial_density(self.probe_solution.wigner, x, self.policy)
        return cont.current_dirac(self.probe_solution.wigner, x, policy=self.policy)

    def _check_probe(self, val, what, x):
        problems = []
        want = self.probe_ref.density(x) if what == "density" else self.probe_ref.current(x)
        _close(f"probe {what}({x:g})", val, want, self.TOL, problems)
        return problems

    def _check_step(self, rep, i):
        mode, e, v0, _ = self.problems[i]
        wave = self.step_refs[i]
        problems = [] if rep.passed else [f"step {i}: program identity checks failed"]
        rows = rep.tables["profile"]
        if len(rows) != self.N_PROFILE - 1:
            problems.append(f"step {i}: {len(rows)} profile rows")
        for row in rows:
            _close(f"step {i} rho({row['x']:.3g})", row["rho"], wave.density(row["x"]),
                   self.TOL, problems)
            _close(f"step {i} j({row['x']:.3g})", row["j"], wave.current(row["x"]),
                   self.TOL, problems)
        out = rep.tables["report"][0]
        _close(f"step {i} T", out["transmission"], wave.transmission, 1e-10, problems)
        _close(f"step {i} R", out["reflection"], wave.reflection, 1e-10, problems)
        klein = mode == "dirac" and v0 >= e + 1.0
        identity = out["reflection"] - out["transmission"] if klein \
            else out["reflection"] + out["transmission"]
        _close(f"step {i} {'R - T' if klein else 'T + R'}", identity, 1.0, 1e-12, problems)
        self._json_op_digest(self.out_dir / f"step-{i}.json", problems)
        return problems

    def _check_scan(self, rep, i):
        problems = [] if rep.passed else [f"scan {i}: program identity checks failed"]
        rows = rep.tables["scan"]
        if len(rows) != self.SCAN_ROWS:
            problems.append(f"scan {i}: {len(rows)} rows")
        for row, want in zip(rows, self.scan_refs[i]):
            if row["error"]:
                problems.append(f"scan {i} V0={row['v0']}: {row['error']}")
                continue
            for key, value in want.items():
                _close(f"scan {i} V0={row['v0']:.4g} {key}", row[key], value, 1e-10, problems)
            _close(f"scan {i} R - T", row["r_minus_t"], 1.0, 1e-12, problems)
        self._json_op_digest(self.out_dir / f"scan-{i}.json", problems)
        return problems

    def _check_exact(self, rep, offset):
        want = offset == 0
        if rep.exact_zero != want or not rep.x_independent:
            return [f"exact {rep.mode} p={rep.momentum} offset={offset}: "
                    f"exact_zero={rep.exact_zero}, x_independent={rep.x_independent}"]
        return []

    def final_checks(self, ps):
        mode, e, v0, spin = self.problems[1]
        return self._json_twice(ps, "step", {"mode": mode, "e": e, "v0": v0,
                                             "n_profile": self.N_PROFILE})


# ---------------------------------------------------------------------------
# packet-evolution: the grid-evolution route
# ---------------------------------------------------------------------------

class PacketEvolution(Workload):
    """Free Gaussian packets through ``cli evolve`` and a Dirac spinor packet
    evolved by ``star.evolve`` across V(x) = V0 (1 + tanh(x / w))."""

    name = "packet-evolution"
    N, X_HALF, P_HALF = 128, 10.0, 8.0
    FREE_PACKETS = 2
    FREE_T = 0.5
    # one Dirac evolution cheaper and one dearer than a free one, so the
    # median operation is a free evolution
    DIRAC_TIMES = (0.5, 1.5)
    DIRAC_DT = 0.3                   # dt = DIRAC_DT * dx, CFL speed c = 1
    DELTA = 1e-3                     # frame spacing for the continuity residual

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        r = self.rng
        self.free = [(r.uniform(-3.0, -1.0), r.uniform(0.5, 2.0), r.uniform(0.9, 1.3))
                     for _ in range(self.FREE_PACKETS)]
        self.dirac = dict(x0=r.uniform(-3.5, -2.0), p0=r.uniform(0.8, 1.5),
                          sigma=r.uniform(0.9, 1.2), v0=r.uniform(0.3, 0.8),
                          width=r.uniform(0.5, 1.0))

    def _potential(self, x):
        d = self.dirac
        return d["v0"] * (1.0 + np.tanh(np.asarray(x) / d["width"]))

    def _dirac_psi0(self, x):
        d = self.dirac
        energy = math.hypot(d["p0"], 1.0)
        spinor = np.array([d["p0"] / (energy - 1.0), 1.0])
        spinor /= np.linalg.norm(spinor)
        return spinor[:, None] * ref.gaussian_packet(x, d["x0"], d["p0"], d["sigma"])[None, :]

    def setup(self, ps):
        self.free_cfgs = [ps.cli.RunConfig("evolve", {
            "n": self.N, "x_half": self.X_HALF, "p_half": self.P_HALF, "x0": x0,
            "p0": p0, "sigma": sigma, "t_end": self.FREE_T, "frames": 2,
            "dump_frames": True}) for x0, p0, sigma in self.free]
        self.grid = ps.grids.PhaseGrid(-self.X_HALF, self.X_HALF, self.N,
                                       -self.P_HALF, self.P_HALF, self.N)
        self.h_dirac = ps.quantizer.hamilton_symbol(
            "dirac", mass=1.0, c=1.0, potential=self._potential, v00=1.0, v11=1.0)
        state = ps.states.SpinorWaveState(samples=self._dirac_psi0(self.grid.x))
        self.w0_dirac = ps.quantizer.wigner_on_grid(state, self.grid)
        short, long = (Op(f"dirac-evolve-{t:g}", lambda t=t: self._dirac_op(ps, t),
                          lambda out, t=t: self._check_dirac(out, t))
                       for t in self.DIRAC_TIMES)
        self.ops = [short] + [Op("free-evolve", lambda cfg=cfg: ps.cli.run(cfg),
                                 lambda rep, i=i: self._check_free(rep, i))
                              for i, cfg in enumerate(self.free_cfgs)] + [long]

    def _probe_points(self, t):
        d = self.dirac
        centre = d["x0"] + d["p0"] / math.hypot(d["p0"], 1.0) * t
        return (centre - 1.0, centre, centre + 1.0)

    def _dirac_op(self, ps, t_end):
        t_mid = 0.5 * t_end
        traj = ps.star.evolve(self.w0_dirac, self.h_dirac, t_end,
                              self.DIRAC_DT * self.grid.dx,
                              sample_times=[t_mid - self.DELTA, t_mid, t_mid + self.DELTA])
        residuals = [ps.continuity.continuity_residual(
            traj, x=x, t=t_mid, current="dirac", derivative="spectral")
            for x in self._probe_points(t_mid)]
        return traj, residuals

    def prepare(self):
        x = np.linspace(-self.X_HALF, self.X_HALF, self.N)
        dx = x[1] - x[0]
        self.p_mesh, self.x_mesh = np.meshgrid(
            np.linspace(-self.P_HALF, self.P_HALF, self.N), x, indexing="ij")
        psi0 = self._dirac_psi0(x)
        v = self._potential(x)
        self.dirac_rho = {}
        for t in sorted({f * t_end for t_end in self.DIRAC_TIMES for f in (0.5, 1.0)}):
            psi = ref.dirac_split_step(psi0, dx, v, t, int(round(2000 * t)))
            self.dirac_rho[t] = np.sum(np.abs(psi) ** 2, axis=0)

    def _free_field(self, i, t):
        """Exact free evolution W0(x - p t / M, p) of the cli's packet."""
        x0, p0, sigma = self.free[i]
        return ref.gaussian_wigner(self.p_mesh, self.x_mesh - self.p_mesh * t, x0, p0, sigma)

    def _check_free(self, rep, i):
        problems = [] if rep.passed else [f"free {i}: program identity checks failed"]
        norms = [row["norm"] for row in rep.tables["frames"]]
        _close(f"free {i} norm", norms, norms[0], 1e-12, problems)
        frames = {row["t"]: row["values"] for row in rep.tables["frame_values"]}
        for t in (0.5 * self.FREE_T, self.FREE_T):
            got = _at_time(frames, t, f"free {i}", problems)
            if got is None:
                continue
            want = np.zeros((2, 2, self.N, self.N))
            want[0, 1] = want[1, 1] = 0.5 * self._free_field(i, t)
            _close(f"free {i} W(t={t:g}) vs shear", np.asarray(got), want, 1e-6, problems)
        return problems

    def _check_dirac(self, out, t_end):
        traj, residuals = out
        problems = []
        dp = 2.0 * self.P_HALF / (self.N - 1)
        rhos = {t: _marginal(f.values, dp) for t, f in zip(traj.times, traj.fields)}
        dx = 2.0 * self.X_HALF / (self.N - 1)
        norms = [rho.sum() * dx for rho in rhos.values()]
        _close("dirac norm", norms, norms[0], 1e-10, problems)
        for t in (0.5 * t_end, t_end):
            rho = _at_time(rhos, t, "dirac", problems)
            if rho is not None:
                _close(f"dirac rho(t={t:g}) vs split-step", rho, self.dirac_rho[t], 2e-5,
                       problems)
        j_scale = float(np.max(np.abs(self._j_scale(traj))))
        _close("dirac continuity residual", residuals, 0.0, 1e-4, problems, scale=j_scale)
        return problems

    def _j_scale(self, traj):
        v = traj.fields[-1].values
        return (v[0, 0] + v[0, 1] - v[1, 0] - v[1, 1]).sum(axis=0) * traj.grid.dp

    def trace_extras(self, ps):
        h_free = ps.quantizer.hamilton_symbol("nonrel", mass=1.0)
        for i in range(len(self.free)):
            vals = np.zeros((2, 2, self.N, self.N))
            vals[0, 1] = vals[1, 1] = 0.5 * self._free_field(i, 0.0)
            w0 = ps.grids.SymbolField(self.grid, vals.astype(complex))
            ps.star.moyal_bracket_hamiltonian(w0, h_free)
        ps.star.moyal_bracket_hamiltonian(
            ps.grids.SymbolField.from_wigner(self.w0_dirac), self.h_dirac)

    def final_checks(self, ps):
        x0, p0, sigma = self.free[0]
        return self._json_twice(ps, "evolve", {"n": 32, "x0": x0, "p0": p0,
                                               "sigma": sigma, "t_end": 0.05})


# ---------------------------------------------------------------------------
# weyl-star: the Weyl-kernel route
# ---------------------------------------------------------------------------

class WeylStar(Workload):
    """star products of Gaussian symbols with internal tables, and the grid
    Wigner transform of Gaussian spinor packets."""

    name = "weyl-star"
    # every grid spans [-8, 8] on both axes; p_max stays below pi hbar / (2 dx)
    HALF = 8.0
    WIGNER_SIZES = (96, 96, 128, 128, 128, 128, 128)
    STAR_SIZES = (128, 256)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        r = self.rng
        self.packets = [dict(n=n, x0=r.uniform(-0.5, 0.5), p0=r.uniform(-0.5, 0.5),
                             sigma=r.uniform(0.7, 1.0), spinor=_unit_spinor(r))
                        for n in self.WIGNER_SIZES]
        self.products = []
        for n in self.STAR_SIZES:
            mats = [r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2)) for _ in range(2)]
            self.products.append(dict(n=n, x0=r.uniform(-1, 1), p0=r.uniform(-1, 1),
                                      a=r.uniform(0.4, 1.2), b=r.uniform(0.4, 1.2),
                                      mats=mats))
        self.free_dirac_p = r.uniform(0.2, 2.0)

    def _mesh(self, n):
        axis = np.linspace(-self.HALF, self.HALF, n)
        return np.meshgrid(axis, axis, indexing="ij")

    def setup(self, ps):
        half = self.HALF
        grids = {n: ps.grids.PhaseGrid(-half, half, n, -half, half, n)
                 for n in set(self.WIGNER_SIZES + self.STAR_SIZES)}
        self.ops = []
        for i, pk in enumerate(self.packets):
            g = grids[pk["n"]]
            psi = pk["spinor"][:, None] * ref.gaussian_packet(
                g.x, pk["x0"], pk["p0"], pk["sigma"])[None, :]
            state = ps.states.SpinorWaveState(samples=psi)
            self.ops.append(Op(f"wigner_on_grid-{pk['n']}",
                               lambda s=state, g=g: ps.quantizer.wigner_on_grid(s, g),
                               lambda w, i=i: self._check_wigner(w, i)))
        for i, pr in enumerate(self.products):
            g = grids[pr["n"]]
            p, x = self._mesh(pr["n"])
            z2 = (x - pr["x0"]) ** 2 + (p - pr["p0"]) ** 2
            f, h = (ps.grids.SymbolField(g, ref.internal_symbol(m)[:, :, None, None]
                                         * np.exp(-w * z2))
                    for m, w in zip(pr["mats"], (pr["a"], pr["b"])))
            self.ops.append(Op(f"star-{pr['n']}", lambda f=f, h=h: ps.star.star(f, h),
                               lambda out, i=i: self._check_star(out, i)))

    def prepare(self):
        self.wigner_refs = []
        for pk in self.packets:
            p, x = self._mesh(pk["n"])
            psi = pk["spinor"][:, None] * ref.gaussian_packet(
                x[0], pk["x0"], pk["p0"], pk["sigma"])[None, :]
            field = ref.spinor_symbol(pk["spinor"])[:, :, None, None] \
                * ref.gaussian_wigner(p, x, pk["x0"], pk["p0"], pk["sigma"])
            self.wigner_refs.append((np.sum(np.abs(psi) ** 2, axis=0), field))
        self.star_refs = []
        for pr in self.products:
            p, x = self._mesh(pr["n"])
            z2 = (x - pr["x0"]) ** 2 + (p - pr["p0"]) ** 2
            a_mat, b_mat = pr["mats"]
            self.star_refs.append(ref.internal_symbol(a_mat @ b_mat)[:, :, None, None]
                                  * ref.gaussian_star(pr["a"], pr["b"], z2))

    def _check_wigner(self, w, i):
        problems = []
        rho, field = self.wigner_refs[i]
        dp = 2.0 * self.HALF / (w.values.shape[2] - 1)
        _close(f"wigner {i} x-marginal", _marginal(w.values, dp), rho, 1e-10, problems)
        _close(f"wigner {i} field", w.values, field, 1e-8, problems)
        return problems

    def _check_star(self, out, i):
        problems = []
        _close(f"star {i}", out.values, self.star_refs[i], 1e-10, problems)
        return problems

    def final_checks(self, ps):
        return self._json_twice(ps, "free-dirac", {"p": self.free_dirac_p})


WORKLOADS = {w.name: w for w in (ScatterProfile, PacketEvolution, WeylStar)}
