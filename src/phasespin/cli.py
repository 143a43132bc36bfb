"""Batch command-line interface with deterministic CSV/JSON output.

Commands: ``free-nonrel``, ``free-dirac``, ``step``, ``klein-scan``,
``evolve`` and ``verify``.  Every run prints a short report, writes the
requested tables, and exits 0 only if all identity checks pass.  Floats are
written with 17 significant digits so downstream identity checks reproduce
bit-for-bit; repeated runs with the same configuration and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .continuity import (
    continuity_residual,
    current_dirac,
    current_field_nonrel,
    current_nonrel,
    spatial_density,
)
from .distributions import DeltaLine, PVLine
from .errors import PhaseSpaceError
from .grids import PhaseGrid, WignerField
from .quantizer import hamilton_symbol
from .scattering import (
    ScatterConfig,
    free_eigenstate_dirac,
    free_eigenstate_nonrel,
    klein_scan,
    solve_step_dirac,
    solve_step_nonrel,
)
from .star import evolve
from .verify import CRITERIA, IdentityCheck, _check

__all__ = ["main", "RunConfig", "RunReport", "run"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")


@dataclass
class RunReport:
    command: str
    params: dict
    tables: dict           # name -> list of row dicts
    identities: list       # list of IdentityCheck
    wall_time: float
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.identities)


def _id_rows(checks) -> list[dict]:
    return [{"identity": c.name, "value": c.value, "tolerance": c.tolerance,
             "passed": int(c.passed), "detail": c.detail} for c in checks]


def _term_rows(dw) -> list[dict]:
    rows = []
    for t in dw.terms:
        k = t.kind
        row = {"m": t.mn[0], "n": t.mn[1], "kind": type(k).__name__,
               "label": t.label, "window_lo": t.window.lo, "window_hi": t.window.hi,
               "amp": k.amp, "k_x": k.k_x, "phi0": k.phi0}
        if isinstance(k, DeltaLine):
            row.update(p0=k.p0, a_x=0.0, b0=0.0)
        elif isinstance(k, PVLine):
            row.update(p0=k.p0, a_x=k.a_x, b0=k.b0)
        else:
            row.update(p0=k.r, a_x=k.a1, b0=k.b1, a2=k.a2, b2=k.b2)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_free_nonrel(params: dict) -> tuple[dict, list[IdentityCheck]]:
    p0 = float(params.setdefault("p", 1.0))
    mass = float(params.setdefault("mass", 1.0))
    hbar = float(params.setdefault("hbar", 1.0))
    spin = params.setdefault("spin", "up")
    free = free_eigenstate_nonrel(p0, spin, mass=mass, hbar=hbar)
    j = current_nonrel(free.wigner, 0.0, mass)
    rho = spatial_density(free.wigner, 0.3)
    checks = [
        _check("current-matches-closed-form",
               abs(j - p0 / (2.0 * math.pi * hbar * mass)), 1e-12),
        _check("marginal-density-constant",
               abs(rho - 1.0 / (2.0 * math.pi * hbar)), 1e-12),
    ]
    tables = {
        "summary": [{"p": p0, "energy": free.energy, "current": free.current,
                     "spin": str(spin)}],
        "wigner_terms": _term_rows(free.wigner),
        "identities": _id_rows(checks),
    }
    return tables, checks


def _run_free_dirac(params: dict) -> tuple[dict, list[IdentityCheck]]:
    p0 = float(params.setdefault("p", 1.0))
    mass = float(params.setdefault("mass", 1.0))
    c = float(params.setdefault("c", 1.0))
    q = float(params.setdefault("q", 1.0))
    hbar = float(params.setdefault("hbar", 1.0))
    branch = params.setdefault("sign", "particle")
    free = free_eigenstate_dirac(p0, branch, mass=mass, c=c, q=q, hbar=hbar)
    j = current_dirac(free.wigner, 0.0, q=q, c=c)
    want = free.current
    negatives = sum(1 for t in free.wigner.terms if t.kind.amp < 0)
    checks = [
        _check("current-matches-closed-form", abs(j - want), 1e-12),
        _check("negative-component-count",
               abs(negatives - (1 if p0 != 0.0 else 0)), 0.0,
               detail="one negative component for p != 0, none at rest"),
    ]
    if p0 == 0.0:
        rest_col = 1 if branch == "particle" else 0
        off = sum(abs(t.kind.amp) for t in free.wigner.terms if t.mn[1] != rest_col)
        checks.append(_check("weight-on-rest-energy-components", off, 0.0))
        checks.append(_check("current-zero-at-rest", abs(j), 1e-15))
    tables = {
        "summary": [{"p": p0, "branch": branch, "energy": free.energy,
                     "current": free.current}],
        "wigner_terms": _term_rows(free.wigner),
        "identities": _id_rows(checks),
    }
    return tables, checks


def _run_step(params: dict) -> tuple[dict, list[IdentityCheck]]:
    mode = params.setdefault("mode", "nonrel")
    cfg = ScatterConfig(
        energy=float(params.setdefault("e", params.pop("energy", 1.0))),
        v0=float(params.setdefault("v0", 0.5)),
        mass=float(params.setdefault("mass", 1.0)),
        c=float(params.setdefault("c", 1.0)),
        q=float(params.setdefault("q", 1.0)),
        hbar=float(params.setdefault("hbar", 1.0)),
        spin_up=complex(params.setdefault("spin_up", 1.0)),
        spin_down=complex(params.setdefault("spin_down", 0.0)),
        mode=mode,
    )
    sol = solve_step_nonrel(cfg) if mode == "nonrel" else solve_step_dirac(cfg)
    rep = sol.report

    x_lo = float(params.setdefault("x_min", -4.0))
    x_hi = float(params.setdefault("x_max", 4.0))
    n_profile = int(params.setdefault("n_profile", 81))
    xs = np.linspace(x_lo, x_hi, n_profile)
    profile = []
    for xx in xs:
        if abs(xx) < 1e-12:
            continue  # the step sits at x = 0; sample either side of it
        rho = spatial_density(sol.wigner, float(xx))
        if mode == "nonrel":
            j = current_nonrel(sol.wigner, float(xx), cfg.mass)
        else:
            j = current_dirac(sol.wigner, float(xx), q=cfg.q, c=cfg.c)
        profile.append({"x": float(xx), "rho": rho, "j": j,
                        "side": "left" if xx < 0 else "right"})

    if mode == "nonrel":
        coeff_check = _check("transmission-plus-reflection",
                             abs(rep.transmission + rep.reflection - 1.0), 1e-12)
    else:
        val = (rep.reflection - rep.transmission - 1.0) if rep.regime == "klein" \
            else (rep.transmission + rep.reflection - 1.0)
        coeff_check = _check("coefficient-identity", abs(val), 1e-12,
                             detail="R-T=1 (klein) or T+R=1 (above barrier)")
    checks = [
        coeff_check,
        _check("current-continuity-at-step",
               abs(rep.j_inc + rep.j_ref - rep.j_trans), 1e-12),
    ]
    jl = next(r["j"] for r in profile if r["x"] < 0)
    jr = next(r["j"] for r in profile if r["x"] > 0)
    checks.append(_check("profile-current-vs-closed-form",
                         max(abs(jl - rep.j_inc - rep.j_ref), abs(jr - rep.j_trans)),
                         1e-10))
    report_row = {"p": rep.p, "p_tilde": rep.p_tilde, "j_inc": rep.j_inc,
                  "j_ref": rep.j_ref, "j_trans": rep.j_trans,
                  "transmission": rep.transmission, "reflection": rep.reflection,
                  "regime": rep.regime}
    if rep.n_trans is not None:
        report_row.update(n_trans=rep.n_trans, n_ref=rep.n_ref)
    tables = {
        "profile": profile,
        "report": [report_row],
        "identities": _id_rows(checks),
    }
    return tables, checks


def _parse_v0_values(spec_str) -> list[float]:
    if isinstance(spec_str, (list, tuple)):
        return [float(v) for v in spec_str]
    text = str(spec_str)
    if ":" in text:
        parts = [float(v) for v in text.split(":")]
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step")
        start, stop, step = parts
        if step <= 0:
            raise ValueError("step must be positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + k * step for k in range(n)]
    return [float(v) for v in text.split(",") if v]


def _run_klein_scan(params: dict) -> tuple[dict, list[IdentityCheck]]:
    energy = float(params.setdefault("e", params.pop("energy", 2.0)))
    mass = float(params.setdefault("mass", 1.0))
    c = float(params.setdefault("c", 1.0))
    q = float(params.setdefault("q", 1.0))
    v0_values = _parse_v0_values(params.setdefault("v0", "3.01:20:0.5"))
    rows = klein_scan(energy, mass, c, q, v0_values)
    table = []
    for r in rows:
        table.append({"v0": r.v0, "n_trans": r.n_trans, "n_ref": r.n_ref,
                      "transmission": r.transmission, "reflection": r.reflection,
                      "r_minus_t": r.r_minus_t, "t_signed": r.t_signed,
                      "error": r.error or ""})
    good = [r for r in rows if r.error is None]
    checks = []
    if good:
        worst = max(abs(r.r_minus_t - 1.0) for r in good)
        checks.append(_check("r-minus-t-equals-one", worst, 1e-12))
        neg = all(r.t_signed < 0 for r in good)
        checks.append(_check("transmitted-current-negative",
                             0.0 if neg else 1.0, 0.0))
    checks.append(_check("rows-in-regime", len(rows) - len(good), 0.0,
                         detail="out-of-regime rows carry an error entry"))
    tables = {"scan": table, "identities": _id_rows(checks)}
    return tables, checks


def _run_evolve(params: dict) -> tuple[dict, list[IdentityCheck]]:
    n = int(params.setdefault("n", 128))
    x_half = float(params.setdefault("x_half", 10.0))
    p_half = float(params.setdefault("p_half", 8.0))
    mass = float(params.setdefault("mass", 1.0))
    x0 = float(params.setdefault("x0", -2.0))
    p0 = float(params.setdefault("p0", 2.0))
    sigma = float(params.setdefault("sigma", 1.0))
    t_end = float(params.setdefault("t_end", 1.0))
    n_frames = int(params.setdefault("frames", 5))
    grid = PhaseGrid(-x_half, x_half, n, -p_half, p_half, n)
    p, x = np.meshgrid(grid.p, grid.x, indexing="ij")
    packet = (1.0 / math.pi) * np.exp(-(x - x0) ** 2 / sigma ** 2
                                      - sigma ** 2 * (p - p0) ** 2)
    vals = np.zeros((2, 2, grid.n_p, grid.n_x))
    vals[0, 1] = 0.5 * packet
    vals[1, 1] = 0.5 * packet
    w0 = WignerField(grid, vals)
    h = hamilton_symbol("nonrel", mass=mass)
    dt = float(params.setdefault("dt", 0.45 * grid.dx / p_half))
    frame_times = [t_end * (k + 1) / n_frames for k in range(n_frames)]
    # bracket every frame with close samples so the time derivative in the
    # continuity residual is not limited by the frame spacing
    delta = min(1e-3, 0.25 * t_end / n_frames)
    samples = sorted({tv for t in frame_times
                      for tv in (max(t - delta, 0.0), t, min(t + delta, t_end))})
    traj = evolve(w0, h, t_end, dt, sample_times=samples)

    frame_rows = []
    resid_max = 0.0
    for idx, (t, f) in enumerate(zip(traj.times, traj.fields)):
        if not any(abs(t - ft) < 1e-12 for ft in [0.0] + frame_times):
            continue
        total = f.values.sum(axis=(0, 1))
        norm = float(np.sum(total) * grid.dp * grid.dx)
        cx = float(np.sum(total * x) * grid.dp * grid.dx) / norm
        cp = float(np.sum(total * p) * grid.dp * grid.dx) / norm
        row = {"t": t, "norm": norm, "centroid_x": cx, "centroid_p": cp}
        if 0 < idx < len(traj.times) - 1:
            r = continuity_residual(traj, x=cx, t=t, current="nonrel",
                                    mass=mass, derivative="spectral")
            row["continuity_residual"] = r
            resid_max = max(resid_max, abs(r))
        frame_rows.append(row)

    jmax = float(np.max(np.abs(current_field_nonrel(traj.fields[-1], mass))))
    end = frame_rows[-1]
    checks = [
        _check("norm-drift", abs(end["norm"] - frame_rows[0]["norm"]), 1e-6),
        _check("centroid-transport",
               math.hypot(end["centroid_x"] - (x0 + p0 / mass * t_end),
                          end["centroid_p"] - p0), 1e-5),
        _check("continuity-residual", resid_max,
               max(1e-4 * jmax, 1e-12),
               detail="interior frames, spectral divergence"),
    ]
    tables = {"frames": frame_rows, "identities": _id_rows(checks)}
    if params.get("dump_frames"):
        tables["frame_values"] = [
            {"t": t, "values": f.values.tolist()}
            for t, f in zip(traj.times, traj.fields)]
    return tables, checks


def _run_verify(params: dict) -> tuple[dict, list[IdentityCheck]]:
    names = params.get("criteria") or list(CRITERIA)
    if isinstance(names, str):
        names = [v for v in names.split(",") if v]
    rows = []
    checks = []
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; choose from {sorted(CRITERIA)}")
        for c in CRITERIA[name]():
            checks.append(c)
            rows.append({"criterion": name, "identity": c.name, "value": c.value,
                         "tolerance": c.tolerance, "passed": int(c.passed),
                         "detail": c.detail})
    return {"identities": rows}, checks


_COMMANDS = {
    "free-nonrel": _run_free_nonrel,
    "free-dirac": _run_free_dirac,
    "step": _run_step,
    "klein-scan": _run_klein_scan,
    "evolve": _run_evolve,
    "verify": _run_verify,
}


def run(cfg: RunConfig) -> RunReport:
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    started = time.perf_counter()
    resolved = dict(cfg.params)
    tables, checks = _COMMANDS[cfg.command](resolved)
    report = RunReport(command=cfg.command, params=resolved,
                       tables=tables, identities=list(checks),
                       wall_time=time.perf_counter() - started, seed=cfg.seed)
    if cfg.output:
        _write_output(report, cfg)
    return report


def _write_output(report: RunReport, cfg: RunConfig):
    path = cfg.output
    if cfg.format == "json":
        doc = {
            "command": report.command,
            "params": {k: _fmt(v) for k, v in sorted(report.params.items())},
            "seed": report.seed,
            "tables": report.tables,
            "identities": _id_rows(report.identities),
            "passed": report.passed,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, default=_fmt)
            fh.write("\n")
        return
    # CSV: primary table at the requested path, others alongside it
    primary = {"free-nonrel": "summary", "free-dirac": "summary",
               "step": "profile", "klein-scan": "scan", "evolve": "frames",
               "verify": "identities"}[report.command]
    stem, ext = os.path.splitext(path)
    for name, rows in report.tables.items():
        if not rows or name == "frame_values":
            continue
        target = path if name == primary else f"{stem}_{name}{ext or '.csv'}"
        fieldnames = sorted({k for row in rows for k in row})
        with open(target, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasespin",
        description="Phase-space quantum mechanics with a binary internal "
                    "degree of freedom: free states, step scattering, the "
                    "Klein paradox, Wigner evolution and identity checks.")
    parser.add_argument("--config", help="JSON file mirroring RunConfig; flags override it")
    sub = parser.add_subparsers(dest="command")

    def add_common(sp):
        sp.add_argument("--output", help="output file path")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("free-nonrel", help="free spin-1/2 momentum eigenstate")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--spin", choices=("up", "down"), default=None)
    sp.add_argument("--mass", type=float, default=None)
    sp.add_argument("--hbar", type=float, default=None)
    add_common(sp)

    sp = sub.add_parser("free-dirac", help="free 1-D Dirac eigenstate")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--sign", choices=("particle", "antiparticle"), default=None)
    sp.add_argument("--mass", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--hbar", type=float, default=None)
    add_common(sp)

    sp = sub.add_parser("step", help="sharp-step scattering (nonrel or dirac)")
    sp.add_argument("--e", "--energy", dest="e", type=float, default=None)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--mode", choices=("nonrel", "dirac"), default=None)
    sp.add_argument("--mass", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--hbar", type=float, default=None)
    sp.add_argument("--spin-up", dest="spin_up", type=complex, default=None)
    sp.add_argument("--spin-down", dest="spin_down", type=complex, default=None)
    sp.add_argument("--x-min", dest="x_min", type=float, default=None)
    sp.add_argument("--x-max", dest="x_max", type=float, default=None)
    sp.add_argument("--n-profile", dest="n_profile", type=int, default=None)
    add_common(sp)

    sp = sub.add_parser("klein-scan", help="transmission table over step heights")
    sp.add_argument("--e", "--energy", dest="e", type=float, default=None)
    sp.add_argument("--mass", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--v0", default=None,
                    help="start:stop:step range or comma list (default 3.01:20:0.5)")
    add_common(sp)

    sp = sub.add_parser("evolve", help="free Gaussian packet evolution")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--p0", type=float, default=None)
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--frames", type=int, default=None)
    sp.add_argument("--mass", type=float, default=None)
    sp.add_argument("--dump-frames", dest="dump_frames", action="store_true", default=None)
    add_common(sp)

    sp = sub.add_parser("verify", help="run the identity/acceptance suite")
    sp.add_argument("--criteria", default=None,
                    help="comma list of criteria (default: all)")
    add_common(sp)
    return parser


_COMMON_KEYS = {"command", "output", "format", "seed", "config"}


def _config_from_args(args) -> RunConfig:
    base = {"command": None, "params": {}, "output": None, "format": "csv", "seed": 0}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        for key in ("command", "output", "format", "seed"):
            if key in doc:
                base[key] = doc[key]
        base["params"].update(doc.get("params", {}))
    if args.command:
        base["command"] = args.command
    for key, value in vars(args).items():
        if key in _COMMON_KEYS or value is None:
            continue
        if key in ("output", "format", "seed"):
            base[key] = value
        else:
            base["params"][key] = value
    for key in ("output", "format", "seed"):
        override = getattr(args, key, None)
        if override is not None:
            base[key] = override
    if base["format"] is None:
        base["format"] = "csv"
    if not base["command"]:
        raise SystemExit("no command given (and none found in --config)")
    return RunConfig(**base)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.config:
        parser.print_help()
        return 2
    try:
        cfg = _config_from_args(args)
        report = run(cfg)
    except (ValueError, OSError, PhaseSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"command: {report.command}")
    for key in sorted(report.params):
        print(f"  {key} = {report.params[key]}")
    for name, rows in report.tables.items():
        if name not in ("identities", "frame_values"):
            print(f"table {name}: {len(rows)} rows")
    for c in report.identities:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {_fmt(c.value)} (tol {_fmt(c.tolerance)})")
    print(f"wall time: {report.wall_time:.3f} s")
    if cfg.output:
        print(f"wrote {cfg.output}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
