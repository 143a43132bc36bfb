"""Benchmark for phasespin: one workload per computational route.

    python3 bench/run.py --workload scatter-profile --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file sits in.  A run sets the program up, computes the
workload's independent references, then repeats the workload's fixed list
of operations in whole rounds until ``--seconds`` of rounds have been timed.
Before each round (outside its timing) the program is set up once more from
scratch and thrown away, so the set-up times, whose median is ``setup_s``,
are spread over the whole run like the round times.  A fixed reference
kernel is timed about four times a second between operations, and every
reported time is in reference seconds, scaled by the kernel's median speed
over the run (see speed.py).  Every round's outputs are checked outside the
timed region.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).

The environment is fixed before numpy loads: BLAS runs one thread and
PHASESPIN_THREADS is unset.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PHASESPIN_THREADS", None)

import argparse
import gc
import importlib
import json
from pathlib import Path
import resource
import shutil
import statistics
import sys
import time

# bench/ is on sys.path as the script's directory
import speed
from tracing import LAYERS, Tracer, layer_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_UNITS = ("s", "ms", "us")
MODULES = ("errors", "exactalg", "grids", "distributions", "states", "quantizer",
           "continuity", "scattering", "star", "verify", "cli")


def import_program():
    """Import phasespin afresh from the checkout's src/ and return a
    namespace of its modules."""
    for name in [m for m in sys.modules if m == "phasespin" or m.startswith("phasespin.")]:
        del sys.modules[name]
    package = importlib.import_module("phasespin")
    ns = argparse.Namespace(package=package)
    for name in MODULES:
        setattr(ns, name, importlib.import_module(f"phasespin.{name}"))
    return ns


def program_modules() -> dict:
    return {name: m for name, m in sys.modules.items()
            if name == "phasespin" or name.startswith("phasespin.")}


def set_up(workload, tracer=None):
    """Import phasespin afresh and build the workload's inputs on it; return
    the program's namespace and the time taken."""
    gc.collect()
    started = time.perf_counter()
    ps = import_program()
    if tracer is not None:
        tracer.install(ps.package)
        tracer.active = True
    workload.setup(ps)
    return ps, time.perf_counter() - started


def spare_set_up(workload, args, out_dir, keep: dict) -> float:
    """Time one more set-up on a throwaway copy of the workload, then put
    the modules the run uses back in ``sys.modules``."""
    _, took = set_up(type(workload)(args.seed, out_dir))
    for name in program_modules():
        del sys.modules[name]
    sys.modules.update(keep)
    gc.collect()
    return took


def per_layer_metrics(summary: dict, factor: float) -> dict:
    """The per-layer metrics from the tracer's per-function summary, times
    in reference seconds (wall times multiplied by ``factor``).

    ``calls``, ``rows``, ``terms``, ``failed`` and ``self_s`` are per round;
    ``mean_*`` are per call; a function never called reads 0.
    """
    def get(name):
        return summary.get(name, {"calls": 0, "time": 0.0, "self": 0.0, "round_calls": 0.0,
                                  "round_time": 0.0, "round_self": 0.0, "failed": 0.0,
                                  "count": 0.0})

    def mean(name, scale):
        s = get(name)
        return s["time"] / s["calls"] * scale if s["calls"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    rm = get("continuity.regularized_moment")
    ks = get("scattering.klein_scan")
    wd = get("quantizer.wigner_distributional")
    ev = get("star.evolve")
    cr = get("cli.run")
    out = {
        "continuity.regularized_moment.calls": (rm["round_calls"], "count"),
        "continuity.regularized_moment.mean_us": (mean("continuity.regularized_moment", 1e6), "us"),
        "continuity.regularized_moment.self_s": (rm["round_self"], "s"),
        "continuity.regularized_moment.failed": (rm["failed"], "count"),
        "scattering.klein_scan.rows": (ks["count"], "count"),
        "scattering.klein_scan.row_us": (ratio(ks["round_time"], ks["count"]) * 1e6, "us"),
        "quantizer.wigner_distributional.calls": (wd["round_calls"], "count"),
        "quantizer.wigner_distributional.terms": (wd["count"], "count"),
        "quantizer.wigner_distributional.mean_us": (mean("quantizer.wigner_distributional", 1e6), "us"),
        "scattering.solve_step_dirac.mean_us": (mean("scattering.solve_step_dirac", 1e6), "us"),
        "scattering.verify_free_eigen_distributional.mean_ms":
            (mean("scattering.verify_free_eigen_distributional", 1e3), "ms"),
        "star.evolve.calls": (ev["round_calls"], "count"),
        "star.evolve.s_per_time_unit": (ratio(ev["round_time"], ev["count"]), "s"),
        "star.moyal_bracket_hamiltonian.mean_ms": (mean("star.moyal_bracket_hamiltonian", 1e3), "ms"),
        "continuity.continuity_residual.mean_ms": (mean("continuity.continuity_residual", 1e3), "ms"),
        "continuity.current_field_nonrel.mean_ms": (mean("continuity.current_field_nonrel", 1e3), "ms"),
        "continuity.current_field_dirac.mean_ms": (mean("continuity.current_field_dirac", 1e3), "ms"),
        "quantizer.kernel_of_weyl_symbol.calls": (get("quantizer.kernel_of_weyl_symbol")["round_calls"], "count"),
        "quantizer.kernel_of_weyl_symbol.mean_ms": (mean("quantizer.kernel_of_weyl_symbol", 1e3), "ms"),
        "quantizer.weyl_symbol_of_kernel.calls": (get("quantizer.weyl_symbol_of_kernel")["round_calls"], "count"),
        "quantizer.weyl_symbol_of_kernel.mean_ms": (mean("quantizer.weyl_symbol_of_kernel", 1e3), "ms"),
        "star.star.calls": (get("star.star")["round_calls"], "count"),
        "star.star.self_s": (get("star.star")["round_self"], "s"),
        "quantizer.wigner_on_grid.mean_ms": (mean("quantizer.wigner_on_grid", 1e3), "ms"),
        "cli.run.self_ms": (ratio(cr["self"], cr["calls"]) * 1e3, "ms"),
    }
    for layer in LAYERS:
        busy = sum((s["round_self"] for name, s in summary.items() if layer_of(name) == layer), 0.0)
        out[f"{layer}.self_s"] = (busy, "s")
    return {name: (value * factor if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phasespin" / "__init__.py").is_file():
        print(f"error: no phasespin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(WORKLOADS[args.workload](args.seed, out_dir), args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass


def run(workload, args, out_dir) -> int:
    tracer = Tracer() if args.trace else None
    gauge = speed.Gauge()
    for _ in range(3):
        gauge.sample(force=True)
    ps, took = set_up(workload, tracer)
    setup_times = [took]
    keep = program_modules()
    if not Path(ps.package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: phasespin imported from {ps.package.__file__}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.active = False
    workload.prepare()

    ops = workload.ops
    first_round_span = len(tracer.spans) if tracer is not None else 0
    problems, unexpected = [], []
    round_times, latencies, by_kind = [], [], {}
    failed = rounds = 0
    while sum(round_times) < args.seconds or rounds == 0:
        setup_times.append(spare_set_up(workload, args, out_dir, keep))
        gauge.sample()
        outputs = []
        paused = 0.0
        if tracer is not None:
            tracer.active = True
        round_start = time.perf_counter()
        for op in ops:
            started = time.perf_counter()
            try:
                outputs.append((op, op.call(), None))
                latencies.append(time.perf_counter() - started)
                by_kind.setdefault(op.kind, []).append(latencies[-1])
            except Exception as exc:  # every failure is counted, none is hidden
                outputs.append((op, None, exc))
            paused += gauge.sample()
        round_times.append(time.perf_counter() - round_start - paused)
        if tracer is not None:
            workload.trace_extras(ps)
            tracer.active = False
        rounds += 1
        for op, out, exc in outputs:
            if exc is None:
                problems.extend(op.check(out))
                continue
            failed += 1
            if op.fault is None or not isinstance(exc, op.fault):
                unexpected.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    problems.extend(workload.final_checks(ps))

    for line in (problems + unexpected)[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = rounds * len(ops)
    print(f"workload {workload.name}: {rounds} rounds of {len(ops)} operations, "
          f"{failed} failed, {len(problems)} check problems, "
          f"{len(unexpected)} unexpected failures")
    print(f"round times ({'traced' if tracer is not None else 'untraced'}): "
          f"{', '.join(f'{t:.4f}' for t in round_times)} s")
    print(f"set-up times: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    factor = gauge.factor()
    print(f"reference kernel: {len(gauge.samples)} samples, median "
          f"{speed.K_REF_S / factor * 1e3:.4f} ms, so a wall second is {factor:.4f} reference s")
    for kind, times in by_kind.items():
        print(f"  op {kind}: {len(times) // rounds} per round, "
              f"median {statistics.median(times) * 1e3:.3f} ms wall")
    print(f"  wall clock: setup_s = {statistics.median(setup_times):.6g} s, "
          f"run_s = {statistics.median(round_times):.6g} s, "
          f"op_p50_ms = {statistics.median(latencies) * 1e3:.6g} ms")
    end_to_end = {
        "setup_s": (statistics.median(setup_times) * factor, "s"),
        "run_s": (statistics.median(round_times) * factor, "s"),
        "op_p50_ms": (statistics.median(latencies) * factor * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer is not None:
        print("  end to end, traced: " + ", ".join(
            f"{name} = {value:.6g} {unit}" for name, (value, unit) in end_to_end.items()))
        metrics = per_layer_metrics(tracer.summary(first_round_span, rounds), factor)
    else:
        metrics = end_to_end
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
