"""Fast tests of the benchmark's own code.

    python -m pytest bench -q

They live outside ``tests/``, so the repository's test command does not
collect them.  They check the reference computations against known values
and the test oracles, and the printed result against BENCHMARK.json.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import references as ref  # noqa: E402
import speed  # noqa: E402
from oracles import brute_star, windowed_linear_star  # noqa: E402
from phasespin.grids import PhaseGrid  # noqa: E402
from phasespin.quantizer import omega_array  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_omega_from_displacement_sum_matches_tables():
    assert np.max(np.abs(ref.OMEGA - omega_array())) < 1e-15


def test_klein_edge_transmission():
    # spinor matching at x = 0: n_t = 2 up_in / (up_in + up_out)
    row = ref.klein_row(2.0, 3.001)
    assert row["n_trans"] == pytest.approx(2.02615, abs=1e-5)
    assert row["transmission"] == pytest.approx(0.05299, abs=1e-5)
    assert row["reflection"] - row["transmission"] == pytest.approx(1.0, abs=1e-12)
    assert row["t_signed"] < 0


@pytest.mark.parametrize("energy, v0", [(1.3, 0.6), (2.0, 0.0)])
def test_nonrel_step_conserves_current(energy, v0):
    wave = ref.nonrel_step(energy, v0, [0.6, 0.8j])
    assert wave.transmission + wave.reflection == pytest.approx(1.0, abs=1e-14)
    # current from the wave function itself, by a central difference
    for x in (-1.7, 2.3):
        h = 1e-6
        dpsi = (wave.psi(x + h) - wave.psi(x - h)) / (2 * h)
        j = float(np.imag(np.vdot(wave.psi(x), dpsi)))
        assert j == pytest.approx(wave.current(x), rel=1e-8)


def test_gaussian_rule_matches_window_product_oracle():
    # windowed_linear_star = (quadratic polynomial) * (w * w); dividing by
    # the Gaussian rule at a = b must leave exactly a quadratic polynomial
    s, hbar = 0.9, 1.0
    a = 1.0 / (2.0 * s * s)
    rng = np.random.default_rng(0)
    x, p = rng.uniform(-2, 2, 60), rng.uniform(-2, 2, 60)
    basis = np.stack([np.ones_like(x), x, p, x * x, x * p, p * p], axis=1)
    for b, expect_poly in ((a, True), (1.01 * a, False)):
        ratio = windowed_linear_star(x, p, s, hbar) / ref.gaussian_star(a, b, x * x + p * p, hbar)
        coef = np.linalg.lstsq(basis, ratio, rcond=None)[0]
        resid = np.max(np.abs(basis @ coef - ratio)) / np.max(np.abs(ratio))
        assert (resid < 1e-12) == expect_poly


def test_gaussian_rule_matches_mode_by_mode_oracle():
    grid = PhaseGrid(-6, 6, 32, -6, 6, 32)
    p, x = np.meshgrid(grid.p, grid.x, indexing="ij")
    z2 = (x - 0.3) ** 2 + (p + 0.2) ** 2
    out = brute_star(np.exp(-0.5 * z2), np.exp(-0.8 * z2), grid)
    assert np.max(np.abs(out - ref.gaussian_star(0.5, 0.8, z2))) < 1e-10


def test_split_step_conserves_norm_and_moves_packet():
    x = np.linspace(-20, 20, 256)
    dx = x[1] - x[0]
    psi0 = np.array([[1.0], [0.0]]) * ref.gaussian_packet(x, -2.0, 3.0, 1.0)[None, :]
    psi = ref.dirac_split_step(psi0, dx, np.zeros_like(x), 2.0, 400, mass=0.01)
    rho = np.sum(np.abs(psi) ** 2, axis=0)
    assert np.sum(rho) * dx == pytest.approx(1.0, abs=1e-12)
    # a nearly massless packet travels at |v| ~ c in both directions
    assert abs(x[np.argmax(rho)] - (-2.0)) == pytest.approx(2.0, abs=0.2)


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scatter-profile", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_gauge_scales_by_the_kernel_median():
    gauge = speed.Gauge(interval_s=3600.0)
    gauge.sample(force=True)
    assert gauge.sample() == 0.0          # inside the interval: no sample
    assert len(gauge.samples) == 1
    gauge.samples = [2 * speed.K_REF_S, 4 * speed.K_REF_S, 3 * speed.K_REF_S]
    assert gauge.factor() == pytest.approx(1 / 3)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_every_metric(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # the six near-step probes fail in every round, nothing else does
    rounds = result["attempted"] // 23
    assert result["attempted"] == 23 * rounds and result["failed"] == 6 * rounds


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
