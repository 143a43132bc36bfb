import math

import numpy as np
import pytest

from phasespin import (
    DeltaLine,
    DistributionalWigner,
    ExtrapolationError,
    FULL_LINE,
    LEFT_HALF,
    PhaseGrid,
    PVLine,
    PlaneWavePiece,
    RIGHT_HALF,
    Smooth,
    SpinorWaveState,
    Term,
    WignerField,
    hamilton_symbol,
)
from phasespin.continuity import (
    beam_decompose,
    continuity_residual,
    correlation_moment,
    current_dirac,
    current_nonrel,
    oracle_current_wavefunction,
    regularized_moment,
    spatial_density,
)
from phasespin.scattering import (
    ScatterConfig,
    free_eigenstate_dirac,
    free_eigenstate_nonrel,
    solve_step_dirac,
    solve_step_nonrel,
)
from phasespin.star import evolve

from oracles import damped_moments, neville_moment, quad_damped_moment


class TestRegularizedMoment:
    def test_delta_line_exact_and_alpha_independent(self):
        kind = DeltaLine(p0=1.5, amp=2.0, k_x=0.7)
        vals = damped_moments(kind, 2, 0.3, np.array([0.1, 0.01]))
        want = 2.0 * math.cos(0.7 * 0.3) * 1.5 ** 2
        assert np.array_equal(vals, [want, want])
        dw = DistributionalWigner((Term((0, 0), FULL_LINE, kind),))
        assert regularized_moment(dw, 2, 0.3) == pytest.approx(want, rel=1e-15)

    def test_transmitted_term_first_moment(self):
        # (1/pi) sin(2x(p - pt)/hbar) Y(x)/(p - pt): order 1 gives pt, so the
        # current is pt/M on the transmitted side
        pt = 0.8
        kind = Smooth.sinc_line(r=pt, amp=1.0 / math.pi, a=2.0)
        dw = DistributionalWigner((Term((0, 1), RIGHT_HALF, kind),))
        for x in (0.2, 1.0, 4.0):
            assert regularized_moment(dw, 1, x) == pytest.approx(pt, abs=1e-12)
            assert regularized_moment(dw, 0, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_damped_values_match_quadrature(self, order):
        terms = [
            PVLine(p0=0.7, amp=0.6, k_x=1.1, phi0=0.3, a_x=2.0, b0=0.0),
            Smooth(r=-0.4, amp=0.5, a1=2.0, b1=0.3, a2=-2.0, b2=-0.1,
                   k_x=0.8, phi0=0.2),
            DeltaLine(p0=-1.2, amp=0.9, k_x=0.5, phi0=0.1),
        ]
        x, alpha = 0.9, 0.05
        for kind in terms:
            mine = damped_moments(kind, order, x, np.array([alpha]))[0]
            orc = quad_damped_moment(kind, order, x, alpha)
            assert mine == pytest.approx(orc, rel=2e-6, abs=2e-6)

    def test_linearity_in_terms(self):
        t1 = Term((0, 0), FULL_LINE, PVLine(p0=0.2, amp=0.4, a_x=2.0))
        t2 = Term((0, 0), FULL_LINE, Smooth.sinc_line(r=-0.3, amp=0.8, a=2.0))
        x = 0.7
        joint = regularized_moment(DistributionalWigner((t1, t2)), 1, x)
        split = (regularized_moment(DistributionalWigner((t1,)), 1, x)
                 + regularized_moment(DistributionalWigner((t2,)), 1, x))
        assert joint == pytest.approx(split, abs=1e-13)

    def test_order_cap(self):
        dw = DistributionalWigner((Term((0, 0), FULL_LINE, DeltaLine(1.0, 1.0)),))
        with pytest.raises(ValueError):
            regularized_moment(dw, 4, 0.0)

    def test_component_selection(self):
        dw = DistributionalWigner((
            Term((0, 0), FULL_LINE, DeltaLine(1.0, 1.0)),
            Term((1, 1), FULL_LINE, DeltaLine(2.0, 1.0)),
        ))
        assert regularized_moment(dw, 1, 0.0, component=(0, 0)) == 1.0
        assert regularized_moment(dw, 1, 0.0, component=(1, 1)) == 2.0
        assert regularized_moment(dw, 1, 0.0) == 3.0

    def test_zero_kappa_raises(self):
        # kappa = 2x vanishes at x = 0 inside the full-line window
        kind = PVLine(p0=0.4, amp=1.0, phi0=0.4, a_x=2.0)
        dw = DistributionalWigner((Term((0, 1), FULL_LINE, kind, "inc-ref"),))
        with pytest.raises(ExtrapolationError, match=r"order 1 .*x = 0\.0.*\(0, 1\) 'inc-ref'"):
            regularized_moment(dw, 1, 0.0)

    def test_exact_limit_matches_neville_oracle(self):
        solutions = [
            solve_step_nonrel(ScatterConfig(energy=1.0, v0=0.5, mode="nonrel",
                                            spin_up=0.6, spin_down=0.8)),
            solve_step_dirac(ScatterConfig(energy=2.0, v0=5.0, mode="dirac")),
            solve_step_dirac(ScatterConfig(energy=5.0, v0=1.5, mode="dirac")),
        ]
        for sol in solutions:
            for x in (-3.1, -1.2, -0.35, 0.2, 0.9, 2.7):
                for order in range(4):
                    got = regularized_moment(sol.wigner, order, x)
                    want = neville_moment(sol.wigner, order, x)
                    assert got == pytest.approx(want, rel=1e-12)


class TestInterferenceMoments:
    def test_disjoint_window_moments_vanish(self):
        rng = np.random.default_rng(42)
        from phasespin import wigner_distributional
        for _ in range(4):
            lo = np.sort(rng.uniform(-5, 5, size=4))
            if lo[1] - lo[0] < 0.3 or lo[3] - lo[2] < 0.3 or lo[2] - lo[1] < 0.4:
                continue
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            pc1 = PlaneWavePiece(lo[0], lo[1], amps[0], amps[1], rng.uniform(-2, 2))
            pc2 = PlaneWavePiece(lo[2], lo[3], amps[2], amps[3], rng.uniform(-2, 2))
            st = SpinorWaveState(pieces=[pc1, pc2])
            cross = wigner_distributional(st, 1.0, {frozenset((0, 1)): "x"}).filtered("x")
            for x in rng.uniform(lo[0], lo[3], size=3):
                for order in range(4):
                    val = regularized_moment(cross, order, float(x))
                    assert abs(val) < 1e-12

    def test_incident_reflected_cross_has_no_current(self):
        # equal-and-opposite momenta on a shared left window: orders >= 1 vanish
        from phasespin import wigner_distributional
        p0 = 1.1
        st = SpinorWaveState(pieces=[
            PlaneWavePiece(-math.inf, 0.0, 0.8, 0.1, p0),
            PlaneWavePiece(-math.inf, 0.0, 0.3, -0.2, -p0),
        ])
        cross = wigner_distributional(st, 1.0, {frozenset((0, 1)): "x"}).filtered("x")
        for x in (-2.2, -0.7):
            for order in (1, 2, 3):
                assert abs(regularized_moment(cross, order, x)) < 1e-12
            # order zero does contribute (the density oscillates)
        assert abs(regularized_moment(cross, 0, -0.7)) > 1e-3


class TestDensitiesAndCurrents:
    def test_normalized_gaussian_density(self):
        grid = PhaseGrid(-8, 8, 128, -8, 8, 128)
        p, x = np.meshgrid(grid.p, grid.x, indexing="ij")
        vals = np.zeros((2, 2, grid.n_p, grid.n_x))
        vals[0, 1] = (1 / np.pi) * np.exp(-x ** 2 - p ** 2)
        w = WignerField(grid, vals)
        probes = grid.x[::8]
        rho = [spatial_density(w, float(xx)) for xx in probes]
        total = np.trapezoid(w.marginal_x(), dx=grid.dx)
        assert total == pytest.approx(1.0, abs=1e-8)
        # with even n_x the probe nearest the centre is x = 0.063, not 0:
        # compare with the analytic marginal exp(-x^2)/sqrt(pi) where probed
        mid = len(probes) // 2
        assert rho[mid] == pytest.approx(
            math.exp(-probes[mid] ** 2) / math.sqrt(math.pi), rel=1e-6)

    def test_plane_wave_constant_density(self):
        free = free_eigenstate_nonrel(1.3, "up")
        for x in (-3.0, 0.0, 2.5):
            assert spatial_density(free.wigner, x) == pytest.approx(
                1.0 / (2 * math.pi), rel=1e-14)

    def test_even_wigner_zero_current(self):
        grid = PhaseGrid(-4, 4, 64, -4, 4, 64)
        p, x = np.meshgrid(grid.p, grid.x, indexing="ij")
        vals = np.zeros((2, 2, grid.n_p, grid.n_x))
        vals[1, 0] = np.exp(-x ** 2 - p ** 2)  # even in p
        assert current_nonrel(WignerField(grid, vals), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_free_current_values(self):
        free = free_eigenstate_nonrel(1.4, "down", mass=2.0)
        assert current_nonrel(free.wigner, 0.0, mass=2.0) == \
            pytest.approx(1.4 / (2 * math.pi * 2.0), abs=1e-13)
        fd = free_eigenstate_dirac(0.6, "particle")
        want = 0.6 / (2 * math.pi * math.sqrt(0.36 + 1))
        assert current_dirac(fd.wigner, 0.0) == \
            pytest.approx(want, abs=1e-13)
        assert current_dirac(free_eigenstate_dirac(0.6, "antiparticle").wigner,
                             0.0) == pytest.approx(-want, abs=1e-13)

    def test_all_equal_components_cancel_dirac_current(self):
        dw = DistributionalWigner(tuple(
            Term((m, n), FULL_LINE, DeltaLine(p0=1.0, amp=0.25))
            for m in (0, 1) for n in (0, 1)))
        assert current_dirac(dw, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_step_density_matches_wavefunction(self):
        sol = solve_step_nonrel(ScatterConfig(energy=1.0, v0=0.5, mode="nonrel"))
        for x in (-1.7, -0.3, 0.4, 2.6):
            rho = spatial_density(sol.wigner, x)
            psi = sol.state.evaluate(np.array([x]))[:, 0]
            assert rho == pytest.approx(float(np.vdot(psi, psi).real), abs=1e-11)

    def test_klein_values_next_to_the_step(self):
        sol = solve_step_dirac(ScatterConfig(energy=2.0, v0=5.0, mode="dirac"))
        for x in (1e-6, 1e-5, 1e-4, -1e-4):
            psi = sol.state.evaluate(np.array([x]))[:, 0]
            rho = float(np.vdot(psi, psi).real)
            j = oracle_current_wavefunction(sol.state, x, "dirac")
            assert spatial_density(sol.wigner, x) == pytest.approx(rho, rel=1e-9)
            assert current_dirac(sol.wigner, x) == pytest.approx(j, rel=1e-9)

    def test_step_edge_raises_and_sides_are_exact(self):
        from phasespin import GridDomainError
        sol = solve_step_nonrel(ScatterConfig(energy=1.0, v0=0.5, mode="nonrel"))
        with pytest.raises(GridDomainError):
            spatial_density(sol.wigner, 0.0)
        with pytest.raises(GridDomainError):
            current_nonrel(sol.wigner, 0.0)
        with pytest.raises(GridDomainError):
            current_dirac(sol.wigner, 0.0)
        for x in (-1e-3, 1e-3):
            assert spatial_density(sol.wigner, x) == pytest.approx(1.0, abs=1e-6)
            assert current_nonrel(sol.wigner, x) == pytest.approx(1.0, abs=1e-6)


class TestOracleCurrent:
    def test_plane_wave_textbook_value(self):
        st = SpinorWaveState(pieces=[PlaneWavePiece(-math.inf, math.inf, 0.6, 0.0, 1.2)])
        assert oracle_current_wavefunction(st, 0.3, "nonrel", mass=2.0) == \
            pytest.approx(0.36 * 1.2 / 2.0, rel=1e-14)

    def test_dirac_eigenspinor_current(self):
        fd = free_eigenstate_dirac(0.9, "particle")
        j = oracle_current_wavefunction(fd.state, 0.0, "dirac")
        assert j == pytest.approx(fd.current, rel=1e-13)

    def test_boundary_evaluation_rejected(self):
        from phasespin import GridDomainError
        sol = solve_step_nonrel(ScatterConfig(energy=1.0, v0=0.5, mode="nonrel"))
        with pytest.raises(GridDomainError):
            oracle_current_wavefunction(sol.state, 0.0, "nonrel")

    def test_sampled_state_oracle(self):
        grid = PhaseGrid(-10, 10, 256, -6, 6, 256)
        psi = np.exp(-(grid.x ** 2) / 4 + 1.3j * grid.x)
        st = SpinorWaveState(samples=np.array([psi, 0 * psi]))
        j = oracle_current_wavefunction(st, 0.0, "nonrel", grid=grid)
        # j = |psi|^2 p/M at the packet centre
        assert j == pytest.approx(1.3, rel=1e-6)


class TestContinuityResidual:
    @pytest.fixture(scope="class")
    def traj(self):
        grid = PhaseGrid(-10, 10, 128, -6, 6, 128)
        p, x = np.meshgrid(grid.p, grid.x, indexing="ij")
        vals = np.zeros((2, 2, grid.n_p, grid.n_x))
        vals[0, 1] = (1 / np.pi) * np.exp(-(x + 1.5) ** 2 - (p - 1.0) ** 2)
        w0 = WignerField(grid, vals)
        h = hamilton_symbol("nonrel", mass=1.0)
        # the central time difference leaves delta^2 rho_ttt / 6 (6.6e-7 at
        # delta = 1e-3, above the bound); delta = 5e-4 leaves 1.65e-7
        delta = 5e-4
        return evolve(w0, h, 0.5 + delta, 0.4 * grid.dx / 6.0,
                      sample_times=[0.5 - delta, 0.5, 0.5 + delta])

    def test_evolved_packet_residual_small(self, traj):
        from phasespin.continuity import current_field_nonrel
        jmax = np.max(np.abs(current_field_nonrel(traj.fields[2])))
        r = continuity_residual(traj, x=-1.0, t=0.5, derivative="spectral")
        assert abs(r) < 1e-6 * jmax

    def test_stationary_state_residual_is_time_noise(self):
        grid = PhaseGrid(-5, 5, 64, -6, 6, 128)
        p, _ = np.meshgrid(grid.p, grid.x, indexing="ij")
        vals = np.zeros((2, 2, grid.n_p, grid.n_x))
        vals[0, 1] = np.exp(-(p - 1.0) ** 2)
        w0 = WignerField(grid, vals)
        h = hamilton_symbol("nonrel", mass=1.0)
        traj = evolve(w0, h, 0.2, 0.4 * grid.dx / 6.0,
                      sample_times=[0.1, 0.15, 0.2])
        assert abs(continuity_residual(traj, 0.5, 0.15)) < 1e-12

    def test_corrupted_trajectory_detected(self, traj):
        from dataclasses import replace
        scaled = WignerField(traj.grid, traj.fields[2].values * 1.01,
                             traj.fields[2].time_tag)
        bad = replace(traj, fields=(traj.fields[0], traj.fields[1], scaled,
                                    traj.fields[3]))
        r_good = continuity_residual(traj, -1.0, 0.5, derivative="spectral")
        r_bad = continuity_residual(bad, -1.0, 0.5, derivative="spectral")
        assert abs(r_bad) > 100 * abs(r_good)

    def test_requires_bracketing_samples(self, traj):
        with pytest.raises(ValueError):
            continuity_residual(traj, 0.0, traj.times[0])


class TestCorrelationMoment:
    def test_matches_regularized_moments_on_free_state(self):
        free = free_eigenstate_nonrel(1.2, "up")
        for order in range(4):
            a = correlation_moment(free.state, order, 0.4, dxi=0.01)
            b = regularized_moment(free.wigner, order, 0.4)
            assert a == pytest.approx(b, rel=1e-4, abs=1e-10)

    def test_component_resolution(self):
        free = free_eigenstate_nonrel(1.2, "up")
        # the central difference errs by (p dxi)^2 / 6: 2.4e-5 at dxi = 0.01,
        # 2.4e-7 at dxi = 1e-3
        for mn, want in (((0, 0), 0.0), ((0, 1), 0.6 / math.pi / 2)):
            got = correlation_moment(free.state, 1, 0.0, dxi=1e-3, component=mn)
            want_exact = regularized_moment(free.wigner, 1, 0.0, component=mn)
            assert got == pytest.approx(want_exact, rel=1e-6, abs=1e-12)


class TestBeamDecomposition:
    def test_pure_incident_beam(self):
        st = SpinorWaveState(pieces=[PlaneWavePiece(-math.inf, 0.0, 1.0, 0.0, 1.5)])
        dec = beam_decompose(st, 0.0, [50.0, 100.0, 200.0, 400.0], "nonrel")
        assert dec.j_ref == pytest.approx(0.0, abs=1e-9)
        assert dec.j_inc == pytest.approx(1.5, rel=1e-9)

    def test_mixed_amplitudes_recover_squared_sums(self):
        p0 = 1.3
        a = (0.8 + 0.1j, 0.35 - 0.2j)
        b = (-0.25 + 0.3j, 0.4 + 0.05j)
        st = SpinorWaveState(pieces=[
            PlaneWavePiece(-math.inf, 0.0, a[0], a[1], p0),
            PlaneWavePiece(-math.inf, 0.0, b[0], b[1], -p0),
        ])
        gs = [20.0 * 2 ** k for k in range(8)]
        dec = beam_decompose(st, 0.0, gs, "nonrel")
        j_inc_want = p0 * (abs(a[0]) ** 2 + abs(a[1]) ** 2)
        j_ref_want = -p0 * (abs(b[0]) ** 2 + abs(b[1]) ** 2)
        assert dec.j_inc == pytest.approx(j_inc_want, rel=1e-2)
        assert dec.j_ref == pytest.approx(j_ref_want, rel=1e-2)
        # finite-G estimates approach the limit like 1/G
        errs = [abs(row[1] - dec.mean_abs_momentum) for row in dec.table]
        slope = np.polyfit(np.log(gs), np.log(errs), 1)[0]
        assert -1.35 < slope < -0.65

    def test_step_solution_beams(self):
        sol = solve_step_nonrel(ScatterConfig(energy=1.0, v0=0.5, mode="nonrel"))
        gs = [25.0 * 2 ** k for k in range(7)]
        dec = beam_decompose(sol.state, 0.0, gs, "nonrel")
        assert dec.j_inc == pytest.approx(sol.report.j_inc, rel=1e-3)
        assert dec.j_ref == pytest.approx(sol.report.j_ref, rel=1e-3)

    def test_dirac_klein_beams(self):
        sol = solve_step_dirac(ScatterConfig(energy=2.0, v0=5.0, mode="dirac"))
        gs = [25.0 * 2 ** k for k in range(7)]
        dec = beam_decompose(sol.state, 0.0, gs, "dirac")
        assert dec.j_inc == pytest.approx(sol.report.j_inc, rel=1e-3)
        assert dec.j_ref == pytest.approx(sol.report.j_ref, rel=1e-3)

    def test_requires_left_pieces(self):
        st = SpinorWaveState(pieces=[PlaneWavePiece(0.0, math.inf, 1.0, 0.0, 1.0)])
        with pytest.raises(ValueError):
            beam_decompose(st, 0.0, [10.0], "nonrel")
