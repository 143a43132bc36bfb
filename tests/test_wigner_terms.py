"""Term-by-term checks of the exact Wigner functions of scattering states.

Every closed-form family produced by the windowed-plane-wave factory is
compared against hand-derived expressions.  For the principal-value line
arising from the incident/transmitted overlap, the phase constant is fixed by
the damped overlap integral itself (checked below against that integral); the
alternative sign variant of the phase constant differs by a distribution
whose momentum moments all vanish, which is also asserted.
"""

import math

import numpy as np
import pytest

from phasespin import (
    DeltaLine,
    DistributionalWigner,
    PVLine,
    PlaneWavePiece,
    Smooth,
    SpinorWaveState,
    Term,
    FULL_LINE,
    wigner_distributional,
    wigner_on_grid,
    sample_distributional,
    PhaseGrid,
)
from phasespin.continuity import regularized_moment
from phasespin.scattering import ScatterConfig, solve_step_dirac, solve_step_nonrel

HBAR = 1.0
E, V0, M = 1.0, 0.5, 1.0
P = math.sqrt(2 * M * E)
PT = math.sqrt(2 * M * (E - V0))
R = PT / P


@pytest.fixture(scope="module")
def step_solution():
    return solve_step_nonrel(ScatterConfig(energy=E, v0=V0, mode="nonrel"))


def terms_for(sol, label, mn=(0, 1)):
    return [t for t in sol.wigner.terms if t.label == label and t.mn == mn]


def probe_points():
    rng = np.random.default_rng(11)
    return rng.uniform(-3, 3, size=12), rng.uniform(0.05, 3, size=12)


def eval_terms(terms, p, x, skip_delta=False):
    """Sum of term values at (p, x); deltas excluded (compared separately)."""
    out = np.zeros_like(np.broadcast_arrays(p, x)[0], dtype=float)
    for t in terms:
        ind = t.window.indicator(np.asarray(x, dtype=float))
        if isinstance(t.kind, DeltaLine):
            continue
        if isinstance(t.kind, PVLine):
            out = out + t.kind.envelope(p, x) * ind / (p - t.kind.p0)
        else:
            out = out + t.kind.profile(p, x) * ind
    return out


class TestStepTermFamilies:
    """Spin-up fixture; component (m, n) = (0, 1) carries unit spin weight,
    so its terms equal half the scalar overlap transform."""

    def test_family_census(self, step_solution):
        labels = {t.label for t in step_solution.wigner.terms}
        assert labels == {"inc", "ref", "trans", "inc-ref", "inc-trans", "ref-trans"}
        # spin-up: only the n = 1 components are populated
        assert all(t.mn[1] == 1 for t in step_solution.wigner.terms)

    def test_incident_self_term(self, step_solution):
        (term,) = terms_for(step_solution, "inc")
        p, xa = probe_points()
        x = -xa
        want = -(1 + R) ** 2 / (8 * math.pi) * np.sin(2 * x * (p - P) / HBAR) / (p - P)
        assert np.allclose(term.kind.profile(p, x), want, rtol=1e-13, atol=1e-15)
        assert term.window.hi == 0.0 and math.isinf(term.window.lo)

    def test_reflected_self_term(self, step_solution):
        (term,) = terms_for(step_solution, "ref")
        p, xa = probe_points()
        x = -xa
        want = -(1 - R) ** 2 / (8 * math.pi) * np.sin(2 * x * (p + P) / HBAR) / (p + P)
        assert np.allclose(term.kind.profile(p, x), want, rtol=1e-13, atol=1e-15)

    def test_transmitted_self_term(self, step_solution):
        (term,) = terms_for(step_solution, "trans")
        p, x = probe_points()
        want = (1.0 / (2 * math.pi)) * np.sin(2 * x * (p - PT) / HBAR) / (p - PT)
        assert np.allclose(term.kind.profile(p, x), want, rtol=1e-13, atol=1e-15)
        assert term.window.lo == 0.0 and math.isinf(term.window.hi)

    def test_incident_reflected_cross_oscillation(self, step_solution):
        (term,) = terms_for(step_solution, "inc-ref")
        p, xa = probe_points()
        x = -xa
        want = -(1 - R ** 2) / (4 * math.pi) * np.cos(2 * P * x / HBAR) \
            * np.sin(2 * x * p / HBAR) / p
        assert np.allclose(term.kind.profile(p, x), want, rtol=1e-12, atol=1e-14)

    def test_incident_transmitted_delta_lines(self, step_solution):
        deltas = [t for t in terms_for(step_solution, "inc-trans")
                  if isinstance(t.kind, DeltaLine)]
        assert len(deltas) == 2  # one per side of the step; same closed form
        xs = np.linspace(-2, 2, 9)
        for t in deltas:
            assert t.kind.p0 == pytest.approx((P + PT) / 2, rel=1e-15)
            want = 0.25 * (1 + R) * np.cos((P - PT) * xs / HBAR)
            assert np.allclose(t.kind.weight(xs), want, rtol=1e-13)
        lows = sorted((t.window.lo, t.window.hi) for t in deltas)
        assert lows == [(-math.inf, 0.0), (0.0, math.inf)]

    def test_reflected_transmitted_delta_lines(self, step_solution):
        deltas = [t for t in terms_for(step_solution, "ref-trans")
                  if isinstance(t.kind, DeltaLine)]
        xs = np.linspace(-2, 2, 9)
        for t in deltas:
            assert t.kind.p0 == pytest.approx((PT - P) / 2, rel=1e-15)
            want = 0.25 * (1 - R) * np.cos((P + PT) * xs / HBAR)
            assert np.allclose(t.kind.weight(xs), want, rtol=1e-13)

    def test_reflected_transmitted_pv_matches_published_form(self, step_solution):
        pvs = [t for t in terms_for(step_solution, "ref-trans")
               if isinstance(t.kind, PVLine)]
        assert len(pvs) == 2
        p, xa = probe_points()
        for t in pvs:
            x = -xa if t.window.hi == 0.0 else xa
            q = p - (PT - P) / 2
            want = (1 - R) / (4 * math.pi) * np.sin(
                ((P + PT) * x - 2 * q * np.abs(x)) / HBAR)
            assert np.allclose(t.kind.envelope(p, x), want, rtol=1e-12, atol=1e-14)

    def test_incident_transmitted_pv_phase_constant(self, step_solution):
        # envelope sin(((PT - P) x - 2 q |x|)/hbar): the phase constant carries
        # the ket-minus-bra momentum, fixed by the damped overlap integral
        pvs = [t for t in terms_for(step_solution, "inc-trans")
               if isinstance(t.kind, PVLine)]
        assert len(pvs) == 2
        p, xa = probe_points()
        for t in pvs:
            x = -xa if t.window.hi == 0.0 else xa
            q = p - (P + PT) / 2
            want = -(1 + R) / (4 * math.pi) * np.sin(
                ((P - PT) * x + 2 * q * np.abs(x)) / HBAR)
            assert np.allclose(t.kind.envelope(p, x), want, rtol=1e-12, atol=1e-14)

    def test_pv_phase_variants_share_all_moments(self):
        # the alternative variant sin(((P - PT) x - 2 q |x|)/hbar) differs by a
        # distribution with vanishing momentum moments: both variants give the
        # same regularized moments of every order
        x = -1.3
        mine = Term((0, 1), FULL_LINE, PVLine(
            p0=(P + PT) / 2, amp=-(1 + R) / (4 * math.pi),
            k_x=(P - PT) / HBAR, a_x=-2.0 * np.sign(x) / HBAR))
        alt = Term((0, 1), FULL_LINE, PVLine(
            p0=(P + PT) / 2, amp=(1 + R) / (4 * math.pi),
            k_x=(P - PT) / HBAR, a_x=2.0 * np.sign(x) / HBAR))
        for order in range(4):
            a = regularized_moment(DistributionalWigner((mine,)), order, x)
            b = regularized_moment(DistributionalWigner((alt,)), order, x)
            assert a == pytest.approx(b, abs=1e-12)

    def test_pv_phase_against_damped_overlap_integral(self):
        # ket piece on (-inf, 0) at momentum P against bra piece on (0, inf)
        # at momentum PT: the eps-damped overlap integral decides the sign
        amp_i = 0.5 * (1 + R)
        pieces = [PlaneWavePiece(-math.inf, 0.0, amp_i, 0.0, P),
                  PlaneWavePiece(0.0, math.inf, 1.0, 0.0, PT)]
        dw = wigner_distributional(SpinorWaveState(pieces=pieces), HBAR,
                                   {frozenset((0, 1)): "x"})
        cross = [t for t in dw.terms if t.label == "x" and t.mn == (0, 1)]
        eps = 1e-6
        p_bar = (P + PT) / 2
        for x in (-1.3, 0.9):
            for p in (0.4, 1.9):
                q = p - p_bar
                integral = np.exp((1j * q / HBAR - eps) * 2 * abs(x)) / (eps - 1j * q / HBAR)
                scalar = 2 * np.real(amp_i / (2 * np.pi * HBAR)
                                     * np.exp(1j * (P - PT) * x / HBAR) * integral)
                # W = (1/2) sum G Omega: the spin-up (0, 1) component carries
                # half the scalar overlap transform (see the class docstring)
                exact = 0.5 * scalar
                mine = eval_terms(cross, np.array([p]), np.array([x]))[0]
                assert mine == pytest.approx(exact, rel=2e-5, abs=1e-8)


class TestKleinTermLists:
    """The twelve current-carrying component forms of the Dirac step."""

    @pytest.fixture(scope="class")
    def sol(self):
        return solve_step_dirac(ScatterConfig(energy=2.0, v0=5.0, mass=1.0,
                                              c=1.0, mode="dirac"))

    def expected(self, sol, family, m, n, p, x):
        rep = sol.report
        e, mc2, c = 2.0, 1.0, 1.0
        cp, cpt = c * rep.p, c * rep.p_tilde
        gin, gout = e - mc2, e - 5.0 - mc2
        n_tr = rep.n_trans
        frac = {
            (0, 0): {"inc": (gin + cp) / gin, "ref": (gin - cp) / gin,
                     "trans": (gout + cpt) / gout},
            (1, 0): {"inc": (gin - cp) / gin, "ref": (gin + cp) / gin,
                     "trans": (gout - cpt) / gout},
            (0, 1): {"inc": cp * (gin + cp) / gin ** 2,
                     "ref": -cp * (gin - cp) / gin ** 2,
                     "trans": cpt * (gout + cpt) / gout ** 2},
            (1, 1): {"inc": -cp * (gin - cp) / gin ** 2,
                     "ref": cp * (gin + cp) / gin ** 2,
                     "trans": -cpt * (gout - cpt) / gout ** 2},
        }[(m, n)][family]
        if family == "inc":
            return -frac / (2 * math.pi) * np.sin(2 * x * (p - rep.p)) / (p - rep.p)
        if family == "ref":
            return -(1 - n_tr) ** 2 * frac / (2 * math.pi) \
                * np.sin(2 * x * (p + rep.p)) / (p + rep.p)
        return n_tr ** 2 * frac / (2 * math.pi) \
            * np.sin(2 * x * (p - rep.p_tilde)) / (p - rep.p_tilde)

    @pytest.mark.parametrize("family", ["inc", "ref", "trans"])
    def test_component_forms(self, sol, family):
        p, xa = probe_points()
        x = xa if family == "trans" else -xa
        for m in (0, 1):
            for n in (0, 1):
                terms = [t for t in sol.wigner.terms
                         if t.label == family and t.mn == (m, n)]
                assert len(terms) == 1
                got = terms[0].kind.profile(p, x)
                want = self.expected(sol, family, m, n, p, x)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


class TestMarginalAndGridConsistency:
    def test_marginal_equals_position_density(self, step_solution):
        sol = step_solution
        for x in (-2.4, -0.9, 0.7, 2.2):
            rho = regularized_moment(sol.wigner, 0, x)
            psi = sol.state.evaluate(np.array([x]), HBAR)[:, 0]
            assert rho == pytest.approx(float(np.vdot(psi, psi).real), abs=1e-11)

    def test_sampled_terms_match_grid_route_wigner(self, step_solution):
        # the sampled distributional field and the direct grid transform
        # describe the same state.  The grid holds the state cut to the cells
        # of its nodes, [x_min - dx/2, x_max + dx/2], so the exact term list
        # of that clipped state is the reference: all its pieces are bounded,
        # it has only smooth terms, and no ridge needs masking.
        sol = step_solution
        grid = PhaseGrid(-24, 24, 768, -4, 4, 192)
        w_grid = wigner_on_grid(sol.state, grid)
        lo, hi = grid.x_min - 0.5 * grid.dx, grid.x_max + 0.5 * grid.dx
        clipped = SpinorWaveState(pieces=[
            PlaneWavePiece(max(pc.a, lo), min(pc.b, hi), pc.amp_up, pc.amp_down,
                           pc.momentum)
            for pc in sol.state.pieces])
        dw = wigner_distributional(clipped, HBAR)
        assert all(isinstance(t.kind, Smooth) for t in dw.terms)
        w_exact = sample_distributional(dw, grid, sigma_p=0.05)
        ix = int(np.argmin(np.abs(grid.x + 6.0)))
        got = w_grid.values[0, 1][:, ix]
        want = w_exact.values[0, 1][:, ix]
        # measured 4.3e-4; the cut cells are Riemann sums of the exact transform
        assert np.max(np.abs(got - want)) < 1e-3
        assert np.corrcoef(got, want)[0, 1] > 0.999
