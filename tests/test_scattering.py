import math
from fractions import Fraction

import numpy as np
import pytest

from phasespin import DeltaLine, UnsupportedModelError
from phasespin.continuity import current_dirac, current_nonrel, \
    oracle_current_wavefunction, regularized_moment
from phasespin.scattering import (
    ScatterConfig,
    free_dirac_nonrel_limit_weights,
    free_eigenstate_dirac,
    free_eigenstate_nonrel,
    klein_scan,
    solve_step_dirac,
    solve_step_nonrel,
    verify_free_eigen_distributional,
)


class TestFreeNonrel:
    def test_spin_up_components(self):
        free = free_eigenstate_nonrel(1.3, "up")
        comps = {t.mn: t.kind.amp for t in free.wigner.terms}
        assert set(comps) == {(0, 1), (1, 1)}
        for amp in comps.values():
            assert amp == pytest.approx(0.5 / (2 * math.pi), rel=1e-14)

    def test_spin_down_components(self):
        free = free_eigenstate_nonrel(1.3, "down")
        assert {t.mn for t in free.wigner.terms} == {(0, 0), (1, 0)}

    def test_current_value(self):
        free = free_eigenstate_nonrel(0.9, "up", mass=1.5)
        assert free.current == pytest.approx(0.9 / (2 * math.pi * 1.5), rel=1e-15)
        assert current_nonrel(free.wigner, 1.0, 1.5) == \
            pytest.approx(free.current, abs=1e-13)

    def test_mixture_coefficients(self):
        coeff = np.array([[0.4, 0.3], [-0.1, 0.4]])
        free = free_eigenstate_nonrel(1.0, coeff)
        got = {t.mn: t.kind.amp * 2 * math.pi for t in free.wigner.terms}
        for m in (0, 1):
            for n in (0, 1):
                if coeff[m, n]:
                    assert got[(m, n)] == pytest.approx(coeff[m, n], rel=1e-14)

    def test_coefficient_constraints(self):
        with pytest.raises(ValueError):
            free_eigenstate_nonrel(1.0, np.array([[0.5, 0.5], [0.5, -0.5]]))
        with pytest.raises(ValueError):
            # marginal pair sum C[0,0] + C[0,1] negative
            free_eigenstate_nonrel(1.0, np.array([[-0.4, 0.2], [0.6, 0.6]]))


class TestFreeDirac:
    def test_weights_sum_to_two(self):
        free = free_eigenstate_dirac(0.75, "particle")
        total = sum(t.kind.amp for t in free.wigner.terms)
        assert total == pytest.approx(2.0 / (4 * math.pi), rel=1e-13)

    def test_single_negative_component(self):
        for branch, neg_mn in (("particle", (1, 0)), ("antiparticle", (0, 1))):
            free = free_eigenstate_dirac(0.75, branch)
            negs = [t.mn for t in free.wigner.terms if t.kind.amp < 0]
            assert negs == [neg_mn]

    def test_current_and_sign_flip(self):
        p0 = 0.6
        want = p0 / (2 * math.pi * math.sqrt(p0 ** 2 + 1))
        jp = free_eigenstate_dirac(p0, "particle").current
        ja = free_eigenstate_dirac(p0, "antiparticle").current
        assert jp == pytest.approx(want, rel=1e-14)
        assert ja == pytest.approx(-want, rel=1e-14)

    def test_nonrelativistic_limit(self):
        # Mc^2 >> |c p|: the weights concentrate on the n = 1 components
        free = free_eigenstate_dirac(1e-4, "particle", mass=1.0, c=1.0)
        weights = {t.mn: t.kind.amp * 4 * math.pi for t in free.wigner.terms}
        limit = free_dirac_nonrel_limit_weights("particle")
        for m in (0, 1):
            assert weights.get((m, 1), 0.0) == pytest.approx(limit[m, 1], abs=1e-4)
            assert abs(weights.get((m, 0), 0.0)) < 1e-4

    def test_rest_state(self):
        free = free_eigenstate_dirac(0.0, "particle")
        assert free.current == 0.0
        assert {t.mn for t in free.wigner.terms} == {(0, 1), (1, 1)}


class TestStepNonrel:
    def test_no_barrier_limit(self):
        rep = solve_step_nonrel(ScatterConfig(energy=1.0, v0=0.0, mode="nonrel")).report
        assert rep.transmission == pytest.approx(1.0, abs=1e-15)
        assert rep.reflection == pytest.approx(0.0, abs=1e-15)

    def test_half_momentum_ratio_case(self):
        # E = 2 V0 gives pt/p = 1/sqrt(2)
        rep = solve_step_nonrel(ScatterConfig(energy=2.0, v0=1.0, mode="nonrel")).report
        r = 1 / math.sqrt(2)
        assert rep.transmission == pytest.approx(4 * r / (1 + r) ** 2, rel=1e-14)
        assert rep.transmission + rep.reflection == pytest.approx(1.0, abs=1e-15)

    def test_momenta(self):
        rep = solve_step_nonrel(ScatterConfig(energy=1.0, v0=0.5, mass=2.0,
                                              mode="nonrel")).report
        assert rep.p == pytest.approx(2.0)
        assert rep.p_tilde == pytest.approx(math.sqrt(2.0))

    def test_current_continuity_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e = rng.uniform(0.1, 8.0)
            v0 = rng.uniform(0.0, 0.99 * e)
            rep = solve_step_nonrel(ScatterConfig(energy=e, v0=v0, mode="nonrel")).report
            assert rep.j_inc + rep.j_ref == pytest.approx(rep.j_trans, abs=1e-13)

    def test_spin_independence(self):
        base = solve_step_nonrel(ScatterConfig(energy=1.7, v0=0.6, mode="nonrel")).report
        for up, down in ((0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5)),
                         (0.6 + 0.48j, 0.64j)):
            rep = solve_step_nonrel(ScatterConfig(
                energy=1.7, v0=0.6, mode="nonrel",
                spin_up=up, spin_down=down)).report
            assert rep.transmission == base.transmission
            assert rep.reflection == base.reflection

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            ScatterConfig(energy=0.5, v0=0.5, mode="nonrel")
        with pytest.raises(ValueError):
            ScatterConfig(energy=0.5, v0=-0.1, mode="nonrel")
        with pytest.raises(ValueError):
            ScatterConfig(energy=1.0, v0=0.5, mode="nonrel", spin_up=1.0,
                          spin_down=1.0)

    def test_wigner_currents_match_report_and_oracle(self):
        sol = solve_step_nonrel(ScatterConfig(
            energy=1.0, v0=0.5, mode="nonrel",
            spin_up=math.sqrt(0.3), spin_down=math.sqrt(0.7) * 1j))
        rep = sol.report
        for x in (-2.0, -0.6, 0.8, 2.4):
            want = rep.j_trans if x > 0 else rep.j_inc + rep.j_ref
            assert current_nonrel(sol.wigner, x, 1.0) == \
                pytest.approx(want, abs=1e-11)
            assert oracle_current_wavefunction(sol.state, x, "nonrel") == \
                pytest.approx(want, abs=1e-13)


class TestStepDirac:
    def test_klein_regime_identities(self):
        for v0 in (3.2, 5.0, 9.7, 40.0):
            rep = solve_step_dirac(ScatterConfig(energy=2.0, v0=v0, mode="dirac")).report
            assert rep.regime == "klein"
            assert rep.j_trans < 0
            assert rep.reflection - rep.transmission == pytest.approx(1.0, abs=1e-12)
            assert rep.n_ref == pytest.approx(rep.n_trans - 1.0, abs=1e-14)
            assert rep.j_inc + rep.j_ref == pytest.approx(rep.j_trans, abs=1e-11)

    def test_edge_of_klein_regime(self):
        rep = solve_step_dirac(ScatterConfig(energy=2.0, v0=3.0, mode="dirac")).report
        assert rep.n_trans == pytest.approx(2.0, abs=1e-14)
        assert rep.p_tilde == 0.0
        assert rep.j_trans == 0.0
        assert rep.transmission == 0.0
        assert rep.reflection == pytest.approx(1.0, abs=1e-14)

    def test_strong_step_asymptote(self):
        rep = solve_step_dirac(ScatterConfig(energy=2.0, v0=1e6, mode="dirac")).report
        assert rep.n_trans == pytest.approx(3.0 + math.sqrt(3.0), abs=1e-3)

    def test_above_barrier_regime(self):
        rep = solve_step_dirac(ScatterConfig(energy=5.0, v0=2.0, mode="dirac")).report
        assert rep.regime == "above-barrier"
        assert rep.j_trans > 0
        assert rep.transmission + rep.reflection == pytest.approx(1.0, abs=1e-12)

    def test_zero_step_transparent(self):
        rep = solve_step_dirac(ScatterConfig(energy=2.0, v0=0.0, mode="dirac")).report
        assert rep.transmission == pytest.approx(1.0, abs=1e-14)
        assert rep.reflection == pytest.approx(0.0, abs=1e-14)

    def test_unsupported_regimes(self):
        with pytest.raises(UnsupportedModelError):
            solve_step_dirac(ScatterConfig(energy=0.8, v0=5.0, mode="dirac"))
        with pytest.raises(UnsupportedModelError):
            # evanescent window: E - Mc^2 < V0 < E + Mc^2
            solve_step_dirac(ScatterConfig(energy=2.0, v0=2.0, mode="dirac"))

    def test_wigner_currents_match_report(self):
        sol = solve_step_dirac(ScatterConfig(energy=2.0, v0=6.0, mode="dirac"))
        rep = sol.report
        for x in (-1.4, 0.9):
            want = rep.j_trans if x > 0 else rep.j_inc + rep.j_ref
            assert current_dirac(sol.wigner, x) == \
                pytest.approx(want, abs=1e-10)
            assert oracle_current_wavefunction(sol.state, x, "dirac") == \
                pytest.approx(want, abs=1e-12)

    def test_only_self_families_carry_current(self):
        sol = solve_step_dirac(ScatterConfig(energy=2.0, v0=5.0, mode="dirac"))
        rep = sol.report
        kept = sol.current_terms()
        for x in (-1.1, 0.7):
            want = rep.j_trans if x > 0 else rep.j_inc + rep.j_ref
            assert current_dirac(kept, x) == \
                pytest.approx(want, abs=1e-10)


class TestKleinScan:
    def test_scan_rows(self):
        rows = klein_scan(2.0, 1.0, 1.0, 1.0, [3.01, 4.0, 10.0])
        assert all(r.error is None for r in rows)
        for r in rows:
            assert r.r_minus_t == pytest.approx(1.0, abs=1e-12)
            assert r.t_signed < 0

    def test_out_of_regime_row_error(self):
        rows = klein_scan(2.0, 1.0, 1.0, 1.0, [2.0, 4.0])
        assert rows[0].error is not None and rows[0].transmission is None
        assert rows[1].error is None

    def test_monotone_rise_to_asymptote(self):
        v0s = np.concatenate([np.linspace(3.001, 20, 30), [1e6]])
        rows = klein_scan(2.0, 1.0, 1.0, 1.0, v0s)
        ts = [r.transmission for r in rows]
        # near the Klein edge T grows like sqrt(V0 - E - Mc^2); at V0 = 3.001
        # it is fixed independently by matching the spinors at x = 0:
        # (up_in, 1) + n_r (-up_in, 1) = n_t (up_out, 1), T = n_t^2 |up_out| / up_in
        e, v0 = 2.0, v0s[0]
        up_in = math.sqrt(e * e - 1.0) / (e - 1.0)
        up_out = math.sqrt((e - v0) ** 2 - 1.0) / (e - v0 - 1.0)
        n_t = 2.0 * up_in / (up_in + up_out)
        assert ts[0] == pytest.approx(n_t ** 2 * abs(up_out) / up_in, rel=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))
        asym = (3 + math.sqrt(3)) * (1 + math.sqrt(3))
        assert ts[-1] == pytest.approx(asym, abs=1e-3)


class TestExactEigenChecks:
    @pytest.mark.parametrize("mode,branch", [
        ("nonrel", "up"), ("nonrel", "down"),
        ("dirac", "particle"), ("dirac", "antiparticle"),
    ])
    def test_residuals_identically_zero(self, mode, branch):
        rep = verify_free_eigen_distributional(mode, Fraction(3, 4), branch)
        assert rep.exact_zero
        assert rep.x_independent
        assert all(z == 0 for _, _, z in rep.residuals)

    def test_rational_energy_case(self):
        # p = 3/4, M = c = 1: E = 5/4 exactly; the whole check lives in Q + iQ
        rep = verify_free_eigen_distributional("dirac", Fraction(3, 4), "particle")
        assert rep.exact_zero

    def test_irrational_energy_case(self):
        # E = sqrt(2) is irrational; the check runs in Q(sqrt(2)) + iQ(sqrt(2))
        rep = verify_free_eigen_distributional("dirac", Fraction(1), "particle")
        assert rep.exact_zero

    def test_wrong_energy_detected_affinely(self):
        eps = Fraction(1, 100)
        rep = verify_free_eigen_distributional("dirac", Fraction(3, 4), "particle",
                                               energy_offset=eps)
        assert not rep.exact_zero
        # residual of each component equals -eps times its weight: for
        # p = 3/4 the (0, 0) weight is 2/5
        res = dict(((m, n), z) for m, n, z in rep.residuals)
        assert res[(0, 0)] == pytest.approx(-float(eps) * 0.4, abs=1e-15)

    def test_zero_momentum(self):
        rep = verify_free_eigen_distributional("dirac", 0, "particle")
        assert rep.exact_zero
