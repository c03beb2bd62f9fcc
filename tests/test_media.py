import math

import pytest
from hypothesis import example, given, settings, strategies as st

import qcloak as qc
from qcloak.errors import (
    DomainError,
    GeometryError,
    ResolutionError,
    SingularRegionError,
)
from qcloak.media import gauge_potential, homogenize, truncate

from oracles import pushforward_eigenvalues


class TestForwardMap:
    def test_fixed_point_and_identity(self):
        assert qc.forward_map(2.0) == 2.0
        assert qc.forward_map(3.0) == 3.0

    def test_interior_value(self):
        assert qc.forward_map(1.0) == 1.5

    def test_continuity_at_two(self):
        assert qc.forward_map(2.0 - 1e-12) == pytest.approx(2.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            qc.forward_map(0.0)
        with pytest.raises(DomainError):
            qc.forward_map(-1.0)

    @given(st.floats(min_value=1e-6, max_value=3.0),
           st.floats(min_value=1e-6, max_value=3.0))
    @example(1e-6, math.nextafter(1e-6, 1.0))
    def test_strictly_increasing(self, r1, r2):
        if r1 == r2:
            return
        lo, hi = sorted((r1, r2))
        f_lo, f_hi = qc.forward_map(lo), qc.forward_map(hi)
        # 1 + r/2 maps (0, 2] onto the fewer floats of (1, 2], so rounding
        # may merge images that lie within an ulp; the exact images are at
        # least (hi - lo)/2 apart, and past a few ulps the order is strict
        assert f_lo <= f_hi
        if hi - lo > 4.0 * math.ulp(f_hi):
            assert f_lo < f_hi

    def test_inverse_round_trip(self):
        for r in (0.01, 0.5, 1.7, 2.0, 2.5):
            assert qc.inverse_map(qc.forward_map(r)) == pytest.approx(r)


class TestIdealCloak:
    def test_against_jacobian_pushforward_oracle(self):
        for rho in (1.2, 1.5, 1.8, 1.99):
            sr, st_, ma = qc.ideal_cloak_at(rho)
            rad, tan, det = pushforward_eigenvalues(rho)
            assert sr == pytest.approx(rad, rel=1e-7)
            assert st_ == pytest.approx(tan, rel=1e-7)

    def test_limit_value_inside_edge(self):
        sr, st_, _ = qc.ideal_cloak_at(2.0 - 1e-12)
        assert sr == pytest.approx(0.5, rel=1e-9)
        assert st_ == 2.0

    def test_degeneration_at_inner_surface(self):
        assert qc.ideal_cloak_at(1.0 + 1e-9)[0] < 1e-17

    def test_free_outside(self):
        assert qc.ideal_cloak_at(2.5) == (1.0, 1.0, 1.0)

    def test_singular_region_error(self):
        with pytest.raises(SingularRegionError):
            qc.ideal_cloak_at(1.0)
        with pytest.raises(SingularRegionError):
            qc.ideal_cloak_at(0.3)

    def test_determinant_consistency(self):
        for i in range(200):
            rho = 1.0 + 1e-6 + (1.0 - 2e-6) * i / 199.0
            sr, st_, ma = qc.ideal_cloak_at(rho)
            assert abs(sr * st_ * st_ - ma) <= 1e-12 * abs(ma)

    def test_anisotropy_ratio_at_reference_truncation(self):
        # (1.005/0.005)^2 = 40401, anisotropy of order 4e4 at the surface
        med = truncate(1.005)
        assert med.anisotropy_ratio_at_truncation() == pytest.approx(
            40401.0, rel=1e-10)

    @pytest.mark.parametrize("R", [1.1, 1.05, 1.01, 1.005])
    def test_anisotropy_ratio_formula(self, R):
        med = truncate(R)
        assert med.anisotropy_ratio_at_truncation() == pytest.approx(
            (R / (R - 1.0)) ** 2, rel=1e-10)


class TestTruncate:
    def test_matches_ideal_values_on_shell(self):
        med = truncate(1.005)
        assert med.sigma_rad(1.005) == pytest.approx(
            2.0 * (0.005 / 1.005) ** 2, rel=1e-12)
        med2 = truncate(1.1)
        assert med2.sigma_rad(1.1) == pytest.approx(
            2.0 * (0.1 / 1.1) ** 2, rel=1e-12)
        rad, _, _ = pushforward_eigenvalues(1.1)
        assert med2.sigma_rad(1.1) == pytest.approx(rad, rel=1e-7)

    def test_monotone_degeneration(self):
        vals = [truncate(R).sigma_rad(R)
                for R in (1.2, 1.1, 1.05, 1.01, 1.005, 1.001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_degenerate_truncation_at_two(self):
        med = truncate(2.0, 1.3, 1.7)
        layers = homogenize(med, 10)
        assert len(layers.shells) == 2
        assert layers.shells[0].sigma == 1.3
        assert layers.shells[0].r_out == 2.0

    def test_rejects_singular_truncation(self):
        with pytest.raises(DomainError):
            truncate(1.0)
        with pytest.raises(DomainError):
            truncate(0.8)

    def test_all_values_finite_positive(self):
        med = truncate(1.005)
        for rho in (1.005, 1.2, 1.7, 2.5, 3.0):
            assert 0.0 < med.sigma_rad(rho) < math.inf
            assert 0.0 < med.mass_a(rho) < math.inf


class TestHomogenize:
    def test_two_phase_values_example(self):
        # m_t = 2, m_r = 0.5 -> phases 2 +- sqrt(3); check the means recover
        m_t, m_r = 2.0, 0.5
        root = math.sqrt(m_t * (m_t - m_r))
        v_hi, v_lo = m_t + root, m_t - root
        assert v_hi == pytest.approx(3.7321, abs=1e-4)
        assert v_lo == pytest.approx(0.2679, abs=1e-4)
        assert 0.5 * (v_hi + v_lo) == pytest.approx(m_t, rel=1e-15)
        assert 2.0 * v_hi * v_lo / (v_hi + v_lo) == pytest.approx(m_r,
                                                                  rel=1e-15)

    def test_cellwise_mean_identities(self):
        layers = homogenize(truncate(1.005), 50)
        for lo, hi in zip(layers.shells[1:-1:2], layers.shells[2:-1:2]):
            m_t = 0.5 * (lo.sigma + hi.sigma)
            m_r = 2.0 * lo.sigma * hi.sigma / (lo.sigma + hi.sigma)
            mid = 0.5 * (lo.r_in + hi.r_out)
            sr, stan, _ = qc.ideal_cloak_at(mid)
            assert m_t == pytest.approx(stan, rel=1e-12)
            assert m_r == pytest.approx(sr, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(m_t=st.floats(min_value=1e-3, max_value=1e3),
           ratio=st.floats(min_value=1e-6, max_value=1.0))
    def test_mean_identities_property(self, m_t, ratio):
        m_r = m_t * ratio
        root = math.sqrt(m_t * (m_t - m_r))
        v_hi, v_lo = m_t + root, m_t - root
        if v_lo <= 0.0:
            return  # fully degenerate cell; not produced by the cloak family
        assert 0.5 * (v_hi + v_lo) == pytest.approx(m_t, rel=1e-12)
        assert 2.0 * v_hi * v_lo / (v_hi + v_lo) == pytest.approx(
            m_r, rel=1e-12)

    def test_isotropic_cell_identity(self):
        c = 1.7
        root = math.sqrt(c * (c - c))
        assert c + root == c - root == c

    def test_structure_and_bracketing(self):
        med = truncate(1.005, *qc.DOUBLED_CORE)
        layers = homogenize(med, 50)
        assert len(layers.shells) == 52
        assert layers.shells[0].r_out == 1.005
        assert layers.shells[-1] == qc.Shell(2.0, 3.0, 1.0, 1.0)
        # extreme shell values bracket the shell-tensor eigenvalues near the
        # truncation surface
        lo, hi = layers.shells[1], layers.shells[2]
        mid = 0.5 * (lo.r_in + hi.r_out)
        sr, stan, _ = qc.ideal_cloak_at(mid)
        assert min(lo.sigma, hi.sigma) <= sr
        assert max(lo.sigma, hi.sigma) >= stan

    def test_errors(self):
        med = truncate(1.1)
        with pytest.raises(DomainError):
            homogenize(med, 7)
        with pytest.raises(DomainError):
            homogenize(med, 0)

    def test_geometric_grading_concentrates_near_surface(self):
        med = truncate(1.01)
        uni = homogenize(med, 20, grading="uniform")
        geo = homogenize(med, 20, grading="geometric", ratio=1.4)
        w_uni = uni.shells[1].r_out - uni.shells[1].r_in
        w_geo = geo.shells[1].r_out - geo.shells[1].r_in
        assert w_geo < w_uni


class TestGaugePotential:
    def test_free_medium_is_gauge_fixed(self, free_medium):
        pot = gauge_potential(free_medium, 0.5)
        assert all(s.V == 0.0 for s in pot.shells)
        pot_m = gauge_potential(free_medium, 0.5, mode="mollified",
                                eta=0.01, grid_step=0.002)
        assert all(s.V == 0.0 for s in pot_m.shells)

    def test_single_shell_value(self):
        med = qc.LayeredMedium((qc.Shell(0.0, 2.0, 2.0, 8.0),
                                qc.Shell(2.0, 3.0, 1.0, 1.0)))
        pot = gauge_potential(med, 0.5)
        assert pot.shells[0].V == pytest.approx(0.5 * (1.0 - 4.0), rel=1e-14)
        assert pot.interface_sigmas == (2.0, 1.0)

    def test_barrier_well_alternation_within_cells(self, cloak_builder):
        # each homogenization cell carries one barrier and one well
        layers = cloak_builder(1.005, 50).medium
        pot = gauge_potential(layers, 0.5)
        pairs = list(zip(pot.shells[1:-1:2], pot.shells[2:-1:2]))
        assert pairs
        for lo, hi in pairs:
            assert min(lo.V, hi.V) < 0.0 < max(lo.V, hi.V)

    def test_mollified_amplitudes_grow_toward_surface(self, cloak_builder):
        layers = cloak_builder(1.005, 50).medium
        pot = gauge_potential(layers, 0.5, mode="mollified")
        R = 1.005
        cell_w = (2.0 - R) / 25.0
        peaks = {}
        for s in pot.shells:
            mid = 0.5 * (s.r_in + s.r_out)
            if R < mid < 2.0:
                cell = int((mid - R) // cell_w)
                peaks[cell] = max(peaks.get(cell, 0.0), abs(s.V))
        amps = [peaks[i] for i in sorted(peaks)][:10]
        assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_resolution_error(self, free_medium):
        med = qc.LayeredMedium((qc.Shell(0.0, 1.0, 2.0, 1.0),
                                qc.Shell(1.0, 3.0, 1.0, 1.0)))
        with pytest.raises(ResolutionError):
            gauge_potential(med, 0.5, mode="mollified", eta=1e-4,
                            grid_step=1e-3)

    def test_attach_core(self):
        med = qc.LayeredMedium((qc.Shell(0.0, 2.0, 1.0, 1.0),
                                qc.Shell(2.0, 3.0, 1.0, 1.0)))
        pot = gauge_potential(med, 0.5)
        W = qc.CorePotential.step(-3.0, 0.9)
        full = qc.attach_core(pot, W)
        assert full.core_W is W
        assert full.value_at(0.5) == pytest.approx(-3.0)
        assert full.value_at(0.95) == 0.0
        assert full.boundaries()[1] == pytest.approx(0.9)


class TestTypes:
    def test_layered_medium_validation(self):
        with pytest.raises(GeometryError):
            qc.LayeredMedium((qc.Shell(0.0, 1.0, 1.0, 1.0),))  # ends early
        with pytest.raises(GeometryError):
            qc.LayeredMedium((qc.Shell(0.0, 1.0, 1.0, 1.0),
                              qc.Shell(1.5, 3.0, 1.0, 1.0)))  # gap
        with pytest.raises(GeometryError):
            qc.LayeredMedium((qc.Shell(0.0, 0.0, 1.0, 1.0),
                              qc.Shell(0.0, 3.0, 1.0, 1.0)))  # zero width
        with pytest.raises(GeometryError):
            qc.LayeredMedium((qc.Shell(0.0, 3.0, 2.0, 1.0),))  # tail not free

    def test_core_potential_validation(self):
        with pytest.raises(DomainError):
            qc.CorePotential(((1.5, 1.0),))
        with pytest.raises(GeometryError):
            qc.CorePotential(((0.5, 1.0), (0.4, 2.0)))
        with pytest.raises(DomainError):
            qc.CorePotential(((0.5, math.inf),))
        W = qc.CorePotential.step(-71.45, 0.9)
        assert W.value_at(0.3) == -71.45
        assert W.value_at(0.95) == 0.0

    def test_radial_potential_validation(self):
        with pytest.raises(GeometryError):
            qc.RadialPotential((qc.PotentialShell(0.0, 3.0, 1.0),))  # V != 0
        with pytest.raises(GeometryError):
            qc.RadialPotential((qc.PotentialShell(0.0, 2.0, 0.0),))
