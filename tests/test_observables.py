import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcloak as qc
from qcloak import _kernel_py, observables, propagate
from qcloak.errors import DomainError, NearEigenvalueError
from qcloak.observables import legendre_values, optical_theorem_defect

import oracles

E0 = 0.5
K0 = math.sqrt(E0)


class TestPhaseShifts:
    def test_free_system_is_shiftless(self, free_medium):
        ps = qc.phase_shifts(free_medium, E0, l_max=20)
        assert max(abs(d) for d in ps.delta) < 1e-10

    def test_square_well_closed_form(self):
        pot = qc.RadialPotential((qc.PotentialShell(0.0, 1.0, -2.0),
                                  qc.PotentialShell(1.0, 3.0, 0.0)))
        ps = qc.phase_shifts(pot, E0, l_max=4)
        exact = oracles.square_well_delta0(E0)
        diff = abs(ps.delta[0] - exact) % math.pi
        assert min(diff, math.pi - diff) < 1e-10

    def test_unitarity(self, cloak_builder):
        ps = qc.phase_shifts(cloak_builder(1.05, 16, -98.5), E0)
        for s in ps.s_matrix():
            assert abs(abs(s) - 1.0) < 1e-10
        assert all(isinstance(d, float) for d in ps.delta)

    def test_rejects_nonpropagating_energy(self, free_medium):
        with pytest.raises(DomainError):
            qc.phase_shifts(free_medium, 0.0)
        with pytest.raises(DomainError):
            qc.phase_shifts(free_medium, -1.0)

    def test_branch_unwrap_is_continuous(self):
        pot = qc.RadialPotential((qc.PotentialShell(0.0, 1.0, -9.0),
                                  qc.PotentialShell(1.0, 3.0, 0.0)))
        es = np.linspace(0.2, 2.2, 120)
        raw = [qc.phase_shifts(pot, e, l_max=0).delta[0] for e in es]
        smooth = qc.unwrap_phases(raw)
        steps = np.abs(np.diff(smooth))
        assert steps.max() < math.pi / 2


class TestAmplitude:
    def test_zero_shifts_zero_amplitude(self):
        ps = qc.PhaseShifts(E0, K0, (0.0, 0.0, 0.0))
        assert qc.amplitude(ps, 0.7) == 0.0

    def test_swave_unitarity_limit(self):
        ps = qc.PhaseShifts(E0, K0, (math.pi / 2.0,))
        for theta in (0.0, 1.0, 2.5):
            f = qc.amplitude(ps, theta)
            assert abs(f - 1j / K0) < 1e-14
        assert qc.total_cross_section(ps) == pytest.approx(8.0 * math.pi,
                                                           rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1,
                    max_size=12))
    def test_optical_theorem_property(self, deltas):
        ps = qc.PhaseShifts(E0, K0, tuple(deltas))
        assert optical_theorem_defect(ps) < 1e-8
        assert qc.amplitude(ps, 0.0).imag >= -1e-15

    def test_cross_section_zero_for_free(self):
        ps = qc.PhaseShifts(E0, K0, (0.0, 0.0))
        assert qc.total_cross_section(ps) == 0.0


class TestDNSpectrum:
    def test_free_s_channel_value(self, free_medium):
        dn = qc.dn_spectrum(free_medium, E0, l_max=0)
        expected = K0 / math.tan(3.0 * K0) - 1.0 / 3.0
        assert dn.lam[0] == pytest.approx(expected, rel=1e-12)
        assert dn.lam[0] == pytest.approx(-0.767, abs=1e-3)

    def test_free_matches_analytic_all_channels(self, free_medium):
        dn = qc.dn_spectrum(free_medium, E0, l_max=20)
        free = qc.free_dn_spectrum(E0, 20)
        assert dn.max_deviation_from_free() < 1e-10
        for a, b in zip(dn.lam, free.lam):
            assert a == pytest.approx(b, abs=1e-10)

    def test_near_eigenvalue_error_names_channel(self, free_medium):
        E_star = (math.pi / 3.0) ** 2
        with pytest.raises(NearEigenvalueError) as info:
            qc.dn_spectrum(free_medium, E_star, l_max=3)
        assert info.value.l == 0

    def test_normalization_invariance(self, cloak_builder):
        # Dirichlet- and Neumann-normalized reads of the same channel agree
        system = cloak_builder(1.05, 16, -98.5)
        for l in (0, 2, 5):
            sol = qc.solve_channel(system, l, E0, want_norms=False)
            lam_dirichlet = sol.log_derivative_end
            scale = 7.3  # arbitrary rescale of the propagated pair
            lam_neumann = (scale * sol.q_end - scale * sol.p_end / 3.0) / (
                scale * sol.p_end)
            assert lam_dirichlet == pytest.approx(lam_neumann, abs=1e-10)

    def test_cloak_deviation_decreases_with_truncation(self, cloak_builder):
        devs = []
        for R, n in ((1.1, 12), (1.05, 16), (1.01, 36), (1.005, 50)):
            dn = qc.dn_spectrum(cloak_builder(R, n, -98.5), E0)
            devs.append(dn.max_deviation_from_free())
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_reference_cloak_shifts_are_uniformly_small(self, cloak_builder):
        ps = qc.phase_shifts(cloak_builder(1.005, 50, -98.5), E0)
        assert max(abs(d) for d in ps.delta) < 0.05


class TestPlaneWaveField:
    def test_free_field_is_plane_wave(self, free_medium):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(0.0, 3.0, 50),
                               rng.uniform(-1.0, 1.0, 50)])
        # points beyond the outer ball take the free continuation
        pts = np.vstack([pts, [[3.5, -1.0], [4.0, 0.5]]])
        psi = qc.plane_wave_field(free_medium, E0, pts, l_max=25)
        exact = np.exp(1j * K0 * pts[:, 0] * pts[:, 1])
        assert np.max(np.abs(psi - exact)) < 1e-8

    def test_field_at_origin(self, free_medium, cloak_builder):
        # origin samples are evaluated at the kernel's start radius (1e-6),
        # so the free value is e^{ik*1e-6} rather than exactly 1
        pts = np.array([[0.0, 1.0]])
        psi = qc.plane_wave_field(free_medium, E0, pts, l_max=25)
        assert abs(psi[0] - 1.0) < 1e-5
        shielded = qc.plane_wave_field(cloak_builder(1.005, 50, -98.5),
                                       E0, pts)
        assert abs(shielded[0]) < 0.1

    def test_outside_ball_continuation(self, free_medium):
        pts = np.array([[3.5, 0.3], [4.2, -0.9]])
        psi = qc.plane_wave_field(free_medium, E0, pts, l_max=25)
        exact = np.exp(1j * K0 * pts[:, 0] * pts[:, 1])
        assert np.max(np.abs(psi - exact)) < 1e-8

    def test_cloak_exterior_resembles_plane_wave(self, cloak_builder):
        system = cloak_builder(1.005, 50, -98.5)
        x = np.linspace(2.05, 3.0, 40)
        pts = np.column_stack([x, np.ones_like(x)])
        psi = qc.plane_wave_field(system, E0, pts)
        exact = np.exp(1j * K0 * x)
        assert np.max(np.abs(psi - exact)) < 0.05

    def test_cloak_core_is_shielded(self, cloak_builder):
        system = cloak_builder(1.005, 50, -98.5)
        x = np.linspace(0.05, 0.95, 20)
        pts = np.column_stack([x, np.ones_like(x)])
        psi = qc.plane_wave_field(system, E0, pts)
        assert np.max(np.abs(psi)) < 0.1

    def test_trapped_mode_is_core_dominated(self, cloak_builder):
        system = cloak_builder(1.005, 50, -71.45)
        pts = qc.dirichlet_eigenvalues(system, 0, (0.4, 0.6))
        E_star = pts[0].E
        r = np.linspace(0.01, 3.0, 200)
        u = qc.radial_mode(system, 0, E_star + 1e-9, r)
        inside = np.abs(u[r < 1.0]).max()
        outside = np.abs(u[r > 1.2]).max()
        assert inside == pytest.approx(1.0)
        assert outside < 1e-2

    def test_point_validation(self, free_medium):
        with pytest.raises(DomainError):
            qc.plane_wave_field(free_medium, E0, np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("pts", [
        [[math.nan, 0.5], [1.0, math.nan], [1.0, 0.5]],
        [[math.nan, 0.5], [1.0, 0.5]],
        [[1.0, math.nan], [1.0, 0.5]]])
    def test_nan_point_rejected(self, free_medium, pts):
        with pytest.raises(DomainError):
            qc.plane_wave_field(free_medium, E0, pts, l_max=4)

    def test_infinite_radius_rejected(self, free_medium):
        # scipy's j_l and y_l vanish at x = inf, so the field would read 0
        with pytest.raises(DomainError, match="finite r"):
            qc.plane_wave_field(free_medium, E0,
                                [[math.inf, 0.5], [1.0, 0.5]], l_max=4)


class TestRadialModeEdgeCases:
    def test_no_radii(self, free_medium):
        u = qc.radial_mode(free_medium, 0, E0, [])
        assert u.shape == (0,)

    def test_radii_beyond_the_outer_ball_are_nan_without_warning(
            self, free_medium):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = qc.radial_mode(free_medium, 0, E0, [3.5, 4.0])
        assert np.isnan(u).all()

    def test_negative_radius_rejected(self, free_medium):
        with pytest.raises(DomainError):
            qc.radial_mode(free_medium, 0, E0, [-0.5, 1.0])

    def test_nan_radius_rejected(self, free_medium):
        with pytest.raises(DomainError):
            qc.radial_mode(free_medium, 0, E0, [np.nan, 1.0])


class TestSampledFieldsBitwise:
    """Fields from sampled solves equal those through the former solve,
    which evaluated and converted each sample on its own, bit for bit."""

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_fields_match_per_sample_solves(self, cloak_builder, backend,
                                            request, monkeypatch):
        if backend == "python":
            kernel, former = _kernel_py, oracles.per_sample_propagate
        else:
            kernel = request.getfixturevalue("compiled_kernel")
            former = kernel.propagate
        monkeypatch.setattr(propagate, "_impl", kernel)
        rng = np.random.default_rng(7)
        r = np.concatenate([[0.0, 1.0, 1.0 + 1e-15, 3.0],
                            rng.uniform(0.0, 4.0, 60)])
        pts = np.column_stack([r, rng.uniform(-1.0, 1.0, r.size)])
        radii = np.concatenate([[0.0, 3.0], rng.uniform(0.0, 3.5, 40)])

        def fields():
            out = []
            for c_inn in (-98.5, 1.858, -71.45):
                system = cloak_builder(1.005, 50, c_inn)
                out.append(qc.plane_wave_field(system, E0, pts, l_max=12))
                out.append(qc.radial_mode(system, 0, 0.44738, radii))
            return [a.tobytes() for a in out]

        ours = fields()
        monkeypatch.setattr(propagate, "_solve", lambda *args: oracles.
                            per_sample_solve(former, *args))
        assert fields() == ours


REFERENCE_C_INN = {"pass-through": -98.5, "neumann-trap": -71.45}


@pytest.fixture(scope="module")
def reference_systems(cloak_builder):
    """(scenario, kind) -> the reference cloak as an acoustic system and as
    its interface-matched gauge potential with the core attached."""
    out = {}
    for scenario, c_inn in REFERENCE_C_INN.items():
        acoustic = cloak_builder(1.005, 50, c_inn)
        out[scenario, "acoustic"] = acoustic
        out[scenario, "gauge"] = qc.attach_core(
            qc.gauge_potential(acoustic.medium, E0), acoustic.core)
    return out


class TestPlaneWaveFieldExterior:
    """The vectorized free-space continuation against the scalar path."""

    @pytest.mark.parametrize("kind", ["acoustic", "gauge"])
    @pytest.mark.parametrize("scenario", sorted(REFERENCE_C_INN))
    @pytest.mark.parametrize("l_max", [None, 30])
    def test_matches_scalar_oracle(self, reference_systems, scenario, kind,
                                   l_max):
        system = reference_systems[scenario, kind]
        # r in (3, 6], with r = 6 itself and the first float past 3
        rng = np.random.default_rng(3)
        r = np.concatenate([6.0 - rng.uniform(0.0, 3.0, 40),
                            [np.nextafter(3.0, 4.0), 6.0, 6.0]])
        mu = np.concatenate([rng.uniform(-1.0, 1.0, 40), [1.0, 1.0, -1.0]])
        pts = np.column_stack([r, mu])
        psi = qc.plane_wave_field(system, E0, pts, l_max=l_max)
        shifts = qc.phase_shifts(system, E0, l_max=l_max)
        ref = oracles.scalar_exterior_field(shifts, pts)
        assert np.max(np.abs(psi - ref)) <= 1e-12


class TestOuterSphereValuesPinned:
    """DN values and phase shifts of the three reference cloaks and their
    interface-matched gauge potentials at E = 0.5, l <= 12, as float.hex
    strings recorded on commit 1a2d56d, which still matched through the
    kernel's per-shell log-derivative list; both backends give them bit for
    bit."""

    PINS = json.loads(
        Path(__file__).with_name("outer_sphere_pins.json").read_text())
    C_INN = {"pass-through": -98.5, "dirichlet-trap": 1.858,
             "neumann-trap": -71.45}

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_values_match_the_pins(self, cloak_builder, backend, request,
                                   monkeypatch):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        got = {}
        for scenario, c_inn in self.C_INN.items():
            acoustic = cloak_builder(1.005, 50, c_inn)
            gauge = qc.attach_core(qc.gauge_potential(acoustic.medium, E0),
                                   acoustic.core)
            for kind, system in (("acoustic", acoustic), ("gauge", gauge)):
                got[f"{scenario}/{kind}"] = {
                    "lam": [x.hex() for x in
                            qc.dn_spectrum(system, E0, l_max=12).lam],
                    "delta": [x.hex() for x in
                              qc.phase_shifts(system, E0, l_max=12).delta]}
        assert got == self.PINS


class TestPlaneWaveFieldSolvesOnce:
    L_MAX = 12

    @pytest.fixture
    def spies(self, monkeypatch):
        """Record every channel solve and every matched delta_l made through
        the observables module."""
        solves, deltas = [], []
        solve, match = observables.solve_channel, observables._match_delta

        def spy_solve(system, l, E, **kw):
            solves.append((l, kw.get("sample_r") is not None))
            return solve(system, l, E, **kw)

        def spy_match(sol, k):
            deltas.append(match(sol, k))
            return deltas[-1]

        monkeypatch.setattr(observables, "solve_channel", spy_solve)
        monkeypatch.setattr(observables, "_match_delta", spy_match)
        return solves, deltas

    @pytest.mark.parametrize("where,sampled", [
        ("mixed", True), ("interior", True), ("exterior", False)])
    def test_one_solve_per_channel(self, cloak_builder, spies, where,
                                   sampled):
        system = cloak_builder(1.005, 50, -98.5)
        expected = qc.phase_shifts(system, E0, l_max=self.L_MAX).delta
        solves, deltas = spies
        solves.clear()
        deltas.clear()
        rng = np.random.default_rng(11)
        lo, hi = {"mixed": (0.0, 6.0), "interior": (0.0, 3.0),
                  "exterior": (3.01, 6.0)}[where]
        pts = np.column_stack([rng.uniform(lo, hi, 30),
                               rng.uniform(-1.0, 1.0, 30)])
        qc.plane_wave_field(system, E0, pts, l_max=self.L_MAX)
        assert solves == [(l, sampled) for l in range(self.L_MAX + 1)]
        assert tuple(deltas) == expected

    def test_rejects_nonpropagating_energy(self, free_medium):
        pts = np.array([[1.0, 0.5], [4.0, -0.5]])
        for E in (0.0, -1.0):
            with pytest.raises(DomainError):
                qc.plane_wave_field(free_medium, E, pts)


class TestLegendre:
    def test_values_against_scipy(self):
        from scipy.special import eval_legendre
        mu = np.linspace(-1.0, 1.0, 21)
        pl = legendre_values(12, mu)
        for l in range(13):
            assert np.allclose(pl[l], eval_legendre(l, mu), atol=1e-12)
