import json
import math
import pickle
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcloak as qc
from qcloak import _kernel_py, observables, propagate
from qcloak.errors import ConfigurationError, DomainError, NearEigenvalueError
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

    @pytest.mark.parametrize("bad", [-0.5, 0.0, math.nan, math.inf])
    def test_free_values_refuse_nonpropagating_energy(self, free_medium,
                                                      bad):
        with pytest.raises(DomainError, match="finite E > 0"):
            qc.free_dn_spectrum(bad, 3)
        # dn_spectrum takes a finite E <= 0, but its free reference does not
        dn = (qc.dn_spectrum(free_medium, bad, 3) if math.isfinite(bad)
              else qc.DNSpectrum(bad, (0.0,) * 4))
        with pytest.raises(DomainError, match="finite E > 0"):
            dn.max_deviation_from_free()

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
        # |psi| is about 1 at every finite r; at r = inf the free field
        # is undefined (math.sin raises there)
        with pytest.raises(DomainError, match="finite r"):
            qc.plane_wave_field(free_medium, E0,
                                [[math.inf, 0.5], [1.0, 0.5]], l_max=4)


    @pytest.mark.parametrize("pts", [[], [[1.0]], [1.0, 0.5],
                                     [[1.0, 0.5, 0.2]], [[[1.0, 0.5]]]])
    def test_points_not_shaped_n_by_2_rejected(self, free_medium,
                                               monkeypatch, pts):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the points were checked")

        monkeypatch.setattr(observables, "_table_channels", solve)
        with pytest.raises(DomainError, match=r"\(n, 2\)"):
            qc.plane_wave_field(free_medium, E0, pts, l_max=4)

    def test_no_points_give_an_empty_field(self, free_medium):
        psi = qc.plane_wave_field(free_medium, E0, np.empty((0, 2)), l_max=4)
        assert psi.shape == (0,) and psi.dtype == complex


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
    """Fields sampled from step tables equal those of the former field,
    which solved each channel with its samples, through the former solve,
    which evaluated and converted each sample on its own, bit for bit."""

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_fields_match_per_sample_solves(self, cloak_builder, backend,
                                            request, monkeypatch):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        rng = np.random.default_rng(7)
        r = np.concatenate([[0.0, 1.0, 1.0 + 1e-15, 3.0],
                            rng.uniform(0.0, 4.0, 60)])
        pts = np.column_stack([r, rng.uniform(-1.0, 1.0, r.size)])
        radii = np.concatenate([[0.0, 3.0], rng.uniform(0.0, 3.5, 40)])

        def fields(field, mode):
            out = []
            for c_inn in (-98.5, 1.858, -71.45):
                system = cloak_builder(1.005, 50, c_inn)
                out.append(field(system, E0, pts, l_max=12))
                out.append(mode(system, 0, 0.44738, radii))
            return [a.tobytes() for a in out]

        ours = fields(qc.plane_wave_field, qc.radial_mode)
        assert fields(oracles.per_channel_plane_wave_field,
                      oracles.per_sample_radial_mode) == ours


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
    strings; both backends give them bit for bit.  Recorded on commit
    1a2d56d, which still matched through the kernel's per-shell
    log-derivative list, and recorded again when j_l below its turning
    point took the Wronskian normalisation: 103 of the 156 values moved,
    by at most 2.2e-15; and again when the march's first substep took the
    regular member alone: 2 values moved, by at most 5.9e-15."""

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


class TestZeroOfSinAtTheOuterSphere:
    """At E = (2 pi/3)^2, k R_OUTER = 2 pi is a zero of j_0 = sin x / x,
    which no channel's j_l may be normalised by."""

    E = (2.0 * math.pi / 3.0) ** 2

    def test_observables_agree_on_both_backends(self, cloak_builder,
                                                request, monkeypatch):
        pts = np.array([[0.5, 0.3], [2.0, -0.7], [3.0, 1.0], [3.0, -1.0],
                        [4.5, 0.2], [6.0, 1.0]])
        got = {}
        for backend in ("python", "compiled"):
            kernel = (request.getfixturevalue("compiled_kernel")
                      if backend == "compiled" else _kernel_py)
            monkeypatch.setattr(propagate, "_impl", kernel)
            system = cloak_builder(1.005, 50, -98.5)
            ps = qc.phase_shifts(system, self.E)
            dn = qc.dn_spectrum(system, self.E)
            psi = qc.plane_wave_field(system, self.E, pts)
            assert all(abs(abs(s) - 1.0) < 1e-10 for s in ps.s_matrix())
            assert np.all(np.isfinite(dn.lam)) and np.all(np.isfinite(psi))
            got[backend] = pickle.dumps((ps, dn, psi))
        assert got["python"] == got["compiled"]


def outcome(f, *args) -> bytes:
    """The pickled result of f(*args), or the error it raised."""
    try:
        return pickle.dumps(f(*args))
    except (DomainError, NearEigenvalueError) as exc:
        return repr(exc).encode()


class TestOuterSphereTable:
    """`phase_shifts` and `dn_spectrum` read one table per system: the
    solves of channels 0..L at the last energy asked for."""

    ENERGIES = (0.3, 0.44738, 0.5)
    #: a prefix of the table, then growth past it, then a prefix again
    L_MAX_ORDER = (8, 14, 10)

    @staticmethod
    def systems(cloak_builder):
        out = {c: cloak_builder(1.005, 50, c) for c in (-98.5, 1.858, -71.45)}
        acoustic = out[-98.5]
        out["gauge"] = qc.attach_core(
            qc.gauge_potential(acoustic.medium, E0), acoustic.core)
        layers = qc.homogenize(qc.truncate(1.1, *qc.DOUBLED_CORE), 12)
        out["mollified"] = qc.gauge_potential(layers, E0, mode="mollified")
        return out

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The channel l of every kernel call, in call order."""
        calls = []
        real = propagate._impl.propagate
        monkeypatch.setattr(propagate._impl, "propagate",
                            lambda *a, **kw: calls.append(a[0]) or
                            real(*a, **kw))
        return calls

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_pickles_match_per_channel_solves(self, cloak_builder, backend,
                                              request, monkeypatch):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        for name, system in self.systems(cloak_builder).items():
            for E in self.ENERGIES:
                for l_max in self.L_MAX_ORDER:
                    for ours, former in (
                            (qc.phase_shifts,
                             oracles.per_channel_phase_shifts),
                            (qc.dn_spectrum,
                             oracles.per_channel_dn_spectrum)):
                        assert outcome(ours, system, E, l_max) == \
                            outcome(former, system, E, l_max), (name, E, l_max)

    def test_each_channel_is_solved_once_per_energy(self, cloak_builder,
                                                    kernel_calls):
        system = cloak_builder(1.005, 50, -98.5)
        qc.phase_shifts(system, E0, 10)
        qc.dn_spectrum(system, E0, 10)
        assert kernel_calls == list(range(11))
        kernel_calls.clear()
        # a repeat and a prefix solve nothing
        qc.dn_spectrum(system, E0, 10)
        qc.phase_shifts(system, E0, 6)
        assert kernel_calls == []
        # a larger l_max solves only the new channels
        qc.dn_spectrum(system, E0, 13)
        assert kernel_calls == [11, 12, 13]
        kernel_calls.clear()
        # a new energy replaces the table; so does the first energy again
        qc.phase_shifts(system, 0.3, 4)
        qc.dn_spectrum(system, E0, 2)
        assert kernel_calls == list(range(5)) + list(range(3))

    def test_refused_channel_stops_the_solves(self, kernel_calls):
        # the l = 0 refusal must come before any higher channel is solved
        free = qc.LayeredMedium((qc.Shell(0.0, 3.0, 1.0, 1.0),))
        E_star = (math.pi / 3.0) ** 2
        with pytest.raises(NearEigenvalueError) as info:
            qc.dn_spectrum(free, E_star, 48)
        assert info.value.l == 0
        assert kernel_calls == [0]
        # the phase shifts solve every channel, the overflowing ones of the
        # former start (l >= 41 here) included
        assert len(qc.phase_shifts(free, E_star, 48).delta) == 49
        assert kernel_calls == list(range(49))

    def test_threads_sharing_a_system_match_serial_calls(self,
                                                         cloak_builder):
        requests = [(f, E, l_max) for f in (qc.phase_shifts, qc.dn_spectrum)
                    for E in (0.3, 0.5, 0.7) for l_max in (4, 9, 12)]
        serial = {}
        for f, E, l_max in requests:
            serial[f, E, l_max] = pickle.dumps(
                f(cloak_builder(1.05, 16, -98.5), E, l_max))

        def run(shared, seed):
            order = np.random.default_rng(seed).permutation(len(requests))
            return [(requests[i], pickle.dumps(f(shared, E, l_max)))
                    for i in order for f, E, l_max in [requests[i]]]

        # switch threads often, so that they interleave inside the solves
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(4):
                shared = cloak_builder(1.05, 16, -98.5)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = [r for rs in pool.map(
                        run, [shared] * 8, range(8 * trial, 8 * trial + 8))
                        for r in rs]
                assert len(results) == 8 * len(requests)
                for key, got in results:
                    assert got == serial[key], key
                key, sols, steps = shared.__dict__["_outer_table"]
                assert [s.l for s in sols] == list(range(len(sols)))
                assert all(s.E == key[-1] for s in sols)
                assert steps == (None,) * len(sols)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_energy_rejected(self, free_medium, bad):
        pts = np.array([[1.0, 0.5], [4.0, -0.5]])
        for call in (lambda: qc.phase_shifts(free_medium, bad),
                     lambda: qc.dn_spectrum(free_medium, bad),
                     lambda: qc.plane_wave_field(free_medium, bad, pts)):
            with pytest.raises(DomainError, match="energy must be finite"):
                call()

    @pytest.mark.parametrize("bad", [-1, -5, 2.0, 3.5, 61])
    def test_bad_l_max_rejected(self, free_medium, bad):
        pts = np.array([[1.0, 0.5], [4.0, -0.5]])
        for call in (lambda: qc.phase_shifts(free_medium, E0, bad),
                     lambda: qc.dn_spectrum(free_medium, E0, bad),
                     lambda: qc.plane_wave_field(free_medium, E0, pts,
                                                 bad)):
            with pytest.raises(ConfigurationError, match="l_max"):
                call()

    def test_numpy_integer_l_max_accepted(self, free_medium):
        assert qc.phase_shifts(free_medium, E0, np.int64(3)).l_max == 3


@pytest.fixture
def marches(monkeypatch):
    """(l, keep_steps) of every kernel march, in call order, spied on the
    hook perfbench's tracer wraps."""
    calls = []
    real = propagate._impl.propagate

    def spy(*args, **kw):
        calls.append((args[0], kw.get("keep_steps", False)))
        return real(*args, **kw)

    monkeypatch.setattr(propagate._impl, "propagate", spy)
    return calls


class TestPlaneWaveFieldSolvesOnce:
    L_MAX = 12

    @pytest.fixture
    def spies(self, marches, monkeypatch):
        """Record every kernel march and every matched delta_l made through
        the observables module."""
        deltas = []
        match = observables._match_delta

        def spy_match(sol, k):
            delta, pair = match(sol, k)
            deltas.append(delta)
            return delta, pair

        monkeypatch.setattr(observables, "_match_delta", spy_match)
        return marches, deltas

    @pytest.mark.parametrize("where,sampled", [
        ("mixed", True), ("interior", True), ("exterior", False)])
    def test_one_solve_per_channel(self, cloak_builder, spies, where,
                                   sampled):
        # after the phase shifts, a field with interior points marches each
        # channel once more, with steps; one without reads the table alone
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
        assert solves == ([(l, True) for l in range(self.L_MAX + 1)]
                          if sampled else [])
        assert tuple(deltas) == expected

    def test_rejects_nonpropagating_energy(self, free_medium):
        pts = np.array([[1.0, 0.5], [4.0, -0.5]])
        for E in (0.0, -1.0):
            with pytest.raises(DomainError):
                qc.plane_wave_field(free_medium, E, pts)


def field_map_jobs(seed, n_jobs):
    """(system name, slice points, segment points) of seeded jobs in the
    manner of perfbench's field-map: a 12 x 12 slice through the cloak and
    a 60-point segment from the origin, as (r, cos theta) rows."""
    rng = np.random.default_rng(seed)
    for i in range(n_jobs):
        h = rng.uniform(3.8, 4.2)
        u = np.linspace(-h, h, 12)
        U, V = (a.ravel() for a in np.meshgrid(u, u, indexing="ij"))
        cx, cz = rng.uniform(-0.3, 0.3, 2)
        angle = rng.uniform(0.0, math.pi)
        c, s = math.cos(angle), math.sin(angle)
        t = np.linspace(0.0, rng.uniform(3.5, 4.5), 60)
        seg = rng.uniform(0.0, math.pi)
        out = []
        for x, z in ((cx + c * U - s * V, cz + s * U + c * V),
                     (t * math.sin(seg), t * math.cos(seg))):
            r = np.hypot(x, z)
            mu = np.divide(z, r, out=np.ones_like(r), where=r > 0)
            out.append(np.column_stack([r, np.clip(mu, -1.0, 1.0)]))
        yield ("pass-through", "neumann-trap")[i % 2], out[0], out[1]


class TestFieldsFromTheTable:
    """`plane_wave_field` samples step tables kept in the outer-sphere
    table: one march per channel serves every field at (system, E)."""

    L_MAX = 10
    C_INN = {"pass-through": -98.5, "neumann-trap": -71.45}

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_warm_fields_equal_fresh_ones(self, cloak_builder, backend,
                                          request, monkeypatch):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        warm = {name: cloak_builder(1.005, 50, c)
                for name, c in self.C_INN.items()}

        def fresh(name, pts):
            return pickle.dumps(qc.plane_wave_field(
                cloak_builder(1.005, 50, self.C_INN[name]), E0, pts))

        for name, slice_pts, segment_pts in field_map_jobs(2024, 6):
            # slice then segment on shared systems, as field-map's jobs do
            for pts in (slice_pts, segment_pts):
                assert pickle.dumps(qc.plane_wave_field(
                    warm[name], E0, pts)) == fresh(name, pts)
        _, slice_pts, segment_pts = next(field_map_jobs(7, 1))
        # segment then slice
        system = cloak_builder(1.005, 50, -98.5)
        for pts in (segment_pts, slice_pts):
            assert pickle.dumps(qc.plane_wave_field(system, E0, pts)) == \
                fresh("pass-through", pts)
        # the phase shifts (and DN values) first, then the field
        system = cloak_builder(1.005, 50, -71.45)
        ps = qc.phase_shifts(system, E0)
        qc.dn_spectrum(system, E0, 8)
        assert pickle.dumps(qc.plane_wave_field(system, E0, slice_pts)) == \
            fresh("neumann-trap", slice_pts)
        assert qc.phase_shifts(system, E0) == ps

    def points(self, seed=3):
        rng = np.random.default_rng(seed)
        return np.column_stack([rng.uniform(0.0, 5.0, 40),
                                rng.uniform(-1.0, 1.0, 40)])

    def test_two_fields_march_each_channel_once(self, cloak_builder,
                                                marches):
        system = cloak_builder(1.005, 50, -98.5)
        qc.plane_wave_field(system, E0, self.points(1), self.L_MAX)
        qc.plane_wave_field(system, E0, self.points(2), self.L_MAX)
        assert marches == [(l, True) for l in range(self.L_MAX + 1)]
        # and the phase shifts and DN values after them march nothing
        qc.phase_shifts(system, E0, self.L_MAX)
        qc.dn_spectrum(system, E0, self.L_MAX)
        assert len(marches) == self.L_MAX + 1

    def test_phase_shifts_then_field_remarch_each_channel_once(
            self, cloak_builder, marches):
        system = cloak_builder(1.005, 50, -98.5)
        qc.phase_shifts(system, E0, self.L_MAX)
        qc.plane_wave_field(system, E0, self.points(), self.L_MAX)
        qc.plane_wave_field(system, E0, self.points(4), self.L_MAX)
        channels = list(range(self.L_MAX + 1))
        assert marches == ([(l, False) for l in channels]
                           + [(l, True) for l in channels])
        # a larger l_max marches only the new channels, with steps
        marches.clear()
        qc.plane_wave_field(system, E0, self.points(), self.L_MAX + 2)
        assert marches == [(self.L_MAX + 1, True), (self.L_MAX + 2, True)]

    def test_new_energy_replaces_the_table(self, cloak_builder, marches):
        system = cloak_builder(1.005, 50, -98.5)
        qc.plane_wave_field(system, E0, self.points(), self.L_MAX)
        qc.plane_wave_field(system, 0.3, self.points(), self.L_MAX)
        key, sols, steps = system.__dict__["_outer_table"]
        assert key[-1] == 0.3 and {s.E for s in sols} == {0.3}
        assert None not in steps
        qc.plane_wave_field(system, E0, self.points(), self.L_MAX)
        assert marches == [(l, True) for l in range(self.L_MAX + 1)] * 3

    def test_radial_mode_leaves_the_table(self, cloak_builder, marches):
        system = cloak_builder(1.005, 50, -71.45)
        qc.plane_wave_field(system, E0, self.points(), self.L_MAX)
        table = system.__dict__["_outer_table"]
        marches.clear()
        qc.radial_mode(system, 0, 0.44738, np.linspace(0.0, 3.0, 50))
        assert marches == [(0, True)]
        assert system.__dict__["_outer_table"] is table

    def test_phase_shifts_and_dn_keep_no_steps(self, cloak_builder):
        system = cloak_builder(1.005, 50, -98.5)
        qc.phase_shifts(system, E0, self.L_MAX)
        qc.dn_spectrum(system, E0, self.L_MAX + 3)
        # an exterior-only field samples nothing, so it keeps none either
        qc.plane_wave_field(system, E0, [[4.0, 0.5]], self.L_MAX + 4)
        key, sols, steps = system.__dict__["_outer_table"]
        assert len(sols) == self.L_MAX + 5
        assert steps == (None,) * len(sols)


class TestOneSampleCall:
    """A field samples every channel of its (system, E) in one call of the
    kernel's `sample`, and `radial_mode` its one channel in one call."""

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_each_field_and_mode_samples_once(self, cloak_builder, backend,
                                              request, monkeypatch):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        calls = []
        real = kernel.sample

        def spy(ls, steps, sample_r):
            calls.append(list(ls))
            return real(ls, steps, sample_r)

        monkeypatch.setattr(propagate._impl, "sample", spy)
        system = cloak_builder(1.005, 50, -98.5)
        pts = TestFieldsFromTheTable().points()
        channels = list(range(11))
        qc.plane_wave_field(system, E0, pts, l_max=10)
        assert calls == [channels]
        # a warm field marches nothing and still samples once
        qc.plane_wave_field(system, E0, pts[::2], l_max=10)
        assert calls == [channels] * 2
        # an exterior-only field samples nothing
        qc.plane_wave_field(system, E0, [[4.0, 0.5]], l_max=10)
        assert calls == [channels] * 2
        qc.radial_mode(system, 3, 0.44738, np.linspace(0.0, 3.0, 50))
        assert calls == [channels] * 2 + [[3]]


class TestLegendre:
    def test_values_against_scipy(self):
        from scipy.special import eval_legendre
        mu = np.linspace(-1.0, 1.0, 21)
        pl = legendre_values(12, mu)
        for l in range(13):
            assert np.allclose(pl[l], eval_legendre(l, mu), atol=1e-12)
