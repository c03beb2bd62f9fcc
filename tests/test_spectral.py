import itertools
import math
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import spherical_jn

import qcloak as qc
from qcloak import _kernel_py, propagate, spectral
from qcloak.errors import DomainError
from qcloak.spectral import classify

import oracles

E0 = 0.5


class TestDirichletEigenvalues:
    def test_free_lowest_roots(self, free_medium):
        pts = qc.dirichlet_eigenvalues(free_medium, 0, (0.5, 5.0))
        assert len(pts) == 2
        assert pts[0].E == pytest.approx((math.pi / 3.0) ** 2, abs=1e-10)
        assert pts[1].E == pytest.approx((2.0 * math.pi / 3.0) ** 2,
                                         abs=1e-9)
        assert pts[0].E == pytest.approx(oracles.free_dirichlet_root(1),
                                         abs=1e-10)

    def test_empty_window_is_not_an_error(self, free_medium):
        assert qc.dirichlet_eigenvalues(free_medium, 0, (0.2, 0.9)) == []

    def test_endpoint_warning(self, free_medium):
        root = (math.pi / 3.0) ** 2
        with pytest.warns(UserWarning, match="endpoint"):
            qc.dirichlet_eigenvalues(free_medium, 0, (root, root + 0.5),
                                     n_scan=64)

    def test_located_roots_are_real_floats(self, free_medium):
        for p in qc.dirichlet_eigenvalues(free_medium, 1, (0.5, 6.0)):
            assert isinstance(p.E, float)
            assert abs(complex(p.E).imag) < 1e-12

    def test_interlacing_against_free_spacing(self, free_medium):
        # single-family system: consecutive roots are no closer than the
        # free-problem spacing floor computed on the same window
        window = (0.5, 9.0)
        free_pts = [p.E for p in qc.dirichlet_eigenvalues(free_medium, 0,
                                                          window)]
        gap_floor = min(b - a for a, b in zip(free_pts, free_pts[1:]))
        pot = qc.RadialPotential((qc.PotentialShell(0.0, 1.0, -2.0),
                                  qc.PotentialShell(1.0, 3.0, 0.0)))
        pts = [p.E for p in qc.dirichlet_eigenvalues(pot, 0, window)]
        assert all(b - a > 0.9 * gap_floor for a, b in zip(pts, pts[1:]))

    def test_levels_do_not_depend_on_the_grid(self, free_medium):
        # both free levels (pi/3)^2 and (2 pi/3)^2 fall in the first step of
        # a 3-point grid on this window, so the former sign scan saw none
        window = (0.5, 9.0)
        assert oracles.grid_dirichlet_levels(free_medium, 0, window,
                                             n_scan=3) == []
        found = [qc.dirichlet_eigenvalues(free_medium, 0, window, n_scan=n)
                 for n in (None, 3, 64, 2001)]
        assert all(pts == found[0] for pts in found)
        assert [p.E for p in found[0]] == pytest.approx(
            [oracles.free_dirichlet_root(1), oracles.free_dirichlet_root(2)],
            abs=1e-12)

    def test_levels_closer_than_xtol_are_reported_together(
            self, free_medium, monkeypatch):
        # a bracket no wider than LEVEL_XTOL that still holds two levels
        # cannot be split: both are reported at its midpoint, with a warning
        monkeypatch.setattr(spectral, "LEVEL_XTOL", 10.0)
        with pytest.warns(UserWarning, match="2 levels closer than"):
            pts = qc.dirichlet_eigenvalues(free_medium, 0, (0.5, 9.0))
        assert [p.E for p in pts] == [4.75, 4.75]
        assert pts[0] == pts[1]

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_same_levels_as_the_grid_search(self, cloak_builder, backend,
                                            request, monkeypatch):
        # the former sign scan (on a grid fine enough for these windows)
        # and the Sturm-count search agree on every reference cloak
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        found = 0
        for c_inn in (-71.45, -98.5, 1.858):
            acoustic = cloak_builder(1.005, 50, c_inn)
            gauge = qc.attach_core(qc.gauge_potential(acoustic.medium, E0),
                                   acoustic.core)
            for system, l, window in itertools.product(
                    (acoustic, gauge), range(4), ((0.25, 0.8), (0.05, 4.0))):
                old = oracles.grid_dirichlet_levels(system, l, window,
                                                    n_scan=101, xtol=1e-12)
                new = qc.dirichlet_eigenvalues(system, l, window)
                assert [p.kind for p in new] == [kind for _, kind in old]
                assert [p.E for p in new] == pytest.approx(
                    [E for E, _ in old], abs=2e-10)
                found += len(new)
        assert found == 43

    def test_rescan_stability_on_cloak(self, cloak_builder):
        system = cloak_builder(1.005, 50, c_inn=-71.45)
        a = qc.dirichlet_eigenvalues(system, 0, (0.4, 0.6), n_scan=801)
        b = qc.dirichlet_eigenvalues(system, 0, (0.4, 0.6), n_scan=1602)
        assert len(a) == len(b) == 1
        assert a[0].E == pytest.approx(b[0].E, abs=1e-9)


class TestNeumannCore:
    def test_free_core_lowest_nonzero(self):
        W = qc.CorePotential.step(0.0, 0.9)
        pts = qc.neumann_core_eigenvalues(W, 0, (1.0, 25.0))
        assert len(pts) == 1
        assert pts[0].E == pytest.approx(oracles.free_core_neumann_root(),
                                         abs=1e-9)
        assert pts[0].E == pytest.approx(20.1907, abs=1e-3)
        assert pts[0].boundary_condition == "neumann-b1"

    def test_zero_is_constant_mode(self):
        W = qc.CorePotential.step(0.0, 0.9)
        pts = qc.neumann_core_eigenvalues(W, 0, (-0.5, 0.5), n_scan=501)
        assert any(abs(p.E) < 1e-9 for p in pts)

    def test_trap_design_value_has_level_near_half(self):
        # c_inn = -71.45 with the doubled core: levels at nu/4
        W = qc.CorePotential.step(-71.45, 0.9)
        cs, ca = qc.DOUBLED_CORE
        traps = qc.interior_trap_energies(W, cs, ca, (0.4, 0.6), 2)
        assert traps, "expected an interior trap energy near 0.5"
        assert min(abs(e - 0.5) for e, _ in traps) < 0.06

    def test_quiet_design_value_has_no_level_near_half(self):
        W = qc.CorePotential.step(-98.5, 0.9)
        cs, ca = qc.DOUBLED_CORE
        traps = qc.interior_trap_energies(W, cs, ca, (0.4, 0.6), 8)
        assert traps == []

    def test_coreless_trap_is_the_free_core_level(self):
        # W = None is the free unit core: its l = 1 Neumann level x1^2,
        # with x1 the first zero of j_1', maps to x1^2 sigma/a
        x1 = brentq(lambda x: spherical_jn(1, x, derivative=True), 1.5, 2.5,
                    xtol=1e-15)
        cs, ca = qc.DOUBLED_CORE
        traps = qc.interior_trap_energies(None, cs, ca, (0.9, 1.2), 2)
        assert len(traps) == 1
        assert traps[0][1] == 1
        assert traps[0][0] == pytest.approx(x1 ** 2 * cs / ca, abs=1e-10)

    @pytest.mark.parametrize("c_inn", [-98.5, 1.858, -71.45])
    def test_levels_carry_the_solved_concentration(self, c_inn):
        # the core problem's domain is the core, so the concentration a
        # normed solve reports at each level is exactly 1
        W = qc.CorePotential.step(c_inn, 0.9)
        levels = [pt for l in range(3)
                  for pt in qc.neumann_core_eigenvalues(W, l, (0.05, 30.0))]
        assert levels
        for pt in levels:
            sol = qc.solve_core_channel(W, pt.l, pt.E, want_norms=True)
            assert pt.concentration == sol.concentration == 1.0


class TestClassification:
    def test_threshold_bands(self):
        assert classify(0.95) == "interior"
        assert classify(0.05) == "exterior"
        assert classify(0.5) == "mixed"
        assert classify(0.61) == "interior"
        assert classify(0.39) == "exterior"

    def test_cloak_modes_are_sharply_split(self, cloak_builder):
        # R <= 1.01: located modes concentrate > 0.9 or < 0.1
        for R, n in ((1.01, 36), (1.005, 50)):
            system = cloak_builder(R, n, c_inn=-71.45)
            pts = qc.dirichlet_eigenvalues(system, 0, (0.4, 0.6))
            assert pts
            for p in pts:
                assert p.concentration > 0.9 or p.concentration < 0.1

    def test_exterior_family_mode_is_shell_concentrated(self, cloak_builder):
        # the perturbed free-ball mode near (pi/3)^2 stays out of the core
        system = cloak_builder(1.005, 50, c_inn=-71.45)
        pts = qc.dirichlet_eigenvalues(system, 0, (1.0, 1.2))
        assert pts
        assert min(p.concentration for p in pts) < 0.1


class TestTruncationConvergence:
    def test_interior_level_approaches_its_limit(self, cloak_builder):
        # distances to the finest-R value decrease along the sequence
        seq = ((1.1, 12), (1.05, 16), (1.01, 36), (1.005, 50))
        levels = []
        for R, n in seq:
            pts = qc.dirichlet_eigenvalues(
                cloak_builder(R, n, c_inn=-71.45), 0, (0.35, 0.65))
            interior = [p for p in pts if p.kind == "interior"]
            assert len(interior) == 1
            levels.append(interior[0].E)
        dists = [abs(e - levels[-1]) for e in levels[:-1]]
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestResonanceScan:
    def test_free_window_without_poles_is_flat(self, free_medium):
        rep = qc.resonance_scan(free_medium, 0, (0.3, 0.8), n_scan=101)
        assert rep.fitted_pole is None
        assert rep.scaling_exponent is None
        assert rep.amplification < 10.0

    def test_synthetic_toy_pole_and_exponent(self):
        # two shells with an analytically computable Dirichlet eigenvalue
        toy = qc.AcousticSystem(qc.LayeredMedium(
            (qc.Shell(0.0, 1.0, 1.0, 4.0), qc.Shell(1.0, 3.0, 1.0, 1.0))))

        def boundary_value(E):
            k = math.sqrt(E)
            g = 2.0 * k / math.tan(2.0 * k)
            phi = math.atan2(k, g) - k
            return math.sin(3.0 * k + phi)

        from scipy.optimize import brentq
        es = np.linspace(0.3, 0.8, 2001)
        vals = [boundary_value(e) for e in es]
        roots = [brentq(boundary_value, es[i], es[i + 1], xtol=1e-13)
                 for i in range(len(es) - 1) if vals[i] * vals[i + 1] < 0]
        assert len(roots) == 1
        rep = qc.resonance_scan(toy, 0, (roots[0] - 0.1, roots[0] + 0.1),
                                n_scan=201)
        assert rep.fitted_pole is not None
        assert rep.fitted_pole.E == pytest.approx(roots[0], abs=1e-10)
        assert rep.scaling_exponent == pytest.approx(-1.0, abs=0.1)

    def test_trap_and_quiet_windows(self, cloak_builder):
        trap = qc.resonance_scan(cloak_builder(1.005, 50, -71.45), 0,
                                 (0.4, 0.6))
        assert trap.amplification >= 1e3
        assert trap.fitted_pole.concentration > 0.9
        assert trap.scaling_exponent == pytest.approx(-1.0, abs=0.1)
        quiet = qc.resonance_scan(cloak_builder(1.005, 50, -98.5), 0,
                                  (0.4, 0.6))
        assert quiet.amplification < 10.0
        assert quiet.fitted_pole is None

    def test_window_validation(self, free_medium):
        with pytest.raises(DomainError):
            qc.dirichlet_eigenvalues(free_medium, 0, (1.0, 1.0))

    @pytest.mark.parametrize("n_scan", [0, -3])
    def test_scan_count_validation(self, free_medium, n_scan):
        with pytest.raises(DomainError, match="n_scan"):
            qc.resonance_scan(free_medium, 0, (0.4, 0.6), n_scan=n_scan)

    def test_gauge_potential_trap_sits_at_the_off_design_energy(
            self, cloak_builder):
        # the potential is synthesized at a design energy, so its spectrum
        # matches the acoustic one only there: with the doubled core the
        # acoustic interior level at E* maps to 4 E* - 3 E_design on the
        # potential side (interior operator -lap + W at 4E vs E + 3 E_design)
        R, n, c = 1.01, 36, -71.45
        system = cloak_builder(R, n, c)
        interior = [p for p in qc.dirichlet_eigenvalues(system, 0,
                                                        (0.35, 0.65))
                    if p.kind == "interior"]
        assert len(interior) == 1
        E_star = interior[0].E
        predicted = 4.0 * E_star - 3.0 * 0.5
        W = qc.CorePotential.step(c, 0.9)
        pot_im = qc.attach_core(qc.gauge_potential(system.medium, 0.5), W)
        found_im = qc.dirichlet_eigenvalues(pot_im, 0, (0.2, 0.4),
                                            n_scan=401)
        assert len(found_im) == 1
        assert found_im[0].E == pytest.approx(predicted, abs=5e-3)
        assert found_im[0].concentration > 0.9
        pot_mo = qc.attach_core(
            qc.gauge_potential(system.medium, 0.5, mode="mollified"), W)
        found_mo = qc.dirichlet_eigenvalues(pot_mo, 0, (0.2, 0.4),
                                            n_scan=401)
        assert len(found_mo) == 1
        assert found_mo[0].E == pytest.approx(found_im[0].E, abs=0.02)
        assert found_mo[0].concentration > 0.9


class TestCoreOnlyAmplification:
    """The core response solves integrate the core mass only and give the
    same reports as the fully normed solves they replaced."""

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_same_reports_as_the_full_norm_path(self, cloak_builder, backend,
                                                request, monkeypatch):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        window = (0.25, 2.0)
        fitted = 0
        for c_inn in (-71.45, -98.5, 1.858):
            acoustic = cloak_builder(1.005, 50, c_inn)
            gauge = qc.attach_core(qc.gauge_potential(acoustic.medium, E0),
                                   acoustic.core)
            for system, l in itertools.product((acoustic, gauge), range(4)):
                poles = [p.E for p in qc.dirichlet_eigenvalues(system, l,
                                                               window)]
                new = [qc.resonance_scan(system, l, window, n_scan=61)]
                new += [qc.fit_pole_exponent(system, l, E, (1e-6, 1e-4))
                        for E in poles]
                with monkeypatch.context() as m:
                    m.setattr(spectral, "_amplification",
                              oracles._amplification)
                    old = [qc.resonance_scan(system, l, window, n_scan=61)]
                    old += [qc.fit_pole_exponent(system, l, E, (1e-6, 1e-4))
                            for E in poles]
                assert pickle.dumps(new) == pickle.dumps(old)
                fitted += new[0].scaling_exponent is not None
        assert fitted == 11


class TestBracketEnds:
    """brentq answers each bracket's ends from the values the search
    already holds: the same roots, two fewer solves a root."""

    @staticmethod
    def spy_brentq(monkeypatch, solves):
        """Record (a, b, xtol, root, evaluations, solves) of every
        spectral.brentq call."""
        calls = []
        real = spectral.brentq

        def spy(f, a, b, xtol):
            evals, n0 = [], len(solves)
            root = real(lambda x: evals.append(x) or f(x), a, b, xtol=xtol)
            calls.append((a, b, xtol, root, len(evals), len(solves) - n0))
            return root

        monkeypatch.setattr(spectral, "brentq", spy)
        return calls

    @pytest.mark.parametrize("search", ["dirichlet", "neumann-core"])
    def test_same_roots_two_fewer_solves(self, cloak_builder, monkeypatch,
                                         search):
        solves = []
        solve = propagate._solve
        monkeypatch.setattr(propagate, "_solve",
                            lambda *args: solves.append(args) or solve(*args))
        calls = self.spy_brentq(monkeypatch, solves)
        if search == "dirichlet":
            system = cloak_builder(1.005, 50, -71.45)
            roots = [p.E for p in qc.dirichlet_eigenvalues(system, 0,
                                                           (0.05, 10.0))]

            def f(E):
                return qc.solve_channel(system, 0, E,
                                        want_norms=False).dirichlet_value
        else:
            W = qc.CorePotential.step(-71.45, 0.9)
            roots = [p.E for p in qc.neumann_core_eigenvalues(W, 0,
                                                              (-70.0, 60.0))]
            # every scan solve skips the norms: a normed core solve would
            # add a quadrature panel to each substep
            assert len(solves) > 2000
            assert all(args[5] is False for args in solves)

            def f(E):
                return qc.solve_channel(W, 0, E,
                                        want_norms=False).neumann_value
        assert len(roots) == len(calls) >= 3
        for (a, b, xtol, root, evals, n_solves), r in zip(calls, roots):
            assert root == r == brentq(f, a, b, xtol=xtol)
            assert n_solves == evals - 2

    def test_free_ball_levels_unchanged(self, monkeypatch):
        calls = self.spy_brentq(monkeypatch, [])
        pairs = qc.free_dirichlet_eigenvalues((0.05, 4.0), 2)
        assert len(pairs) == len(calls) >= 3
        for a, b, xtol, root, _, _ in calls:
            l = next(l for E, l in pairs if E == (root / 3.0) ** 2)
            assert root == brentq(lambda x: qc.spherical_bessel(l, x).j,
                                  a, b, xtol=xtol)


class TestConcurrency:
    def test_channel_solves_are_thread_safe(self, cloak_builder):
        from concurrent.futures import ThreadPoolExecutor
        system = cloak_builder(1.05, 16, -98.5)
        jobs = [(l, 0.3 + 0.05 * i) for l in range(6) for i in range(6)]

        def run(job):
            l, E = job
            return qc.solve_channel(system, l, E).log_derivative_end

        serial = [run(j) for j in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(run, jobs))
        assert serial == threaded
