import ctypes
import ctypes.util
import math
import pickle
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import spherical_jn

import qcloak as qc
from qcloak import _kernel_py, propagate
from qcloak.errors import ConfigurationError, DomainError
from qcloak.media import (R_OUTER, attach_core, gauge_potential,
                          mollify_medium)
from qcloak.observables import free_dn_spectrum
from qcloak.propagate import CORE_ONLY, _solve, shell_stack
from qcloak.special import L_MAX_SUPPORTED

import oracles

E0 = 0.5


@st.composite
def kernel_stacks(draw):
    """(l, r, k2, w, sample_r) of a kernel `propagate` call on a random
    shell stack."""
    n = draw(st.integers(1, 10))
    widths = draw(st.lists(st.floats(0.02, 0.6), min_size=n, max_size=n))
    edges = [0.0]
    for width in widths:
        edges.append(edges[-1] + width)
    # |k2| <= 1e-15 takes the power-law branch wherever
    # |k2| b (b - a) < 1e-14, so on every such shell inside r = 3
    k2 = draw(st.lists(st.one_of(st.floats(-80.0, -1e-3),
                                 st.floats(1e-3, 40.0),
                                 st.floats(-1e-15, 1e-15)),
                       min_size=n, max_size=n))
    # repeated values are shells without an interface jump
    w = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0, 8.0]),
                      min_size=n, max_size=n))
    r_max = edges[-1]
    sample_r = draw(st.none() | st.lists(
        st.floats(0.0, r_max) | st.sampled_from(
            [0.0, 1e-9, _kernel_py._EPS_ORIGIN, r_max]),
        max_size=12).map(sorted))
    return draw(st.integers(0, 60)), edges, k2, w, sample_r


def assert_kernels_agree(a, b):
    """Compiled result a equals the Python twin's b bit for bit, field by
    field, a step table's rows byte for byte.  float.hex tells 0.0 from
    -0.0 and reads every NaN as 'nan', so a NaN on one backend must be a
    NaN on the other."""
    def hexed(result):
        return [bits(f) if isinstance(f, list) else
                hexed(f) if isinstance(f, _kernel_py.Steps) else
                f.hex() if isinstance(f, float) else f for f in result]
    assert hexed(a) == hexed(b)


def assert_split_kernels_agree(kernel, l, r, k2, w, want_norms, sample_r):
    """`kernel` (compiled) and the twin give the same march, step table and
    samples bit for bit; the march without steps gives the same results."""
    ours = _kernel_py.propagate(l, r, k2, w, want_norms=want_norms,
                                keep_steps=True)
    assert_kernels_agree(kernel.propagate(l, r, k2, w, want_norms=want_norms,
                                          keep_steps=True), ours)
    assert_kernels_agree(kernel.propagate(l, r, k2, w, want_norms=want_norms),
                         ours._replace(steps=None))
    if sample_r is not None:
        assert bits(kernel.sample(l, ours.steps, sample_r)) == \
            bits(_kernel_py.sample(l, ours.steps, sample_r))
    return ours


@st.composite
def step_cores(draw):
    """Step potentials in the unit ball; some radii sit within the 1e-12
    merge tolerance of the radius 1 cut or of each other."""
    radii = draw(st.lists(st.floats(1e-3, 1.0) | st.sampled_from(
        [0.5, 0.5 + 1e-13, 0.9, 1.0 - 5e-13, 1.0]), min_size=1, max_size=5,
        unique=True).map(sorted))
    values = draw(st.lists(st.floats(-100.0, 100.0) | st.just(0.0),
                           min_size=len(radii), max_size=len(radii)))
    return qc.CorePotential(tuple(zip(radii, values)))


def bits(xs):
    return [float(x).hex() for x in xs]


def assert_stack_matches(system, arrays):
    """shell_stack(system) against a former per-solve builder, bit for bit:
    `arrays(E)` returns its (edges, k2, w)."""
    stack = shell_stack(system)
    for E in (0.3, 0.44738, 0.5, 0.7):
        edges, k2, w = arrays(E)
        assert bits(stack.edges) == bits(edges)
        assert bits(stack.k2(E)) == bits(k2)
        assert bits(stack.w) == bits(w)


class TestShellStack:
    """The stack reproduces the arrays the solvers were given before it."""

    @pytest.mark.parametrize("c_inn", [-98.5, 1.858, -71.45, 0.0])
    def test_reference_cloaks(self, cloak_builder, c_inn):
        system = cloak_builder(1.005, 50, c_inn)
        assert_stack_matches(
            system, lambda E: oracles._acoustic_arrays(system, E))

    def test_bare_layered_media(self, cloak_builder, free_medium):
        for med in (cloak_builder(1.005, 50).medium, free_medium):
            assert_stack_matches(med, lambda E: oracles._acoustic_arrays(
                qc.AcousticSystem(med), E))

    def test_gauge_potentials(self, cloak_builder):
        layers = cloak_builder(1.005, 50).medium
        core = qc.CorePotential.step(-71.45, 0.9)
        for pot in (attach_core(gauge_potential(layers, E0), core),
                    gauge_potential(cloak_builder(1.05, 16).medium, E0,
                                    mode="mollified")):
            assert_stack_matches(
                pot, lambda E: oracles._schrodinger_arrays(pot, E))

    def test_core_problem(self):
        for W in (qc.CorePotential.step(-71.45, 0.9),
                  qc.CorePotential(((0.3, -20.0), (0.9, 5.0), (1.0, 0.0)))):
            assert_stack_matches(
                W, lambda E: oracles.core_neumann_arrays(W, E))

    @settings(max_examples=60, deadline=None)
    @given(W=step_cores())
    def test_random_step_cores(self, cloak_builder, W):
        layers = cloak_builder(1.05, 16).medium
        system = qc.AcousticSystem(layers, W)
        pot = attach_core(gauge_potential(layers, E0), W)
        assert_stack_matches(W, lambda E: oracles.core_neumann_arrays(W, E))
        assert_stack_matches(
            system, lambda E: oracles._acoustic_arrays(system, E))
        assert_stack_matches(
            pot, lambda E: oracles._schrodinger_arrays(pot, E))

    @pytest.mark.parametrize("kind", ["acoustic", "potential"])
    def test_resonance_scan_builds_one_stack(self, cloak_builder,
                                             monkeypatch, kind):
        builds, solves = [], []
        build, solve = propagate._build_stack, propagate._solve
        monkeypatch.setattr(propagate, "_build_stack",
                            lambda s: builds.append(s) or build(s))
        monkeypatch.setattr(propagate, "_solve",
                            lambda *args: solves.append(args) or solve(*args))
        system = cloak_builder(1.005, 50, -71.45)
        if kind == "potential":
            system = attach_core(gauge_potential(system.medium, E0),
                                 system.core)
        qc.resonance_scan(system, 0, (0.4, 0.6))
        assert len(solves) >= 600
        assert len(builds) == 1 and builds[0] is system


def s_wave_end(g: float, r: float, E: float = E0) -> float:
    """u'/u at r = 3 of the l = 0 free wave v = sin(k rho + phi) whose
    v'/v at r is g."""
    k = math.sqrt(E)
    phi = math.atan2(k, g) - k * r
    return k / math.tan(3.0 * k + phi) - 1.0 / 3.0


class TestFreeSolutions:
    @pytest.mark.parametrize("l", [0, 1, 2, 7, 13, 20])
    def test_free_log_derivative(self, free_medium, l):
        sol = qc.propagate_acoustic(free_medium, l, E0)
        assert sol.log_derivative_end == pytest.approx(
            oracles.free_log_derivative(l, E0), abs=1e-12)

    def test_wavenumber_doubling(self):
        # a = 4 doubles the local wavenumber: v = sin(2 sqrt(E) rho) up to
        # 2.9, then a free wave with the same v'/v there
        med = qc.LayeredMedium((qc.Shell(0.0, 2.9, 1.0, 4.0),
                                qc.Shell(2.9, 3.0, 1.0, 1.0)))
        sol = qc.propagate_acoustic(med, 0, E0)
        kk = 2.0 * math.sqrt(E0)
        assert sol.log_derivative_end == pytest.approx(
            s_wave_end(kk / math.tan(2.9 * kk), 2.9), rel=1e-12)
        st = shell_stack(med)
        assert sol.log_derivative_end == pytest.approx(
            oracles.layered_log_derivative(st.edges, st.k2(E0), st.w, 0),
            rel=1e-9)

    def test_norms_match_quadrature(self, free_medium):
        sol = qc.propagate_acoustic(free_medium, 0, E0)
        k = math.sqrt(E0)
        # v = sin(k rho) * 3 / sin(3k) for u(3) = 1

        def i_exact(hi):
            # int_0^hi sin^2(k r) dr, scaled
            c = 3.0 / math.sin(3.0 * k)
            return c * c * (hi / 2.0 - math.sin(2.0 * k * hi) / (4.0 * k))

        assert sol.norm_core == pytest.approx(i_exact(1.0), rel=1e-10)
        assert sol.norm_total == pytest.approx(i_exact(3.0), rel=1e-10)
        assert sol.norm_core <= sol.norm_total


class TestSturmCount:
    """`zeros` counts the zeros of v = rho u in (0, r_max), which by the
    oscillation theorem is the number of Dirichlet levels below E."""

    @pytest.mark.parametrize("l", range(11))
    def test_free_ball_counts_the_zeros_of_j_l(self, free_medium, l):
        energies = (0.3, 2.0, 9.0, 30.0)
        levels = [oracles.free_dirichlet_root(1, l)]
        while levels[-1] < energies[-1]:
            levels.append(oracles.free_dirichlet_root(len(levels) + 1, l))
        for E in energies:
            below = sum(level < E for level in levels)
            assert qc.solve_channel(free_medium, l, E).zeros == below

    @pytest.mark.parametrize("l", range(7))
    def test_free_unit_core_counts_its_neumann_levels(self, l):
        # Neumann levels of the free unit ball are x^2 with j_l'(x) = 0,
        # plus the constant mode at 0 for l = 0; their count below E is the
        # zero count, plus one where u'/u = (q - p)/p is negative at r = 1
        free_core = qc.CorePotential(((1.0, 0.0),))
        for E in (0.5, 7.0, 23.0, 61.0):
            x = np.linspace(1e-6, math.sqrt(E), 40001)
            d = spherical_jn(l, x, derivative=True)
            below = int(np.sum(np.signbit(d[1:]) != np.signbit(d[:-1])))
            below += l == 0
            sol = qc.solve_core_channel(free_core, l, E)
            assert sol.zeros + (sol.p_end * sol.neumann_value < 0.0) == below


class TestSquareWell:
    def test_log_derivative_closed_form(self):
        pot = qc.RadialPotential((qc.PotentialShell(0.0, 1.0, -2.0),
                                  qc.PotentialShell(1.0, 3.0, 0.0)))
        sol = qc.propagate_schrodinger(pot, 0, E0)
        kp = math.sqrt(E0 + 2.0)
        assert sol.log_derivative_end == pytest.approx(
            s_wave_end(kp / math.tan(kp), 1.0), rel=1e-12)
        st = shell_stack(pot)
        assert sol.log_derivative_end == pytest.approx(
            oracles.layered_log_derivative(st.edges, st.k2(E0), st.w, 0),
            rel=1e-9)

    def test_free_potential(self, free_medium):
        pot = qc.RadialPotential((qc.PotentialShell(0.0, 3.0, 0.0),))
        for l in (0, 3, 9):
            sol = qc.propagate_schrodinger(pot, l, E0)
            assert sol.log_derivative_end == pytest.approx(
                oracles.free_log_derivative(l, E0), abs=1e-12)


class TestOracleEquivalence:
    def test_random_layered_media_with_jumps(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            n = 12
            edges = [0.0] + sorted(rng.uniform(0.2, 2.9, n - 1)) + [3.0]
            k2 = list(rng.uniform(-40.0, 40.0, n))
            w = list(rng.uniform(0.2, 5.0, n - 1)) + [1.0]
            for l in (0, 2, 6):
                sol = _solve(edges, k2, w, l, E0, False, None)
                got = sol.log_derivative_end
                ref = oracles.layered_log_derivative(edges, k2, w, l)
                assert got == pytest.approx(ref, rel=1e-7, abs=1e-9)

    def test_smooth_media_fine_grid(self):
        # criterion-7 style: >= 1e4 shells vs adaptive smooth integration
        rng = np.random.default_rng(2)
        sigma, dsigma, a_of = oracles.random_smooth_profiles(rng)
        n = 10_000
        edges = [3.0 * i / n for i in range(n + 1)]
        shells = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            shells.append(qc.Shell(lo, hi, sigma(mid), a_of(mid)))
        shells[-1] = qc.Shell(shells[-1].r_in, 3.0, 1.0, 1.0)
        med = qc.LayeredMedium(tuple(shells))
        for l in (0, 3):
            got = qc.propagate_acoustic(med, l, E0).log_derivative_end
            ref = oracles.smooth_medium_log_derivative(sigma, dsigma, a_of,
                                                       l, E0)
            assert abs(got - ref) / max(1.0, abs(ref)) < 1e-6


class TestGaugeEquivalence:
    def test_interface_matched_exact(self, cloak_builder):
        system = cloak_builder(1.01, 36)
        pot = gauge_potential(system.medium, E0)
        for l in (0, 1, 5, 10):
            ga = qc.propagate_acoustic(system, l, E0).log_derivative_end
            gs = qc.propagate_schrodinger(pot, l, E0).log_derivative_end
            assert gs == pytest.approx(ga, abs=1e-10)

    def test_mollified_default_resolution(self, cloak_builder):
        layers = cloak_builder(1.01, 36).medium
        smooth = mollify_medium(layers)
        pot = gauge_potential(layers, E0, mode="mollified")
        for l in (0, 4):
            ga = qc.propagate_acoustic(smooth, l, E0).log_derivative_end
            gs = qc.propagate_schrodinger(pot, l, E0).log_derivative_end
            assert gs == pytest.approx(ga, abs=1e-4)


def shell_transfer(l: int, a: float, b: float, k2: float) -> list:
    """2x2 matrix taking (v, v') from a to b across a uniform shell, by the
    kernel's substep expansions."""
    power = _kernel_py._use_power(k2, a, b)
    nsub = _kernel_py._substeps(a, b, k2, power)
    cols = []
    for p, q in ((1.0, 0.0), (0.0, 1.0)):
        for isub in range(nsub):
            if power:
                sa = a * (b / a) ** (isub / nsub)
                sb = a * (b / a) ** ((isub + 1) / nsub)
            else:
                sa = a + (b - a) * isub / nsub
                sb = a + (b - a) * (isub + 1) / nsub
            p, q = _kernel_py._Local(l, k2, sa, p, q, power).eval(sb)
        cols.append((p, q))
    return [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]


class TestCompiledBuildCheck:
    """`propagate._current_build`: a compiled kernel serves only when it
    was built from the `_kernel.c` beside the package."""

    @pytest.mark.parametrize("digest", ["0" * 8, None])
    def test_stale_build_falls_back_to_the_twin(self, digest):
        # None: a module built before it recorded its source
        stale = types.ModuleType("qcloak._kernel")
        if digest is not None:
            stale.SOURCE_CRC32 = digest
        with pytest.warns(RuntimeWarning,
                          match=r"python setup\.py build_ext --inplace"):
            assert propagate._current_build(stale) is _kernel_py

    def test_current_build_serves(self, compiled_kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert propagate._current_build(compiled_kernel) \
                is compiled_kernel

    def test_module_without_its_source_serves(self, tmp_path, monkeypatch):
        monkeypatch.setattr(propagate, "_KERNEL_SOURCE",
                            str(tmp_path / "_kernel.c"))
        stale = types.ModuleType("qcloak._kernel")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert propagate._current_build(stale) is stale


class TestKernelInternals:
    def test_norm_is_the_c_library_hypot(self):
        # the compiled kernel renormalises with the C library's hypot;
        # CPython's math.hypot differs from it on about 1 pair in 1000
        name = ctypes.util.find_library("m")
        if name is None:
            pytest.skip("no C math library found")
        hypot = ctypes.CDLL(name).hypot
        hypot.restype = ctypes.c_double
        hypot.argtypes = (ctypes.c_double, ctypes.c_double)
        rng = np.random.default_rng(11)
        pairs = rng.uniform(-1.0, 1.0, (20000, 2)) * 10.0 ** rng.uniform(
            -5.0, 5.0, (20000, 2))
        pairs = [*pairs.tolist(), [1.5e308, 1.5e308], [math.inf, math.nan],
                 [math.nan, 1.0], [-0.0, 0.0], [5e-324, 5e-324]]
        assert bits(_kernel_py._norm(p, q) for p, q in pairs) == \
            bits(hypot(p, q) for p, q in pairs)

    def test_flux_constancy_transfer_determinant(self):
        # Wronskian of the v-pair is constant within a shell: det M = 1.
        # Width chosen so the matrix stays well-conditioned; evaluating
        # a*d - b*c of an e^(2 kappa dr)-conditioned matrix cannot beat
        # eps * cond^2 in doubles.
        for k2 in (-60.0, -3.0, 0.0, 2.5, 40.0):
            width = min(1.2, 3.0 / math.sqrt(abs(k2)) if k2 else 1.2)
            for l in (0, 1, 6):
                m = shell_transfer(l, 0.7, 0.7 + width, k2)
                det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                assert det == pytest.approx(1.0, rel=1e-10)

    def test_flux_constancy_deep_evanescent_bounded(self):
        # deep extinction: the identity still holds to the conditioning floor
        m = shell_transfer(4, 0.7, 1.9, -60.0)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det == pytest.approx(1.0, rel=1e-6)

    def test_compiled_matches_python(self, compiled_kernel):
        rng = np.random.default_rng(5)
        for _ in range(4):
            n = 14
            edges = [0.0] + sorted(rng.uniform(0.1, 2.95, n - 1)) + [3.0]
            k2 = list(rng.uniform(-80.0, 40.0, n))
            w = list(rng.uniform(0.1, 8.0, n - 1)) + [1.0]
            samp = list(np.linspace(0.05, 3.0, 13))
            for l in (0, 3, 11):
                assert_split_kernels_agree(compiled_kernel, l, edges, k2, w,
                                           True, samp)

    def test_compiled_matches_python_on_reference_cloaks(
            self, compiled_kernel, cloak_builder):
        # on the pass-through gauge potential, E = 0.3, l = 0 and
        # E = 0.44738, l = 1 tell the C library's hypot from CPython's
        # math.hypot
        for c_inn in (-98.5, 1.858, -71.45):
            acoustic = cloak_builder(1.005, 50, c_inn)
            gauge = attach_core(gauge_potential(acoustic.medium, E0),
                                acoustic.core)
            for system in (acoustic, gauge):
                st = shell_stack(system)
                for E in (0.3, 0.44738):
                    for l in (0, 1):
                        call = (l, st.edges, st.k2(E), st.w, True)
                        assert_kernels_agree(compiled_kernel.propagate(*call),
                                             _kernel_py.propagate(*call))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(args=kernel_stacks())
    def test_compiled_matches_python_on_random_stacks(self, compiled_kernel,
                                                      args):
        l, r, k2, w, sample_r = args
        for want_norms in (False, True, CORE_ONLY):
            ours = assert_split_kernels_agree(compiled_kernel, l, r, k2, w,
                                              want_norms, sample_r)
        # v starts positive and every zero flips its sign
        if ours.p3 != 0.0 and math.isfinite(ours.p3):
            assert (ours.p3 < 0.0) == (ours.zeros % 2 == 1)

    def test_compiled_matches_python_on_a_seeded_sweep(self,
                                                       compiled_kernel):
        # 1000 seeded stacks, each under the three norm modes: a one-ulp
        # fork between the kernels, such as a twin that renormalises with
        # math.hypot (about 1 call in 100 differs), shows in many of them
        rng = np.random.default_rng(1913)
        calls = 0
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            r = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.6, n))])
            kind = rng.integers(0, 3, n)
            k2 = np.where(kind == 0, rng.uniform(-80.0, -1e-3, n),
                          np.where(kind == 1, rng.uniform(1e-3, 40.0, n),
                                   rng.uniform(-1e-15, 1e-15, n)))
            w = rng.choice([0.1, 0.5, 1.0, 2.0, 8.0], n)
            sample_r = np.sort(rng.uniform(0.0, r[-1], rng.integers(0, 13)))
            args = (int(rng.integers(0, 61)), r.tolist(), k2.tolist(),
                    w.tolist())
            for want_norms in (False, True, CORE_ONLY):
                assert_split_kernels_agree(compiled_kernel, *args, want_norms,
                                           sample_r.tolist())
                calls += 1
        assert calls >= 3000

    @pytest.mark.parametrize("short", ["r", "w"])
    def test_short_arrays_raise_on_both_backends(self, compiled_kernel,
                                                 short):
        arrays = {"r": [0.0, 1.0, 2.0, 3.0], "k2": [0.5, -2.0, 0.5],
                  "w": [1.0, 2.0, 1.0]}
        arrays[short] = arrays[short][:-1]
        for kernel in (compiled_kernel, _kernel_py):
            with pytest.raises((IndexError, ValueError)):
                kernel.propagate(2, arrays["r"], arrays["k2"], arrays["w"])

    @pytest.mark.parametrize("want_norms", [3, -1])
    def test_unknown_norm_modes_raise_on_both_backends(self, compiled_kernel,
                                                       want_norms):
        for kernel in (compiled_kernel, _kernel_py):
            with pytest.raises(ValueError, match="want_norms"):
                kernel.propagate(0, [0.0, 1.0, 3.0], [0.5, 0.5], [1.0, 1.0],
                                 want_norms)

    def test_deep_evanescent_stack_stays_finite(self):
        # a tall wide barrier would overflow naive fundamental products
        pot = qc.RadialPotential((qc.PotentialShell(0.0, 0.5, 0.0),
                                  qc.PotentialShell(0.5, 2.5, 4.0e4),
                                  qc.PotentialShell(2.5, 3.0, 0.0)))
        sol = qc.propagate_schrodinger(pot, 0, E0)
        assert math.isfinite(sol.log_derivative_end)
        assert math.isfinite(sol.log_norm_core)
        assert sol.concentration == pytest.approx(0.0, abs=1e-30)

    def test_trapped_interior_reports_scaled_norms(self):
        # interior far heavier than the boundary value: log form stays finite
        pot = qc.RadialPotential((qc.PotentialShell(0.0, 1.0, -30.0),
                                  qc.PotentialShell(1.0, 2.6, 60.0),
                                  qc.PotentialShell(2.6, 3.0, 0.0)))
        pts = qc.dirichlet_eigenvalues(pot, 0, (0.3, 3.0))
        trapped = [p for p in pts if p.concentration > 0.9]
        assert trapped
        sol = qc.propagate_schrodinger(pot, 0, trapped[0].E)
        assert math.isfinite(sol.log_norm_core)
        assert sol.norm_core >= 1.0


class TestCoreOnlyNorms:
    """`want_norms=CORE_ONLY` integrates v^2 inside r = 1 only."""

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_core_norm_bitwise_without_overflow(self, cloak_builder,
                                                backend, request):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        for c_inn in (-71.45, 1.858):
            st = shell_stack(cloak_builder(1.005, 50, c_inn))
            for l, E in ((0, 0.44738), (2, 1.3), (5, 3.1)):
                k2 = st.k2(E)
                full = kernel.propagate(l, st.edges, k2, st.w, True)
                core = kernel.propagate(l, st.edges, k2, st.w, CORE_ONLY)
                assert not full.overflow
                assert bits([core.i_core, core.i_total, core.i_logoff]) == \
                    bits([full.i_core, full.i_core, full.i_logoff])
                assert full.i_total > full.i_core

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_core_norm_on_an_overflowing_stack(self, backend, request,
                                               monkeypatch):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        edges, k2, w = oracles.overflowing_stack()
        full = _solve(edges, k2, w, 0, E0, True, None)
        core = _solve(edges, k2, w, 0, E0, CORE_ONLY, None)
        assert full.overflow and core.overflow
        assert core.log_norm_core > 500.0
        assert core.log_norm_core == pytest.approx(full.log_norm_core,
                                                   rel=1e-12)

    def test_core_only_solve_reports_nan_total(self, cloak_builder):
        system = cloak_builder(1.005, 50, -71.45)
        full = qc.solve_channel(system, 0, E0)
        core = qc.solve_channel(system, 0, E0, want_norms=CORE_ONLY)
        assert math.isnan(core.log_norm_total)
        assert math.isnan(core.concentration)
        assert core.log_norm_core == full.log_norm_core
        assert (core.p_end, core.q_end, core.zeros) == \
            (full.p_end, full.q_end, full.zeros)


def sample_radii(edges) -> list:
    """Radii at 0, on every shell edge, 1e-15 above each edge below r_max,
    at r_max and on a grid between."""
    return sorted({0.0, *edges, *(e + 1e-15 for e in edges[:-1]),
                   *np.linspace(0.0, edges[-1], 61).tolist()})


def outcome(f, *args) -> bytes:
    """The pickled result of f(*args), or the error it raised."""
    try:
        return pickle.dumps(f(*args))
    except (ConfigurationError, DomainError) as exc:
        return repr(exc).encode()


@pytest.fixture(scope="module")
def sampled_systems(cloak_builder):
    out = {c: cloak_builder(1.005, 50, c) for c in (-98.5, 1.858, -71.45)}
    # evanescent inside the unit ball at every energy below 60
    out["evanescent core"] = qc.RadialPotential(
        (qc.PotentialShell(0.0, 1.0, 60.0), qc.PotentialShell(1.0, 3.0, 0.0)))
    # k^2 = E0 - V = 0 on (1, 2): a power-law shell at E0
    out["power-law shell"] = qc.RadialPotential(
        (qc.PotentialShell(0.0, 1.0, -2.0), qc.PotentialShell(1.0, 2.0, E0),
         qc.PotentialShell(2.0, 3.0, 0.0)))
    return out


class TestSampleArrayPass:
    """Samples evaluated from a march's step table, in one array pass (the
    twin) or one loop (C), equal the former evaluation inside the march,
    one `_Local.eval` call per sample, bit for bit."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(args=kernel_stacks())
    def test_python_kernel_matches_per_sample_march(self, args):
        # the compiled kernel's steps and samples equal the twin's
        # (`assert_split_kernels_agree`)
        l, r, k2, w, sample_r = args
        for want_norms in (False, True):
            res = _kernel_py.propagate(l, r, k2, w, want_norms=want_norms,
                                       keep_steps=True)
            samples = (None if sample_r is None
                       else _kernel_py.sample(l, res.steps, sample_r))
            assert pickle.dumps(oracles.SampledResult(
                *res[:5], samples, *res[6:])) == pickle.dumps(
                    oracles.per_sample_propagate(l, r, k2, w, want_norms,
                                                 sample_r))

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_solves_pickle_identical(self, sampled_systems, backend,
                                     request, monkeypatch):
        """Either backend against the former march and solve."""
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        assert _kernel_py._use_power(
            shell_stack(sampled_systems["power-law shell"]).k2(E0)[1],
            1.0, 2.0)
        for name, system in sampled_systems.items():
            stack = shell_stack(system)
            # radii below 0 are clamped to it; -0.0 keeps its sign
            samp = [-0.5, -0.0] + sample_radii(stack.edges)
            for E in (0.3, E0, 2.0):
                for l in (0, 1, 4, 12, 25):
                    for want_norms in (False, True):
                        ours = outcome(qc.solve_channel, system, l, E,
                                       want_norms, samp)
                        assert ours == outcome(
                            oracles.per_sample_solve,
                            oracles.PerSampleKernel, stack.edges,
                            stack.k2(E), stack.w, l, E, want_norms, samp), \
                            (name, E, l, want_norms)


class TestRegularStart:
    """The march's first substep takes the regular member alone (B = 0), so
    the irregular member, which overflows near the origin for high l, is
    never formed there: every supported channel of the free medium solves
    at these energies."""

    ENERGIES = (1e-6, 0.05, 0.5, 5.0, 40.0)

    def test_free_medium_matches_the_closed_form(self, free_medium,
                                                 compiled_kernel,
                                                 monkeypatch):
        got = {}
        for name, kernel in (("python", _kernel_py),
                             ("compiled", compiled_kernel)):
            monkeypatch.setattr(propagate, "_impl", kernel)
            got[name] = [
                (qc.dn_spectrum(free_medium, E, L_MAX_SUPPORTED),
                 [qc.solve_channel(free_medium, l, E)
                  for l in range(0, L_MAX_SUPPORTED + 1, 5)])
                for E in self.ENERGIES]
        assert pickle.dumps(got["python"]) == pickle.dumps(got["compiled"])
        for dn, sols in got["python"]:
            ref = np.array(free_dn_spectrum(dn.E, L_MAX_SUPPORTED).lam)
            # lam = v'/v - 1/R_OUTER keeps the rounding of 1/R_OUTER: at
            # l = 0, E = 1e-6 lam is -1e-6, with relative error 7e-12
            assert np.all(np.abs(np.array(dn.lam) - ref)
                          <= 1e-13 * (np.abs(ref) + 1.0 / R_OUTER)), dn.E
            assert all(math.isfinite(s.log_norm_core)
                       and math.isfinite(s.log_norm_total) for s in sols)

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    @pytest.mark.parametrize("l", [34, 45, 60])
    def test_samples_near_the_origin(self, free_medium, backend, request,
                                     monkeypatch, l):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        # an oscillatory and an evanescent first shell; kappa^2 = 1e-3 in
        # the core put x k_l(x) at x = kappa r_eps near overflow, and the
        # sample pass of the former start multiplied it by B = 0 at l = 34
        evanescent = qc.RadialPotential(
            (qc.PotentialShell(0.0, 1.0, E0 + 1e-3),
             qc.PotentialShell(1.0, 3.0, 0.0)))
        samp = [0.0, 1e-9, _kernel_py._EPS_ORIGIN, 2e-6, 1e-3, 0.05, 0.5,
                1.0, 2.0, 3.0]
        for system in (free_medium, evanescent):
            stack = shell_stack(system)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ours = qc.solve_channel(system, l, E0, True, samp)
            assert all(math.isfinite(u) for u in ours.sample_u)
            assert ours.sample_u[-1] == pytest.approx(1.0, rel=1e-12)
            assert pickle.dumps(ours) == pickle.dumps(oracles.per_sample_solve(
                oracles.PerSampleKernel, stack.edges, stack.k2(E0),
                stack.w, l, E0, True, samp))


class TestHomogenizationLimit:
    def test_layering_converges_to_the_anisotropic_cloak(self):
        # the two-phase layering must reproduce the exact (closed-form,
        # pullback) anisotropic truncated cloak as layers refine
        R, E, c = 1.05, 0.5, -71.45
        cs, ca = qc.DOUBLED_CORE
        core = qc.CorePotential.step(c, 0.9)
        errs = []
        for l in (0, 1):
            exact = oracles.anisotropic_cloak_log_derivative(
                R, l, E, cs, ca, c_inn=c)
            errs_l = []
            for n in (16, 64, 256, 1024):
                layers = qc.homogenize(qc.truncate(R, cs, ca), n)
                got = qc.propagate_acoustic(
                    qc.AcousticSystem(layers, core), l, E,
                    want_norms=False).log_derivative_end
                errs_l.append(abs(got - exact))
            assert all(a > b for a, b in zip(errs_l, errs_l[1:]))
            errs.append(errs_l[-1])
        assert max(errs) < 3e-4


class TestChannelDecay:
    def test_tail_channels_are_free(self, cloak_builder):
        system = cloak_builder(1.005, 50, c_inn=-98.5)
        l_max = qc.default_l_max(E0)
        ps = qc.phase_shifts(system, E0, l_max=l_max)
        for l in range(l_max // 2, l_max + 1):
            assert abs(ps.delta[l]) < 1e-8


class TestShielding:
    def test_cloak_core_norm_fraction_is_tiny(self, cloak_builder):
        # generic energy: the driven solution is expelled from the core
        sol = qc.propagate_acoustic(cloak_builder(1.005, 50, -98.5), 0, E0)
        assert sol.concentration < 1e-4


class TestOneSolve:
    def test_every_system_goes_through_solve_channel(self):
        assert (qc.propagate_acoustic is qc.propagate_schrodinger
                is qc.solve_core_channel is qc.solve_channel
                is propagate.solve_channel)


class TestValidation:
    def test_bad_channel(self, free_medium):
        with pytest.raises(ConfigurationError):
            qc.propagate_acoustic(free_medium, -1, E0)
        with pytest.raises(ConfigurationError):
            qc.propagate_acoustic(free_medium, 99, E0)

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    @pytest.mark.parametrize("l", [1.5, 2.0, "2", None])
    def test_non_integer_channel_refused(self, free_medium, backend, request,
                                         monkeypatch, l):
        # the rule of `_checked_channel_cap`, before the kernel runs
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        for system in (free_medium, qc.CorePotential.step(-71.45, 0.9)):
            with pytest.raises(ConfigurationError, match="channel l="):
                qc.solve_channel(system, l, E0)

    def test_numpy_integer_channel_accepted(self, free_medium):
        ours = qc.solve_channel(free_medium, np.int64(3), E0)
        theirs = qc.solve_channel(free_medium, 3, E0)
        assert (ours.p_end, ours.q_end, ours.zeros) == (
            theirs.p_end, theirs.q_end, theirs.zeros)

    def test_overflowing_channels_raise(self, free_medium, cloak_builder):
        # these channels overflowed at the march's start, in the irregular
        # member, and raised DomainError; the first substep now takes the
        # regular member alone, so they solve (exact free phase shift: 0)
        sol = qc.propagate_acoustic(free_medium, 40, E0)
        assert sol.p_end > 0.0 and sol.zeros == 0
        assert math.isfinite(sol.log_norm_core)
        assert abs(qc.phase_shifts(free_medium, E0, l_max=40).delta[40]) \
            < 1e-100
        trap = cloak_builder(1.005, 50, c_inn=1.858)
        assert math.isfinite(qc.propagate_acoustic(trap, 39, E0).p_end)
        assert np.all(np.isfinite(qc.dn_spectrum(trap, E0, l_max=39).lam))
        # where j_l itself underflows at the first substep's end, no unit
        # state can be formed there, and the channel still raises
        with pytest.raises(DomainError,
                           match="l = 41 overflows at E = 1e-12"):
            qc.propagate_acoustic(free_medium, 41, 1e-12)
        assert math.isfinite(qc.propagate_acoustic(free_medium, 40,
                                                   1e-12).p_end)

    def test_unsorted_samples_rejected(self, free_medium):
        with pytest.raises(DomainError):
            qc.propagate_acoustic(free_medium, 0, E0,
                                  sample_r=[2.0, 1.0])

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_energy_rejected(self, free_medium, bad, backend,
                                       request, monkeypatch):
        # refused before the kernel runs: the Python twin's substep count
        # cannot take a non-finite k2, and C would cast a NaN count to int
        kernel = (request.getfixturevalue("compiled_kernel")
                  if backend == "compiled" else _kernel_py)
        monkeypatch.setattr(propagate, "_impl", kernel)
        for system in (free_medium, qc.CorePotential.step(-71.45, 0.9)):
            with pytest.raises(DomainError, match="energy must be finite"):
                qc.solve_channel(system, 0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_default_l_max_refuses_nonfinite_energy(self, bad):
        with pytest.raises(DomainError, match="energy must be finite"):
            qc.default_l_max(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_samples_rejected(self, free_medium, bad):
        # a NaN radius would stall the kernel's sample cursor, leaving
        # every later sample at 0
        with pytest.raises(DomainError, match="finite"):
            qc.solve_channel(free_medium, 0, E0, want_norms=False,
                             sample_r=[bad, 1.0, 2.0])
