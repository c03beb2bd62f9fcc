"""Independent oracles the test suite checks the solvers against.

Everything here deliberately avoids the package's propagation kernels:
closed forms, scipy special functions, adaptive ODE integration, and a
finite-difference tensor push-forward.  Several differential references
replay former package code: `scalar_exterior_field`, the point-by-point
exterior field on phase shifts the caller supplies; the per-solve shell
array builders (`_acoustic_arrays`, `_schrodinger_arrays`,
`core_neumann_arrays`) that the shell stack replaced, kept verbatim;
`grid_dirichlet_levels`, the sign-scan eigenvalue search that the Sturm
count replaced; `_amplification`, the fully normed core response that
the core-only solve replaced; and `per_sample_propagate` and
`per_sample_solve`, the kernel march and solve that evaluated and converted
field samples one at a time, which the array pass replaced
(`PerSampleKernel` puts that march behind the kernels' split entries,
`propagate(..., keep_steps=)` and `sample`); and
`per_channel_phase_shifts`, `per_channel_dn_spectrum` and
`per_channel_plane_wave_field`, which solved every channel on its own in
each call, before the outer-sphere table; and
`per_node_mollify_medium` and `per_node_gauge_potential`, the scalar bump
smoothing (`_SmoothedProfile`) and the per-node loops that the array pass
replaced, kept verbatim.
"""

from __future__ import annotations

import bisect
import cmath
import math
import warnings
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import spherical_in, spherical_jn, spherical_yn

from qcloak import _kernel_py
from qcloak._kernel_py import (CORE_ONLY, KernelResult, _EPS_ORIGIN,
                               _NORM_CEIL, _NORM_SHIFT, _R_CORE, _Local,
                               _norm, _panel, _substeps, _use_power)
from qcloak.errors import (ConfigurationError, DomainError, GeometryError,
                           NearEigenvalueError, ResolutionError)
from qcloak.media import (_EDGE_TOL, _G4_NODES, _G4_WEIGHTS, R_OUTER,
                          CorePotential, LayeredMedium, PotentialShell,
                          RadialPotential, Shell)
from qcloak.observables import (U_THRESHOLD, DNSpectrum, PhaseShifts,
                                _far_field_k, _match_delta, legendre_values)
from qcloak.propagate import (_TINY, AcousticSystem, ChannelSolution, System,
                              default_l_max, solve_channel)
from qcloak.special import L_MAX_SUPPORTED, _sph_jy_orders_array
from qcloak.spectral import classify


def free_log_derivative(l: int, E: float, r: float = 3.0) -> float:
    """u'/u of the regular free solution: k j_l'(kr)/j_l(kr)."""
    k = math.sqrt(E)
    x = k * r
    return k * spherical_jn(l, x, derivative=True) / spherical_jn(l, x)


def square_well_delta0(E: float, depth: float = 2.0, a: float = 1.0) -> float:
    """Textbook s-wave phase shift of the well V = -depth on r < a."""
    k = math.sqrt(E)
    kp = math.sqrt(E + depth)
    return -k * a + math.atan((k / kp) * math.tan(kp * a))


def smooth_medium_log_derivative(sigma, dsigma, a_of, l: int, E: float,
                                 W=None, r_max: float = 3.0,
                                 rtol: float = 1e-11) -> float:
    """u'/u at r_max for div(sigma grad u) + (E a - sigma W) u = 0 with
    smooth coefficient callables, via adaptive integration of the flux form
    y = (u, sigma u')."""
    r0 = 1e-6

    def rhs(r, y):
        u, f = y
        Wv = W(r) if W is not None else 0.0
        return [f / sigma(r),
                (l * (l + 1) / (r * r) * sigma(r) - E * a_of(r)
                 + sigma(r) * Wv) * u - 2.0 / r * f]

    # regular start: u ~ r^l (direction only; scale is irrelevant)
    y0 = [1.0, l * sigma(r0) / r0 if l else 0.0]
    sol = solve_ivp(rhs, (r0, r_max), y0, method="DOP853", rtol=rtol,
                    atol=1e-280, first_step=1e-4)
    u, f = sol.y[0, -1], sol.y[1, -1]
    return f / (sigma(r_max) * u)


def layered_log_derivative(edges, k2, w, l: int, rtol: float = 1e-11):
    """u'/u at the outer edge for explicit shell arrays, integrated shell by
    shell in the v = rho*u form with the sigma-weighted jump applied by hand.
    Renormalizes per shell, so deep evanescent stacks stay finite."""
    r_eps = min(1e-6, 0.5 * edges[1])
    p, q = r_eps, l + 1.0
    h = math.hypot(p, q)
    p, q = p / h, q / h
    for i in range(len(k2)):
        a = edges[i] if i > 0 else r_eps
        b = edges[i + 1]
        if i > 0 and w[i] != w[i - 1]:
            q = (w[i - 1] / w[i]) * (q - p / a) + p / a
            h = math.hypot(p, q)
            p, q = p / h, q / h

        def rhs(r, y):
            return [y[1], (l * (l + 1) / (r * r) - k2[i]) * y[0]]

        sol = solve_ivp(rhs, (a, b), [p, q], method="DOP853", rtol=rtol,
                        atol=1e-280)
        p, q = sol.y[0, -1], sol.y[1, -1]
        h = math.hypot(p, q)
        p, q = p / h, q / h
    return q / p - 1.0 / edges[-1]


def pushforward_eigenvalues(rho: float, h: float = 1e-6):
    """Numeric push-forward of the identity tensor under the cloak map,
    evaluated by finite-difference Jacobians in Cartesian coordinates.

    Returns (radial, tangential, det/jacobian mass) eigenvalues at radius rho
    in (1, 2).
    """
    r = 2.0 * (rho - 1.0)   # preimage radius

    def F(x):
        rr = np.linalg.norm(x)
        if rr > 2.0:
            return np.array(x, dtype=float)
        return (1.0 + rr / 2.0) * np.asarray(x) / rr

    x0 = np.array([r, 0.0, 0.0])
    J = np.empty((3, 3))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        J[:, j] = (F(x0 + dx) - F(x0 - dx)) / (2.0 * h)
    det = np.linalg.det(J)
    sigma = J @ J.T / det
    eig = np.linalg.eigvalsh(sigma)
    radial = eig[0]                  # degenerate pair is tangential
    tangential = eig[2]
    return radial, tangential, det


def anisotropic_cloak_log_derivative(R: float, l: int, E: float,
                                     core_sigma: float = 2.0,
                                     core_a: float = 8.0,
                                     c_inn: float = 0.0,
                                     w_radius: float = 0.9) -> float:
    """Exact u'/u at rho = 3 for the truncated anisotropic cloak.

    The shell tensors are the push-forward of free space, so the annulus
    solution is a free wave evaluated at the preimage radius r = 2(rho - 1);
    only the interface bookkeeping at the truncation surface is nontrivial:

        u continuous,  sigma_core u' = sigma_rad(R) * 2 w'(r_R)

    with sigma_rad(R) = r_R^2/(2 R^2).  Everything is scipy closed forms.
    """
    k = math.sqrt(E)
    # core: constant (sigma, a) with an optional step potential inside
    k1sq = E * core_a / core_sigma - c_inn
    k2sq = E * core_a / core_sigma

    def regular_pair(ksq, r):
        if ksq >= 0.0:
            kk = math.sqrt(ksq)
            return (spherical_jn(l, kk * r),
                    kk * spherical_jn(l, kk * r, derivative=True))
        kk = math.sqrt(-ksq)
        return (spherical_in(l, kk * r),
                kk * spherical_in(l, kk * r, derivative=True))

    u9, du9 = regular_pair(k1sq, w_radius)
    # continue through [w_radius, R] with wavenumber k2sq
    kk = math.sqrt(k2sq)
    j9 = spherical_jn(l, kk * w_radius)
    y9 = spherical_yn(l, kk * w_radius)
    jp9 = spherical_jn(l, kk * w_radius, derivative=True)
    yp9 = spherical_yn(l, kk * w_radius, derivative=True)
    det = kk * (j9 * yp9 - jp9 * y9)
    A = (u9 * kk * yp9 - du9 * y9) / det
    B = (du9 * j9 - u9 * kk * jp9) / det
    uR = A * spherical_jn(l, kk * R) + B * spherical_yn(l, kk * R)
    duR = kk * (A * spherical_jn(l, kk * R, derivative=True)
                + B * spherical_yn(l, kk * R, derivative=True))
    gamma_core = duR / uR

    # annulus: w(r) = A j_l(kr) + B y_l(kr) with log-derivative at r_R fixed
    # by the flux match
    r_R = 2.0 * (R - 1.0)
    gamma_w = core_sigma * gamma_core * R * R / (r_R * r_R)
    jr = spherical_jn(l, k * r_R)
    yr = spherical_yn(l, k * r_R)
    jpr = spherical_jn(l, k * r_R, derivative=True)
    ypr = spherical_yn(l, k * r_R, derivative=True)
    det = k * (jr * ypr - jpr * yr)
    A = (1.0 * k * ypr - gamma_w * yr) / det
    B = (gamma_w * jr - 1.0 * k * jpr) / det
    # outside rho >= 2 the same free wave continues; evaluate at rho = 3
    u3 = A * spherical_jn(l, 3.0 * k) + B * spherical_yn(l, 3.0 * k)
    du3 = k * (A * spherical_jn(l, 3.0 * k, derivative=True)
               + B * spherical_yn(l, 3.0 * k, derivative=True))
    return du3 / u3


def free_dirichlet_root(n: int, l: int = 0, radius: float = 3.0) -> float:
    """n-th Dirichlet eigenvalue of the free ball in channel l (n = 1, 2...)."""
    count = 0
    k_lo = 1e-6
    step = 1e-3
    k = k_lo
    prev = spherical_jn(l, radius * k)
    while count < n:
        k += step
        cur = spherical_jn(l, radius * k)
        if prev * cur < 0:
            count += 1
            if count == n:
                kr = brentq(lambda kk: spherical_jn(l, radius * kk),
                            k - step, k, xtol=1e-14)
                return kr * kr
        prev = cur
    raise AssertionError("unreachable")


def scalar_exterior_field(shifts, points) -> np.ndarray:
    """Total plane-wave field at points beyond r = 3, one scalar
    `qcloak.special.spherical_bessel` call per point and channel:

        psi = sum_l i^l (2l+1) e^{i d_l}(cos d_l j_l(kr) - sin d_l y_l(kr)) P_l

    `shifts` is a `PhaseShifts`; `points` holds (r, cos theta) rows, r > 3.
    """
    from qcloak.observables import legendre_values
    from qcloak.special import spherical_bessel

    pts = np.asarray(points, dtype=float)
    assert np.all(pts[:, 0] > 3.0)
    k = shifts.k
    pl = legendre_values(shifts.l_max, pts[:, 1])
    psi = np.zeros(len(pts), dtype=complex)
    for l, d in enumerate(shifts.delta):
        radial = np.empty(len(pts), dtype=complex)
        for idx, r in enumerate(pts[:, 0]):
            s = spherical_bessel(l, k * r)
            radial[idx] = cmath.exp(1j * d) * (math.cos(d) * s.j
                                               - math.sin(d) * s.y)
        psi += (1j ** l) * (2 * l + 1) * radial * pl[l]
    return psi


def free_core_neumann_root() -> float:
    """Lowest nonzero Neumann eigenvalue of the free unit ball, l = 0:
    the first positive root of tan k = k."""
    k = brentq(lambda kk: math.tan(kk) - kk, math.pi / 2 + 1e-6,
               3 * math.pi / 2 - 1e-6, xtol=1e-14)
    return k * k


def random_smooth_profiles(rng: np.random.Generator):
    """One random smooth medium (sigma, dsigma, a) on [0, 3], free near 3.

    Profiles are exp of band-limited trig sums windowed to die before the
    boundary, so they stay positive and end exactly free.
    """
    n_terms = 3
    cs = rng.uniform(-0.4, 0.4, n_terms)
    oms = rng.uniform(0.5, 2.5, n_terms)
    phs = rng.uniform(0.0, 2 * math.pi, n_terms)
    ca = rng.uniform(-0.4, 0.4, n_terms)
    oa = rng.uniform(0.5, 2.5, n_terms)
    pa = rng.uniform(0.0, 2 * math.pi, n_terms)
    r_cut = 2.5

    def window(r):
        if r >= r_cut:
            return 0.0
        t = r / r_cut
        return (1.0 - t * t) ** 2

    def dwindow(r):
        if r >= r_cut:
            return 0.0
        t = r / r_cut
        return 2.0 * (1.0 - t * t) * (-2.0 * t / r_cut)

    def g(r):
        return sum(c * math.cos(o * r + p) for c, o, p in zip(cs, oms, phs))

    def dg(r):
        return sum(-c * o * math.sin(o * r + p)
                   for c, o, p in zip(cs, oms, phs))

    def sigma(r):
        return math.exp(window(r) * g(r))

    def dsigma(r):
        return sigma(r) * (dwindow(r) * g(r) + window(r) * dg(r))

    def a_of(r):
        return math.exp(window(r) * sum(
            c * math.cos(o * r + p) for c, o, p in zip(ca, oa, pa)))

    return sigma, dsigma, a_of


# --- former per-solve shell array builders, verbatim ---------------------

def _merge_edges(edges: list, cuts: list, lo: float, hi: float) -> list:
    out = sorted(set(edges) | {c for c in cuts if lo < c < hi})
    dedup = [out[0]]
    for x in out[1:]:
        if x - dedup[-1] > 1e-12:
            dedup.append(x)
    return dedup


def _acoustic_arrays(system: AcousticSystem, E: float):
    med = system.medium
    core = system.core
    cuts = [1.0] + (core.breakpoints() if core is not None else [])
    edges = _merge_edges(med.boundaries(), cuts, 0.0, med.shells[-1].r_out)
    k2 = []
    w = []
    shells = med.shells
    idx = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        while mid > shells[idx].r_out and idx < len(shells) - 1:
            idx += 1
        sigma, a = shells[idx].sigma, shells[idx].a
        wv = core.value_at(mid) if core is not None else 0.0
        k2.append(E * a / sigma - wv)
        w.append(sigma)
    return edges, k2, w


def _schrodinger_arrays(potential: RadialPotential, E: float):
    edges = _merge_edges(potential.boundaries(), [1.0], 0.0,
                         potential.shells[-1].r_out)
    k2 = []
    w = []
    shells = potential.shells
    sigmas = potential.interface_sigmas
    idx = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        while mid > shells[idx].r_out and idx < len(shells) - 1:
            idx += 1
        k2.append(E - shells[idx].V)
        w.append(sigmas[idx] if sigmas is not None else 1.0)
    return edges, k2, w


def core_neumann_arrays(W: CorePotential, E: float):
    """Shell arrays for the core problem -lap psi + W psi = E psi on [0, 1]."""
    edges = _merge_edges([0.0, 1.0], W.breakpoints(), 0.0, 1.0)
    k2 = [E - W.value_at(0.5 * (lo + hi))
          for lo, hi in zip(edges[:-1], edges[1:])]
    w = [1.0] * len(k2)
    return edges, k2, w


# --- former Dirichlet eigenvalue search (grid scan + brentq), verbatim ----

def _sign_scan(f, lo: float, hi: float, n: int, refine: int = 2):
    """Sign-change brackets of f on [lo, hi]; clustered changes trigger a
    local 10x rescan up to `refine` levels."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([f(x) for x in xs])
    scale = np.max(np.abs(vals))
    if scale > 0.0 and (abs(vals[0]) < 1e-9 * scale
                        or abs(vals[-1]) < 1e-9 * scale):
        warnings.warn("root sits on a scan endpoint; extend the window")
    flips = np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))
    brackets = []
    clustered = set(flips) & set(flips + 1) | set(flips) & set(flips - 1)
    for i in flips:
        if i in clustered and refine > 0:
            brackets.extend(_sign_scan(f, xs[i], xs[i + 1], 11,
                                       refine=refine - 1))
        else:
            brackets.append((xs[i], xs[i + 1]))
    return brackets


def grid_dirichlet_levels(system, l: int, window, n_scan: int = 2001,
                          xtol: float = 1e-10) -> list:
    """(E, kind) of the roots of u_l(3; E) found by an n_scan-point sign
    scan of the window, each polished by brentq and classified by the
    concentration of a normed solve there.  A grid step holding two roots
    shows no sign change, so both are missed."""
    def f(E):
        return solve_channel(system, l, E, want_norms=False).dirichlet_value

    levels = []
    for a, b in _sign_scan(f, window[0], window[1], n_scan):
        root = brentq(f, a, b, xtol=xtol)
        levels.append((root, classify(
            solve_channel(system, l, root).concentration)))
    return levels


# --- former core response (a fully normed solve), verbatim ---------------

def _amplification(system: System, l: int, E: float) -> float:
    """L2 mass of the core response per unit boundary amplitude u(3) = 1."""
    sol = solve_channel(system, l, E, want_norms=True)
    return math.exp(0.5 * min(sol.log_norm_core, 1380.0))


def overflowing_stack(n_barrier: int = 25, kappa: float = 150.0):
    """(edges, k2, w) of an l = 0 stack whose norm accumulators overflow.

    An oscillating core on [0, 1] is followed by n_barrier evanescent
    shells out to 3.  Each interface weight sets v'/v = -kappa on entry,
    the log-derivative of the decaying exponential, so v falls by
    e^(-2 kappa / n_barrier) across every shell and the core mass, in
    units of the final state, passes the kernel's 1e250 ceiling.
    """
    edges, k2, w = [0.0, 1.0], [20.0], [1.0]
    for i in range(1, n_barrier + 1):
        a = edges[-1]
        res = _kernel_py.propagate(0, edges, k2, w, False)
        g = res.q3 / res.p3
        w.append(w[-1] * (g - 1.0 / a) / (-kappa - 1.0 / a))
        k2.append(-kappa * kappa)
        edges.append(1.0 + 2.0 * i / n_barrier)
    return edges, k2, w


# --- former per-sample evaluation -------------------------------------------
# The kernel march as it evaluated each sample by its own `_Local.eval`
# call and rescaled it on its own, and the solve that converted the samples
# one at a time; the array pass after the march replaced both loops.  Kept
# verbatim except for the per-shell log-derivatives and the sample radii,
# which neither the kernels nor `ChannelSolution` carry any more, the
# core radius, which is the kernels' constant `_R_CORE`, the state norm,
# which is the kernel's `_norm` (the C library's hypot), and the start,
# which is the kernel's: the first substep takes the regular member alone
# (`_Local`'s `end`).  This march is a reference for the sample pass, not
# for the norm or the start.  Its result is the former `KernelResult`, with
# the samples where the step table now is.

class SampledResult(NamedTuple):
    p3: float
    q3: float
    i_core: float
    i_total: float
    i_logoff: float
    samples: Optional[list]
    overflow: bool
    zeros: int


def per_sample_propagate(l: int, r: Sequence[float],
                         k2: Sequence[float], w: Sequence[float],
                         want_norms: int = True,
                         sample_r: Optional[Sequence[float]] = None
                         ) -> SampledResult:
    """The former `_kernel_py.propagate`."""
    if want_norms not in (False, True, CORE_ONLY):
        raise ValueError(f"want_norms must be False, True or CORE_ONLY "
                         f"({CORE_ONLY}), got {want_norms!r}")
    outer = want_norms != CORE_ONLY
    n_shell = len(k2)
    r_eps = min(_EPS_ORIGIN, 0.5 * r[1])
    p = q = 0.0
    lam = 0.0
    i_core = i_total = 0.0
    i_logoff = 0.0
    n_samp = len(sample_r) if sample_r is not None else 0
    samples = [0.0] * n_samp
    samp_lam = [0.0] * n_samp
    si = 0
    overflow = False
    zeros = 0

    for ish in range(n_shell):
        a = r[ish] if ish > 0 else r_eps
        b = r[ish + 1]
        if ish > 0 and w[ish] != w[ish - 1]:
            # v continuous; sigma*u' continuous with u = v/rho
            q = (w[ish - 1] / w[ish]) * (q - p / a) + p / a
            m = _norm(p, q)
            p /= m
            q /= m
            lam += math.log(m)
            if want_norms:
                f = 1.0 / (m * m)
                i_core *= f
                i_total *= f
        power = _use_power(k2[ish], a, b)
        nsub = _substeps(a, b, k2[ish], power)
        for isub in range(nsub):
            if power:
                sa = a * (b / a) ** (isub / nsub)
                sb = a * (b / a) ** ((isub + 1) / nsub)
            else:
                sa = a + (b - a) * isub / nsub
                sb = a + (b - a) * (isub + 1) / nsub
            loc = _Local(l, k2[ish], sa, p, q, power,
                         None if ish or isub else sb)
            if want_norms:
                add_core = 0.0
                add_total = 0.0
                if sa < _R_CORE < sb:
                    add_core = add_total = _panel(loc, sa, _R_CORE)
                    if outer:
                        add_total += _panel(loc, _R_CORE, sb)
                elif sb <= _R_CORE:
                    add_core = add_total = _panel(loc, sa, sb)
                elif outer:
                    add_total = _panel(loc, sa, sb)
                scale = math.exp(-i_logoff) if i_logoff else 1.0
                i_core += add_core * scale
                i_total += add_total * scale
            while si < n_samp and sample_r[si] <= sb + 1e-15:
                samples[si] = loc.eval(max(sample_r[si], r_eps))[0]
                samp_lam[si] = lam
                si += 1
            neg = p < 0.0
            p, q = loc.eval(sb)
            zeros += (p < 0.0) != neg
            m = _norm(p, q)
            p /= m
            q /= m
            dlam = math.log(m)
            lam += dlam
            if want_norms:
                f = math.exp(-2.0 * dlam)
                i_core *= f
                i_total *= f
                if i_total > _NORM_CEIL:
                    i_core *= math.exp(-_NORM_SHIFT)
                    i_total *= math.exp(-_NORM_SHIFT)
                    i_logoff += _NORM_SHIFT
                    overflow = True

    out = None
    if sample_r is not None:
        out = [val * math.exp(min(sl - lam, 700.0))
               for val, sl in zip(samples, samp_lam)]
    return SampledResult(p, q, i_core, i_total, i_logoff, out, overflow,
                         zeros)


class PerSampleKernel:
    """`per_sample_propagate` behind the kernels' split entries: the "step
    table" of a march is its input, and `sample` marches again, evaluating
    each sample inside the march as the former kernel did."""

    @staticmethod
    def propagate(l, r, k2, w, want_norms=True, keep_steps=False):
        res = per_sample_propagate(l, r, k2, w, want_norms)
        steps = (r, k2, w, want_norms) if keep_steps else None
        return KernelResult(*res[:5], steps, *res[6:])

    @staticmethod
    def sample(l, steps, sample_r):
        return per_sample_propagate(l, *steps, sample_r=sample_r).samples


def per_sample_solve(kernel, edges, k2, w, l, E, want_norms, sample_r):
    """The former `propagate._solve` on a kernel's march with steps and
    its `sample`, converting the samples one at a time."""
    if l < 0 or l > L_MAX_SUPPORTED:
        raise ConfigurationError(
            f"channel l={l} outside [0, {L_MAX_SUPPORTED}]")
    if len(edges) != len(k2) + 1:
        raise GeometryError("boundary/shell count mismatch")
    r_max = edges[-1]
    samp = None
    if sample_r is not None:
        samp = [min(max(float(s), 0.0), r_max) for s in sample_r]
        if any(b < a for a, b in zip(samp, samp[1:])):
            raise DomainError("sample radii must be sorted ascending")
    res = kernel.propagate(l, edges, k2, w, want_norms=want_norms,
                           keep_steps=samp is not None)
    if not (math.isfinite(res.p3) and math.isfinite(res.q3)):
        # the regular start overflows for high l where x = k*rho is tiny
        raise DomainError(
            f"channel l = {l} overflows at E = {E}: the march returned "
            f"non-finite boundary data; lower l_max")
    pa = max(abs(res.p3), _TINY)
    log_core = (math.log(max(res.i_core, _TINY)) + res.i_logoff
                + 2.0 * math.log(r_max) - 2.0 * math.log(pa))
    if want_norms == CORE_ONLY:
        log_total = conc = math.nan
    else:
        log_total = (math.log(max(res.i_total, _TINY)) + res.i_logoff
                     + 2.0 * math.log(r_max) - 2.0 * math.log(pa))
        conc = res.i_core / res.i_total if res.i_total > 0.0 else 0.0
    sample_u = None
    if samp is not None:
        # samples below the kernel's start radius were evaluated there, so
        # the u = v/rho conversion must use the same radius
        r_eps = min(1e-6, 0.5 * edges[1])
        samples = kernel.sample(l, res.steps, samp)
        sample_u = tuple(
            sv * r_max / (max(sr, r_eps) * res.p3) if res.p3 != 0.0
            else math.inf
            for sv, sr in zip(samples, samp))
    return ChannelSolution(
        l=l, E=E, r_max=r_max, p_end=res.p3, q_end=res.q3,
        log_norm_core=log_core, log_norm_total=log_total,
        concentration=conc, zeros=res.zeros, overflow=res.overflow,
        sample_u=sample_u)


def per_channel_phase_shifts(system: System, E: float,
                             l_max: Optional[int] = None) -> PhaseShifts:
    """The former `observables.phase_shifts`: each call solves channels
    0..l_max on its own."""
    k = _far_field_k(E)
    if l_max is None:
        l_max = default_l_max(E)
    deltas = tuple(
        _match_delta(solve_channel(system, l, E, want_norms=False), k)[0]
        for l in range(l_max + 1))
    return PhaseShifts(E, k, deltas)


def per_channel_dn_spectrum(system: System, E: float,
                            l_max: Optional[int] = None) -> DNSpectrum:
    """The former `observables.dn_spectrum`: each call solves channels in
    ascending l on its own, up to the first one at a Dirichlet eigenvalue."""
    if l_max is None:
        l_max = default_l_max(E)
    lam = []
    for l in range(l_max + 1):
        sol = solve_channel(system, l, E, want_norms=False)
        if abs(sol.dirichlet_value) < U_THRESHOLD:
            raise NearEigenvalueError(
                f"E = {E} is numerically a Dirichlet eigenvalue in channel "
                f"l = {l}", l=l, E=E)
        lam.append(sol.log_derivative_end)
    return DNSpectrum(E, tuple(lam))


def per_channel_plane_wave_field(system: System, E: float, points,
                                 l_max: Optional[int] = None) -> np.ndarray:
    """The former `observables.plane_wave_field`: each call solves every
    channel with the interior points as samples (`solve_channel`, so a
    patched `propagate._solve` serves it)."""
    pts = np.asarray(points, dtype=float)
    r = pts[:, 0]
    mu = pts[:, 1]
    k = _far_field_k(E)
    if l_max is None:
        l_max = default_l_max(E)

    inside = r <= R_OUTER
    r_in = r[inside]
    order = np.argsort(r_in)
    sample_r = r_in[order] if r_in.size else None
    j_out, y_out = _sph_jy_orders_array(l_max, k * r[~inside])
    pl = legendre_values(l_max, mu)
    psi = np.zeros(len(r), dtype=complex)
    for l in range(l_max + 1):
        sol = solve_channel(system, l, E, want_norms=False,
                            sample_r=sample_r)
        d, s = _match_delta(sol, k)
        phase, c, sn = cmath.exp(1j * d), math.cos(d), math.sin(d)
        radial = np.empty(len(r), dtype=complex)
        if r_in.size:
            u = np.empty_like(r_in)
            u[order] = sol.sample_u
            radial[inside] = u * (phase * (c * s.j - sn * s.y))
        radial[~inside] = phase * (c * j_out[l] - sn * y_out[l])
        psi += (1j ** l) * (2 * l + 1) * radial * pl[l]
    return psi


# --- the former scalar mollification: one radius at a time -----------------

def _bump(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    t = 1.0 - u * u
    return (35.0 / 32.0) * t * t * t


def _bump_prime(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    t = 1.0 - u * u
    return (35.0 / 32.0) * (-6.0 * u) * t * t


def _bump_integral(u: float) -> float:
    if u <= -1.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return (35.0 / 32.0) * (u - u ** 3 + 0.6 * u ** 5 - u ** 7 / 7.0
                            + 16.0 / 35.0)


class _SmoothedProfile:
    """sigma (or a) of a layered medium convolved with the bump kernel.

    Jumps below the kernel window enter through a prefix sum; only the one
    or two jumps inside the window are evaluated pointwise.
    """

    def __init__(self, base: float, jumps: list[tuple[float, float]],
                 eta: float):
        self.base = base
        self.jumps = jumps
        self.eta = eta
        self._locs = [r for r, _ in jumps]
        self._prefix = [base]
        for _, dv in jumps:
            self._prefix.append(self._prefix[-1] + dv)

    def _window(self, rho: float):
        lo = bisect.bisect_right(self._locs, rho - self.eta)
        hi = bisect.bisect_left(self._locs, rho + self.eta)
        return lo, hi

    def value(self, rho: float) -> float:
        lo, hi = self._window(rho)
        v = self._prefix[lo]
        for r_j, dv in self.jumps[lo:hi]:
            v += dv * _bump_integral((rho - r_j) / self.eta)
        return v

    def d1(self, rho: float) -> float:
        lo, hi = self._window(rho)
        v = 0.0
        for r_j, dv in self.jumps[lo:hi]:
            v += dv * _bump((rho - r_j) / self.eta) / self.eta
        return v

    def d2(self, rho: float) -> float:
        lo, hi = self._window(rho)
        v = 0.0
        for r_j, dv in self.jumps[lo:hi]:
            v += dv * _bump_prime((rho - r_j) / self.eta) / self.eta ** 2
        return v


def _per_node_smoothing_setup(layers: LayeredMedium, eta, grid_step):
    if eta is None:
        eta = layers.thinnest_width() / 10.0
    if grid_step is None:
        grid_step = eta / 64.0
    if eta < grid_step:
        raise ResolutionError(
            f"mollifier width {eta} is below the grid step {grid_step}")
    sig_jumps = []
    mas_jumps = []
    for left, right in zip(layers.shells[:-1], layers.shells[1:]):
        if right.sigma != left.sigma:
            sig_jumps.append((left.r_out, right.sigma - left.sigma))
        if right.a != left.a:
            mas_jumps.append((left.r_out, right.a - left.a))
    sig = _SmoothedProfile(layers.shells[0].sigma, sig_jumps, eta)
    mas = _SmoothedProfile(layers.shells[0].a, mas_jumps, eta)
    # union of smoothing windows, clipped to the domain
    windows: list[list[float]] = []
    for r_j in sorted({j for j, _ in sig.jumps} | {j for j, _ in mas.jumps}):
        lo, hi = max(r_j - eta, 0.0), min(r_j + eta, R_OUTER)
        if windows and lo <= windows[-1][1] + _EDGE_TOL:
            windows[-1][1] = max(windows[-1][1], hi)
        else:
            windows.append([lo, hi])
    # grid: fine steps inside windows, single segments between them
    edges = [0.0]
    pos = 0.0
    for lo, hi in windows:
        if lo > pos + _EDGE_TOL:
            edges.append(lo)
        n_sub = max(1, math.ceil((hi - max(lo, pos)) / grid_step))
        start = max(lo, pos)
        for i in range(1, n_sub + 1):
            edges.append(start + (hi - start) * i / n_sub)
        pos = hi
    if pos < R_OUTER - _EDGE_TOL:
        edges.append(R_OUTER)
    edges[-1] = R_OUTER
    return sig, mas, edges


def per_node_mollify_medium(layers: LayeredMedium,
                            eta: Optional[float] = None,
                            grid_step: Optional[float] = None
                            ) -> LayeredMedium:
    """The former `media.mollify_medium`: each midpoint through
    `_SmoothedProfile`."""
    sig, mas, edges = _per_node_smoothing_setup(layers, eta, grid_step)
    shells = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        shells.append(Shell(lo, hi, sig.value(mid), mas.value(mid)))
    return LayeredMedium(tuple(shells))


def per_node_gauge_potential(layers: LayeredMedium, E: float,
                             eta: Optional[float] = None,
                             grid_step: Optional[float] = None
                             ) -> RadialPotential:
    """The former `media.gauge_potential(mode="mollified")`: each Gauss
    node through `v_of`, one step at a time."""
    sig, mas, edges = _per_node_smoothing_setup(layers, eta, grid_step)

    def v_of(rho: float) -> float:
        s = sig.value(rho)
        if s <= 0.0:
            raise DomainError(f"smoothed sigma nonpositive at rho = {rho}")
        d1 = sig.d1(rho)
        d2 = sig.d2(rho)
        return (d2 / (2.0 * s) - d1 * d1 / (4.0 * s * s) + d1 / (rho * s)
                + E * (1.0 - mas.value(rho) / s))

    shells = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        c = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        step = hi - lo
        i0 = i1 = 0.0
        for t, wt in zip(_G4_NODES, _G4_WEIGHTS):
            v = v_of(c + half * t)
            i0 += wt * v * half
            i1 += wt * v * (half * t) * half
        v_in = i0 / step - 4.0 * i1 / (step * step)
        v_out = i0 / step + 4.0 * i1 / (step * step)
        shells.append(PotentialShell(lo, c, v_in))
        shells.append(PotentialShell(c, hi, v_out))
    # the tail segment is exactly free space; pin the stored zeros
    for idx in (-2, -1):
        tail = shells[idx]
        if abs(tail.V) < 1e-12:
            shells[idx] = PotentialShell(tail.r_in, tail.r_out, 0.0)
    return RadialPotential(tuple(shells))
