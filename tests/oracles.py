"""Independent oracles the test suite checks the solvers against.

Everything here deliberately avoids the package's propagation kernels:
closed forms, scipy special functions, adaptive ODE integration, and a
finite-difference tensor push-forward.  The one differential reference,
`scalar_exterior_field`, replays the package's former point-by-point
exterior field on phase shifts the caller supplies.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import spherical_in, spherical_jn, spherical_yn


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
