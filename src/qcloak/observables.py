"""Scattering observables: phase shifts, amplitudes, cross sections, DN data,
and sampled wave fields.

Every system is free (sigma = a = 1, V = 0) at the outer sphere
r = R_OUTER, so the log-derivative there carries a channel's whole
far-field content: phase shifts and DN values are both matched at R_OUTER.
`phase_shifts`, `dn_spectrum` and `plane_wave_field` read their channels
from the system's outer-sphere table (`propagate.outer_sphere_solutions`),
so calls at one (system, E) solve each channel once; a field samples the
table's step tables, every channel in one kernel `sample` call, and a
channel that the table holds without one is marched once more, with
steps.  `radial_mode`, at an almost-eigenvalue energy of its own,
marches its channel with steps directly, samples it in one call and
leaves the table alone.
`dn_spectrum` refuses an energy whose boundary value falls below
`U_THRESHOLD` in some channel, before it solves any higher channel.  A non-finite E raises DomainError
and an l_max that is not an integer in [0, L_MAX_SUPPORTED] raises
ConfigurationError.

Every Bessel value is qcloak's own (`special`): the pair that matches a
phase shift at k*R_OUTER also scales a sampled field's interior, and the
free field beyond R_OUTER takes j_l and y_l of all orders in one pass
(`special._sph_jy_orders_array`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NearEigenvalueError
from .media import R_OUTER
from .propagate import (
    ChannelSolution,
    System,
    _march,
    _sample_radii,
    _sample_u,
    _table_channels,
    checked_l_max,
    outer_sphere_solutions,
    shell_stack,
)
from .special import _sph_jy_orders_array, spherical_bessel

#: |u(R_OUTER)| below which `dn_spectrum` treats E as a Dirichlet eigenvalue
U_THRESHOLD = 1e-10


@dataclass(frozen=True)
class PhaseShifts:
    """Partial-wave phase shifts delta_l, l = 0..L, at one energy."""

    E: float
    k: float
    delta: tuple

    @property
    def l_max(self) -> int:
        return len(self.delta) - 1

    def s_matrix(self) -> tuple:
        return tuple(cmath.exp(2j * d) for d in self.delta)


@dataclass(frozen=True)
class DNSpectrum:
    """Channel symbol of the boundary map: Neumann data per unit Dirichlet
    data on the outer sphere."""

    E: float
    lam: tuple

    @property
    def l_max(self) -> int:
        return len(self.lam) - 1

    def max_deviation_from_free(self) -> float:
        free = free_dn_spectrum(self.E, self.l_max)
        return max(abs(a - b) for a, b in zip(self.lam, free.lam))


def _far_field_k(E: float) -> float:
    """Wavenumber k = sqrt(E) of the free exterior, after checking that E
    propagates."""
    if E <= 0.0:
        raise DomainError(f"no propagating far field for E = {E} <= 0")
    return math.sqrt(E)


def _match_delta(sol: ChannelSolution, k: float) -> tuple:
    """(delta_l, s) of one solved channel: tan(delta) = (k j' - g j)/
    (k y' - g y) at x = k*R_OUTER, with g the solution's log-derivative
    there and s the free pair `spherical_bessel(l, x)` it was matched to."""
    g = sol.log_derivative_end
    s = spherical_bessel(sol.l, k * R_OUTER)
    num = k * s.jp - g * s.j
    den = k * s.yp - g * s.y
    if den == 0.0:
        return math.copysign(math.pi / 2.0, num), s
    return math.atan(num / den), s


def phase_shifts(system: System, E: float,
                 l_max: Optional[int] = None) -> PhaseShifts:
    """delta_l from matching the propagated log-derivative to free waves at
    R_OUTER: tan(delta) = (k j' - g j)/(k y' - g y) at x = k*R_OUTER.

    Single-energy values use the principal branch; energy scans unwrap with
    `unwrap_phases`.  Channels come from the system's outer-sphere table.
    """
    k = _far_field_k(E)
    deltas = tuple(_match_delta(sol, k)[0]
                   for sol in outer_sphere_solutions(system, E, l_max))
    return PhaseShifts(E, k, deltas)


def unwrap_phases(deltas: np.ndarray) -> np.ndarray:
    """Make a phase-shift scan continuous in E (unwrap modulo pi)."""
    out = np.asarray(deltas, dtype=float).copy()
    for i in range(1, len(out)):
        while out[i] - out[i - 1] > math.pi / 2:
            out[i] -= math.pi
        while out[i] - out[i - 1] < -math.pi / 2:
            out[i] += math.pi
    return out


def legendre_values(l_max: int, mu) -> np.ndarray:
    """P_l(mu) for l = 0..l_max, vectorized over mu; shape (l_max+1, ...)."""
    mu = np.asarray(mu, dtype=float)
    out = np.empty((l_max + 1,) + mu.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = mu
    for l in range(1, l_max):
        out[l + 1] = ((2 * l + 1) * mu * out[l] - l * out[l - 1]) / (l + 1)
    return out


def amplitude(shifts: PhaseShifts, theta: float) -> complex:
    """f(theta) = (1/k) sum (2l+1) e^{i delta} sin(delta) P_l(cos theta)."""
    mu = math.cos(theta)
    pl = legendre_values(shifts.l_max, mu)
    acc = 0j
    for l, d in enumerate(shifts.delta):
        acc += (2 * l + 1) * cmath.exp(1j * d) * math.sin(d) * pl[l]
    return acc / shifts.k


def total_cross_section(shifts: PhaseShifts) -> float:
    """sigma_tot = (4 pi / k^2) sum (2l+1) sin^2(delta_l)."""
    acc = sum((2 * l + 1) * math.sin(d) ** 2
              for l, d in enumerate(shifts.delta))
    return 4.0 * math.pi / (shifts.k ** 2) * acc


def optical_theorem_defect(shifts: PhaseShifts) -> float:
    """Relative defect of sigma_tot = (4 pi / k) Im f(0)."""
    st = total_cross_section(shifts)
    via_f = 4.0 * math.pi / shifts.k * amplitude(shifts, 0.0).imag
    scale = max(abs(st), abs(via_f), 1e-300)
    return abs(st - via_f) / scale


def dn_spectrum(system: System, E: float,
                l_max: Optional[int] = None) -> DNSpectrum:
    """Channel values sigma u'/u at R_OUTER of the boundary map at energy E.

    Raises NearEigenvalueError naming the channel when the boundary value of
    the regular solution falls below U_THRESHOLD (E is numerically a
    Dirichlet eigenvalue of the full problem).  Channels come from the
    system's outer-sphere table, read in ascending l up to the first one
    refused.
    """
    lam = []
    for sol in outer_sphere_solutions(system, E, l_max):
        if abs(sol.dirichlet_value) < U_THRESHOLD:
            raise NearEigenvalueError(
                f"E = {E} is numerically a Dirichlet eigenvalue in channel "
                f"l = {sol.l}", l=sol.l, E=E)
        lam.append(sol.log_derivative_end)
    return DNSpectrum(E, tuple(lam))


def free_dn_spectrum(E: float, l_max: int) -> DNSpectrum:
    """Analytic free-space channel values k j_l'(k R)/j_l(k R) at
    R = R_OUTER.  An E that is not finite and > 0 raises DomainError."""
    if not 0.0 < E < math.inf:
        raise DomainError(
            f"free channel values need a finite E > 0, got E = {E}")
    k = math.sqrt(E)
    x = k * R_OUTER
    lam = []
    for l in range(l_max + 1):
        s = spherical_bessel(l, x)
        lam.append(k * s.jp / s.j)
    return DNSpectrum(E, tuple(lam))


def plane_wave_field(system: System, E: float, points,
                     l_max: Optional[int] = None) -> np.ndarray:
    """Total wave for a unit incident plane wave, sampled at points.

    `points` is an (n, 2) array of (r, cos_theta) with theta measured from
    the incidence direction.  The channel radial factors are the regular
    solutions normalized so the far field is e^{ikz} + outgoing; points on a
    shell boundary are evaluated from the inner side.  Channels come from
    the system's outer-sphere table, with the step table of each when some
    point lies inside R_OUTER: one march per channel at (system, E) serves
    every later field there.  One kernel `sample` call evaluates every
    channel at the interior points, and each channel's delta_l at R_OUTER
    and the free pair there scale its samples.  Beyond R_OUTER the field
    is the free continuation, from j_l and y_l of every order at once
    (`special._sph_jy_orders_array`).  Points not shaped (n, 2), a
    negative, NaN or infinite r, or |cos theta| > 1 raise DomainError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(
            f"points must be an (n, 2) array of (r, cos theta), got shape "
            f"{pts.shape}")
    r = pts[:, 0]
    mu = pts[:, 1]
    # negated, so that NaN fails the check too
    if not (np.all((r >= 0) & (r < np.inf))
            and np.all(np.abs(mu) <= 1.0 + 1e-12)):
        raise DomainError(
            "points must have finite r >= 0 and |cos theta| <= 1")
    k = _far_field_k(E)
    l_max = checked_l_max(E, l_max)

    inside = r <= R_OUTER
    r_in = r[inside]
    j_out, y_out = _sph_jy_orders_array(l_max, k * r[~inside])
    pl = legendre_values(l_max, mu)
    sols, steps = zip(*_table_channels(system, E, l_max, r_in.size > 0))
    if r_in.size:
        order = np.argsort(r_in)
        u = np.empty((len(sols), r_in.size))
        u[:, order] = _sample_u(sols, steps, _sample_radii(
            r_in[order], shell_stack(system).edges[-1]))
    psi = np.zeros(len(r), dtype=complex)
    for sol in sols:
        l = sol.l
        d, s = _match_delta(sol, k)
        # the free channel factor e^{i delta}(cos delta j_l - sin delta y_l)
        phase, c, sn = cmath.exp(1j * d), math.cos(d), math.sin(d)
        radial = np.empty(len(r), dtype=complex)
        if r_in.size:
            radial[inside] = u[l] * (phase * (c * s.j - sn * s.y))
        radial[~inside] = phase * (c * j_out[l] - sn * y_out[l])
        psi += (1j ** l) * (2 * l + 1) * radial * pl[l]
    return psi


def radial_mode(system: System, l: int, E_star: float,
                radii) -> np.ndarray:
    """Radial profile u(r) of the channel solution at an (almost) eigenvalue,
    normalized to unit maximum amplitude; used to plot trapped states.

    Radii beyond the outer ball get NaN (the mode is not defined there);
    a negative or NaN radius raises DomainError."""
    rr = np.asarray(radii, dtype=float)
    if not np.all(rr >= 0):
        raise DomainError("radii must be >= 0")
    inside = rr <= R_OUTER
    u = np.full_like(rr, np.nan)
    r_in = rr[inside]
    if not r_in.size:
        return u
    order = np.argsort(r_in)
    st = shell_stack(system)
    sol, steps = _march(st.edges, st.k2(E_star), st.w, l, E_star, False,
                        True)
    u_in = np.empty_like(r_in)
    u_in[order] = _sample_u([sol], [steps],
                            _sample_radii(r_in[order], st.edges[-1]))[0]
    u[inside] = u_in
    peak = np.nanmax(np.abs(u_in))
    return u / peak if peak > 0 else u
