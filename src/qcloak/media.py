"""Synthesis of cloaking media and their layered / potential realizations.

Pipeline implemented here:

    singular radial map  ->  anisotropic shell tensors (truncated at R > 1)
        ->  two-phase isotropic layering (arithmetic/harmonic matched)
        ->  Liouville gauge potential (sharp interfaces, or mollified)

Radii are dimensionless; the construction lives on the ball of radius 3,
the cloak shell occupies [R, 2], and everything is free space on [2, 3].

The mollified gauge and `mollify_medium` smooth every radius of the grid in
one array pass (`_smoothed_profile`), with the scalar operation order: the
jumps in ascending radius, the Gauss moments node by node.  sigma and a
share one jump table, one row (r_j, dsigma_j, da_j) per interface where
either jumps, so that pass takes each (radius, jump) pair's bump share
once for both; a zero step adds an exact +-0.0.  The powers u^3,
u^5 and u^7 of the bump's integral go through `math.pow` per element, the
libm pow of the scalar code: numpy's `power` takes a SIMD path on some
hosts and rounds differently there, so it would tie the bits to the host's
SIMD.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DomainError,
    GeometryError,
    ResolutionError,
    SingularRegionError,
)
from .special import _map

R_OUTER = 3.0
R_SHELL = 2.0

# Core presets: unit core keeps the gauge-transformed interior operator equal
# to -lap + W; the doubled core doubles the conductivity and carries the
# determinant-consistent mass 2*2^2 = 8.
UNIT_CORE = (1.0, 1.0)
DOUBLED_CORE = (2.0, 8.0)

_EDGE_TOL = 1e-12


def forward_map(r: float) -> float:
    """Radial part of the singular cloak map: identity beyond 2, else 1 + r/2.

    Strictly increasing on (0, 3], continuous at r = 2.
    """
    if r <= 0.0:
        raise DomainError(f"forward_map requires r > 0, got {r}")
    if r > R_SHELL:
        return float(r)
    return 1.0 + 0.5 * r


def inverse_map(rho: float) -> float:
    """Inverse of forward_map on (1, 3]."""
    if rho <= 1.0:
        raise SingularRegionError(
            f"inverse map undefined at rho = {rho} <= 1 (degenerate surface)")
    if rho > R_SHELL:
        return float(rho)
    return 2.0 * (rho - 1.0)


def ideal_cloak_at(rho: float) -> tuple[float, float, float]:
    """(sigma_rad, sigma_tan, mass_a) of the ideal cloak at radius rho > 1.

    On the shell 1 < rho < 2 these are the push-forward of the unit tensor
    under the radial map; beyond 2 the medium is free space.
    """
    if rho <= 1.0:
        raise SingularRegionError(
            f"ideal cloak tensors are singular at rho = {rho} <= 1")
    if rho >= R_SHELL:
        return 1.0, 1.0, 1.0
    q = (rho - 1.0) / rho
    sigma_rad = 2.0 * q * q
    sigma_tan = 2.0
    mass_a = sigma_rad * sigma_tan * sigma_tan
    return sigma_rad, sigma_tan, mass_a


@dataclass(frozen=True)
class AnisotropicRadialMedium:
    """Truncated cloak: ideal shell tensors on [R_trunc, 3], constants below.

    The shell functions satisfy sigma_rad * sigma_tan^2 = mass_a and are
    nonsingular for every R_trunc > 1; both bounds degenerate as R_trunc -> 1.
    """

    R_trunc: float
    core_sigma: float = 1.0
    core_a: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.R_trunc <= R_SHELL:
            raise DomainError(
                f"truncation radius must be in (1, 2], got {self.R_trunc}")
        if self.core_sigma <= 0.0 or self.core_a <= 0.0:
            raise DomainError("core constants must be positive")

    def _check(self, rho: float):
        if rho < self.R_trunc - _EDGE_TOL or rho > R_OUTER + _EDGE_TOL:
            raise DomainError(
                f"rho = {rho} outside the shell domain [{self.R_trunc}, 3]")

    def sigma_rad(self, rho: float) -> float:
        self._check(rho)
        return ideal_cloak_at(max(rho, self.R_trunc))[0]

    def sigma_tan(self, rho: float) -> float:
        self._check(rho)
        return ideal_cloak_at(max(rho, self.R_trunc))[1]

    def mass_a(self, rho: float) -> float:
        self._check(rho)
        return ideal_cloak_at(max(rho, self.R_trunc))[2]

    def anisotropy_ratio_at_truncation(self) -> float:
        """sigma_tan/sigma_rad at the truncation surface: (R/(R-1))^2."""
        if self.R_trunc >= R_SHELL:
            return 1.0
        sr, st, _ = ideal_cloak_at(self.R_trunc)
        return st / sr


def truncate(R: float, core_sigma: float = 1.0,
             core_a: float = 1.0) -> AnisotropicRadialMedium:
    """Truncate the ideal cloak at radius R in (1, 2], filling the core with
    the given constants.  R <= 1 is rejected: it would keep the singularity."""
    return AnisotropicRadialMedium(R, core_sigma, core_a)


class Shell(NamedTuple):
    r_in: float
    r_out: float
    sigma: float
    a: float


@dataclass(frozen=True)
class LayeredMedium:
    """Concentric isotropic shells covering [0, 3], free outermost."""

    shells: tuple[Shell, ...]

    def __post_init__(self):
        sh = self.shells
        if not sh:
            raise GeometryError("layered medium needs at least one shell")
        if abs(sh[0].r_in) > _EDGE_TOL:
            raise GeometryError("first shell must start at 0")
        if abs(sh[-1].r_out - R_OUTER) > _EDGE_TOL:
            raise GeometryError("last shell must end at 3")
        prev = sh[0].r_in
        for s in sh:
            if s.r_out - s.r_in <= 0.0:
                raise GeometryError(f"zero/negative thickness shell at {s.r_in}")
            if abs(s.r_in - prev) > _EDGE_TOL:
                raise GeometryError(f"gap before shell starting at {s.r_in}")
            if s.sigma <= 0.0 or s.a <= 0.0:
                raise DomainError("shell sigma and a must be positive")
            prev = s.r_out
        tail = sh[-1]
        if abs(tail.sigma - 1.0) > _EDGE_TOL or abs(tail.a - 1.0) > _EDGE_TOL:
            raise GeometryError("outermost shell must be free (sigma = a = 1)")

    def boundaries(self) -> list[float]:
        return [self.shells[0].r_in] + [s.r_out for s in self.shells]

    def thinnest_width(self) -> float:
        return min(s.r_out - s.r_in for s in self.shells)


def _cell_edges(lo: float, hi: float, n: int, grading: str,
                ratio: float) -> list[float]:
    if grading == "uniform":
        return [lo + (hi - lo) * i / n for i in range(n + 1)]
    if grading == "geometric":
        # widths grow by `ratio` moving outward from the truncation surface
        if ratio <= 0.0:
            raise DomainError("geometric grading needs ratio > 0")
        weights = [ratio ** i for i in range(n)]
        total = sum(weights)
        edges = [lo]
        acc = 0.0
        for w in weights:
            acc += w
            edges.append(lo + (hi - lo) * acc / total)
        edges[-1] = hi
        return edges
    raise DomainError(f"unknown grading {grading!r}")


def homogenize(medium: AnisotropicRadialMedium, n_layers: int,
               grading: str = "uniform", ratio: float = 1.15,
               phase_order: str = "low-first") -> LayeredMedium:
    """Replace the anisotropic shell with n_layers isotropic shells.

    Each grading cell is split into two equal-thickness phases with values
    v = m_t +- sqrt(m_t^2 - m_t*m_r), so the pair's arithmetic mean is the
    tangential eigenvalue m_t and its harmonic mean the radial one m_r
    (midpoint-sampled).  Both phases carry the cell's mass value.

    `phase_order` places the low ("low-first") or high conductivity phase on
    the inner side of every cell.
    """
    R = medium.R_trunc
    core = Shell(0.0, R, medium.core_sigma, medium.core_a)
    outer = Shell(R_SHELL, R_OUTER, 1.0, 1.0)
    if R >= R_SHELL - _EDGE_TOL:
        return LayeredMedium((Shell(0.0, R_SHELL, medium.core_sigma,
                                    medium.core_a), outer))
    if n_layers < 2 or n_layers % 2 != 0:
        raise DomainError(
            f"n_layers must be an even count >= 2, got {n_layers}")
    if phase_order not in ("low-first", "high-first"):
        raise DomainError(f"unknown phase order {phase_order!r}")

    edges = _cell_edges(R, R_SHELL, n_layers // 2, grading, ratio)

    shells = [core]
    for c0, c1 in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (c0 + c1)
        # mid lies in (R, 2), so 0 < m_r < 1/2 < m_t = 2
        m_r, m_t, a_cell = ideal_cloak_at(mid)
        disc = m_t * (m_t - m_r)
        root = math.sqrt(disc)
        v_hi, v_lo = m_t + root, m_t - root
        first, second = ((v_lo, v_hi) if phase_order == "low-first"
                         else (v_hi, v_lo))
        shells.append(Shell(c0, mid, first, a_cell))
        shells.append(Shell(mid, c1, second, a_cell))
    shells.append(outer)
    return LayeredMedium(tuple(shells))


class PotentialShell(NamedTuple):
    r_in: float
    r_out: float
    V: float


@dataclass(frozen=True)
class CorePotential:
    """Piecewise-constant potential supported in the unit ball.

    ``steps`` lists (radius, value): the potential equals value_i between the
    previous radius and radius_i, and vanishes beyond the last radius.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = 0.0
        for radius, value in self.steps:
            if radius <= prev:
                raise GeometryError("step radii must be strictly increasing")
            if radius > 1.0 + _EDGE_TOL:
                raise DomainError(f"step radius {radius} outside the unit ball")
            if not math.isfinite(value):
                raise DomainError("step values must be finite")
            prev = radius

    @classmethod
    def step(cls, value: float, radius: float = 0.9) -> "CorePotential":
        return cls(((radius, value),))

    def value_at(self, rho: float) -> float:
        for radius, value in self.steps:
            if rho <= radius + _EDGE_TOL:
                return value
        return 0.0

    def breakpoints(self) -> list[float]:
        return [radius for radius, _ in self.steps]


@dataclass(frozen=True)
class RadialPotential:
    """Piecewise-constant radial potential on [0, 3].

    ``interface_sigmas`` (one conductivity per shell) is present when the
    potential was built interface-matched: the solver then applies the gauge
    jump of sqrt(sigma) at every interface instead of plain continuity.
    """

    shells: tuple[PotentialShell, ...]
    core_W: Optional[CorePotential] = None
    interface_sigmas: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        sh = self.shells
        if not sh:
            raise GeometryError("potential needs at least one shell")
        if abs(sh[0].r_in) > _EDGE_TOL or abs(sh[-1].r_out - R_OUTER) > _EDGE_TOL:
            raise GeometryError("potential shells must cover [0, 3]")
        prev = 0.0
        for s in sh:
            if s.r_out - s.r_in <= 0.0:
                raise GeometryError(f"zero-thickness potential shell at {s.r_in}")
            if abs(s.r_in - prev) > _EDGE_TOL:
                raise GeometryError(f"gap before potential shell at {s.r_in}")
            if not math.isfinite(s.V):
                raise DomainError("potential values must be finite")
            prev = s.r_out
        if abs(sh[-1].V) > _EDGE_TOL:
            raise GeometryError("outermost potential shell must vanish")
        if self.interface_sigmas is not None:
            if len(self.interface_sigmas) != len(sh):
                raise GeometryError("one sigma per shell required")
            if any(s <= 0.0 for s in self.interface_sigmas):
                raise DomainError("interface sigmas must be positive")

    def boundaries(self) -> list[float]:
        return [self.shells[0].r_in] + [s.r_out for s in self.shells]


# --- mollification (C^2 bump of unit mass and width eta) ------------------

def _smoothed_profile(base, jumps, eta: float, rho: np.ndarray):
    """Smoothed sigma, sigma', sigma'' and a at the ascending radii rho.

    `base` is the innermost (sigma, a) and `jumps` the ascending rows
    (r_j, dsigma_j, da_j), one for each interface where sigma or a jumps.
    A row adds its full steps where r_j <= rho - eta, and the steps times
    the bump's integral where rho - eta < r_j < rho + eta; there dsigma
    times the bump and its slope also enter sigma' and sigma''.  Pass k
    adds every radius's k-th row inside its window, so each radius sums
    its rows in ascending order; a zero step adds an exact +-0.0.
    """
    locs, dsig, dmas = np.array(jumps, dtype=float).reshape(-1, 3).T
    lo = np.searchsorted(locs, rho - eta, side="right")
    hi = np.searchsorted(locs, rho + eta, side="left")
    s, a = (np.array(list(itertools.accumulate([b, *d.tolist()])),
                     dtype=float)[lo] for b, d in zip(base, (dsig, dmas)))
    s1 = np.zeros(rho.shape)
    s2 = np.zeros(rho.shape)
    for k in range(int(np.max(hi - lo, initial=0))):
        at = lo + k < hi
        j = lo[at] + k
        u = (rho[at] - locs[j]) / eta
        ds = dsig[j]
        # math.pow, not numpy's power: see the module docstring
        poly = (u - _map(lambda x: math.pow(x, 3), u)
                + 0.6 * _map(lambda x: math.pow(x, 5), u)
                - _map(lambda x: math.pow(x, 7), u) / 7.0 + 16.0 / 35.0)
        share = np.where(u <= -1.0, 0.0, np.where(
            u >= 1.0, 1.0, (35.0 / 32.0) * poly))
        s[at] += ds * share
        a[at] += dmas[j] * share
        inside = np.abs(u) < 1.0
        t = 1.0 - u * u
        s1[at] += ds * np.where(inside, (35.0 / 32.0) * t * t * t,
                                0.0) / eta
        s2[at] += ds * np.where(
            inside, (35.0 / 32.0) * (-6.0 * u) * t * t, 0.0) / eta ** 2
    return s, s1, s2, a


def _smoothing_setup(layers: LayeredMedium, eta, grid_step):
    if eta is None:
        eta = layers.thinnest_width() / 10.0
    if grid_step is None:
        grid_step = eta / 64.0
    if eta < grid_step:
        raise ResolutionError(
            f"mollifier width {eta} is below the grid step {grid_step}")
    jumps = [(left.r_out, right.sigma - left.sigma, right.a - left.a)
             for left, right in zip(layers.shells[:-1], layers.shells[1:])
             if right.sigma != left.sigma or right.a != left.a]
    # union of smoothing windows, clipped to the domain
    windows: list[list[float]] = []
    for r_j, _, _ in jumps:
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
    base = layers.shells[0]
    return (base.sigma, base.a), jumps, eta, edges


def mollify_medium(layers: LayeredMedium, eta: Optional[float] = None,
                   grid_step: Optional[float] = None) -> LayeredMedium:
    """Kernel-smoothed twin of `layers`, resampled as fine isotropic shells.

    Gauge-companion of `gauge_potential(..., mode="mollified")`: both use the
    same smoothing and the same grid.
    """
    base, jumps, eta, edges = _smoothing_setup(layers, eta, grid_step)
    e = np.array(edges)
    s, _, _, a = _smoothed_profile(base, jumps, eta, 0.5 * (e[:-1] + e[1:]))
    return LayeredMedium(tuple(map(Shell, edges, edges[1:], s.tolist(),
                                   a.tolist())))


_G4_NODES = (-0.8611363115940526, -0.3399810435848563,
             0.3399810435848563, 0.8611363115940526)
_G4_WEIGHTS = (0.3478548451374538, 0.6521451548625461,
               0.6521451548625461, 0.3478548451374538)


def gauge_potential(layers: LayeredMedium, E: float,
                    mode: str = "interface-matched",
                    eta: Optional[float] = None,
                    grid_step: Optional[float] = None) -> RadialPotential:
    """Liouville transform of the layered medium at energy E.

    interface-matched: per-shell constants V = E(1 - a/sigma); the sqrt(sigma)
    jump factors ride along in ``interface_sigmas`` and are applied by the
    solver, so the transform is exact.

    mollified: sigma and a are smoothed by a C^2 bump of width eta and

        V = (sqrt(sigma))'' / sqrt(sigma) + (2/rho)(sqrt(sigma))'/sqrt(sigma)
            + E (1 - a/sigma)

    is returned as a piecewise-constant sampling on a fine grid.  Each grid
    step of width ``grid_step`` emits two half-step shells whose values match
    the zeroth and first moments of V over the step; plain midpoint sampling
    of the kernel spikes would need orders of magnitude more shells for the
    same solver agreement.
    """
    if mode == "interface-matched":
        shells = tuple(PotentialShell(s.r_in, s.r_out,
                                      E * (1.0 - s.a / s.sigma))
                       for s in layers.shells)
        sigmas = tuple(s.sigma for s in layers.shells)
        return RadialPotential(shells, interface_sigmas=sigmas)
    if mode != "mollified":
        raise DomainError(f"unknown gauge mode {mode!r}")

    base, jumps, eta, edges = _smoothing_setup(layers, eta, grid_step)
    e = np.array(edges)
    lo, hi = e[:-1], e[1:]
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    step = hi - lo
    # the 4 Gauss nodes of every step, ascending: row i is step i
    rho = (c[:, None] + half[:, None] * np.array(_G4_NODES)).ravel()
    s, d1, d2, m = _smoothed_profile(base, jumps, eta, rho)
    bad = np.flatnonzero(s <= 0.0)
    if bad.size:
        raise DomainError(
            f"smoothed sigma nonpositive at rho = {float(rho[bad[0]])}")
    v = (d2 / (2.0 * s) - d1 * d1 / (4.0 * s * s) + d1 / (rho * s)
         + E * (1.0 - m / s)).reshape(-1, 4)
    i0 = i1 = 0.0
    for k, (t, wt) in enumerate(zip(_G4_NODES, _G4_WEIGHTS)):
        i0 = i0 + wt * v[:, k] * half
        i1 = i1 + wt * v[:, k] * (half * t) * half
    del rho, s, d1, d2, m, v  # free the node arrays before the shells exist
    v_in = i0 / step - 4.0 * i1 / (step * step)
    v_out = i0 / step + 4.0 * i1 / (step * step)
    shells = []
    for r_in, r_mid, r_out, V_in, V_out in zip(
            edges, c.tolist(), edges[1:], v_in.tolist(), v_out.tolist()):
        shells.append(PotentialShell(r_in, r_mid, V_in))
        shells.append(PotentialShell(r_mid, r_out, V_out))
    # the tail segment is exactly free space; pin the stored zeros
    for idx in (-2, -1):
        tail = shells[idx]
        if abs(tail.V) < 1e-12:
            shells[idx] = PotentialShell(tail.r_in, tail.r_out, 0.0)
    return RadialPotential(tuple(shells))


def attach_core(potential: RadialPotential, W: CorePotential) -> RadialPotential:
    """Add the cloaked core potential W on top of a synthesized potential.

    Shells are split at W's breakpoints; sigma bookkeeping (if any) is carried
    through unchanged since splitting introduces no conductivity jump.
    """
    cuts = [b for b in W.breakpoints() if b < R_OUTER]
    shells = []
    sigmas = [] if potential.interface_sigmas is not None else None
    for idx, s in enumerate(potential.shells):
        pieces = [s.r_in]
        for c in cuts:
            if s.r_in + _EDGE_TOL < c < s.r_out - _EDGE_TOL:
                pieces.append(c)
        pieces.append(s.r_out)
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            mid = 0.5 * (lo + hi)
            shells.append(PotentialShell(lo, hi, s.V + W.value_at(mid)))
            if sigmas is not None:
                sigmas.append(potential.interface_sigmas[idx])
    return RadialPotential(tuple(shells), core_W=W,
                           interface_sigmas=tuple(sigmas) if sigmas else None)
