"""Eigenvalue location, classification, and almost-trapped-state detection.

Dirichlet eigenvalues of the full ball problem are roots in E of the
boundary value of the regular channel solution; interior ("-") levels are
core-concentrated, exterior ("+") levels live in the shell.  Driving the
system with unit boundary data and scanning E exposes the simple-pole
structure of the eigenfunction expansion: the core response grows like
1/|E - E_j| near an isolated level, which is fitted and reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError
from .media import CorePotential, LayeredMedium, RadialPotential
from .propagate import (
    AcousticSystem,
    ChannelSolution,
    propagate_acoustic,
    propagate_schrodinger,
    solve_core_channel,
)
from .special import spherical_bessel

System = Union[AcousticSystem, LayeredMedium, RadialPotential]

#: concentration band reported as "mixed" between interior and exterior
MIXED_BAND = (0.4, 0.6)


def solve_channel(system: System, l: int, E: float, want_norms: bool = True,
                  sample_r=None) -> ChannelSolution:
    """Dispatch to the acoustic or potential solver by system type."""
    if isinstance(system, RadialPotential):
        return propagate_schrodinger(system, l, E, want_norms=want_norms,
                                     sample_r=sample_r)
    return propagate_acoustic(system, l, E, want_norms=want_norms,
                              sample_r=sample_r)


@dataclass(frozen=True)
class SpectralPoint:
    """One located eigenvalue with its core-mass classification."""

    E: float
    l: int
    kind: str                  # 'interior' | 'exterior' | 'mixed'
    concentration: float       # core L2 mass / total
    boundary_condition: str    # 'dirichlet-b3' | 'neumann-b1'


@dataclass(frozen=True)
class ResonanceReport:
    """Outcome of a driven energy scan in one channel."""

    l: int
    E_peak: float
    amplification: float
    fitted_pole: Optional[SpectralPoint]
    scaling_exponent: Optional[float]
    E_grid: tuple
    amplification_grid: tuple


def classify(concentration: float,
             band: tuple[float, float] = MIXED_BAND) -> str:
    if concentration >= band[1]:
        return "interior"
    if concentration <= band[0]:
        return "exterior"
    return "mixed"


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


def dirichlet_eigenvalues(system: System, l: int,
                          window: tuple[float, float],
                          n_scan: Optional[int] = None,
                          xtol: float = 1e-10) -> list[SpectralPoint]:
    """Roots of u_l(3; E) = 0 in the window, bisected to xtol in E and
    annotated with the mode's core concentration.

    An empty list means the window contains no sign change (not an error).
    """
    lo, hi = window
    if not hi > lo:
        raise DomainError("window must be a nonempty interval")
    n = n_scan or 2001   # default scan step: window/2000

    def f(E):
        return solve_channel(system, l, E, want_norms=False).dirichlet_value

    points = []
    for a, b in _sign_scan(f, lo, hi, n):
        root = brentq(f, a, b, xtol=xtol)
        sol = solve_channel(system, l, root, want_norms=True)
        conc = sol.concentration
        points.append(SpectralPoint(root, l, classify(conc), conc,
                                    "dirichlet-b3"))
    return points


def neumann_core_eigenvalues(W: CorePotential, l: int,
                             window: tuple[float, float],
                             n_scan: int = 2000,
                             xtol: float = 1e-10) -> list[SpectralPoint]:
    """Neumann eigenvalues of -lap + W on the unit ball: roots of
    psi_l'(1; E) for the regular solution."""
    lo, hi = window

    def f(E):
        return solve_core_channel(W, l, E).neumann_value

    points = []
    for a, b in _sign_scan(f, lo, hi, n_scan):
        root = brentq(f, a, b, xtol=xtol)
        sol = solve_core_channel(W, l, root, want_norms=True)
        points.append(SpectralPoint(root, l, "interior", sol.concentration,
                                    "neumann-b1"))
    return points


def free_dirichlet_eigenvalues(window: tuple[float, float],
                               l_max: int, radius: float = 3.0) -> list:
    """Dirichlet eigenvalues of the free ball: E with j_l(radius*sqrt(E)) = 0.

    Returns (E, l) pairs within the window, used by the refusal logic.
    Scans in k where the zeros are near-uniformly spaced.
    """
    lo, hi = window
    k_lo, k_hi = radius * math.sqrt(max(lo, 1e-12)), radius * math.sqrt(hi)
    pairs = []
    for l in range(l_max + 1):
        def f(x):
            return spherical_bessel(l, x).j

        n = max(64, int(8.0 * (k_hi - k_lo) / math.pi))
        for a, b in _sign_scan(f, k_lo, k_hi, n):
            x0 = brentq(f, a, b, xtol=1e-13)
            pairs.append(((x0 / radius) ** 2, l))
    return sorted(p for p in pairs if lo <= p[0] <= hi)


def interior_trap_energies(W: Optional[CorePotential], core_sigma: float,
                           core_a: float, window: tuple[float, float],
                           l_max: int) -> list:
    """Energies where the cloaked core supports a trapped state.

    The gauge-transformed interior operator is -lap + W at energy
    E*a_core/sigma_core, so a Neumann level nu maps to E = nu*sigma/a.
    Returns (E, l) pairs inside the window.
    """
    ratio = core_a / core_sigma
    Wc = W if W is not None else CorePotential(((1.0, 0.0),))
    lo, hi = window
    pairs = []
    for l in range(l_max + 1):
        for pt in neumann_core_eigenvalues(Wc, l,
                                           (lo * ratio, hi * ratio)):
            pairs.append((pt.E / ratio, l))
    return sorted(pairs)


def _amplification(system: System, l: int, E: float) -> float:
    """L2 mass of the core response per unit boundary amplitude u(3) = 1."""
    sol = solve_channel(system, l, E, want_norms=True)
    return math.exp(0.5 * min(sol.log_norm_core, 1380.0))


def fit_pole_exponent(system: System, l: int, E_pole: float,
                      offsets: Sequence[float]) -> float:
    """Least-squares slope of log(amplification) vs log|E - E_pole|."""
    los = np.asarray(list(offsets), dtype=float)
    amps = [0.5 * (_amplification(system, l, E_pole + d)
                   + _amplification(system, l, E_pole - d)) for d in los]
    slope = np.polyfit(np.log(los), np.log(amps), 1)[0]
    return float(slope)


def resonance_scan(system: System, l: int, E_range: tuple[float, float],
                   n_scan: int = 601, pole_offset: float = 1e-8,
                   amp_threshold: float = 100.0) -> ResonanceReport:
    """Drive the system with unit Dirichlet boundary data in channel l and
    scan the window for core amplification.

    Poles (Dirichlet eigenvalues of the full problem) inside the window are
    located by root-finding and the amplification is evaluated a distance
    `pole_offset` from the refined pole, so narrow interior resonances are
    certified rather than sampled by luck.  Without a pole above
    `amp_threshold` the report carries the flat grid response and no pole.
    """
    lo, hi = E_range
    grid = np.linspace(lo, hi, n_scan)
    amps = np.array([_amplification(system, l, E) for E in grid])
    poles = dirichlet_eigenvalues(system, l, E_range,
                                  n_scan=max(n_scan, 401), xtol=1e-12)

    best = None
    for pt in poles:
        amp = _amplification(system, l, pt.E + pole_offset)
        if best is None or amp > best[1]:
            best = (pt, amp)

    i_max = int(np.argmax(amps))
    if best is not None and best[1] >= amp_threshold:
        pt, amp = best
        span = hi - lo
        others = [abs(p.E - pt.E) for p in poles if p is not pt]
        d_max = min([span / 4.0] + [d / 10.0 for d in others]
                    + [abs(pt.E - lo) / 2.0 or span, abs(hi - pt.E) / 2.0 or span])
        offsets = np.geomspace(max(1e-6, pole_offset * 10.0),
                               max(d_max, 1e-5), 7)
        exponent = fit_pole_exponent(system, l, pt.E, offsets)
        return ResonanceReport(l, pt.E, amp, pt, exponent,
                               tuple(grid), tuple(amps))
    return ResonanceReport(l, float(grid[i_max]), float(amps[i_max]),
                           None, None, tuple(grid), tuple(amps))
