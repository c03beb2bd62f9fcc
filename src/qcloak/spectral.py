"""Eigenvalue location, classification, and almost-trapped-state detection.

Dirichlet eigenvalues of the full ball problem are roots in E of the
boundary value of the regular channel solution; interior ("-") levels are
core-concentrated, exterior ("+") levels live in the shell.  Driving the
system with unit boundary data and scanning E exposes the simple-pole
structure of the eigenfunction expansion: the core response grows like
1/|E - E_j| near an isolated level, which is fitted and reported.

Dirichlet levels are located by their Sturm count: the march's
`ChannelSolution.zeros` is the number of levels below E (oscillation
theorem), so bisecting the count between the window ends gives one bracket
per level whatever their spacing, and `brentq` polishes each to
`LEVEL_XTOL`.  `brentq` is Brent's method, step for step scipy's C
routine at its default tolerances, so the roots are scipy's to the bit
without scipy at run time.  The Neumann-core search (NEUMANN_SCAN points,
polished to NEUMANN_XTOL) and each channel of the free-ball search are one
`_roots` call: sign-change brackets from a scan, each polished by
`brentq`; a scan end whose value is below 1e-9 of the scan's largest
warns.  The free-ball scan of channel l covers only x = R_OUTER*sqrt(E) >=
l + 1/2, where j_l can vanish, in steps below pi/2, half the least
spacing of its zeros.  Every bracket carries the function values its
search already computed at its ends, so `brentq` solves neither end again
(`_polish`).
The driven core response that certifies a pole reads only the core mass,
so its solves skip the norm quadrature beyond the core (`CORE_ONLY`).
Concentrations between the `MIXED_BAND` limits classify a level as mixed;
`resonance_scan` evaluates a pole's amplification `POLE_OFFSET` from it and
reports poles above `AMP_THRESHOLD`.  Before any solve, every search
refuses a window that is not finite with lo < hi (`DomainError`), and the
two that take `l_max` refuse one that is not an integer in
[0, L_MAX_SUPPORTED] (`ConfigurationError`, the check of
`propagate.checked_l_max`).  `resonance_scan` refuses a scan count that
is not an integer >= 1, and the pole fit fewer than two distinct offsets
(`DomainError`).
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .media import R_OUTER, CorePotential
from .propagate import CORE_ONLY, System, _checked_channel_cap, solve_channel
from .special import _sph_jy_pair

#: concentration band reported as "mixed" between interior and exterior
MIXED_BAND = (0.4, 0.6)
#: distance from a located pole at which its amplification is evaluated
POLE_OFFSET = 1e-8
#: amplification a located pole must reach to be reported
AMP_THRESHOLD = 100.0
#: brentq tolerance in E of every located Dirichlet level
LEVEL_XTOL = 1e-12
#: |v(3)| of the unit end state below which a window end warns as a level
ENDPOINT_TOL = 1e-9
#: scan points and brentq tolerance in E of the Neumann-core search
NEUMANN_SCAN = 2000
NEUMANN_XTOL = 1e-10
#: relative tolerance and step limit of `brentq`, scipy's defaults
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 100


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


def classify(concentration: float) -> str:
    if concentration >= MIXED_BAND[1]:
        return "interior"
    if concentration <= MIXED_BAND[0]:
        return "exterior"
    return "mixed"


def _checked_window(window) -> tuple:
    """(lo, hi) of a search window; DomainError unless both ends are finite
    and lo < hi."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(
            f"window must be a finite interval lo < hi, got {window!r}")
    return lo, hi


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), step for step scipy's
    C `brentq` at its defaults rtol = BRENT_RTOL, maxiter = BRENT_MAXITER,
    so it returns scipy's root to the bit.  As scipy's wrapper does, it
    takes a, b, xtol and every value of f as floats and raises ValueError
    for a NaN value.  ValueError too when f(a) and f(b) have the same sign,
    RuntimeError when BRENT_MAXITER steps do not converge."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:.6g} is NaN")
        return fx

    xpre, xcur, xtol = float(a), float(b), float(xtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to an inf or a NaN, which the test below refuses
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq failed to converge after {BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


def _sign_scan(f, lo: float, hi: float, n: int, refine: int = 2):
    """Sign-change brackets (a, f(a), b, f(b)) of f on [lo, hi]; clustered
    changes trigger a local 10x rescan up to `refine` levels.  An end whose
    |f| is below 1e-9 of the grid's largest warns."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([f(x) for x in xs])
    if min(abs(vals[0]), abs(vals[-1])) < 1e-9 * np.max(np.abs(vals)):
        warnings.warn("root sits on a scan endpoint; extend the window")
    flips = np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))
    brackets = []
    clustered = set(flips) & set(flips + 1) | set(flips) & set(flips - 1)
    for i in flips:
        if i in clustered and refine > 0:
            brackets.extend(_sign_scan(f, xs[i], xs[i + 1], 11,
                                       refine=refine - 1))
        else:
            brackets.append((xs[i], vals[i], xs[i + 1], vals[i + 1]))
    return brackets


def _polish(f, a, fa, b, fb, xtol: float) -> float:
    """brentq root of f in [a, b] given fa = f(a) and fb = f(b): brentq's
    calls at exactly a and b are answered from those values."""
    def known_ends(x):
        if x == a:
            return fa
        if x == b:
            return fb
        return f(x)

    return brentq(known_ends, a, b, xtol=xtol)


def _roots(f, lo: float, hi: float, n: int, xtol: float) -> list:
    """Roots of f on [lo, hi]: `_sign_scan` brackets on an n-point grid,
    each polished by brentq to xtol."""
    return [_polish(f, *bracket, xtol) for bracket in _sign_scan(f, lo, hi, n)]


def _level_brackets(solve, lo, s_lo, hi, s_hi) -> list:
    """(a, s_a, b, s_b, n): subintervals of [lo, hi] holding n > 0 Dirichlet
    levels with their end solves, bisected on the Sturm count
    `solve(E).zeros` until n == 1 or the interval is no wider than
    LEVEL_XTOL.  s_lo, s_hi are the window's end solves."""
    out = []
    stack = [(lo, s_lo, hi, s_hi)]
    while stack:
        a, sa, b, sb = stack.pop()
        n = sb.zeros - sa.zeros
        if n <= 0:
            continue
        m = 0.5 * (a + b)
        if n == 1 or b - a <= LEVEL_XTOL or not a < m < b:
            out.append((a, sa, b, sb, n))
            continue
        sm = solve(m)
        # the lower half goes on top, so brackets come out ascending
        stack.append((m, sm, b, sb))
        stack.append((a, sa, m, sm))
    return out


def dirichlet_eigenvalues(system: System, l: int,
                          window: tuple[float, float],
                          n_scan: Optional[int] = None) -> list[SpectralPoint]:
    """Roots of u_l(3; E) = 0 in the window, located to LEVEL_XTOL in E and
    annotated with the mode's core concentration.

    The Sturm count `ChannelSolution.zeros` (the number of levels below E)
    is taken at both window ends and bisected until each bracket holds one
    level, which `brentq` then polishes, so every level in the window is
    found however close it sits to another.  Levels closer together than
    LEVEL_XTOL cannot be told apart: such a cluster of n levels warns and
    is reported as n points at its bracket's midpoint.  A window end within
    ENDPOINT_TOL of a level (|v(3)| of the unit end state) warns too.
    `n_scan` is accepted for callers of the former grid scan and unused.

    An empty list means the window contains no level (not an error).
    """
    lo, hi = _checked_window(window)

    def solve(E):
        return solve_channel(system, l, E, want_norms=False)

    def f(E):
        return solve(E).dirichlet_value

    s_lo, s_hi = solve(lo), solve(hi)
    if min(abs(s.dirichlet_value) for s in (s_lo, s_hi)) < ENDPOINT_TOL:
        warnings.warn("root sits on a window endpoint; extend the window")
    points = []
    for a, sa, b, sb, n in _level_brackets(solve, lo, s_lo, hi, s_hi):
        if n == 1:
            root = _polish(f, a, sa.dirichlet_value, b, sb.dirichlet_value,
                           LEVEL_XTOL)
        else:
            root = 0.5 * (a + b)
            warnings.warn(f"{n} levels closer than LEVEL_XTOL near "
                          f"E = {root!r}; each is reported there")
        conc = solve_channel(system, l, root).concentration
        points.extend([SpectralPoint(root, l, classify(conc), conc,
                                     "dirichlet-b3")] * n)
    return points


def neumann_core_eigenvalues(W: CorePotential, l: int,
                             window: tuple[float, float]
                             ) -> list[SpectralPoint]:
    """Neumann eigenvalues of -lap + W on the unit ball: roots of
    psi_l'(1; E) for the regular solution, bracketed on a NEUMANN_SCAN-point
    grid and polished to NEUMANN_XTOL.  The core is the whole domain, so
    every level has concentration 1."""
    lo, hi = _checked_window(window)

    def f(E):
        return solve_channel(W, l, E, want_norms=False).neumann_value

    return [SpectralPoint(root, l, "interior", 1.0, "neumann-b1")
            for root in _roots(f, lo, hi, NEUMANN_SCAN, NEUMANN_XTOL)]


def free_dirichlet_eigenvalues(window: tuple[float, float],
                               l_max: int) -> list:
    """Dirichlet eigenvalues of the free outer ball: E with
    j_l(R_OUTER*sqrt(E)) = 0.

    Returns (E, l) pairs within the window, used by the refusal logic.
    Channel l is scanned in x = R_OUTER*sqrt(E) only from l + 1/2 on, as
    j_l has no zero below its order (DLMF 10.21(i)), so no scan ends at
    x = 0, where j_l vanishes to order l without a level.  x j_l solves
    v'' + (1 - l(l+1)/x^2) v = 0, so by Sturm comparison with sin x its
    zeros lie at least pi apart, and a grid step below pi/2 brackets each
    alone.  The scan reads j_l alone (`_sph_jy_pair`).  A window with
    hi <= 0 holds no level.
    """
    lo, hi = _checked_window(window)
    _checked_channel_cap(l_max)
    if hi <= 0.0:
        return []
    x_lo, x_hi = R_OUTER * math.sqrt(max(lo, 0.0)), R_OUTER * math.sqrt(hi)
    pairs = []
    for l in range(l_max + 1):
        a = max(x_lo, l + 0.5)
        if a >= x_hi:
            continue

        def f(x):
            return _sph_jy_pair(l, float(x))[1]

        n = 2 + int(2.0 * (x_hi - a) / math.pi)
        pairs.extend(((x0 / R_OUTER) ** 2, l)
                     for x0 in _roots(f, a, x_hi, n, 1e-13))
    return sorted(p for p in pairs if lo <= p[0] <= hi)


def interior_trap_energies(W: Optional[CorePotential], core_sigma: float,
                           core_a: float, window: tuple[float, float],
                           l_max: int) -> list:
    """Energies where the cloaked core supports a trapped state.

    The gauge-transformed interior operator is -lap + W at energy
    E*a_core/sigma_core, so a Neumann level nu maps to E = nu*sigma/a.
    Returns (E, l) pairs inside the window.  Core constants that are not
    finite and > 0 raise DomainError.
    """
    lo, hi = _checked_window(window)
    _checked_channel_cap(l_max)
    if not (0.0 < core_sigma < math.inf and 0.0 < core_a < math.inf):
        raise DomainError(
            f"core constants must be finite and > 0, got sigma = "
            f"{core_sigma}, a = {core_a}")
    ratio = core_a / core_sigma
    Wc = W if W is not None else CorePotential(((1.0, 0.0),))
    pairs = []
    for l in range(l_max + 1):
        for pt in neumann_core_eigenvalues(Wc, l,
                                           (lo * ratio, hi * ratio)):
            pairs.append((pt.E / ratio, l))
    return sorted(pairs)


def _amplification(system: System, l: int, E: float) -> float:
    """L2 mass of the core response per unit boundary amplitude u(3) = 1;
    the solve integrates the core mass only (`CORE_ONLY`)."""
    sol = solve_channel(system, l, E, want_norms=CORE_ONLY)
    return math.exp(0.5 * min(sol.log_norm_core, 1380.0))


def fit_pole_exponent(system: System, l: int, E_pole: float,
                      offsets: Sequence[float]) -> float:
    """Least-squares slope of log(amplification) vs log|E - E_pole|.
    Fewer than two distinct offsets, or offsets that are not finite and
    > 0, raise DomainError."""
    los = np.asarray(list(offsets), dtype=float)
    if not np.all((los > 0.0) & (los < math.inf)):
        raise DomainError(f"offsets must be finite and > 0, got {offsets!r}")
    if np.unique(los).size < 2:
        raise DomainError(
            f"offsets: a slope needs two distinct offsets, got {offsets!r}")
    amps = [0.5 * (_amplification(system, l, E_pole + d)
                   + _amplification(system, l, E_pole - d)) for d in los]
    slope = np.polyfit(np.log(los), np.log(amps), 1)[0]
    return float(slope)


def resonance_scan(system: System, l: int, E_range: tuple[float, float],
                   n_scan: int = 601) -> ResonanceReport:
    """Drive the system with unit Dirichlet boundary data in channel l and
    scan the window for core amplification.

    Poles (Dirichlet eigenvalues of the full problem) inside the window are
    located by root-finding and the amplification is evaluated a distance
    POLE_OFFSET from the refined pole, so narrow interior resonances are
    certified rather than sampled by luck.  Without a pole above
    AMP_THRESHOLD the report carries the flat grid response and no pole.
    """
    lo, hi = _checked_window(E_range)
    if not isinstance(n_scan, numbers.Integral) or n_scan < 1:
        raise DomainError(
            f"n_scan: need an integer count >= 1, got {n_scan!r}")
    grid = np.linspace(lo, hi, n_scan)
    amps = np.array([_amplification(system, l, E) for E in grid])
    poles = dirichlet_eigenvalues(system, l, E_range)

    best = None
    for pt in poles:
        amp = _amplification(system, l, pt.E + POLE_OFFSET)
        if best is None or amp > best[1]:
            best = (pt, amp)

    i_max = int(np.argmax(amps))
    if best is not None and best[1] >= AMP_THRESHOLD:
        pt, amp = best
        span = hi - lo
        others = [abs(p.E - pt.E) for p in poles if p is not pt]
        d_max = min([span / 4.0] + [d / 10.0 for d in others]
                    + [abs(pt.E - lo) / 2.0 or span, abs(hi - pt.E) / 2.0 or span])
        offsets = np.geomspace(max(1e-6, POLE_OFFSET * 10.0),
                               max(d_max, 1e-5), 7)
        exponent = fit_pole_exponent(system, l, pt.E, offsets)
        return ResonanceReport(l, pt.E, amp, pt, exponent,
                               tuple(grid), tuple(amps))
    return ResonanceReport(l, float(grid[i_max]), float(amps[i_max]),
                           None, None, tuple(grid), tuple(amps))
