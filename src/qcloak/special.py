"""Spherical Bessel/Neumann functions and their modified (evanescent) variants.

All channel propagation reduces to evaluating the fundamental radial pairs

    oscillatory   (k^2 > 0):  j_l(x), y_l(x)          with x = k*rho
    evanescent    (k^2 < 0):  i_l(x)e^-x, k_l(x)e^+x  with x = kappa*rho

The scaled evanescent pair keeps every intermediate bounded; exponents are
tracked separately by the propagation kernels.  j_l uses downward (Miller)
recurrence below the turning point x < l where upward recurrence cancels.
`spherical_bessel` returns the oscillatory pair and its derivatives; the
kernels take the pairs from `_sph_jy_pair` and `_sph_ik_pair_scaled`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError

# Highest order guaranteed not to overflow the y_l upward recurrence for the
# argument ranges the solvers produce (x >= 1e-6).
L_MAX_SUPPORTED = 60

_RENORM = 1e250


def _sph_jy_pair(l: int, x: float) -> tuple[float, float, float, float]:
    """Return (j_{l-1}, j_l, y_{l-1}, y_l) at x > 0.

    Conventions for l = 0: j_{-1} = cos(x)/x, y_{-1} = sin(x)/x.
    """
    sx = math.sin(x)
    cx = math.cos(x)
    j0 = sx / x
    y0 = -cx / x
    if l == 0:
        return cx / x, j0, sx / x, y0
    j1 = sx / (x * x) - cx / x
    y1 = -cx / (x * x) - sx / x

    # y_l: upward recurrence is stable for all x.
    ym, y = y0, y1
    for n in range(1, l):
        ym, y = y, (2 * n + 1) / x * y - ym
    if l == 1:
        ym, y = y0, y1

    # j_l: upward when x dominates l, else downward Miller normalized by j0.
    if x >= l + 1:
        jm, j = j0, j1
        for n in range(1, l):
            jm, j = j, (2 * n + 1) / x * j - jm
        if l == 1:
            jm, j = j0, j1
        return jm, j, ym, y

    n_start = l + 18 + int(2.0 * math.sqrt(l))
    fp = 0.0
    f = 1e-40
    target = target_m = 0.0
    for n in range(n_start, 0, -1):
        fm = (2 * n + 1) / x * f - fp
        fp, f = f, fm
        if n - 1 == l:
            target = f        # j_l (unnormalized)
        if n == l:
            target_m = f      # j_{l-1}
        if abs(f) > _RENORM:
            f /= _RENORM
            fp /= _RENORM
            target /= _RENORM
            target_m /= _RENORM
    # f now holds the unnormalized j_0 candidate
    scale = j0 / f
    return target_m * scale, target * scale, ym, y


def _khat_closed(n: int, x: float) -> float:
    """e^x k_n(x) by its terminating (all-positive) series."""
    term = 1.0
    acc = 1.0
    for m in range(n):
        term *= (n - m) * (n + m + 1) / (2.0 * x * (m + 1))
        acc += term
    return math.pi / (2.0 * x) * acc


def _ihat_closed(n: int, x: float) -> float:
    """e^-x i_n(x) by its terminating series; well conditioned for
    x >= n(n+1) where the alternating terms decrease."""
    term_p = term_q = 1.0
    p = q = 1.0
    for m in range(n):
        c = (n - m) * (n + m + 1) / (2.0 * x * (m + 1))
        term_p *= -c
        term_q *= c
        p += term_p
        q += term_q
    sign = 1.0 if (n + 1) % 2 == 0 else -1.0
    return (p + sign * math.exp(-2.0 * x) * q) / (2.0 * x)


def _sph_ik_pair_scaled(l: int, x: float) -> tuple[float, float, float, float]:
    """Return (i_{l-1}, i_l, k_{l-1}, k_l) scaled by e^-x resp. e^+x, at x > 0.

    Conventions for l = 0: i_{-1} = cosh(x)/x, k_{-1} = k_0.
    """
    i0 = -math.expm1(-2.0 * x) / (2.0 * x)      # e^-x sinh(x)/x
    im1 = (1.0 + math.exp(-2.0 * x)) / (2.0 * x)  # e^-x cosh(x)/x
    k0 = math.pi / (2.0 * x)
    if l == 0:
        return im1, i0, k0, k0

    km = _khat_closed(l - 1, x)
    k = _khat_closed(l, x)

    if x >= l * (l + 1):
        return _ihat_closed(l - 1, x), _ihat_closed(l, x), km, k

    # i_l: downward Miller (i is minimal in order), normalized by scaled i_0.
    # The start order must top both l and x for the minimal solution to
    # separate.
    top = max(l, x)
    n_start = int(top) + 20 + int(2.0 * math.sqrt(top))
    fp = 0.0
    f = 1e-40
    target = target_m = 0.0
    for n in range(n_start, 0, -1):
        fm = (2 * n + 1) / x * f + fp
        fp, f = f, fm
        if n - 1 == l:
            target = f        # i_l (unnormalized)
        if n == l:
            target_m = f      # i_{l-1}
        if abs(f) > _RENORM:
            f /= _RENORM
            fp /= _RENORM
            target /= _RENORM
            target_m /= _RENORM
    scale = i0 / f
    return target_m * scale, target * scale, km, k


@dataclass(frozen=True)
class SpecialFunctionValue:
    """Spherical Bessel data j_l, y_l and their derivatives at one (l, x)."""

    l: int
    x: float
    j: float
    y: float
    jp: float
    yp: float

    def wronskian_defect(self) -> float:
        """Relative departure of j*y' - j'*y from 1/x^2."""
        w = self.j * self.yp - self.jp * self.y
        return abs(w * self.x * self.x - 1.0)


def spherical_bessel(l: int, x: float) -> SpecialFunctionValue:
    """Evaluate j_l, y_l and their derivatives at x.

    Raises DomainError for x <= 0 and ConfigurationError for unsupported l.
    """
    if x <= 0.0:
        raise DomainError(f"spherical_bessel requires x > 0, got {x}")
    if not 0 <= l <= L_MAX_SUPPORTED:
        raise ConfigurationError(
            f"order l={l} outside supported range [0, {L_MAX_SUPPORTED}]")
    jm, j, ym, y = _sph_jy_pair(l, x)
    if l == 0:
        # j_{-1} - j_0/x cancels catastrophically at small x: use -j_1,
        # with the series below the cancellation threshold of j_1 itself
        if x < 0.05:
            x2 = x * x
            jp = -(x / 3.0) * (1.0 - x2 / 10.0 + x2 * x2 / 280.0)
        else:
            jp = -(math.sin(x) / (x * x) - math.cos(x) / x)
    else:
        jp = jm - (l + 1) / x * j
    yp = ym - (l + 1) / x * y
    return SpecialFunctionValue(l, x, j, y, jp, yp)
