"""Spherical Bessel/Neumann functions and their modified (evanescent) variants.

All channel propagation reduces to evaluating the fundamental radial pairs

    oscillatory   (k^2 > 0):  j_l(x), y_l(x)          with x = k*rho
    evanescent    (k^2 < 0):  i_l(x)e^-x, k_l(x)e^+x  with x = kappa*rho

The scaled evanescent pair keeps every intermediate bounded; exponents are
tracked separately by the propagation kernels.  j_l uses downward (Miller)
recurrence below the turning point x < l where upward recurrence cancels.
`spherical_bessel` returns the oscillatory pair and its derivatives; the
kernels take the pairs from `_sph_jy_pair` and `_sph_ik_pair_scaled`.
Their array twins `_sph_jy_pair_array` and `_sph_ik_pair_scaled_array`
evaluate one order at many arguments with the same operations in the same
order on every element, so each result equals the scalar one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    # j_l: upward when x dominates l, else downward Miller normalized by j0.
    if x >= l + 1:
        jm, j = j0, j1
        for n in range(1, l):
            jm, j = j, (2 * n + 1) / x * j - jm
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


def _ihat_closed(n: int, x: float, e2: float) -> float:
    """e^-x i_n(x) by its terminating series, given e2 = e^(-2x); well
    conditioned for x >= n(n+1) where the alternating terms decrease."""
    term_p = term_q = 1.0
    p = q = 1.0
    for m in range(n):
        c = (n - m) * (n + m + 1) / (2.0 * x * (m + 1))
        term_p *= -c
        term_q *= c
        p += term_p
        q += term_q
    sign = 1.0 if (n + 1) % 2 == 0 else -1.0
    return (p + sign * e2 * q) / (2.0 * x)


def _sph_ik_pair_scaled(l: int, x: float) -> tuple[float, float, float, float]:
    """Return (i_{l-1}, i_l, k_{l-1}, k_l) scaled by e^-x resp. e^+x, at x > 0.

    Conventions for l = 0: i_{-1} = cosh(x)/x, k_{-1} = k_0.
    """
    e2 = math.exp(-2.0 * x)
    i0 = -math.expm1(-2.0 * x) / (2.0 * x)      # e^-x sinh(x)/x
    im1 = (1.0 + e2) / (2.0 * x)                 # e^-x cosh(x)/x
    k0 = math.pi / (2.0 * x)
    if l == 0:
        return im1, i0, k0, k0

    km = _khat_closed(l - 1, x)
    k = _khat_closed(l, x)

    if x >= l * (l + 1):
        return _ihat_closed(l - 1, x, e2), _ihat_closed(l, x, e2), km, k

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


# --- array twins ------------------------------------------------------------
# One order at many arguments: the scalar operations in the scalar order on
# every element, with each scalar branch taken per element, so each result
# equals the scalar one bit for bit.  sin, cos and exp stay `math` calls per
# element because numpy's may round differently.  Python float arithmetic
# overflows to inf without a warning, and so do these.  `_khat_closed` and
# `_ihat_closed` do not branch on x, so they serve scalars and arrays alike.

def _map(f, x: np.ndarray) -> np.ndarray:
    """f, a scalar function, on every element of x."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _miller_array(l: int, x: np.ndarray, n_start, minus: bool):
    """Unnormalized (f_{l-1}, f_l, f_0) of the downward recurrence
    f_{n-1} = (2n+1)/x f_n - f_{n+1} (minus, j_l) or + f_{n+1} (scaled
    i_l) from f_{n_start} = 1e-40, f_{n_start+1} = 0, renormalized per
    element as the scalar loops do; n_start is an int or one start order
    per element."""
    fp = np.zeros_like(x)
    f = np.full_like(x, 1e-40)
    target = target_m = fp
    n_all = int(np.min(n_start))
    for n in range(int(np.max(n_start)), 0, -1):
        fm = (2 * n + 1) / x * f
        fm = fm - fp if minus else fm + fp
        if n > n_all:
            # elements whose start order lies below n have not started
            on = n <= n_start
            fp, f = np.where(on, f, fp), np.where(on, fm, f)
        else:
            fp, f = f, fm
        if n - 1 == l:
            target = f
        if n == l:
            target_m = f
        big = np.abs(f) > _RENORM
        if big.any():
            f = np.where(big, f / _RENORM, f)
            fp = np.where(big, fp / _RENORM, fp)
            target = np.where(big, target / _RENORM, target)
            target_m = np.where(big, target_m / _RENORM, target_m)
    return target_m, target, f


def _sph_jy_pair_array(l: int, x: np.ndarray):
    """`_sph_jy_pair` over a float array x > 0, bit for bit."""
    sx = _map(math.sin, x)
    cx = _map(math.cos, x)
    with np.errstate(all="ignore"):
        j0 = sx / x
        y0 = -cx / x
        if l == 0:
            return cx / x, j0, sx / x, y0
        j1 = sx / (x * x) - cx / x
        y1 = -cx / (x * x) - sx / x
        ym, y = y0, y1
        for n in range(1, l):
            ym, y = y, (2 * n + 1) / x * y - ym
        jm = np.empty_like(x)
        j = np.empty_like(x)
        up = x >= l + 1
        if up.any():
            xu = x[up]
            a, b = j0[up], j1[up]
            for n in range(1, l):
                a, b = b, (2 * n + 1) / xu * b - a
            jm[up], j[up] = a, b
        down = ~up
        if down.any():
            n_start = l + 18 + int(2.0 * math.sqrt(l))
            fm1, fl, f0 = _miller_array(l, x[down], n_start, True)
            scale = j0[down] / f0
            jm[down], j[down] = fm1 * scale, fl * scale
    return jm, j, ym, y


def _sph_ik_pair_scaled_array(l: int, x: np.ndarray):
    """`_sph_ik_pair_scaled` over a float array x > 0, bit for bit."""
    m2x = -2.0 * x
    e2 = _map(math.exp, m2x)
    em1 = _map(math.expm1, m2x)
    with np.errstate(all="ignore"):
        i0 = -em1 / (2.0 * x)
        im1 = (1.0 + e2) / (2.0 * x)
        k0 = math.pi / (2.0 * x)
        if l == 0:
            return im1, i0, k0, k0
        km = _khat_closed(l - 1, x)
        k = _khat_closed(l, x)
        im = np.empty_like(x)
        i = np.empty_like(x)
        far = x >= l * (l + 1)
        if far.any():
            xf, ef = x[far], e2[far]
            im[far] = _ihat_closed(l - 1, xf, ef)
            i[far] = _ihat_closed(l, xf, ef)
        near = ~far
        if near.any():
            xn = x[near]
            top = np.maximum(l, xn)
            n_start = (top.astype(np.int64) + 20
                       + (2.0 * np.sqrt(top)).astype(np.int64))
            fm1, fl, f0 = _miller_array(l, xn, n_start, False)
            scale = i0[near] / f0
            im[near], i[near] = fm1 * scale, fl * scale
    return im, i, km, k


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
