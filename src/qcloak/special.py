"""Spherical Bessel/Neumann functions and their modified (evanescent) variants.

All channel propagation reduces to evaluating the fundamental radial pairs

    oscillatory   (k^2 > 0):  j_l(x), y_l(x)          with x = k*rho
    evanescent    (k^2 < 0):  i_l(x)e^-x, k_l(x)e^+x  with x = kappa*rho

The scaled evanescent pair keeps every intermediate bounded; exponents are
tracked separately by the propagation kernels.  Below its turning point,
x < l + 1, where upward recurrence cancels, j_l comes from Miller's
downward recurrence, normalised by the Wronskian j_1 y_0 - j_0 y_1 = 1/x^2
(`_wronskian_scale`), which never vanishes; the scaled i_l from the same
recurrence is normalised by i_0.  The compiled kernel repeats both.
`spherical_bessel` returns the oscillatory pair and its derivatives; the
kernels take the pairs from `_sph_jy_pair` and `_sph_ik_pair_scaled`.
Their array twins `_sph_jy_pair_array` and `_sph_ik_pair_scaled_array`
evaluate many orders at many arguments with the same operations in the
same order on every (order, element), so each result equals the scalar
one bit for bit; the orders share one pass (one Miller run for all).
`_sph_jy_orders_array` gives every order up to l_max at many arguments,
for the free field beyond the outer sphere, recurring downward from the
top pair of `_j_pair_below`, the Miller pair both array twins of j_l
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

# Highest order the solvers accept.  The kernels' first substep takes the
# regular member of the fundamental pair alone, so on the free medium every
# order up to it solves at E = 1e-6, 0.05, 0.5, 5 and 40.  It does not
# guarantee a finite solve at tiny energies, where both raise DomainError:
# j_l underflows at the first substep's end, so no unit state can be formed
# there (free medium: from l = 55 at E = 1e-8 and l = 41 at E = 1e-12), and
# a later shell with k*rho ~ 3e-5 overflows the irregular member x y_l in
# its expansion (acoustic reference cloaks at E = 1e-6 from l = 51).
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

    # j_l: upward when x dominates l, else downward Miller normalized by
    # the Wronskian.
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
    # f, fp now hold the unnormalized j_0, j_1
    scale = _wronskian_scale(x, sx, cx, fp, f)
    return target_m * scale, target * scale, ym, y


def _wronskian_scale(x, sx, cx, f1, f0):
    """c with j_n = c f_n for an unnormalized Miller pair f_1, f_0 at x,
    given sx = sin x, cx = cos x: 1 / (x^2 (f_1 y_0 - f_0 y_1)) by the
    Wronskian j_1 y_0 - j_0 y_1 = 1/x^2 (DLMF 10.50.1), written without y
    so that it cannot overflow at small x and does not cancel near the
    zeros of sin x or cos x; unlike j_0 = sin x / x, it never vanishes
    (Gautschi, SIAM Rev. 9 (1967) 24).  Scalars or arrays alike; the C
    kernel's `jy_pair` makes the same operations in the same order."""
    return 1.0 / (f0 * (cx + x * sx) - f1 * x * cx)


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
# Many orders at many arguments: the scalar operations in the scalar order
# on every (order, element), with each scalar branch taken per element, so
# each result equals the scalar one bit for bit.  sin, cos and exp stay `math` calls per
# element because numpy's may round differently.  Python float arithmetic
# overflows to inf without a warning, and so do these.  `_khat_closed` and
# `_ihat_closed` do not branch on x, so they serve scalars and arrays alike.

def _map(f, x: np.ndarray) -> np.ndarray:
    """f, a scalar function, on every element of x."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _miller_array(l, x: np.ndarray, n_start, minus: bool):
    """Unnormalized (f_{l-1}, f_l, f_1, f_0) of the downward recurrence
    f_{n-1} = (2n+1)/x f_n - f_{n+1} (minus, j_l) or + f_{n+1} (scaled
    i_l) from f_{n_start} = 1e-40, f_{n_start+1} = 0, renormalized per
    element as the scalar loops do.  The order l and the start order
    n_start are each an int or one per element, so one run serves the
    elements of many orders."""
    fp = np.zeros_like(x)
    f = np.full_like(x, 1e-40)
    target = np.zeros_like(x)
    target_m = np.zeros_like(x)
    n_all = int(np.min(n_start))
    l_lo, l_hi = int(np.min(l)), int(np.max(l))
    for n in range(int(np.max(n_start)), 0, -1):
        fm = (2 * n + 1) / x
        fm *= f
        if minus:
            fm -= fp
        else:
            fm += fp
        if n > n_all:
            # elements whose start order lies below n have not started
            on = n <= n_start
            np.copyto(fp, f, where=on)
            np.copyto(f, fm, where=on)
        else:
            fp, f = f, fm
        if l_lo <= n - 1 <= l_hi:
            np.copyto(target, f, where=l == n - 1)
        if l_lo <= n <= l_hi:
            np.copyto(target_m, f, where=l == n)
        big = np.abs(f) > _RENORM
        if big.any():
            for v in (f, fp, target, target_m):
                np.divide(v, _RENORM, out=v, where=big)
    return target_m, target, fp, f


def _flat(mask: np.ndarray, *arrays) -> list:
    """Each array, broadcast to mask's (order, element) grid, at the
    entries mask selects, in row-major order."""
    return [np.broadcast_to(a, mask.shape)[mask] for a in arrays]


def _put(out: np.ndarray, orders, *rows) -> None:
    """The four pair members `rows`, one array each, into the orders
    selected by the mask `orders`."""
    if orders.any():
        out[:, orders] = np.array(rows)[:, None]


def _sph_jy_pair_array(ls, x: np.ndarray) -> np.ndarray:
    """`_sph_jy_pair` at each order of ls over a float array x > 0, bit
    for bit: rows (j_{l-1}, j_l, y_{l-1}, y_l), shape (4, len(ls),
    x.size).  The orders share sin x, cos x and the upward recurrences,
    and one Miller run serves every order's elements below its turning
    point."""
    ls = np.asarray(ls, dtype=np.int64).reshape(-1)
    sx = _map(math.sin, x)
    cx = _map(math.cos, x)
    out = np.empty((4, ls.size, x.size))
    with np.errstate(all="ignore"):
        j0 = sx / x
        y0 = -cx / x
        _put(out, ls == 0, cx / x, j0, sx / x, y0)
        top = int(ls.max(initial=0))
        if top:
            # (j_{n-1}, j_n, y_{n-1}, y_n) upward from n = 1; j only
            # serves where x >= n + 1
            jm, j = j0, sx / (x * x) - cx / x
            ym, y = y0, -cx / (x * x) - sx / x
            for n in range(1, top + 1):
                _put(out, ls == n, jm, j, ym, y)
                jm, j = j, (2 * n + 1) / x * j - jm
                ym, y = y, (2 * n + 1) / x * y - ym
        below = (ls[:, None] > 0) & ~(x >= ls[:, None] + 1)
        if below.any():
            o, xb, sb, cb = _flat(below, ls[:, None], x, sx, cx)
            out[0][below], out[1][below] = _j_pair_below(o, xb, sb, cb)
    return out


def _j_pair_below(l, x: np.ndarray, sx, cx):
    """(j_{l-1}, j_l) at a float array 0 < x < l + 1, given sx = sin x and
    cx = cos x: Miller's downward pair, scaled by `_wronskian_scale`, as
    `_sph_jy_pair` computes it below the turning point.  The order l is
    an int or one per element.  Inside the callers' errstate."""
    n_start = l + 18 + (2.0 * np.sqrt(l)).astype(np.int64)
    fm1, fl, f1, f0 = _miller_array(l, x, n_start, True)
    scale = _wronskian_scale(x, sx, cx, f1, f0)
    return fm1 * scale, fl * scale


def _sph_jy_orders_array(l_max: int, x: np.ndarray):
    """(j, y): j_l and y_l for every l = 0..l_max at a float array x > 0,
    each of shape (l_max + 1, x.size).  y recurs upward from y_0, y_1 and
    j upward where x >= l_max + 1, as in `_sph_jy_pair`.  Below, j recurs
    downward, the stable direction for the minimal solution, from the top
    pair (j_{l_max-1}, j_{l_max}) of `_j_pair_below`, which reads this
    call's sin x and cos x."""
    sx = _map(math.sin, x)
    cx = _map(math.cos, x)
    j = np.empty((l_max + 1, x.size))
    y = np.empty_like(j)
    with np.errstate(all="ignore"):
        j[0] = sx / x
        y[0] = -cx / x
        if l_max == 0:
            return j, y
        j[1] = sx / (x * x) - cx / x
        y[1] = -cx / (x * x) - sx / x
        for n in range(1, l_max):
            y[n + 1] = (2 * n + 1) / x * y[n] - y[n - 1]
        up = x >= l_max + 1
        if up.any():
            xu, ju = x[up], j[:, up]
            for n in range(1, l_max):
                ju[n + 1] = (2 * n + 1) / xu * ju[n] - ju[n - 1]
            j[:, up] = ju
        down = ~up
        if down.any():
            xd, jd = x[down], j[:, down]
            jd[l_max - 1], jd[l_max] = _j_pair_below(l_max, xd, sx[down],
                                                     cx[down])
            for n in range(l_max - 1, 0, -1):
                jd[n - 1] = (2 * n + 1) / xd * jd[n] - jd[n + 1]
            j[:, down] = jd
    return j, y


def _sph_ik_pair_scaled_array(ls, x: np.ndarray) -> np.ndarray:
    """`_sph_ik_pair_scaled` at each order of ls over a float array x > 0,
    bit for bit: rows (i_{l-1}, i_l, k_{l-1}, k_l), scaled, shape (4,
    len(ls), x.size).  The orders share the exp maps and each k series,
    and one Miller run serves every order's elements short of the closed
    i series."""
    ls = np.asarray(ls, dtype=np.int64).reshape(-1)
    m2x = -2.0 * x
    e2 = _map(math.exp, m2x)
    em1 = _map(math.expm1, m2x)
    out = np.empty((4, ls.size, x.size))
    khat = {}
    with np.errstate(all="ignore"):
        i0 = -em1 / (2.0 * x)
        k0 = math.pi / (2.0 * x)
        _put(out, ls == 0, (1.0 + e2) / (2.0 * x), i0, k0, k0)
        near = np.zeros(out.shape[1:], dtype=bool)
        for o, l in enumerate(ls.tolist()):
            if l == 0:
                continue
            for n in (l - 1, l):
                if n not in khat:
                    khat[n] = _khat_closed(n, x)
            out[2, o], out[3, o] = khat[l - 1], khat[l]
            far = x >= l * (l + 1)
            if far.any():
                xf, ef = x[far], e2[far]
                out[0, o, far] = _ihat_closed(l - 1, xf, ef)
                out[1, o, far] = _ihat_closed(l, xf, ef)
            near[o] = ~far
        if near.any():
            o, xn, i0n = _flat(near, ls[:, None], x, i0)
            top = np.maximum(o, xn)
            n_start = (top.astype(np.int64) + 20
                       + (2.0 * np.sqrt(top)).astype(np.int64))
            fm1, fl, _, f0 = _miller_array(o, xn, n_start, False)
            scale = i0n / f0
            out[0][near], out[1][near] = fm1 * scale, fl * scale
    return out


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
