"""Pure-Python propagation kernel.

Reference implementation of the per-channel shell marcher; `qcloak._kernel`
is the compiled twin with identical semantics, selected at import time by
`qcloak.propagate`.  `propagate` is the one entry, and it returns only what
the library reads: the state (v, v') at the outer boundary, the norm
integrals, the field samples and the zero count, nothing per shell.

The radial factor is propagated in Riccati form v = rho*u, where within one
shell  v'' + (k2 - l(l+1)/rho^2) v = 0.  The state (v, v') is renormalized to
unit length after every substep and the scale is tracked in log space, so
deeply evanescent stacks can never overflow.  Interfaces rescale v' by the
conductivity ratio (v continuous, sigma*u' continuous); plain potential
interfaces pass w = 1 and reduce to continuity of (v, v').

Substep representation: the local solution is expanded in the fundamental
pair of the shell (Riccati-Bessel, scaled modified Riccati-Bessel, or power
law near zero wavenumber) with coefficients solved from the entering state;
the same expansion supplies Gauss-Legendre quadrature of |v|^2 for the norm
accumulators.  The core mass is the part inside `_R_CORE` = 1, the unit
ball every system's core occupies.  Norms are integrated only as far out
as the caller reads them: `want_norms=CORE_ONLY` skips every panel beyond
`_R_CORE`.

Point samples for field maps never feed back into the march, so the march
only notes which substep each sample falls in; after it, `_sample_values`
evaluates every sample of the solve from its substep's expansion in one
array pass per kind, with the array twins of the Bessel pairs in
`qcloak.special`.  The values equal those of the scalar expansion bit for
bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .special import (_map, _sph_ik_pair_scaled, _sph_ik_pair_scaled_array,
                      _sph_jy_pair, _sph_jy_pair_array)

# max |k| * (substep width); bounds both the e^(+-2) evanescent growth per
# substep and the quadrature phase per panel
_PHASE_CAP = 2.0
_R_CORE = 1.0                    # outer radius of the core mass i_core
_POWER_RATIO_CAP = 1.25          # max b/a per power-law substep
_EPS_ORIGIN = 1e-6               # analytic power-law start radius
_NORM_CEIL = 1e250
_NORM_SHIFT = 100.0 * math.log(10.0)
#: `want_norms` value that integrates v^2 inside _R_CORE only; i_total then
#: equals i_core bit for bit
CORE_ONLY = 2

_G8_NODES = (
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498, 0.5255324099163290,
    0.7966664774136267, 0.9602898564975363,
)
_G8_WEIGHTS = (
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763,
)


class KernelResult(NamedTuple):
    p3: float                 # v at the outer boundary, unit state
    q3: float                 # v' at the outer boundary, unit state
    i_core: float             # int_0^1 v^2, units of the final state
    i_total: float            # int_0^R v^2, same units
    i_logoff: float           # add to log(i_*) to undo overflow rescales
    samples: Optional[list]   # v at sample_r, units of the final state
    overflow: bool
    zeros: int                # sign changes of v between substep ends


class _Local:
    """Fundamental-pair expansion of the solution on one substep."""

    __slots__ = ("kind", "l", "k", "a", "A", "B")

    def __init__(self, l: int, k2: float, a: float, va: float, dva: float,
                 power: bool):
        self.l = l
        self.a = a
        if power:
            self.kind = 0
            self.k = 0.0
            self.A = (a * dva + l * va) / (2 * l + 1)
            self.B = ((l + 1) * va - a * dva) / (2 * l + 1)
        elif k2 > 0.0:
            self.kind = 1
            k = math.sqrt(k2)
            self.k = k
            x = k * a
            jm, j, ym, y = _sph_jy_pair(l, x)
            F = x * j
            Fp = x * jm - l * j
            G = -x * y
            Gp = -(x * ym - l * y)
            # v = A*F + B*G with det = k*(F*Gp' - ...) = -k
            self.A = (dva * G - va * k * Gp) / k
            self.B = (va * k * Fp - F * dva) / k
        else:
            self.kind = -1
            kap = math.sqrt(-k2)
            self.k = kap
            x = kap * a
            im, i, km, kk = _sph_ik_pair_scaled(l, x)
            F = x * i            # e^-x (x i_l)
            Fp = x * im - l * i
            G = x * kk           # e^+x (x k_l)
            Gp = -x * km - l * kk
            det = kap * (F * Gp - Fp * G)   # = -kap*pi/2 analytically
            self.A = (va * kap * Gp - dva * G) / det
            self.B = (dva * F - va * kap * Fp) / det

    def eval(self, rho: float) -> tuple[float, float]:
        """(v, v') at rho within the substep."""
        l = self.l
        if self.kind == 0:
            t = rho / self.a
            tp = t ** (l + 1)
            tm = t ** (-l)
            v = self.A * tp + self.B * tm
            dv = ((l + 1) * self.A * tp / t - l * self.B * tm / t) / self.a
            return v, dv
        x = self.k * rho
        if self.kind == 1:
            jm, j, ym, y = _sph_jy_pair(l, x)
            F = x * j
            Fp = x * jm - l * j
            G = -x * y
            Gp = -(x * ym - l * y)
            return (self.A * F + self.B * G,
                    self.k * (self.A * Fp + self.B * Gp))
        im, i, km, kk = _sph_ik_pair_scaled(l, x)
        d = x - self.k * self.a
        ep = math.exp(d)
        em = math.exp(-d)
        F = x * i * ep
        Fp = (x * im - l * i) * ep
        G = x * kk * em
        Gp = (-x * km - l * kk) * em
        return (self.A * F + self.B * G,
                self.k * (self.A * Fp + self.B * Gp))

    def value(self, rho: float) -> float:
        return self.eval(rho)[0]


def _kind_values(kind: int, l: int, rho, k, a, A, B) -> np.ndarray:
    """`_Local.value` of substeps of one kind at the radii rho, as arrays
    with one element per sample: the same operations in the same order."""
    if kind == 0:
        t = rho / a
        return (A * _map(lambda u: u ** (l + 1), t)
                + B * _map(lambda u: u ** -l, t))
    x = k * rho
    if kind == 1:
        _, j, _, y = _sph_jy_pair_array(l, x)
        return A * (x * j) + B * (-x * y)
    _, i, _, kk = _sph_ik_pair_scaled_array(l, x)
    d = x - k * a
    return (A * (x * i * _map(math.exp, d))
            + B * (x * kk * _map(math.exp, -d)))


def _sample_values(l: int, sample_r: Sequence[float], r_eps: float,
                   lam: float, sampled: list) -> list:
    """v at sample_r in units of the final state (log scale lam).

    `sampled` holds (expansion, log scale, sample count) of each substep
    that took samples, in order; the samples it covers come first, and
    the rest (beyond the last substep) read 0.
    """
    out = np.zeros(len(sample_r))
    if not sampled:
        return out.tolist()
    locs, lams, counts = zip(*sampled)
    n = sum(counts)
    rho = np.maximum(np.asarray(sample_r[:n], dtype=float), r_eps)
    cols = np.repeat(np.array([(loc.kind, loc.k, loc.a, loc.A, loc.B)
                               for loc in locs]), counts, axis=0)
    kind = cols[:, 0]
    v = np.empty(n)
    for kd in (1, -1, 0):
        sel = kind == kd
        if sel.any():
            v[sel] = _kind_values(kd, l, rho[sel], *cols[sel, 1:].T)
    # one rescale factor per substep, as every sample in it shares its scale
    scale = [math.exp(min(sl - lam, 700.0)) for sl in lams]
    out[:n] = v * np.repeat(scale, counts)
    return out.tolist()


def _substeps(a: float, b: float, k2: float, power: bool) -> int:
    if power:
        return max(1, math.ceil(math.log(b / a) / math.log(_POWER_RATIO_CAP)))
    return max(1, math.ceil(math.sqrt(abs(k2)) * (b - a) / _PHASE_CAP))


def _use_power(k2: float, a: float, b: float) -> bool:
    return abs(k2) * b * (b - a) < 1e-14


def _panel(loc: _Local, lo: float, hi: float) -> float:
    """int_lo^hi v^2 by 8-point Gauss-Legendre."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = 0.0
    for node, wt in zip(_G8_NODES, _G8_WEIGHTS):
        v = loc.value(mid + half * node)
        acc += wt * v * v
    return acc * half


def propagate(l: int, r: Sequence[float], k2: Sequence[float],
              w: Sequence[float], want_norms: int = True,
              sample_r: Optional[Sequence[float]] = None) -> KernelResult:
    """March the regular solution of channel l outward through the shells.

    r has N+1 boundaries starting at 0; k2 and w hold per-shell squared
    wavenumbers and derivative-continuity weights.  sample_r must be sorted
    ascending within (0, r[-1]].

    want_norms is False (no norms: i_core = i_total = 0), True (both) or
    CORE_ONLY, which computes no quadrature panel beyond _R_CORE, so i_total
    equals i_core; any other value raises ValueError.

    `zeros` counts the sign changes of v between consecutive substep ends,
    which is every zero of v in (0, r[-1]): a substep holds at most one
    (oscillating substeps span k*h <= _PHASE_CAP < pi; evanescent and
    power-law ones have at most one root), and neither interfaces nor
    renormalisation change the sign of v.
    """
    if want_norms not in (False, True, CORE_ONLY):
        raise ValueError(f"want_norms must be False, True or CORE_ONLY "
                         f"({CORE_ONLY}), got {want_norms!r}")
    outer = want_norms != CORE_ONLY
    n_shell = len(k2)
    r_eps = min(_EPS_ORIGIN, 0.5 * r[1])
    h = math.hypot(r_eps, l + 1.0)
    p, q = r_eps / h, (l + 1.0) / h
    lam = 0.0
    i_core = i_total = 0.0
    i_logoff = 0.0
    n_samp = len(sample_r) if sample_r is not None else 0
    samp = list(sample_r) if n_samp else []
    sampled = []
    si = 0
    overflow = False
    zeros = 0

    for ish in range(n_shell):
        a = r[ish] if ish > 0 else r_eps
        b = r[ish + 1]
        if ish > 0 and w[ish] != w[ish - 1]:
            # v continuous; sigma*u' continuous with u = v/rho
            q = (w[ish - 1] / w[ish]) * (q - p / a) + p / a
            m = math.hypot(p, q)
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
            loc = _Local(l, k2[ish], sa, p, q, power)
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
            if si < n_samp:
                # the samples up to sb (+1e-15), which sample_r's order
                # makes contiguous
                se = bisect_right(samp, sb + 1e-15, si)
                if se > si:
                    sampled.append((loc, lam, se - si))
                    si = se
            neg = p < 0.0
            p, q = loc.eval(sb)
            zeros += (p < 0.0) != neg
            m = math.hypot(p, q)
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
        out = _sample_values(l, samp, r_eps, lam, sampled)
    return KernelResult(p, q, i_core, i_total, i_logoff, out, overflow, zeros)

