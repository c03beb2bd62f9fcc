"""Pure-Python propagation kernel.

Reference implementation of the per-channel shell marcher; `qcloak._kernel`
is the compiled twin with identical results, bit for bit, selected at import
time by `qcloak.propagate`: both make the same floating-point operations in
the same order and call the same C library functions, hypot included
(`_norm`).  There are two entries.  `propagate` marches and returns only
what the library reads: the state (v, v') at the outer boundary, the norm
integrals and the zero count, and on request the step table that
`sample`, the other entry, reads; nothing per shell.

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
accumulators.  The march starts on the regular solution: its first
substep, from `_EPS_ORIGIN` (or half the first shell), is the regular
member alone (B = 0), scaled to a unit state at the substep's end, so the
irregular member, which overflows near the origin for high l, never
enters it; the irregular term B G is added only where B != 0.  The core
mass is the part inside `_R_CORE` = 1, the unit ball every system's core
occupies.  Norms are integrated only as far out
as the caller reads them: `want_norms=CORE_ONLY` skips every panel beyond
`_R_CORE`.

Point samples for field maps never feed back into the march, so the march
takes none.  With `keep_steps` it returns its step table instead
(`Steps`: each substep's end, expansion and log scale), and `sample`
evaluates v at any sorted radii from the tables of many channels of one
stack at one energy.  Their substeps' ends, kinds, k and starts do not
depend on l, so the channels share the substep lookup, x = k*rho, the
sin, cos and exp maps, the upward Bessel recurrences and one Miller run:
one array pass per kind of substep for all channels, with the array
twins of the Bessel pairs in `qcloak.special`.  The values equal those of
the scalar expansion bit for bit, and one table serves every point set
of a channel at its energy.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .special import (_map, _sph_ik_pair_scaled, _sph_ik_pair_scaled_array,
                      _sph_jy_pair, _sph_jy_pair_array)

# max |k| * (substep width); bounds both the e^(+-2) evanescent growth per
# substep and the quadrature phase per panel
_PHASE_CAP = 2.0
_R_CORE = 1.0                    # outer radius of the core mass i_core
_POWER_RATIO_CAP = 1.25          # max b/a per power-law substep
_EPS_ORIGIN = 1e-6               # start radius of the first substep
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


#: float64 columns of a step-table row: (end, kind, k, a, A, B, lam)
STEP_COLS = 7


class Steps(NamedTuple):
    """A march's step table, which `sample` reads.  `rows` holds one row
    of STEP_COLS float64 per substep, in march order: the substep's end
    sb + 1e-15 (the largest radius it samples), its expansion (`_Local`'s
    kind, k, a, A, B) and the log scale of the state at its start."""
    rows: bytes
    lam: float                # log scale of the final state
    r_eps: float              # start radius of the first substep


class KernelResult(NamedTuple):
    p3: float                 # v at the outer boundary, unit state
    q3: float                 # v' at the outer boundary, unit state
    i_core: float             # int_0^1 v^2, units of the final state
    i_total: float            # int_0^R v^2, same units
    i_logoff: float           # add to log(i_*) to undo overflow rescales
    steps: Optional[Steps]    # the step table, when asked for
    overflow: bool
    zeros: int                # sign changes of v between substep ends


def _norm(p: float, q: float) -> float:
    """sqrt(p^2 + q^2) by the C library's hypot, as the compiled kernel
    computes it; `math.hypot` is CPython's own and can differ in the last
    bit.  A finite pair whose norm overflows gives inf, as hypot does."""
    try:
        return abs(complex(p, q))
    except OverflowError:
        return math.inf


def _riccati(kind: int, l: int, x: float) -> tuple:
    """Riccati pair (F, F', G, G') at x: F = x j_l, G = -x y_l when
    oscillatory (kind 1); F = x i_l e^-x, G = x k_l e^x when evanescent."""
    if kind == 1:
        jm, j, ym, y = _sph_jy_pair(l, x)
        return x * j, x * jm - l * j, -x * y, -(x * ym - l * y)
    im, i, km, kk = _sph_ik_pair_scaled(l, x)
    return x * i, x * im - l * i, x * kk, -x * km - l * kk


class _Local:
    """Fundamental-pair expansion of the solution on one substep."""

    __slots__ = ("kind", "l", "k", "a", "A", "B")

    def __init__(self, l: int, k2: float, a: float, va: float, dva: float,
                 power: bool, end: Optional[float] = None):
        """The expansion on the substep from a that takes the state
        (va, dva) there.  With `end` (the march's first substep) it is the
        regular member alone instead: B = 0, and A scales (v, v') at `end`
        to unit length; va and dva are not read.  A zero norm at `end`
        (j_l underflows there) gives A = inf."""
        self.l = l
        self.a = a
        self.kind = kind = 0 if power else 1 if k2 > 0.0 else -1
        self.k = k = math.sqrt(k2 if kind == 1 else -k2) if kind else 0.0
        if end is not None:
            self.A, self.B = 1.0, 0.0
            m = _norm(*self.eval(end))
            self.A = 1.0 / m if m else math.inf
        elif power:
            self.A = (a * dva + l * va) / (2 * l + 1)
            self.B = ((l + 1) * va - a * dva) / (2 * l + 1)
        else:
            F, Fp, G, Gp = _riccati(kind, l, k * a)
            if kind == 1:             # Wronskian F G' - F' G = -1
                self.A = (dva * G - va * k * Gp) / k
                self.B = (va * k * Fp - F * dva) / k
            else:
                det = k * (F * Gp - Fp * G)     # = -k*pi/2 analytically
                self.A = (va * k * Gp - dva * G) / det
                self.B = (dva * F - va * k * Fp) / det

    def eval(self, rho: float) -> tuple[float, float]:
        """(v, v') at rho within the substep.  The irregular member G, which
        overflows near rho = 0 for high l, enters only where B != 0."""
        l = self.l
        if self.kind == 0:
            t = rho / self.a
            tp = t ** (l + 1)
            tm = t ** (-l)
            v = self.A * tp + self.B * tm
            dv = ((l + 1) * self.A * tp / t - l * self.B * tm / t) / self.a
            return v, dv
        # `_riccati`'s pairs, written out: a call costs time in this hot path
        x = self.k * rho
        if self.kind == 1:
            jm, j, ym, y = _sph_jy_pair(l, x)
            F, Fp, G, Gp = x * j, x * jm - l * j, -x * y, -(x * ym - l * y)
        else:                     # scaled relative to a
            im, i, km, kk = _sph_ik_pair_scaled(l, x)
            d = x - self.k * self.a
            ep = math.exp(d)
            em = math.exp(-d)
            F, Fp = x * i * ep, (x * im - l * i) * ep
            G, Gp = x * kk * em, (-x * km - l * kk) * em
        A, B = self.A, self.B
        return (A * F + (B * G if B else 0.0),
                self.k * (A * Fp + (B * Gp if B else 0.0)))


def _kind_values(kind: int, ls, rho, k, a, A, B) -> np.ndarray:
    """v of `_Local.eval` for one kind of substep at radii rho, one row
    per order of ls: A and B hold a row per order and every array one
    element per sample.  The same operations in the same order; the
    orders share x, the exp maps and the Bessel passes."""
    if kind == 0:
        t = rho / a
        return np.array([A[o] * _map(lambda u: u ** (l + 1), t)
                         + B[o] * _map(lambda u: u ** -l, t)
                         for o, l in enumerate(ls)])
    x = k * rho
    if kind == 1:
        _, j, _, y = _sph_jy_pair_array(ls, x)
        return A * (x * j) + _irregular(B, -x * y)
    _, i, _, kk = _sph_ik_pair_scaled_array(ls, x)
    d = x - k * a
    return (A * (x * i * _map(math.exp, d))
            + _irregular(B, x * kk * _map(math.exp, -d)))


def _irregular(B, G) -> np.ndarray:
    """B*G where B != 0, else 0.0, per element, as `_Local.eval` adds it."""
    out = np.zeros_like(G)
    nz = B != 0.0
    out[nz] = B[nz] * G[nz]
    return out


def sample(ls: Sequence[int], steps: Sequence[Steps],
           sample_r: Sequence[float]) -> bytes:
    """v of each channel l in ls at the radii sample_r, sorted ascending,
    from the step table of its march, in units of that march's final
    state: the bytes of len(ls) rows of len(sample_r) float64, one row
    per channel in the order of ls.

    The tables come from marches of one stack at one energy, so they
    share every substep's end, kind, k and start, which do not depend on
    l; only A, B and the log scales differ.  Tables whose row counts,
    those columns or start radii differ, or an ls whose length is not
    that of steps, raise ValueError.  A radius belongs to the first
    substep whose end reaches it, and one below the start radius is
    evaluated there; radii beyond the last substep read 0.  The channels
    share the substep lookup and each array pass of `_kind_values`.
    """
    if len(ls) != len(steps):
        raise ValueError(f"need one step table per channel, got "
                         f"{len(ls)} channels and {len(steps)} tables")
    ls = [operator.index(l) for l in ls]
    if any(l < 0 for l in ls):
        raise ValueError(f"channels must be >= 0, got {ls}")
    if not steps:
        return b""
    tables = [np.frombuffer(st.rows).reshape(-1, STEP_COLS) for st in steps]
    rows = tables[0]
    shared = rows[:, :4].tobytes()
    if any(t.shape != rows.shape or t[:, :4].tobytes() != shared
           or st.r_eps != steps[0].r_eps
           for t, st in zip(tables[1:], steps[1:])):
        raise ValueError("step tables differ in their substeps: they must "
                         "come from marches of one stack at one energy")
    # the columns each channel has of its own: A, B and the log scale
    own = np.array([t[:, 4:] for t in tables])
    rho = np.asarray(sample_r, dtype=float)
    # samples up to each substep's end; sample_r's order makes them
    # contiguous, and the running maximum keeps the cursor from moving back
    upto = np.searchsorted(rho, np.maximum.accumulate(rows[:, 0]), "right")
    counts = np.diff(upto, prepend=0)
    n = int(upto[-1])
    kind, k, a = np.repeat(rows[:, 1:4], counts, axis=0).T
    A, B = (np.repeat(own[:, :, c], counts, axis=1) for c in (0, 1))
    rho = np.maximum(rho[:n], steps[0].r_eps)
    out = np.zeros((len(steps), len(sample_r)))
    v = out[:, :n]
    # silent, as the scalar expansion's float arithmetic is: a march that
    # ends non-finite (A = inf) is refused after it
    with np.errstate(all="ignore"):
        for kd in (1, -1, 0):
            sel = kind == kd
            if sel.any():
                v[:, sel] = _kind_values(kd, ls, rho[sel], k[sel], a[sel],
                                         A[:, sel], B[:, sel])
        # one rescale factor per substep, as its samples share its scale
        used = counts > 0
        lam = np.array([st.lam for st in steps])[:, None]
        shift = np.minimum(own[:, used, 2] - lam, 700.0)
        scale = _map(math.exp, shift.ravel()).reshape(shift.shape)
        v *= np.repeat(scale, counts[used], axis=1)
    return out.tobytes()


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
        v = loc.eval(mid + half * node)[0]
        acc += wt * v * v
    return acc * half


def propagate(l: int, r: Sequence[float], k2: Sequence[float],
              w: Sequence[float], want_norms: int = True,
              keep_steps: bool = False) -> KernelResult:
    """March the regular solution of channel l outward through the shells.

    r has N+1 boundaries starting at 0; k2 and w hold per-shell squared
    wavenumbers and derivative-continuity weights.  With keep_steps the
    result carries the march's step table (`Steps`), from which `sample`
    evaluates v at any radii; else `steps` is None.

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
    p = q = 0.0
    lam = 0.0
    i_core = i_total = 0.0
    i_logoff = 0.0
    rows = array("d") if keep_steps else None
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
            # the first substep takes the regular member alone
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
            if keep_steps:
                rows.extend((sb + 1e-15, loc.kind, loc.k, sa, loc.A, loc.B,
                             lam))
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

    steps = Steps(rows.tobytes(), lam, r_eps) if keep_steps else None
    return KernelResult(p, q, i_core, i_total, i_logoff, steps, overflow,
                        zeros)

