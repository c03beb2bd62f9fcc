"""Per-channel radial propagation through layered media and potentials.

`solve_channel` is the one solve for every system, a core potential's
unit-ball problem included (`propagate_acoustic`, `propagate_schrodinger`
and `solve_core_channel` are the same function).  It goes through the
system's `ShellStack`: the merged shell edges and per-shell a, sigma, W and
derivative weights, none of which depends on E.  The stack is built once
per system and kept on the system object, so a solve at energy E only forms
k^2 = E a/sigma - W and runs the kernel.  A non-finite E, or a channel
whose march returns non-finite boundary data, raises `DomainError`; a
channel that is not an integer in [0, `special.L_MAX_SUPPORTED`] raises
`ConfigurationError` (the rule of `_checked_channel_cap`).
`default_l_max` pads the centrifugal cut-off at `media.R_OUTER` by
`L_MARGIN` channels.

Beside the stack, each system keeps one outer-sphere table: the unnormed
solves of channels 0..L at the last energy E it was asked for, and the
step table of each channel a field has sampled.
`observables.phase_shifts` and `observables.dn_spectrum` read their
channels from it through `outer_sphere_solutions`, and
`observables.plane_wave_field` reads channels with their step tables, so
calls at one (system, E) march each channel once, or twice when a field
follows the phase shifts: a channel solved without steps is marched again
with them.  A larger l_max extends the table and a new E replaces it;
either way a new immutable tuple is published in one store, so threads
sharing a system never see a half-built table.

A kernel march takes no samples.  `solve_channel(..., sample_r=)` marches
with `keep_steps` and then evaluates its samples from the step table
(`_sample_u`, through the kernel's `sample`), as a field does from the
table's steps.

Selects the compiled kernel (`qcloak._kernel`, built from the hand-written C
source `_kernel.c` by `python setup.py build_ext --inplace`) when it is
importable and was built from the `_kernel.c` beside it (`_current_build`),
else the pure-Python twin `qcloak._kernel_py`; set QCLOAK_PURE_PYTHON=1 to
force the fallback.  Both expose the same entries, `propagate(l, r, k2,
w, want_norms=True, keep_steps=False)` and `sample(l, steps, sample_r)`,
and are interchangeable; the twin is also the reference the compiled
kernel is tested against.  A solve keeps the boundary state at r_max and
nothing per shell: phase shifts and DN values are matched at
`media.R_OUTER`, where every system is free.
"""

from __future__ import annotations

import binascii
import math
import numbers
import os
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import _kernel_py
from .errors import ConfigurationError, DomainError
from .media import R_OUTER, CorePotential, LayeredMedium, RadialPotential
from .special import L_MAX_SUPPORTED

#: the C source the compiled kernel must have been built from
_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")


def _current_build(kernel):
    """kernel, a compiled kernel module, when its SOURCE_CRC32 is the
    CRC-32 of `_KERNEL_SOURCE` (as setup.py writes it) or that file is
    absent (an installed package); else the pure-Python twin, with a
    warning: a build left over from an older source may fail or, worse,
    give that source's numbers.  CRC-32 rather than a cryptographic hash:
    an edit goes unnoticed only at odds of 2^-32, and importing hashlib
    (OpenSSL) would add some 3.5 MB to every process."""
    try:
        with open(_KERNEL_SOURCE, "rb") as fh:
            digest = "%08x" % binascii.crc32(fh.read())
    except FileNotFoundError:
        return kernel
    if getattr(kernel, "SOURCE_CRC32", None) == digest:
        return kernel
    warnings.warn(f"{kernel.__name__} was not built from {_KERNEL_SOURCE}; "
                  f"using the pure-Python kernel.  Rebuild it with "
                  f"`python setup.py build_ext --inplace`.", RuntimeWarning)
    return _kernel_py


if os.environ.get("QCLOAK_PURE_PYTHON"):
    _impl = _kernel_py
else:
    try:
        from . import _kernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernel_py
    else:
        _impl = _current_build(_impl)

KERNEL_BACKEND = "compiled" if _impl is not _kernel_py else "python"
#: `want_norms` value for a solve that reads only `log_norm_core`
CORE_ONLY = _kernel_py.CORE_ONLY

_TINY = 1e-300
#: channels kept above the centrifugal cut-off by `default_l_max`
L_MARGIN = 10


def default_l_max(E: float) -> int:
    """Smallest l whose centrifugal barrier at R_OUTER tops 4E, plus
    L_MARGIN.

    Channels above this are numerically free for media supported inside
    the outer ball.  A non-finite E raises DomainError.
    """
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got E = {E}")
    if E <= 0.0:
        return L_MARGIN
    l_star = math.ceil((-1.0 + math.sqrt(1.0 + 16.0 * E * R_OUTER * R_OUTER))
                       / 2.0)
    return l_star + L_MARGIN


@dataclass(frozen=True)
class AcousticSystem:
    """Layered acoustic medium plus an optional cloaked core potential.

    The core potential enters each shell's local wavenumber as
    k^2 = E a/sigma - W, which is the acoustic counterpart of adding W to the
    gauge-transformed equation.
    """

    medium: LayeredMedium
    core: Optional[CorePotential] = None


System = Union[AcousticSystem, LayeredMedium, RadialPotential, CorePotential]


@dataclass(frozen=True)
class ShellStack:
    """Solver form of a system, E-independent: shell i spans edges[i:i+2]
    with k^2 = E a_i/s_i - v_i and weight w_i (acoustic: a = mass, s = w =
    sigma, v = core W; potential: a = s = 1, v = V, w = sigma or 1)."""

    edges: tuple
    a: tuple
    s: tuple
    v: tuple
    w: tuple

    def k2(self, E: float) -> list:
        return [E * a / s - v for a, s, v in zip(self.a, self.s, self.v)]


def shell_stack(system) -> ShellStack:
    """Stack of an AcousticSystem, LayeredMedium, RadialPotential or (the
    unit-ball core problem of) a CorePotential; built once per system."""
    stack = system.__dict__.get("_shell_stack")
    if stack is None:
        stack = system.__dict__["_shell_stack"] = _build_stack(system)
    return stack


def _build_stack(system) -> ShellStack:
    # the system's own per-shell columns; a core's value replaces v
    core = None
    if isinstance(system, CorePotential):
        bounds, core = [0.0, 1.0], system
        a, s, v, w = (1.0,), (1.0,), (0.0,), (1.0,)
    elif isinstance(system, RadialPotential):
        bounds = system.boundaries()
        v = [sh.V for sh in system.shells]
        a = s = (1.0,) * len(v)
        w = system.interface_sigmas or a
    else:
        if isinstance(system, AcousticSystem):
            system, core = system.medium, system.core
        bounds = system.boundaries()
        a = [sh.a for sh in system.shells]
        s = w = [sh.sigma for sh in system.shells]
        v = (0.0,) * len(a)
    cuts = [1.0] + (core.breakpoints() if core is not None else [])
    merged = sorted(set(bounds) | {c for c in cuts if 0.0 < c < bounds[-1]})
    edges = merged[:1]
    for x in merged[1:]:
        if x - edges[-1] > 1e-12:
            edges.append(x)
    cols = ([], [], [], [])
    idx = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        while mid > bounds[idx + 1] and idx < len(a) - 1:
            idx += 1
        cols[0].append(a[idx])
        cols[1].append(s[idx])
        cols[2].append(v[idx] if core is None else core.value_at(mid))
        cols[3].append(w[idx])
    return ShellStack(tuple(edges), *map(tuple, cols))


@dataclass(frozen=True)
class ChannelSolution:
    """Regular radial solution of one angular-momentum channel.

    Norms are L^2 masses of the radial factor (with the rho^2 measure),
    reported per unit boundary value u(r_max) = 1 and kept in log form so
    near-eigenvalue blowups stay representable.  ``p_end`` and ``q_end`` are
    v and v' (v = rho u) at r_max, in a unit-length state.  ``zeros`` is the
    number of zeros of v in (0, r_max); by the oscillation theorem it counts
    the Dirichlet levels (u(r_max) = 0) below E.  A solve with
    ``want_norms=CORE_ONLY`` integrates the mass inside the core only and
    reports ``log_norm_total`` and ``concentration`` as NaN.
    """

    l: int
    E: float
    r_max: float
    p_end: float
    q_end: float
    log_norm_core: float
    log_norm_total: float
    concentration: float
    zeros: int
    overflow: bool = False
    sample_u: Optional[tuple] = None   # u(rho)/u(r_max) at sample_r

    @property
    def log_derivative_end(self) -> float:
        """u'/u at r_max."""
        g = (self.q_end / self.p_end if self.p_end != 0.0
             else math.copysign(math.inf, self.q_end))
        return g - 1.0 / self.r_max

    @property
    def dirichlet_value(self) -> float:
        """v(r_max) of the unit-state representation; vanishes exactly at
        Dirichlet eigenvalues and is continuous in E."""
        return self.p_end

    @property
    def neumann_value(self) -> float:
        """proportional to u'(r_max); vanishes at Neumann eigenvalues."""
        return self.q_end - self.p_end / self.r_max

    @property
    def norm_core(self) -> float:
        return math.exp(min(self.log_norm_core, 690.0))

    @property
    def norm_total(self) -> float:
        return math.exp(min(self.log_norm_total, 690.0))


def _solve(edges, k2, w, l, E, want_norms, sample_r):
    """`solve_channel` on a stack's edges, k^2 at E and weights."""
    if sample_r is None:
        return _march(edges, k2, w, l, E, want_norms)[0]
    sol, steps = _march(edges, k2, w, l, E, want_norms, True)
    sr = _sample_radii(sample_r, edges[-1])
    return replace(sol, sample_u=tuple(_sample_u(sol, steps, sr).tolist()))


def _march(edges, k2, w, l, E, want_norms, keep_steps=False):
    """(ChannelSolution, the march's step table or None) of one kernel
    march; the solution has no samples."""
    try:
        _checked_channel_cap(l)
    except ConfigurationError:
        raise ConfigurationError(
            f"channel l={l!r} is not an integer in [0, {L_MAX_SUPPORTED}]"
        ) from None
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got E = {E}")
    r_max = edges[-1]
    # by keyword: perfbench's tracer reads the kernel's arguments by name
    res = _impl.propagate(l, edges, k2, w, want_norms=want_norms,
                          keep_steps=keep_steps)
    if not (math.isfinite(res.p3) and math.isfinite(res.q3)):
        # for high l at tiny E: j_l underflows at the end of the first
        # substep, so scaling it to a unit state overflows, or a later
        # shell's irregular member overflows where k*rho is tiny
        raise DomainError(
            f"channel l = {l} overflows at E = {E}: the march returned "
            f"non-finite boundary data; lower l_max")
    pa = max(abs(res.p3), _TINY)
    log_core = (math.log(max(res.i_core, _TINY)) + res.i_logoff
                + 2.0 * math.log(r_max) - 2.0 * math.log(pa))
    if want_norms == CORE_ONLY:
        log_total = conc = math.nan
    else:
        log_total = (math.log(max(res.i_total, _TINY)) + res.i_logoff
                     + 2.0 * math.log(r_max) - 2.0 * math.log(pa))
        conc = res.i_core / res.i_total if res.i_total > 0.0 else 0.0
    return ChannelSolution(
        l=l, E=E, r_max=r_max, p_end=res.p3, q_end=res.q3,
        log_norm_core=log_core, log_norm_total=log_total,
        concentration=conc, zeros=res.zeros,
        overflow=res.overflow), res.steps


def _sample_radii(sample_r, r_max: float) -> np.ndarray:
    """sample_r clamped to [0, r_max] as a float array; a non-finite or
    unsorted radius raises DomainError."""
    sr = np.asarray(sample_r, dtype=float)
    if not np.isfinite(sr).all():
        raise DomainError("sample radii must be finite")
    # min(max(s, 0), r_max) per element, keeping the sign of a -0.0
    sr = np.where(r_max < sr, r_max, np.where(0.0 > sr, 0.0, sr))
    if np.any(sr[1:] < sr[:-1]):
        raise DomainError("sample radii must be sorted ascending")
    return sr


def _sample_u(sol: ChannelSolution, steps, sr: np.ndarray) -> np.ndarray:
    """u(rho)/u(r_max) at the radii sr of `_sample_radii`, from the step
    table of the march that gave sol."""
    if sol.p_end == 0.0:
        return np.full(len(sr), math.inf)
    v = _impl.sample(sol.l, steps, sr.tolist())
    # samples below the kernel's start radius were evaluated there, so the
    # u = v/rho conversion uses the same radius; an overflow gives inf
    # without a warning, as float division did
    with np.errstate(over="ignore"):
        return (np.asarray(v, dtype=float) * sol.r_max
                / (np.maximum(sr, steps.r_eps) * sol.p_end))


def solve_channel(system: System, l: int, E: float, want_norms: int = True,
                  sample_r: Optional[Sequence[float]] = None
                  ) -> ChannelSolution:
    """Regular solution of channel l at energy E, for every system.

    A `CorePotential` W is solved on the unit ball as -lap + W.
    Acoustic systems and layered media solve
    div(sigma grad u) + (E a - sigma W) u = 0, matching u and sigma u'
    across every interface.  Potentials solve (-lap + V) psi = E psi: plain
    ones match psi and psi', interface-matched ones apply the gauge jump
    (psi scales by sqrt(sigma+/sigma-), sigma (psi/sqrt(sigma))' continuous),
    which makes the solve exactly gauge-equivalent to the acoustic one.

    want_norms is False, True or CORE_ONLY (the core mass alone, for callers
    that read only ``log_norm_core``).  With sample_r (sorted ascending;
    radii are clamped to [0, r_max]) the march keeps its step table and
    ``sample_u`` is read from it.
    """
    st = shell_stack(system)
    return _solve(st.edges, st.k2(E), st.w, l, E, want_norms, sample_r)


propagate_acoustic = propagate_schrodinger = solve_channel
solve_core_channel = solve_channel


def checked_l_max(E: float, l_max: Optional[int]) -> int:
    """`l_max`, or `default_l_max(E)` when it is None, for a request of
    channels 0..l_max at E: a non-finite E raises DomainError, an l_max
    that is not an integer in [0, L_MAX_SUPPORTED] raises
    ConfigurationError."""
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got E = {E}")
    if l_max is None:
        return default_l_max(E)
    return _checked_channel_cap(l_max)


def _checked_channel_cap(l_max) -> int:
    """`l_max`, unless it is not an integer in [0, L_MAX_SUPPORTED]: that
    raises ConfigurationError."""
    # int first: every solve checks its channel here, and the ABC check
    # alone costs about 0.4 us
    if (not isinstance(l_max, (int, numbers.Integral))
            or not 0 <= l_max <= L_MAX_SUPPORTED):
        raise ConfigurationError(
            f"l_max must be an integer in [0, {L_MAX_SUPPORTED}], "
            f"got {l_max!r}")
    return l_max


def outer_sphere_solutions(system: System, E: float,
                           l_max: Optional[int] = None
                           ) -> Iterator[ChannelSolution]:
    """The unnormed solves of channels 0..l_max at E, in ascending l, read
    from the system's outer-sphere table.

    The table is one slot on the system object, beside its shell stack: the
    solves of channels 0..L at the last energy asked for.  Channels above L
    are solved one at a time, when the caller asks for them, so a caller
    that stops at a channel (`dn_spectrum` at a Dirichlet eigenvalue)
    solves nothing above it.  A new E replaces the table.  Each solve
    publishes a new immutable (key, solutions, steps) tuple in one store,
    so a concurrent caller reads either the old table or the new one, never
    a half-built or misindexed one.  E and l_max are checked by
    `checked_l_max` when the first channel is read.
    """
    for sol, _ in _table_channels(system, E, l_max, False):
        yield sol


def _table_channels(system: System, E: float, l_max: Optional[int],
                    keep_steps: bool) -> Iterator[tuple]:
    """(solution, step table or None) of channels 0..l_max at E from the
    outer-sphere table, as `outer_sphere_solutions` reads them.  With
    keep_steps every channel comes with its step table: one the table
    holds without steps is marched again with them and its entry
    replaced (the march's other results do not depend on keeping steps).
    Tables that no field asked for keep no steps."""
    l_max = checked_l_max(E, l_max)
    # keyed by the kernel too, so that a kernel swapped in (as the tests
    # do) never reads another kernel's table; a name keeps it picklable
    key = (_impl.__name__, E)
    table = system.__dict__.get("_outer_table")
    if table is None or table[0] != key:
        table = (key, (), ())
    for l in range(l_max + 1):
        _, sols, steps = table
        if l < len(sols) and (steps[l] is not None or not keep_steps):
            yield sols[l], steps[l]
            continue
        if keep_steps:
            st = shell_stack(system)
            sol, step = _march(st.edges, st.k2(E), st.w, l, E, False, True)
        else:
            # through solve_channel, which perfbench's tracer counts
            sol, step = solve_channel(system, l, E, want_norms=False), None
        table = (key, sols[:l] + (sol,) + sols[l + 1:],
                 steps[:l] + (step,) + steps[l + 1:])
        system.__dict__["_outer_table"] = table
        yield sol, step
