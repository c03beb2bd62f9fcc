"""Per-channel radial propagation through layered media and potentials.

Selects the compiled kernel (`qcloak._kernel`, built from the hand-written C
source `_kernel.c` by `python setup.py build_ext --inplace`) when it is
importable, else the pure-Python twin `qcloak._kernel_py`; set
QCLOAK_PURE_PYTHON=1 to force the fallback.  Both expose the same
`propagate`/`shell_transfer` API and are interchangeable; the twin is also
the reference the compiled kernel is tested against.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _kernel_py
from .errors import ConfigurationError, DomainError, GeometryError
from .media import CorePotential, LayeredMedium, RadialPotential

if os.environ.get("QCLOAK_PURE_PYTHON"):
    _impl = _kernel_py
else:
    try:
        from . import _kernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernel_py

KERNEL_BACKEND = "compiled" if _impl is not _kernel_py else "python"

_TINY = 1e-300
L_MAX_HARD = 60


def default_l_max(E: float, radius: float = 3.0, margin: int = 10) -> int:
    """Smallest l whose centrifugal barrier at `radius` tops 4E, plus margin.

    Channels above this are numerically free for media supported inside
    `radius`.
    """
    if E <= 0.0:
        return margin
    l_star = math.ceil((-1.0 + math.sqrt(1.0 + 16.0 * E * radius * radius))
                       / 2.0)
    return l_star + margin


@dataclass(frozen=True)
class AcousticSystem:
    """Layered acoustic medium plus an optional cloaked core potential.

    The core potential enters each shell's local wavenumber as
    k^2 = E a/sigma - W, which is the acoustic counterpart of adding W to the
    gauge-transformed equation.
    """

    medium: LayeredMedium
    core: Optional[CorePotential] = None


def _merge_edges(edges: list, cuts: list, lo: float, hi: float) -> list:
    out = sorted(set(edges) | {c for c in cuts if lo < c < hi})
    dedup = [out[0]]
    for x in out[1:]:
        if x - dedup[-1] > 1e-12:
            dedup.append(x)
    return dedup


def _acoustic_arrays(system: AcousticSystem, E: float):
    med = system.medium
    core = system.core
    cuts = [1.0] + (core.breakpoints() if core is not None else [])
    edges = _merge_edges(med.boundaries(), cuts, 0.0, med.shells[-1].r_out)
    k2 = []
    w = []
    shells = med.shells
    idx = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        while mid > shells[idx].r_out and idx < len(shells) - 1:
            idx += 1
        sigma, a = shells[idx].sigma, shells[idx].a
        wv = core.value_at(mid) if core is not None else 0.0
        k2.append(E * a / sigma - wv)
        w.append(sigma)
    return edges, k2, w


def _schrodinger_arrays(potential: RadialPotential, E: float):
    edges = _merge_edges(potential.boundaries(), [1.0], 0.0,
                         potential.shells[-1].r_out)
    k2 = []
    w = []
    shells = potential.shells
    sigmas = potential.interface_sigmas
    idx = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        while mid > shells[idx].r_out and idx < len(shells) - 1:
            idx += 1
        k2.append(E - shells[idx].V)
        w.append(sigmas[idx] if sigmas is not None else 1.0)
    return edges, k2, w


@dataclass(frozen=True)
class ChannelSolution:
    """Regular radial solution of one angular-momentum channel.

    Norms are L^2 masses of the radial factor (with the rho^2 measure),
    reported per unit boundary value u(r_max) = 1 and kept in log form so
    near-eigenvalue blowups stay representable.  ``gamma_v`` holds v'/v
    (v = rho u) on the inner side of each shell boundary.
    """

    l: int
    E: float
    r_max: float
    boundaries: tuple
    gamma_v: tuple
    p_end: float
    q_end: float
    log_norm_core: float
    log_norm_total: float
    concentration: float
    regular: bool = True
    overflow: bool = False
    sample_r: Optional[tuple] = None
    sample_u: Optional[tuple] = None   # u(rho)/u(r_max)

    def log_derivative_at(self, r: float) -> float:
        """u'/u on the inner side of the shell boundary at radius r."""
        for rb, gv in zip(self.boundaries[1:], self.gamma_v):
            if abs(rb - r) <= 1e-9:
                return gv - 1.0 / rb
        raise DomainError(f"r = {r} is not a shell boundary of this solution")

    @property
    def log_derivative_end(self) -> float:
        return self.gamma_v[-1] - 1.0 / self.r_max

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
    if l < 0 or l > L_MAX_HARD:
        raise ConfigurationError(f"channel l={l} outside [0, {L_MAX_HARD}]")
    if len(edges) != len(k2) + 1:
        raise GeometryError("boundary/shell count mismatch")
    r_max = edges[-1]
    samp = None
    if sample_r is not None:
        samp = [min(max(float(s), 0.0), r_max) for s in sample_r]
        if any(b < a for a, b in zip(samp, samp[1:])):
            raise DomainError("sample radii must be sorted ascending")
    res = _impl.propagate(l, edges, k2, w, r_core=1.0,
                          want_norms=want_norms, sample_r=samp)
    pa = max(abs(res.p3), _TINY)
    log_core = (math.log(max(res.i_core, _TINY)) + res.i_logoff
                + 2.0 * math.log(r_max) - 2.0 * math.log(pa))
    log_total = (math.log(max(res.i_total, _TINY)) + res.i_logoff
                 + 2.0 * math.log(r_max) - 2.0 * math.log(pa))
    conc = res.i_core / res.i_total if res.i_total > 0.0 else 0.0
    sample_u = None
    if samp is not None:
        # samples below the kernel's start radius were evaluated there, so
        # the u = v/rho conversion must use the same radius
        r_eps = min(1e-6, 0.5 * edges[1])
        sample_u = tuple(
            sv * r_max / (max(sr, r_eps) * res.p3) if res.p3 != 0.0
            else math.inf
            for sv, sr in zip(res.samples, samp))
    return ChannelSolution(
        l=l, E=E, r_max=r_max, boundaries=tuple(edges),
        gamma_v=tuple(res.gam_v), p_end=res.p3, q_end=res.q3,
        log_norm_core=log_core, log_norm_total=log_total,
        concentration=conc, overflow=res.overflow,
        sample_r=tuple(samp) if samp is not None else None,
        sample_u=sample_u)


def propagate_acoustic(system: AcousticSystem | LayeredMedium, l: int,
                       E: float, want_norms: bool = True,
                       sample_r: Optional[Sequence[float]] = None
                       ) -> ChannelSolution:
    """Regular solution of div(sigma grad u) + (E a - sigma W) u = 0 in
    channel l, matching u and sigma u' across every interface."""
    if isinstance(system, LayeredMedium):
        system = AcousticSystem(system)
    edges, k2, w = _acoustic_arrays(system, E)
    return _solve(edges, k2, w, l, E, want_norms, sample_r)


def propagate_schrodinger(potential: RadialPotential, l: int, E: float,
                          want_norms: bool = True,
                          sample_r: Optional[Sequence[float]] = None
                          ) -> ChannelSolution:
    """Regular solution of (-lap + V) psi = E psi in channel l.

    Plain potentials match psi and psi'; interface-matched potentials apply
    the gauge jump (psi scales by sqrt(sigma+/sigma-), sigma (psi/sqrt(sigma))'
    continuous), which makes the solve exactly gauge-equivalent to the
    acoustic one.
    """
    edges, k2, w = _schrodinger_arrays(potential, E)
    return _solve(edges, k2, w, l, E, want_norms, sample_r)


def core_neumann_arrays(W: CorePotential, E: float):
    """Shell arrays for the core problem -lap psi + W psi = E psi on [0, 1]."""
    edges = _merge_edges([0.0, 1.0], W.breakpoints(), 0.0, 1.0)
    k2 = [E - W.value_at(0.5 * (lo + hi))
          for lo, hi in zip(edges[:-1], edges[1:])]
    w = [1.0] * len(k2)
    return edges, k2, w


def solve_core_channel(W: CorePotential, l: int, E: float,
                       want_norms: bool = False) -> ChannelSolution:
    """Regular solution of the core operator on the unit ball."""
    edges, k2, w = core_neumann_arrays(W, E)
    return _solve(edges, k2, w, l, E, want_norms, None)
