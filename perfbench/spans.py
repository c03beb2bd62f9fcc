"""Span tracing at the boundaries of qcloak's modules.

The traced run installs a wrapper around every public function of each
layer (the package modules) and around the propagation kernel that
`qcloak.propagate` selected.  Each call records one span: its name, start,
end, parent span and the job it belongs to.  Spans stay in memory and are
written out once, when the run ends.  Counters are taken at the same
boundaries, so ratios are measured where the work happens.

Wrappers replace every reference to the original function in the qcloak
modules, because the modules call each other through names they imported.
Nothing is installed unless the traced run asks for it; `uninstall`
restores the originals.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: (layer, module, public functions) traced at each layer boundary
LAYERS = (
    ("media", "qcloak.media",
     ("truncate", "homogenize", "gauge_potential", "mollify_medium",
      "attach_core")),
    ("serialize", "qcloak.serialize",
     ("to_document", "from_document", "dumps", "save", "load")),
    ("special", "qcloak.special", ("spherical_bessel",)),
    ("propagate", "qcloak.propagate",
     ("propagate_acoustic", "propagate_schrodinger", "solve_core_channel")),
    ("spectral", "qcloak.spectral",
     ("resonance_scan", "dirichlet_eigenvalues", "neumann_core_eigenvalues",
      "interior_trap_energies", "free_dirichlet_eigenvalues",
      "fit_pole_exponent")),
    ("observables", "qcloak.observables",
     ("phase_shifts", "dn_spectrum", "plane_wave_field", "radial_mode",
      "total_cross_section", "optical_theorem_defect")),
    ("cli", "qcloak.cli", ("main", "check_energy_admissible")),
)

#: spans that are not public calls of their layer (not in `<layer>.calls`)
KERNEL_SPAN = "kernel.propagate"
ROOT_SPAN = "spectral.brentq"


def self_times(parents, durations) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    `parents[i]` is the index of span i's parent, or -1 for a root span.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(durations, dtype=float)
    has_parent = parents >= 0
    children = np.bincount(parents[has_parent],
                           weights=durations[has_parent],
                           minlength=len(durations))
    return durations - children


def _kernel_inputs(args, kwargs):
    """(l, r, k2, w, want_norms, sample_r) of a kernel `propagate` call."""
    l, r, k2, w = args[:4]
    rest = dict(zip(("r_core", "want_norms", "sample_r"), args[4:]))
    rest.update(kwargs)
    return l, r, k2, w, rest.get("want_norms", True), rest.get("sample_r")


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.name = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job_id = -1
        self._seen: set = set()
        self._in_spectral = 0
        self._in_root = 0
        self._undo: list = []
        self._patches: list = []

    # --- jobs and spans --------------------------------------------------

    def start_job(self, job_id: int) -> None:
        """Tag later spans with `job_id`; repeats are counted per job."""
        self._job_id = job_id
        self._seen = set()

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer, name, fn, on_call=None, on_return=None,
              depth=None):
        nid = self._name_id(layer, name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if depth is not None:
                setattr(self, depth, getattr(self, depth) + 1)
            sid = len(self.t0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self._job_id)
            self.name.append(nid)
            self.t1.append(0.0)
            self.t0.append(0.0)
            self._stack.append(sid)
            self.t0[sid] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[sid] = perf()
                self._stack.pop()
                if depth is not None:
                    setattr(self, depth, getattr(self, depth) - 1)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- counters at the boundaries --------------------------------------

    def _count_eval(self, args, kwargs):
        # a solve or Bessel evaluation issued by a spectral routine
        if self._in_root:
            self.counts["spectral.root_evals"] += 1
        elif self._in_spectral:
            self.counts["spectral.scan_evals"] += 1

    def _kernel_call(self, args, kwargs):
        l, r, k2, w, want_norms, sample_r = _kernel_inputs(args, kwargs)
        c = self.counts
        c["kernel.shells"] += len(k2)
        c["kernel.norm_calls"] += bool(want_norms)
        if sample_r is not None:
            c["kernel.samples"] += len(sample_r)
        key = hash((l, tuple(r), tuple(k2), tuple(w), bool(want_norms),
                    tuple(sample_r) if sample_r is not None else None))
        if key in self._seen:
            c["propagate.repeats"] += 1
        else:
            self._seen.add(key)

    def _kernel_return(self, args, kwargs, result):
        self.counts["kernel.overflows"] += bool(result.overflow)

    def _media_return(self, args, kwargs, result):
        self.counts["media.shells_out"] += len(getattr(result, "shells", ()))

    def _dumps_return(self, args, kwargs, result):
        self.counts["serialize.bytes"] += len(result.encode("utf-8"))

    def _load_call(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.counts["serialize.bytes"] += os.path.getsize(path)

    def _field_call(self, args, kwargs):
        pts = args[2] if len(args) > 2 else kwargs["points"]
        self.counts["observables.field_points"] += len(pts)

    def _mode_call(self, args, kwargs):
        radii = args[3] if len(args) > 3 else kwargs["radii"]
        self.counts["observables.field_points"] += len(radii)

    def _root_return(self, args, kwargs, result):
        self.counts["spectral.roots"] += 1

    def _rows_hook(self, write_table):
        def counted(path, manifest, columns, rows):
            rows = list(rows)
            self.counts["cli.rows_written"] += len(rows)
            return write_table(path, manifest, columns, rows)
        counted.__wrapped__ = write_table
        return counted

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place of every reference to the originals.

        Wrappers are built on the first call and reused, so the span name
        table stays the same across repeated installs.
        """
        if not self._patches:
            self._patches = self._build_patches()
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "qcloak" or n.startswith("qcloak."))]
        for original, wrapper in self._patches:
            self._replace(mods, original, wrapper)

    def _build_patches(self) -> list:
        hooks = {
            "media": dict(on_return=self._media_return),
            "special": dict(on_call=self._count_eval),
            "propagate": dict(on_call=self._count_eval),
            "spectral": dict(depth="_in_spectral"),
        }
        per_name = {
            "dumps": dict(on_return=self._dumps_return),
            "load": dict(on_call=self._load_call),
            "plane_wave_field": dict(on_call=self._field_call),
            "radial_mode": dict(on_call=self._mode_call),
        }
        patches = []
        for layer, modname, names in LAYERS:
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                opts = per_name.get(name, hooks.get(layer, {}))
                patches.append((fn, self._wrap(layer, name, fn, **opts)))
        kernel = sys.modules["qcloak.propagate"]._impl.propagate
        patches.append((kernel, self._wrap(
            "kernel", KERNEL_SPAN, kernel, on_call=self._kernel_call,
            on_return=self._kernel_return)))
        brentq = sys.modules["qcloak.spectral"].brentq
        patches.append((brentq, self._wrap(
            "spectral", ROOT_SPAN, brentq, on_return=self._root_return,
            depth="_in_root")))
        write_table = sys.modules["qcloak.cli"].write_table
        patches.append((write_table, self._rows_hook(write_table)))
        return patches

    def _replace(self, mods, original, wrapper) -> None:
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)

    # --- summary ---------------------------------------------------------

    def durations(self) -> np.ndarray:
        return (np.asarray(self.t1, dtype=float)
                - np.asarray(self.t0, dtype=float))

    def layer_metrics(self, n_jobs: int) -> dict:
        """Per-layer metrics, averaged per job: {name: (value, unit)}."""
        names = np.asarray(self.names)
        layers = np.asarray(self.layers)
        name_ids = np.asarray(self.name, dtype=np.int64)
        dur = self.durations()
        own = self_times(np.asarray(self.parent, dtype=np.int64), dur)
        n_ids = len(self.names)
        self_by_name = np.bincount(name_ids, weights=own, minlength=n_ids)
        incl_by_name = np.bincount(name_ids, weights=dur, minlength=n_ids)
        calls_by_name = np.bincount(name_ids, minlength=n_ids)
        c = self.counts
        per = 1.0 / max(n_jobs, 1)

        def layer_sum(values, layer, public_only=False):
            mask = layers == layer
            if public_only:
                mask &= (names != KERNEL_SPAN) & (names != ROOT_SPAN)
            return float(values[mask].sum())

        def named(values, name):
            return float(values[names == name].sum())

        out = {}
        for layer, _, _ in LAYERS:
            out[f"{layer}.calls"] = (
                layer_sum(calls_by_name, layer, True) * per, "1/job")
            out[f"{layer}.self_s"] = (layer_sum(self_by_name, layer) * per,
                                      "s/job")
        out["propagate.solves"] = out.pop("propagate.calls")
        out["cli.commands"] = out.pop("cli.calls")
        kernel_calls = named(calls_by_name, KERNEL_SPAN)
        kernel_self = named(self_by_name, KERNEL_SPAN)
        roots = c["spectral.roots"]
        out.update({
            "media.shells_out": (c["media.shells_out"] * per, "1/job"),
            "serialize.bytes": (c["serialize.bytes"] * per, "B/job"),
            "kernel.calls": (kernel_calls * per, "1/job"),
            "kernel.self_s": (kernel_self * per, "s/job"),
            "kernel.shells": (c["kernel.shells"] * per, "1/job"),
            "kernel.ns_per_shell": (
                1e9 * kernel_self / c["kernel.shells"]
                if c["kernel.shells"] else 0.0, "ns"),
            "kernel.samples": (c["kernel.samples"] * per, "1/job"),
            "kernel.norm_share": (
                c["kernel.norm_calls"] / kernel_calls if kernel_calls
                else 0.0, "ratio"),
            "kernel.overflows": (c["kernel.overflows"] * per, "1/job"),
            "propagate.repeat_ratio": (
                c["propagate.repeats"] / kernel_calls if kernel_calls
                else 0.0, "ratio"),
            "spectral.scan_evals": (c["spectral.scan_evals"] * per, "1/job"),
            "spectral.root_evals_per_root": (
                c["spectral.root_evals"] / roots if roots else 0.0, "1/root"),
            "spectral.roots": (roots * per, "1/job"),
            "observables.field_points": (
                c["observables.field_points"] * per, "1/job"),
            "cli.rows_written": (c["cli.rows_written"] * per, "1/job"),
            "cli.admissibility_s": (
                named(incl_by_name, "check_energy_admissible") * per,
                "s/job"),
        })
        return out

    def write(self, path) -> None:
        """Write every recorded span (and the name table) to `path`."""
        np.savez(path,
                 start=np.asarray(self.t0, dtype=float),
                 end=np.asarray(self.t1, dtype=float),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 job=np.asarray(self.job, dtype=np.int64),
                 name=np.asarray(self.name, dtype=np.int64),
                 names=np.asarray([f"{lay}:{nm}" for lay, nm
                                   in zip(self.layers, self.names)]))
