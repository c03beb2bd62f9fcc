"""Seeded workloads of the qcloak job benchmark.

Each workload builds its base media and systems once (set-up), yields an
endless stream of jobs drawn from the seed, runs one job through qcloak's
public API and checks its output.  Jobs are plain dicts of generated
inputs; the program sees only those.  Streams come in blocks of `block`
jobs that hold a fixed mix of job kinds in seeded order; runs measure
whole blocks, so every run measures the same mix whatever the seed.

Every call into qcloak is looked up at call time (``qc.name(...)``,
``cli.main``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from pathlib import Path

import numpy as np

import qcloak as qc
from qcloak import cli, serialize

#: c_inn of the three reference systems (R = 1.005, 50 layers, doubled core)
REFERENCE_C_INN = {
    "pass-through": -98.5,
    "dirichlet-trap": 1.858,
    "neumann-trap": -71.45,
}

#: Every Dirichlet eigenvalue of the reference systems in (0.25, 0.8) for
#: l = 0..3, as (energy, kind).  Other (system, l) pairs have none there.
DIRICHLET_LEVELS = {
    ("dirichlet-trap", 0): ((0.3393240412226002, "interior"),),
    ("neumann-trap", 0): ((0.4473772944011324, "interior"),),
}

#: Interior trap energies (E, l) of the reference cores in (0.2, 0.9), l <= 3.
TRAP_ENERGIES = {
    "pass-through": (),
    "dirichlet-trap": ((0.33565075179963155, 0),),
    "neumann-trap": ((0.4460194920926144, 0),),
}

#: Paper values: trapped levels of the two trap scenarios, pinned to 1e-4.
PAPER_LEVEL = {"dirichlet-trap": 0.33932, "neumann-trap": 0.44738}
PAPER_LEVEL_TOL = 1e-4
LEVEL_TOL = 1e-6           # located roots against the reference table

TRAP_AMPLIFICATION = 1e3
POLE_OFFSETS = tuple(np.geomspace(1e-6, 1e-3, 7))


def reference_layers():
    """The paper's cloak: R = 1.005, 50 layers, doubled core."""
    return qc.homogenize(qc.truncate(1.005, *qc.DOUBLED_CORE), 50)


class Workload:
    """Base media built at set-up, a seeded job stream, a runner, a check."""

    name = ""
    block = 1                  # jobs per block of the stream

    def jobs(self, seed: int):
        raise NotImplementedError

    def run(self, job: dict):
        raise NotImplementedError

    def check(self, job: dict, out) -> list:
        """Problems found in `out`; an empty list means the job is correct."""
        raise NotImplementedError

    def warmup_job(self) -> dict:
        """A fixed job, the same for every seed."""
        return next(self.jobs(0))

    def close(self) -> None:
        pass


def _clear_of(values, x, gap):
    return all(abs(x - v) > gap for v in values)


# --- trap-scan ----------------------------------------------------------------

class TrapScan(Workload):
    """Driven resonance scans and eigenvalue searches on the three
    reference systems."""

    name = "trap-scan"
    SCAN_POINTS = 41           # resonance grid (its pole search scans 401)
    ROOT_SCAN = 201            # sign scan of the eigenvalue search
    TRAP_L_MAX = 1             # channels searched for interior trap energies
    CHANNELS = (0, 1, 2, 3)
    block = len(CHANNELS)
    EDGE_GAP = 0.01            # window edges stay this far from any level

    def __init__(self):
        layers = reference_layers()
        self.cores = {s: qc.CorePotential.step(c, 0.9)
                      for s, c in REFERENCE_C_INN.items()}
        self.systems = {s: qc.AcousticSystem(layers, core)
                        for s, core in self.cores.items()}
        self.levels = sorted(
            [e for lv in DIRICHLET_LEVELS.values() for e, _ in lv]
            + [e for tr in TRAP_ENERGIES.values() for e, _ in tr])

    def _window(self, rng):
        while True:
            width = rng.uniform(0.1, 0.2)
            lo = rng.uniform(0.25, 0.8 - width)
            hi = lo + width
            if (_clear_of(self.levels, lo, self.EDGE_GAP)
                    and _clear_of(self.levels, hi, self.EDGE_GAP)):
                return [lo, hi]

    def jobs(self, seed):
        # a block is one system with each channel once, in seeded order, so
        # l is uniform on 0..3 in every run; the channel sets most of a
        # job's cost (Bessel recurrences grow with l)
        rng = random.Random(seed)
        while True:
            systems = list(REFERENCE_C_INN)
            rng.shuffle(systems)
            for system in systems:
                channels = list(self.CHANNELS)
                rng.shuffle(channels)
                for l in channels:
                    yield {"system": system, "l": l,
                           "window": self._window(rng)}

    def warmup_job(self):
        return {"system": "neumann-trap", "l": 0, "window": [0.4, 0.55]}

    def run(self, job):
        system = self.systems[job["system"]]
        l = job["l"]
        window = tuple(job["window"])
        report = qc.resonance_scan(system, l, window,
                                   n_scan=self.SCAN_POINTS)
        levels = qc.dirichlet_eigenvalues(system, l, window,
                                          n_scan=self.ROOT_SCAN)
        traps = qc.interior_trap_energies(self.cores[job["system"]],
                                          *qc.DOUBLED_CORE, window,
                                          self.TRAP_L_MAX)
        exponent = (qc.fit_pole_exponent(system, l, levels[0].E,
                                         POLE_OFFSETS) if levels else None)
        return {"report": report, "levels": levels, "traps": traps,
                "exponent": exponent}

    def check(self, job, out):
        problems = []
        name, l = job["system"], job["l"]
        lo, hi = job["window"]
        expected = [(e, kind) for e, kind in DIRICHLET_LEVELS.get((name, l), ())
                    if lo < e < hi]
        got = out["levels"]
        if len(got) != len(expected) or any(
                abs(p.E - e) > LEVEL_TOL or p.kind != kind
                for p, (e, kind) in zip(got, expected)):
            problems.append(f"levels {[(p.E, p.kind) for p in got]} != "
                            f"reference {expected}")
        rep = out["report"]
        if expected:
            pole = rep.fitted_pole
            paper = PAPER_LEVEL[name]
            if pole is None or abs(pole.E - paper) > PAPER_LEVEL_TOL:
                problems.append(f"pole {pole} not at E = {paper}")
            if rep.amplification < TRAP_AMPLIFICATION:
                problems.append(f"amplification {rep.amplification:.3g} "
                                f"< {TRAP_AMPLIFICATION:g}")
            if pole is not None and pole.concentration <= 0.9:
                problems.append(f"core concentration {pole.concentration}")
            for label, x in (("scan", rep.scaling_exponent),
                             ("fit", out["exponent"])):
                if x is None or abs(x + 1.0) > 0.01:
                    problems.append(f"{label} exponent {x} not -1 +- 0.01")
        elif rep.fitted_pole is not None or \
                rep.amplification >= TRAP_AMPLIFICATION:
            problems.append(f"trap flagged without a level: amplification "
                            f"{rep.amplification:.3g}")
        want = [(e, tl) for e, tl in TRAP_ENERGIES[name]
                if lo <= e <= hi and tl <= self.TRAP_L_MAX]
        traps = out["traps"]
        if len(traps) != len(want) or any(
                abs(e - we) > LEVEL_TOL or tl != wl
                for (e, tl), (we, wl) in zip(traps, want)):
            problems.append(f"trap energies {traps} != reference {want}")
        return problems


# --- field-map ----------------------------------------------------------------

class FieldMap(Workload):
    """Plane-wave fields on seeded slice and segment grids, and the trapped
    mode's radial profile."""

    name = "field-map"
    E = 0.5
    #: the slice grid is SLICE_N x SLICE_N points.  The command line's
    #: default slice is 200 x 200 (about 13 s a job with the pure-Python
    #: kernel on a 2-core x86-64 VM, longer than a whole run allows); the
    #: time per field point is the same at both sizes, so a smaller grid
    #: keeps the mix of work.
    SLICE_N = 40
    SEGMENT_N = 600            # the command line's default segment
    MODE_N = 600
    block = 2                  # the two systems
    # pass-through at E = 0.5 (the paper's scenario): the total wave stays
    # within EXTERIOR_TOL of the plane wave for r >= 2 and below CORE_TOL in
    # the unit ball
    EXTERIOR_TOL = 0.027
    CORE_TOL = 0.014
    # neumann-trap at E = 0.5, off its level: the exterior stays within
    # 0.0274 of the plane wave at this commit's solver
    TRAP_EXTERIOR_TOL = 0.03

    def __init__(self):
        layers = reference_layers()
        self.systems = {s: qc.AcousticSystem(
            layers, qc.CorePotential.step(REFERENCE_C_INN[s], 0.9))
            for s in ("pass-through", "neumann-trap")}
        level = qc.dirichlet_eigenvalues(self.systems["neumann-trap"], 0,
                                         (0.44, 0.455), n_scan=31)
        self.E_mode = level[0].E

    def jobs(self, seed):
        rng = random.Random(seed)
        while True:
            for system in ("pass-through", "neumann-trap"):
                yield {
                    "system": system,
                    "slice": {"center": [rng.uniform(-0.3, 0.3),
                                         rng.uniform(-0.3, 0.3)],
                              "angle": rng.uniform(0.0, math.pi),
                              "half_width": rng.uniform(3.8, 4.2)},
                    "segment": {"angle": rng.uniform(0.0, math.pi),
                                "r_end": rng.uniform(3.5, 4.5)},
                    "mode_r0": rng.uniform(0.005, 0.05),
                }

    @classmethod
    def points(cls, job):
        """(r, cos theta, z) of the slice grid followed by the segment."""
        sl = job["slice"]
        h = sl["half_width"]
        u = np.linspace(-h, h, cls.SLICE_N)
        U, V = np.meshgrid(u, u, indexing="ij")
        c, s = math.cos(sl["angle"]), math.sin(sl["angle"])
        x = sl["center"][0] + c * U.ravel() - s * V.ravel()
        z = sl["center"][1] + s * U.ravel() + c * V.ravel()
        seg = job["segment"]
        t = np.linspace(0.0, seg["r_end"], cls.SEGMENT_N)
        x = np.concatenate([x, t * math.sin(seg["angle"])])
        z = np.concatenate([z, t * math.cos(seg["angle"])])
        r = np.hypot(x, z)
        mu = np.divide(z, r, out=np.ones_like(r), where=r > 0)
        return r, np.clip(mu, -1.0, 1.0), z

    def run(self, job):
        system = self.systems[job["system"]]
        r, mu, _ = self.points(job)
        n_slice = self.SLICE_N ** 2
        slice_psi = qc.plane_wave_field(system, self.E,
                                        np.column_stack([r, mu])[:n_slice])
        segment_psi = qc.plane_wave_field(system, self.E,
                                          np.column_stack([r, mu])[n_slice:])
        radii = np.linspace(job["mode_r0"], 3.0, self.MODE_N)
        mode = qc.radial_mode(self.systems["neumann-trap"], 0,
                              self.E_mode + 1e-9, radii)
        return {"psi": np.concatenate([slice_psi, segment_psi]),
                "mode": mode, "radii": radii}

    def check(self, job, out):
        problems = []
        r, _, z = self.points(job)
        psi = out["psi"]
        if not np.all(np.isfinite(psi)):
            problems.append("non-finite field values")
        plane = np.exp(1j * math.sqrt(self.E) * z)
        ext = np.abs(psi - plane)[r >= 2.0].max(initial=0.0)
        ext_tol = (self.EXTERIOR_TOL if job["system"] == "pass-through"
                   else self.TRAP_EXTERIOR_TOL)
        if ext > ext_tol:
            problems.append(f"exterior deviation {ext:.4f} > {ext_tol}")
        if job["system"] == "pass-through":
            core = np.abs(psi)[r <= 1.0].max(initial=0.0)
            if core > self.CORE_TOL:
                problems.append(f"core field {core:.4f} > {self.CORE_TOL}")
        if abs(self.E_mode - PAPER_LEVEL["neumann-trap"]) > PAPER_LEVEL_TOL:
            problems.append(f"located trap level {self.E_mode}")
        u, radii = out["mode"], out["radii"]
        inside = np.abs(u[radii < 1.0]).max()
        outside = np.abs(u[radii > 1.2]).max()
        if abs(inside - 1.0) > 1e-9 or outside >= 1e-2:
            problems.append(f"trapped mode not core-dominated: inside "
                            f"{inside}, outside {outside}")
        return problems


# --- config-sweep -------------------------------------------------------------

class ConfigSweep(Workload):
    """A fresh seeded cloak per job: synthesis, document round trip, and
    scattering observables for the acoustic and gauge-potential systems."""

    name = "config-sweep"
    MOLLIFIED_EVERY = 3        # one job in three also runs the mollified gauge
    block = MOLLIFIED_EVERY
    #: mollified jobs use the command line's default cloak (R = 1.005, 50
    #: layers): about 6.6k shells per mollified stack, 4-6 s a job with the
    #: pure-Python kernel on a 2-core x86-64 VM.
    #: Thicker cloaks at 50 layers miss the 1e-4 agreement (1.2e-4 at
    #: R = 1.05), so only E is drawn for them.
    MOLLIFIED_R = 1.005
    MOLLIFIED_LAYERS = 50

    def jobs(self, seed):
        rng = random.Random(seed)
        i = 0
        while True:
            mollified = i % self.MOLLIFIED_EVERY == self.MOLLIFIED_EVERY - 1
            R = rng.uniform(1.005, 1.1)
            n_layers = 2 * rng.randint(12, 18)
            if mollified:
                R, n_layers = self.MOLLIFIED_R, self.MOLLIFIED_LAYERS
            # (0.3, 0.7) holds no free outer-ball Dirichlet eigenvalue (the
            # first is (pi/3)^2 = 1.097) and no interior trap energy of the
            # coreless doubled cloak (the first above 0 is 1.08), the two
            # families the command line's refusal check keeps E away from
            E = rng.uniform(0.3, 0.7)
            yield {"R": R, "n_layers": n_layers, "E": E,
                   "mollified": mollified}
            i += 1

    def warmup_job(self):
        return {"R": 1.01, "n_layers": 36, "E": 0.5, "mollified": False}

    @staticmethod
    def _round_trip(obj):
        text = serialize.dumps(serialize.to_document(obj))
        return serialize.from_document(json.loads(text)), obj

    def run(self, job):
        E = job["E"]
        layers = qc.homogenize(qc.truncate(job["R"], *qc.DOUBLED_CORE),
                               job["n_layers"])
        layers_back, layers = self._round_trip(layers)
        potential_back, potential = self._round_trip(
            qc.gauge_potential(layers_back, E))
        out = {"layers_equal": layers_back == layers,
               "potential_equal": potential_back == potential}
        for label, system in (("acoustic", qc.AcousticSystem(layers_back)),
                              ("potential", potential_back)):
            shifts = qc.phase_shifts(system, E)
            out[label] = {
                "delta": shifts.delta,
                "sigma_tot": qc.total_cross_section(shifts),
                "optical_defect": qc.optical_theorem_defect(shifts),
                "dn": qc.dn_spectrum(system, E).lam,
            }
        if job["mollified"]:
            smooth = qc.mollify_medium(layers_back)
            mollified = qc.gauge_potential(layers_back, E, mode="mollified")
            l_max = qc.default_l_max(E)
            out["mollified"] = {
                "smooth": qc.phase_shifts(qc.AcousticSystem(smooth), E,
                                          l_max).delta,
                "potential": qc.phase_shifts(mollified, E, l_max).delta,
            }
        return out

    def check(self, job, out):
        problems = []
        if not (out["layers_equal"] and out["potential_equal"]):
            problems.append("serialize round trip changed the medium")
        ac, po = out["acoustic"], out["potential"]
        for label, rec in (("acoustic", ac), ("potential", po)):
            if not rec["optical_defect"] < 1e-8:
                problems.append(f"{label} optical-theorem defect "
                                f"{rec['optical_defect']:.2e}")
            if not (rec["sigma_tot"] > 0.0 and math.isfinite(rec["sigma_tot"])):
                problems.append(f"{label} cross section {rec['sigma_tot']}")
        for key in ("delta", "dn"):
            dev = max(abs(a - b) for a, b in zip(ac[key], po[key]))
            if len(ac[key]) != len(po[key]) or not dev < 1e-8:
                problems.append(f"gauge equivalence of {key}: {dev:.2e}")
        if job["mollified"]:
            mo = out["mollified"]
            dev = max(abs(a - b) for a, b in zip(mo["smooth"], mo["potential"]))
            if not dev < 1e-4:
                problems.append(f"mollified phase shifts differ by {dev:.2e}")
        return problems


# --- cli-replay ---------------------------------------------------------------

def _num(x: float) -> str:
    return format(x, ".6g")


class CliReplay(Workload):
    """README commands through `qcloak.cli.main`, each replayed from its
    saved manifest and compared byte for byte."""

    name = "cli-replay"
    #: job kinds of one block: the README's synthesize, phase-shifts,
    #: dn-compare, convergence, scenario and resonance-scan commands once
    #: each, and convergence also at an energy the admissibility check must
    #: refuse.  A run holds one to three blocks, so its median and tail
    #: are order statistics near the middle; with an odd count of kinds
    #: both fall inside one kind (the refusals, ~0.3 s between the table
    #: writers' 0.04 s and the checked runs' 1 s) rather than halfway
    #: across the step between two kinds' costs.
    BLOCK = ("synthesize", "phase-shifts", "dn-compare", "convergence",
             "convergence-refused", "scenario", "resonance-scan")
    block = len(BLOCK)
    #: slice grid of the scenario runs.  Every other size is the command
    #: line's default; its 200 x 200 slice would make one scenario job (run
    #: and replay) take about 26 s on the same VM, longer than a whole run.
    SCENARIO_SLICE = 24
    #: core of the deliberately refused convergence runs, and its trap energy
    REFUSED_C_INN = -71.45

    def __init__(self, out_dir: Path):
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        self.trap_E = TRAP_ENERGIES["neumann-trap"][0][0]
        self.levels = sorted(e for lv in DIRICHLET_LEVELS.values()
                             for e, _ in lv)

    def _window(self, rng):
        while True:
            lo = rng.uniform(0.3, 0.45)
            hi = lo + rng.uniform(0.1, 0.15)
            if (_clear_of(self.levels, lo, 0.01)
                    and _clear_of(self.levels, hi, 0.01)):
                return lo, hi

    def _job(self, kind, rng):
        R = rng.uniform(1.005, 1.1)
        n_layers = 2 * rng.randint(6, 25)
        E = rng.uniform(0.35, 0.65)
        medium = ["--R", _num(R), "--n-layers", str(n_layers), "--E", _num(E)]
        extra, expect = [], 0
        if kind == "synthesize":
            command, args = kind, medium
        elif kind == "phase-shifts":
            command = kind
            args = medium + ["--l-max", str(rng.randint(8, 14))]
        elif kind == "dn-compare":
            command = kind
            args = medium + ["--l-max", str(rng.randint(8, 14)), "--mode",
                             rng.choice(["acoustic", "schrodinger"])]
        elif kind == "convergence":
            command = kind
            args = ["--n-layers", str(2 * rng.randint(10, 25)),
                    "--l-max", "3", "--E", _num(E)]
            extra = ["--R-list", "1.1,1.05,1.01,1.005"]
        elif kind == "convergence-refused":
            # deliberately within the refusal tolerance of a trap energy
            command, expect = "convergence", 2
            args = ["--c-inn", _num(self.REFUSED_C_INN), "--l-max", "2",
                    "--E", repr(self.trap_E + rng.uniform(-4e-4, 4e-4))]
        elif kind == "scenario":
            command = kind
            args = ["--E", _num(E), "--slice-samples",
                    str(self.SCENARIO_SLICE)]
            extra = ["pass-through"]
        elif kind == "resonance-scan":
            command = kind
            lo, hi = self._window(rng)
            c_inn = rng.choice(sorted(REFERENCE_C_INN.values()))
            args = ["--c-inn", _num(c_inn), "--window-lo", _num(lo),
                    "--window-hi", _num(hi)]
            extra = ["--channels", "0"]
        else:
            raise ValueError(f"unknown job kind {kind!r}")
        return {"kind": kind, "command": command, "args": args,
                "extra": extra, "expect": expect}

    def jobs(self, seed):
        rng = random.Random(seed)
        while True:
            block = list(self.BLOCK)
            rng.shuffle(block)
            for kind in block:
                yield self._job(kind, rng)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def warmup_job(self):
        return {"kind": "phase-shifts", "command": "phase-shifts",
                "args": ["--R", "1.01", "--n-layers", "36", "--l-max", "10"],
                "extra": [], "expect": 0}

    def run(self, job):
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        first, replay = work / "first", work / "replay"
        try:
            cmd = [job["command"]] + job["extra"]
            rc = cli.main(cmd + job["args"] + ["--out", str(first)])
            rc_replay = None
            if rc == 0:
                rc_replay = cli.main(cmd + ["--config",
                                            str(first / "manifest.json"),
                                            "--out", str(replay)])
            files = {d.name: {p.name: p.read_bytes()
                              for p in sorted(d.iterdir())}
                     for d in (first, replay) if d.is_dir()}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return {"rc": rc, "rc_replay": rc_replay, "files": files}

    def check(self, job, out):
        problems = []
        if out["rc"] != job["expect"]:
            return [f"exit code {out['rc']}, expected {job['expect']}"]
        if job["expect"] != 0:
            return problems
        if out["rc_replay"] != 0:
            return [f"replay exit code {out['rc_replay']}"]
        first = out["files"].get("first", {})
        replay = out["files"].get("replay", {})
        if not first or "manifest.json" not in first:
            problems.append("no outputs written")
        if sorted(first) != sorted(replay):
            problems.append(f"replay wrote {sorted(replay)}, first run "
                            f"{sorted(first)}")
        for name, data in first.items():
            if replay.get(name) != data:
                problems.append(f"{name} differs on replay")
        if job["command"] == "scenario" and "report.json" in first:
            report = json.loads(first["report.json"])
            if report.get("almost_trapped") is not False:
                problems.append("pass-through flagged a trapped state")
        return problems


WORKLOADS = {w.name: w for w in (TrapScan, FieldMap, ConfigSweep, CliReplay)}
