"""Configuration-driven command line: synthesis, observables, convergence
studies, resonance scans, and the three reference scenarios.

Every output table embeds the full manifest in its header and every value is
written with 17 significant digits, so re-running a command from its
manifest reproduces the files byte for byte (no timestamps anywhere).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import __version__, observables, serialize, spectral
from .errors import (
    ConfigurationError,
    EigenvalueProximityRefusal,
    QcloakError,
)
from .media import (
    CorePotential,
    DOUBLED_CORE,
    UNIT_CORE,
    attach_core,
    gauge_potential,
    homogenize,
    truncate,
)
from .propagate import AcousticSystem, default_l_max

SCENARIO_C_INN = {
    "pass-through": -98.5,
    "dirichlet-trap": 1.858,
    "neumann-trap": -71.45,
}
TRAP_AMPLIFICATION = 1e3


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment; defaults reproduce the reference cloak
    (R = 1.005, 50 layers, E = 0.5, step core at 0.9).  Construction (and
    `dataclasses.replace`) raises ConfigurationError naming the first bad
    field, so a config that exists is valid."""

    R: float = 1.005
    n_layers: int = 50
    grading: str = "uniform"
    grading_ratio: float = 1.15
    E: float = 0.5
    c_inn: float = -98.5
    core_radius: float = 0.9
    core_preset: str = "doubled"      # 'doubled' | 'unit'
    l_max: Optional[int] = None
    mode: str = "both"                # 'acoustic' | 'schrodinger' | 'both'
    gauge_mode: str = "interface-matched"   # | 'mollified'
    eta: Optional[float] = None
    grid_step: Optional[float] = None
    window_lo: float = 0.4
    window_hi: float = 0.6
    n_scan: int = 601
    segment_samples: int = 600
    slice_samples: int = 200
    refusal_tol: float = 1e-3
    force: bool = False
    phase_order: str = "low-first"

    def __post_init__(self) -> None:
        if not 0.0 < self.core_radius <= 1.0:
            raise ConfigurationError(
                f"core_radius: need 0 < step <= 1, got {self.core_radius}")
        if not 1.0 < self.R <= 2.0:
            raise ConfigurationError(f"R: need 1 < R <= 2, got {self.R}")
        if self.E <= 0.0:
            raise ConfigurationError(
                f"E: scattering runs need E > 0, got {self.E}")
        if self.n_layers < 2 or self.n_layers % 2:
            raise ConfigurationError(
                f"n_layers: need an even count >= 2, got {self.n_layers}")
        if self.core_preset not in ("doubled", "unit"):
            raise ConfigurationError(
                f"core_preset: unknown preset {self.core_preset!r}")
        if self.mode not in ("acoustic", "schrodinger", "both"):
            raise ConfigurationError(f"mode: unknown mode {self.mode!r}")
        if self.gauge_mode not in ("interface-matched", "mollified"):
            raise ConfigurationError(
                f"gauge_mode: unknown mode {self.gauge_mode!r}")
        if not self.window_hi > self.window_lo > 0.0:
            raise ConfigurationError("window: need 0 < window_lo < window_hi")
        if self.l_max is not None and self.l_max < 0:
            raise ConfigurationError(
                f"l_max: need l_max >= 0, got {self.l_max}")
        for name in ("n_scan", "segment_samples", "slice_samples"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name}: need a count >= 1, got {getattr(self, name)}")

    # --- builders --------------------------------------------------------

    def core_constants(self) -> tuple[float, float]:
        return DOUBLED_CORE if self.core_preset == "doubled" else UNIT_CORE

    def effective_l_max(self) -> int:
        return self.l_max if self.l_max is not None else default_l_max(self.E)

    def build_core(self) -> Optional[CorePotential]:
        if self.c_inn == 0.0:
            return None
        return CorePotential.step(self.c_inn, self.core_radius)

    def build_layers(self, R: Optional[float] = None,
                     n_layers: Optional[int] = None):
        cs, ca = self.core_constants()
        med = truncate(R if R is not None else self.R, cs, ca)
        return homogenize(med, n_layers if n_layers is not None
                          else self.n_layers, grading=self.grading,
                          ratio=self.grading_ratio,
                          phase_order=self.phase_order)

    def build_acoustic(self, R: Optional[float] = None,
                       n_layers: Optional[int] = None) -> AcousticSystem:
        return AcousticSystem(self.build_layers(R, n_layers),
                              self.build_core())

    def build_potential(self, R: Optional[float] = None,
                        n_layers: Optional[int] = None):
        layers = self.build_layers(R, n_layers)
        pot = gauge_potential(layers, self.E, mode=self.gauge_mode,
                              eta=self.eta, grid_step=self.grid_step)
        core = self.build_core()
        return attach_core(pot, core) if core is not None else pot

    def build_system(self, R: Optional[float] = None,
                     n_layers: Optional[int] = None):
        """The system this mode solves: the gauge potential in schrodinger
        mode, else the acoustic system."""
        if self.mode == "schrodinger":
            return self.build_potential(R, n_layers)
        return self.build_acoustic(R, n_layers)


def _f17(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def manifest_for(command: str, cfg: ExperimentConfig, **extra) -> dict:
    doc = {"command": command, "qcloak_version": __version__,
           "config": asdict(cfg)}
    doc.update(extra)
    return doc


def write_table(path: Path, manifest: dict, columns: list, rows) -> None:
    lines = [f"# manifest: {serialize.dumps(manifest).strip()}",
             "# " + "\t".join(columns)]
    for row in rows:
        lines.append("\t".join(_f17(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(outdir: Path, manifest: dict) -> None:
    (outdir / "manifest.json").write_text(serialize.dumps(manifest),
                                          encoding="utf-8")


def check_energy_admissible(cfg: ExperimentConfig, E: float) -> None:
    """Refuse energies within tolerance of a free outer-ball Dirichlet
    eigenvalue or an interior trap energy: cloaking convergence needs the
    working energy separated from both families."""
    tol = cfg.refusal_tol
    l_max = cfg.effective_l_max()
    window = (max(E - 0.1, 1e-6), E + 0.1)
    for ev, l in spectral.free_dirichlet_eigenvalues(window, l_max):
        if abs(ev - E) < tol:
            raise EigenvalueProximityRefusal(
                f"E = {_f17(E)} is within {_f17(tol)} of the free Dirichlet "
                f"eigenvalue {_f17(ev)} (channel l = {l})",
                eigenvalue=ev, kind="free-dirichlet")
    cs, ca = cfg.core_constants()
    traps = spectral.interior_trap_energies(cfg.build_core(), cs, ca,
                                            window, l_max)
    for ev, l in traps:
        if abs(ev - E) < tol:
            raise EigenvalueProximityRefusal(
                f"E = {_f17(E)} is within {_f17(tol)} of the interior trap "
                f"energy {_f17(ev)} (channel l = {l})",
                eigenvalue=ev, kind="interior-trap")


# --- commands -------------------------------------------------------------

def cmd_synthesize(cfg: ExperimentConfig, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = manifest_for("synthesize", cfg)
    written = []
    if cfg.mode in ("acoustic", "both"):
        serialize.save(cfg.build_layers(), outdir / "medium.json")
        written.append("medium.json")
    if cfg.mode in ("schrodinger", "both"):
        serialize.save(cfg.build_potential(), outdir / "potential.json")
        written.append("potential.json")
    write_manifest(outdir, manifest)
    return {"written": written, "manifest": manifest}


def cmd_phase_shifts(cfg: ExperimentConfig, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    l_max = cfg.effective_l_max()
    cols = ["l"]
    series = []
    if cfg.mode in ("acoustic", "both"):
        ps = observables.phase_shifts(cfg.build_acoustic(), cfg.E, l_max)
        series.append(ps.delta)
        cols.append("delta_acoustic")
    if cfg.mode in ("schrodinger", "both"):
        ps = observables.phase_shifts(cfg.build_potential(), cfg.E, l_max)
        series.append(ps.delta)
        cols.append("delta_schrodinger")
    manifest = manifest_for("phase-shifts", cfg)
    rows = [[l] + [s[l] for s in series] for l in range(l_max + 1)]
    write_table(outdir / "phase_shifts.tsv", manifest, cols, rows)
    write_manifest(outdir, manifest)
    return {"rows": rows, "columns": cols}


def cmd_dn_compare(cfg: ExperimentConfig, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    l_max = cfg.effective_l_max()
    system = cfg.build_system()
    dn = observables.dn_spectrum(system, cfg.E, l_max)
    free = observables.free_dn_spectrum(cfg.E, l_max)
    rows = [[l, dn.lam[l], free.lam[l], abs(dn.lam[l] - free.lam[l])]
            for l in range(l_max + 1)]
    manifest = manifest_for("dn-compare", cfg,
                            max_deviation=dn.max_deviation_from_free())
    write_table(outdir / "dn_compare.tsv", manifest,
                ["l", "lambda", "lambda_free", "abs_deviation"], rows)
    write_manifest(outdir, manifest)
    return {"max_deviation": dn.max_deviation_from_free(), "rows": rows}


def convergence_layer_counts(R_list, n_ref: int, R_ref: float = 1.005):
    """Proportional refinement: n grows like 1/sqrt(R - 1), even, >= 4."""
    counts = []
    for R in R_list:
        n = int(round(n_ref * math.sqrt((R_ref - 1.0) / (R - 1.0))))
        counts.append(max(4, n + (n % 2)))
    return counts


def cmd_convergence(cfg: ExperimentConfig, outdir: Path,
                    R_list=(1.1, 1.05, 1.01, 1.005)) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    if not cfg.force:
        check_energy_admissible(cfg, cfg.E)
    l_max = cfg.effective_l_max()
    counts = convergence_layer_counts(R_list, cfg.n_layers)
    rows = []
    for R, n in zip(R_list, counts):
        system = cfg.build_system(R, n)
        dn = observables.dn_spectrum(system, cfg.E, l_max)
        dev = dn.max_deviation_from_free()
        ps = observables.phase_shifts(system, cfg.E, l_max)
        stot = observables.total_cross_section(ps)
        rows.append([R, n, dev, stot])
    manifest = manifest_for("convergence", cfg, R_list=list(R_list),
                            layer_counts=counts)
    write_table(outdir / "convergence.tsv", manifest,
                ["R", "n_layers", "max_dn_deviation", "sigma_tot"], rows)
    write_manifest(outdir, manifest)
    devs = [r[2] for r in rows]
    stots = [r[3] for r in rows]
    monotone = (all(a > b for a, b in zip(devs, devs[1:]))
                and all(a > b for a, b in zip(stots, stots[1:])))
    if not monotone:
        raise QcloakError(
            "convergence trend violated; see convergence.tsv for the table")
    return {"rows": rows, "monotone": monotone}


def _slice_points(n: int):
    xs = np.linspace(-3.0, 3.0, n)
    zs = np.linspace(-3.0, 3.0, n)
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    R = np.hypot(X, Z)
    MU = np.divide(Z, R, out=np.ones_like(R), where=R > 0)
    return np.column_stack([R.ravel(), MU.ravel()]), X.ravel(), Z.ravel()


def _write_field(outdir: Path, manifest: dict, cfg: ExperimentConfig,
                 system, kind: str):
    """field_<kind>.tsv: the plane-wave field on the segment (r from 0 to 3
    along the incidence direction) or on the x-z slice through the ball."""
    if kind == "segment":
        r = np.linspace(0.0, 3.0, cfg.segment_samples)
        pts, coords, cols = np.column_stack([r, np.ones_like(r)]), [r], ["r"]
    elif kind == "slice":
        pts, x, z = _slice_points(cfg.slice_samples)
        coords, cols = [x, z], ["x", "z"]
    else:
        raise ConfigurationError(f"unknown field-map kind {kind!r}")
    psi = observables.plane_wave_field(system, cfg.E, pts,
                                       cfg.effective_l_max())
    rows = [[*c, v.real, v.imag] for *c, v in zip(*coords, psi)]
    write_table(outdir / f"field_{kind}.tsv", manifest,
                cols + ["re_psi", "im_psi"], rows)


def _write_mode(outdir: Path, manifest: dict, cfg: ExperimentConfig,
                system, l: int, E: float):
    """Tables of the channel-l mode just above E: its radial profile on the
    segment and u(r) P_l(cos theta) on the slice."""
    r = np.linspace(0.0, 3.0, cfg.segment_samples)
    u = observables.radial_mode(system, l, E + 1e-9, r)
    write_table(outdir / "mode_segment.tsv", manifest, ["r", "u"],
                list(zip(r, u)))
    spts, x, z = _slice_points(cfg.slice_samples)
    uu = observables.radial_mode(system, l, E + 1e-9, np.asarray(spts[:, 0]))
    pl = observables.legendre_values(l, spts[:, 1])[l]
    write_table(outdir / "mode_slice.tsv", manifest, ["x", "z", "psi"],
                list(zip(x, z, uu * pl)))


def cmd_field_map(cfg: ExperimentConfig, outdir: Path,
                  kind: str = "segment") -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    system = cfg.build_system()
    manifest = manifest_for("field-map", cfg, kind=kind)
    _write_field(outdir, manifest, cfg, system, kind)
    write_manifest(outdir, manifest)
    return {"kind": kind}


def cmd_resonance_scan(cfg: ExperimentConfig, outdir: Path,
                       channels=(0, 1, 2)) -> dict:
    """Per-channel driven scans over the configured window.

    In schrodinger mode the potential stays fixed at its design energy
    cfg.E while the drive energy sweeps the window, so its interior levels
    sit at the off-design positions, not at the acoustic ones.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    system = cfg.build_system()
    window = (cfg.window_lo, cfg.window_hi)
    manifest = manifest_for("resonance-scan", cfg, channels=list(channels))
    reports = []
    summary = []
    for l in channels:
        rep = spectral.resonance_scan(system, l, window, n_scan=cfg.n_scan)
        reports.append(rep)
        summary.append([l, rep.E_peak, rep.amplification,
                        rep.fitted_pole.E if rep.fitted_pole else math.nan,
                        rep.fitted_pole.concentration if rep.fitted_pole
                        else math.nan,
                        rep.scaling_exponent if rep.scaling_exponent
                        is not None else math.nan])
        write_table(outdir / f"resonance_grid_l{l}.tsv", manifest,
                    ["E", "amplification"],
                    list(zip(rep.E_grid, rep.amplification_grid)))
    write_table(outdir / "resonance_summary.tsv", manifest,
                ["l", "E_peak", "amplification", "pole_E",
                 "pole_concentration", "scaling_exponent"], summary)
    write_manifest(outdir, manifest)
    return {"reports": reports, "summary": summary}


def cmd_scenario(cfg: ExperimentConfig, outdir: Path, name: str) -> dict:
    if name not in SCENARIO_C_INN:
        raise ConfigurationError(f"unknown scenario {name!r}")
    cfg = replace(cfg, c_inn=SCENARIO_C_INN[name],
                  force=(name != "pass-through") or cfg.force)
    outdir.mkdir(parents=True, exist_ok=True)
    if not cfg.force:
        check_energy_admissible(cfg, cfg.E)
    system = cfg.build_acoustic()
    manifest = manifest_for("scenario", cfg, scenario=name)
    report: dict = {"scenario": name, "c_inn": cfg.c_inn, "E": cfg.E}

    if name == "pass-through":
        dn = observables.dn_spectrum(system, cfg.E, cfg.effective_l_max())
        ps = observables.phase_shifts(system, cfg.E, cfg.effective_l_max())
        rep = spectral.resonance_scan(system, 0,
                                      (cfg.window_lo, cfg.window_hi),
                                      n_scan=cfg.n_scan)
        for kind in ("segment", "slice"):
            _write_field(outdir, manifest, cfg, system, kind)
        report.update({
            "almost_trapped": bool(rep.amplification >= TRAP_AMPLIFICATION),
            "amplification": rep.amplification,
            "max_dn_deviation": dn.max_deviation_from_free(),
            "sigma_tot": observables.total_cross_section(ps),
        })
    elif name == "neumann-trap":
        best = None
        for l in range(0, 4):
            rep = spectral.resonance_scan(system, l,
                                          (cfg.window_lo, cfg.window_hi),
                                          n_scan=cfg.n_scan)
            if best is None or rep.amplification > best.amplification:
                best = rep
        pole = best.fitted_pole
        E_mode = pole.E if pole is not None else best.E_peak
        l_mode = best.l
        _write_mode(outdir, manifest, cfg, system, l_mode, E_mode)
        report.update({
            "almost_trapped": bool(best.amplification >= TRAP_AMPLIFICATION
                                   and pole is not None
                                   and pole.concentration > 0.9),
            "amplification": best.amplification,
            "l": l_mode,
            "E_mode": E_mode,
            "concentration": (pole.concentration if pole is not None
                              else None),
            "scaling_exponent": best.scaling_exponent,
        })
    else:  # dirichlet-trap
        found = []
        for l in range(0, 4):
            found.extend(spectral.dirichlet_eigenvalues(
                system, l, (0.25, 0.8)))
        interior = [p for p in found if p.kind == "interior"]
        if interior:
            pick = min(interior, key=lambda p: abs(p.E - cfg.E))
            _write_mode(outdir, manifest, cfg, system, pick.l, pick.E)
            report.update({
                "almost_trapped": True,
                "E_mode": pick.E,
                "l": pick.l,
                "concentration": pick.concentration,
            })
        else:
            report.update({"almost_trapped": False})
        report["eigenvalues_found"] = [
            {"E": p.E, "l": p.l, "kind": p.kind,
             "concentration": p.concentration} for p in found]

    (outdir / "report.json").write_text(serialize.dumps(report),
                                        encoding="utf-8")
    write_manifest(outdir, manifest)
    return report


# --- argument parsing ------------------------------------------------------

def _add_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--out", type=Path, help="output directory "
                   "(default $QCLOAK_OUT or ./qcloak_out)")
    p.add_argument("--force", action="store_true", default=None,
                   help="skip the eigenvalue-separation refusal check")
    for f in fields(ExperimentConfig):
        if f.name == "force":
            continue
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, default=None)


_FIELD_TYPES = get_type_hints(ExperimentConfig)
# field kind -> (accepted input types, what the error asks for)
_KINDS = {bool: ((bool,), "true or false"), str: ((str,), "a string"),
          int: ((int, str), "an integer"),
          float: ((int, float, str), "a finite number")}


def _coerce(name: str, value):
    """`value`, a flag's string or a config file's JSON value, as field
    `name` of ExperimentConfig."""
    kind = _FIELD_TYPES[name]
    if type(None) in get_args(kind):       # Optional[X]: null stays None
        if value is None:
            return None
        kind = get_args(kind)[0]
    accepted, wanted = _KINDS[kind]
    try:
        # exact types: a JSON true is no number
        out = kind(value) if type(value) in accepted else None
    except (ValueError, OverflowError):
        out = None
    if out is None or kind is float and not math.isfinite(out):
        raise ConfigurationError(f"{name}: expected {wanted}, got {value!r}")
    return out


def _list_flag(flag: str, text: str, kind) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"{flag}: expected comma-separated {kind.__name__} values, got "
            f"{text!r}") from None


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"config: {exc}") from None
        if isinstance(loaded, dict) and {"config", "command"} <= set(loaded):
            loaded = loaded["config"]   # a manifest re-runs directly
        if not isinstance(loaded, dict):
            raise ConfigurationError("config: expected a JSON object")
        values.update(loaded)
    for f in fields(ExperimentConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = v
    unknown = set(values) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigurationError(
            f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**{k: _coerce(k, v) for k, v in values.items()})


def _outdir(args: argparse.Namespace) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(os.environ.get("QCLOAK_OUT", "qcloak_out"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcloak",
        description="Approximate quantum cloak synthesis and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("synthesize", "phase-shifts", "dn-compare", "convergence",
                 "scenario", "resonance-scan", "field-map"):
        p = sub.add_parser(name)
        _add_overrides(p)
        if name == "convergence":
            p.add_argument("--R-list", dest="R_list",
                           default="1.1,1.05,1.01,1.005")
        if name == "scenario":
            p.add_argument("name", choices=sorted(SCENARIO_C_INN))
        if name == "resonance-scan":
            p.add_argument("--channels", default="0,1,2")
        if name == "field-map":
            p.add_argument("--kind", choices=("segment", "slice"),
                           default="segment")

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        outdir = _outdir(args)
        if args.command == "synthesize":
            cmd_synthesize(cfg, outdir)
        elif args.command == "phase-shifts":
            cmd_phase_shifts(cfg, outdir)
        elif args.command == "dn-compare":
            cmd_dn_compare(cfg, outdir)
        elif args.command == "convergence":
            R_list = _list_flag("--R-list", args.R_list, float)
            cmd_convergence(cfg, outdir, R_list)
        elif args.command == "scenario":
            cmd_scenario(cfg, outdir, args.name)
        elif args.command == "resonance-scan":
            channels = _list_flag("--channels", args.channels, int)
            cmd_resonance_scan(cfg, outdir, channels)
        elif args.command == "field-map":
            cmd_field_map(cfg, outdir, args.kind)
    except EigenvalueProximityRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except QcloakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
