import argparse
import dataclasses
import json
import math

import pytest

import qcloak as qc
from qcloak import cli
from qcloak.errors import ConfigurationError, EigenvalueProximityRefusal


FAST = dict(R=1.05, n_layers=12, l_max=8, segment_samples=40,
            slice_samples=16, n_scan=101)


def fast_cfg(**over):
    return cli.ExperimentConfig(**{**FAST, **over})


class TestConfig:
    def test_defaults_validate(self):
        cfg = cli.ExperimentConfig()
        # replace re-runs the checks on the new values
        with pytest.raises(ConfigurationError, match="n_scan:"):
            dataclasses.replace(cfg, n_scan=0)

    def test_diagnostics_name_the_field(self):
        with pytest.raises(ConfigurationError, match="R:"):
            cli.ExperimentConfig(R=0.9)
        with pytest.raises(ConfigurationError, match="E:"):
            cli.ExperimentConfig(E=-1.0)
        with pytest.raises(ConfigurationError, match="n_layers:"):
            cli.ExperimentConfig(n_layers=7)
        with pytest.raises(ConfigurationError, match="core_radius:"):
            cli.ExperimentConfig(core_radius=1.4)

    def test_config_file_plus_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"R": 1.05, "n_layers": 16}))
        rc = cli.main(["synthesize", "--config", str(cfg_file),
                       "--n-layers", "12", "--out", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["R"] == 1.05
        assert manifest["config"]["n_layers"] == 12

    @pytest.mark.parametrize("args, named", [
        (["--l-max", "ten"], "l_max:"),
        (["--E", "nan"], "E:"),
        (["--config", '{"l_max": 10.0}'], "l_max:"),
        (["--config", '{"l_max": true}'], "l_max:"),
        (["--config", "[1.05]"], "config:"),
        (["--l-max", "-3"], "l_max:"),
        (["--n-scan", "0"], "n_scan:"),
        (["--segment-samples", "-5"], "segment_samples:"),
        (["--slice-samples", "0"], "slice_samples:"),
    ])
    def test_malformed_values_exit_3(self, tmp_path, capsys, args, named):
        if args[0] == "--config":   # the file holds the given text
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(args[1])
            args = ["--config", str(cfg_file)]
        rc = cli.main(["synthesize", *args, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {named}")

    def test_malformed_list_flags_exit_3(self, tmp_path, capsys):
        rc = cli.main(["resonance-scan", "--channels", "0,one",
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: --channels:")

    def test_config_values_take_the_field_types(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"E": 1, "l_max": None,
                                        "force": True}))
        args = argparse.Namespace(config=cfg_file, n_layers="12")
        cfg = cli.build_config(args)
        assert (cfg.E, cfg.l_max, cfg.force, cfg.n_layers) == (1.0, None,
                                                              True, 12)
        assert isinstance(cfg.E, float)

    def test_build_system_follows_the_mode(self):
        for mode, builder in (("acoustic", "build_acoustic"),
                              ("both", "build_acoustic"),
                              ("schrodinger", "build_potential")):
            cfg = fast_cfg(mode=mode, c_inn=-71.45)
            assert cfg.build_system() == getattr(cfg, builder)()
            assert cfg.build_system(1.1, 8) == getattr(cfg, builder)(1.1, 8)

    def test_unknown_config_fields_are_named(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        for doc in ({"R": 1.05, "n_leyers": 16}, {"incident_axis": "+z"}):
            cfg_file.write_text(json.dumps(doc))
            rc = cli.main(["synthesize", "--config", str(cfg_file),
                           "--out", str(tmp_path / "o")])
            assert rc == 3


class TestSynthesize:
    def test_round_trip_artifacts(self, tmp_path):
        cfg = fast_cfg()
        cli.cmd_synthesize(cfg, tmp_path)
        from qcloak import serialize
        med = serialize.load(tmp_path / "medium.json")
        assert med == cfg.build_layers()
        pot = serialize.load(tmp_path / "potential.json")
        assert pot == cfg.build_potential()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = fast_cfg(c_inn=-71.45)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.cmd_synthesize(cfg, a)
        cli.cmd_synthesize(cfg, b)
        for name in ("medium.json", "potential.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_degenerate_truncation(self, tmp_path):
        cfg = fast_cfg(R=2.0)
        cli.cmd_synthesize(cfg, tmp_path)
        from qcloak import serialize
        med = serialize.load(tmp_path / "medium.json")
        assert len(med.shells) == 2


class TestRefusal:
    def test_free_dirichlet_eigenvalue_is_refused(self, tmp_path):
        cfg = fast_cfg(E=(math.pi / 3.0) ** 2)
        with pytest.raises(EigenvalueProximityRefusal) as info:
            cli.cmd_convergence(cfg, tmp_path)
        assert info.value.eigenvalue == pytest.approx((math.pi / 3.0) ** 2,
                                                      abs=1e-6)

    def test_force_skips_the_check(self, tmp_path):
        from qcloak.errors import QcloakError
        cfg = fast_cfg(E=(math.pi / 3.0) ** 2 + 2e-4, force=True, l_max=4)
        with pytest.raises(QcloakError, match="trend"):
            # forcing runs the pipeline; the near-eigenvalue contamination
            # then breaks the monotone-trend assertion instead
            cli.cmd_convergence(cfg, tmp_path, R_list=(1.1, 1.05))

    def test_cli_exit_code(self, tmp_path):
        rc = cli.main(["convergence", "--E", str((math.pi / 3.0) ** 2),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_coreless_interior_trap_energy_is_refused(self):
        # c_inn = 0: the trap energies come from the free unit core
        ev = qc.interior_trap_energies(None, *qc.DOUBLED_CORE, (0.9, 1.2),
                                       2)[0][0]
        cfg = fast_cfg(c_inn=0.0, l_max=2)
        with pytest.raises(EigenvalueProximityRefusal) as info:
            cli.check_energy_admissible(cfg, ev + 2e-4)
        assert info.value.kind == "interior-trap"
        assert info.value.eigenvalue == pytest.approx(ev, abs=1e-10)

    def test_interior_trap_energy_is_refused(self, tmp_path):
        system_cfg = fast_cfg(R=1.005, n_layers=50, c_inn=-71.45)
        traps = qc.interior_trap_energies(
            system_cfg.build_core(), *system_cfg.core_constants(),
            (0.4, 0.6), 2)
        cfg = fast_cfg(c_inn=-71.45, E=traps[0][0])
        with pytest.raises(EigenvalueProximityRefusal):
            cli.cmd_convergence(cfg, tmp_path)


class TestOverflowingChannels:
    def test_phase_shifts_exit_3_instead_of_writing_nan(self, tmp_path,
                                                        capsys):
        # the default cloak's channels 47 and 48 were written as nan rows
        rc = cli.main(["phase-shifts", "--l-max", "48", "--mode", "acoustic",
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: channel l = 47")
        assert not (tmp_path / "phase_shifts.tsv").exists()


class TestConvergence:
    def test_layer_refinement_rule(self):
        counts = cli.convergence_layer_counts((1.1, 1.05, 1.01, 1.005), 50)
        assert counts == [12, 16, 36, 50]
        assert all(c % 2 == 0 for c in counts)

    def test_small_run_monotone(self, tmp_path):
        cfg = fast_cfg(c_inn=-98.5, l_max=8)
        out = cli.cmd_convergence(cfg, tmp_path, R_list=(1.1, 1.05, 1.02))
        devs = [r[2] for r in out["rows"]]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        table = (tmp_path / "convergence.tsv").read_text()
        assert table.startswith("# manifest: ")

    def test_trivial_system_hits_regression_floor(self, tmp_path):
        # degenerate truncation + unit core + no W: the whole pipeline must
        # reproduce free space to the numerical floor
        cfg = fast_cfg(R=2.0, core_preset="unit", c_inn=0.0)
        out = cli.cmd_dn_compare(cfg, tmp_path)
        assert out["max_deviation"] < 1e-10

    def test_table_reruns_are_byte_identical(self, tmp_path):
        cfg = fast_cfg(c_inn=-71.45)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.cmd_phase_shifts(cfg, a)
        cli.cmd_phase_shifts(cfg, b)
        assert (a / "phase_shifts.tsv").read_bytes() == \
            (b / "phase_shifts.tsv").read_bytes()

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        rc = cli.main(["phase-shifts", "--R", "1.05", "--n-layers", "12",
                       "--l-max", "6", "--out", str(a)])
        assert rc == 0
        rc = cli.main(["phase-shifts", "--config",
                       str(a / "manifest.json"), "--out", str(b)])
        assert rc == 0
        assert (a / "phase_shifts.tsv").read_bytes() == \
            (b / "phase_shifts.tsv").read_bytes()


class TestFieldMapAndScan:
    def test_segment_field_file(self, tmp_path):
        cfg = fast_cfg()
        cli.cmd_field_map(cfg, tmp_path, kind="segment")
        lines = (tmp_path / "field_segment.tsv").read_text().splitlines()
        assert lines[1].startswith("# r\t")
        assert len(lines) == 2 + cfg.segment_samples

    def test_slice_field_file(self, tmp_path):
        cfg = fast_cfg()
        cli.cmd_field_map(cfg, tmp_path, kind="slice")
        lines = (tmp_path / "field_slice.tsv").read_text().splitlines()
        assert len(lines) == 2 + cfg.slice_samples ** 2

    def test_resonance_scan_files(self, tmp_path, cloak_builder):
        cfg = fast_cfg(R=1.005, n_layers=50, c_inn=-71.45, n_scan=101)
        out = cli.cmd_resonance_scan(cfg, tmp_path, channels=(0,))
        assert (tmp_path / "resonance_summary.tsv").exists()
        assert (tmp_path / "resonance_grid_l0.tsv").exists()
        rep = out["reports"][0]
        assert rep.amplification >= 1e3


class TestScenarios:
    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cli.cmd_scenario(fast_cfg(), tmp_path, "bogus")

    def test_pass_through_small(self, tmp_path):
        cfg = fast_cfg(R=1.005, n_layers=50, segment_samples=60,
                       slice_samples=12, n_scan=101, l_max=10)
        report = cli.cmd_scenario(cfg, tmp_path, "pass-through")
        assert report["c_inn"] == -98.5
        assert report["almost_trapped"] is False
        assert report["amplification"] < 10.0
        assert (tmp_path / "field_segment.tsv").exists()
        assert (tmp_path / "field_slice.tsv").exists()

    def test_neumann_trap_small(self, tmp_path):
        cfg = fast_cfg(R=1.005, n_layers=50, segment_samples=60,
                       slice_samples=12, n_scan=151, l_max=10)
        report = cli.cmd_scenario(cfg, tmp_path, "neumann-trap")
        assert report["c_inn"] == -71.45
        assert report["almost_trapped"] is True
        assert report["amplification"] >= 1e3
        assert report["concentration"] > 0.9
        assert (tmp_path / "mode_segment.tsv").exists()
        assert (tmp_path / "report.json").exists()

    def test_dirichlet_trap_small(self, tmp_path):
        cfg = fast_cfg(R=1.005, n_layers=50, segment_samples=60,
                       slice_samples=12, n_scan=101, l_max=10)
        report = cli.cmd_scenario(cfg, tmp_path, "dirichlet-trap")
        assert report["c_inn"] == 1.858
        assert report["almost_trapped"] is True
        assert report["concentration"] > 0.9
        # the located mode is a genuine Dirichlet eigenvalue of the system
        system = cli.ExperimentConfig(R=1.005, n_layers=50,
                                      c_inn=1.858).build_acoustic()
        sol = qc.solve_channel(system, report["l"], report["E_mode"],
                               want_norms=False)
        assert abs(sol.dirichlet_value) < 1e-8
