import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest
import yaml

from rovftc import scenario
from rovftc.cli import main
from rovftc.scenario import (ScenarioError, apply_overrides, list_presets,
                             load_scenario, preset_path, scenario_from_dict,
                             validate_scenario)
from rovftc.simulation import COLUMNS

ALL_PRESETS = [
    "fig3_baseline", "fig5_residual", "fig6_sequential", "fig7_failure",
    "fig10_ts_stress",
    "fault_thruster1", "fault_thruster2", "fault_thruster3", "fault_thruster4",
] + [f"table1_case{i}" for i in range(1, 9)]


# every leaf that `scenario_from_dict` reads by the type of its default
_DEFAULTS = yaml.safe_load(preset_path("defaults").read_text())
SCHEMA_LEAVES = [f"{section}.{key}"
                 for section in ("vehicle", "gains", "fdi", "sim")
                 for key in _DEFAULTS[section]] + ["trajectory.initial_pose"]


def write_scenario(tmp_path, name="custom", **sections):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(sections))
    return path


class TestPresets:
    def test_listing(self):
        assert sorted(ALL_PRESETS) == list_presets()

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_every_preset_validates(self, name):
        assert validate_scenario(name) == []

    def test_loader_reads_presets_as_yaml_1_1_does(self):
        for name in ALL_PRESETS + ["defaults"]:
            text = preset_path(name).read_text()
            assert yaml.load(text, Loader=scenario._Loader) == yaml.safe_load(text)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            preset_path("fig99")

    def test_default_plan_loaded(self):
        sc = load_scenario("fig3_baseline")
        assert sc.duration == 600.0
        assert sc.dt == 0.01
        assert sc.plan.joint_times == [300.0, 600.0]
        assert sc.gains.decay_rate == pytest.approx(1.0)
        assert sc.fdi.c1 == 5.0
        assert sc.fdi.c2 + sc.fdi.f_smooth == pytest.approx(0.31)

    def test_failure_preset_schedule(self):
        sc = load_scenario("fig7_failure")
        final = {ev.thruster: ev.weight for ev in sc.schedule.events}
        assert final == {2: 0.0, 4: 0.1, 3: 0.2, 1: 0.3}


class TestValidation:
    def test_weight_increase_rejected(self, tmp_path):
        path = write_scenario(tmp_path, faults=[
            {"time": 100.0, "thruster": 1, "weight": 0.5},
            {"time": 200.0, "thruster": 1, "weight": 0.9},
        ])
        issues = validate_scenario(str(path))
        assert len(issues) == 1 and "decrease" in issues[0]

    def test_degenerate_geometry_rejected(self, tmp_path):
        path = write_scenario(tmp_path, vehicle={"alpha": 0.0})
        issues = validate_scenario(str(path))
        assert issues and "rank" in issues[0]

    def test_nonpositive_gain_rejected(self, tmp_path):
        path = write_scenario(tmp_path, gains={"a1": [0.0, 1.0, 1.0]})
        issues = validate_scenario(str(path))
        assert issues and "a1" in issues[0]

    def test_unknown_section_rejected(self, tmp_path):
        path = write_scenario(tmp_path, thrust={"K": [1, 1, 1, 1]})
        issues = validate_scenario(str(path))
        assert issues and "unknown sections" in issues[0]
        # the library entry point checks section names too
        with pytest.raises(ScenarioError, match="unknown sections"):
            scenario_from_dict({"fualts": [
                {"time": 60.0, "thruster": 1, "weight": 0.5}]})

    @pytest.mark.parametrize("sections, message", [
        ({"vehicle": 5}, "vehicle: expected a mapping"),
        ({"gains": [1.0, 1.0, 1.0]}, "gains: expected a mapping"),
        ({"fdi": 3}, "fdi: expected a mapping"),
        ({"sim": None}, "sim: expected a mapping"),
        ({"trajectory": 7}, "trajectory: expected a mapping"),
        ({"trajectory": {"segments": {"mode": "hold"}}},
         "trajectory.segments: expected a list"),
        ({"trajectory": {"segments": [5]}},
         "trajectory.segments[0]: expected a mapping"),
        ({"faults": 5}, "faults: expected a list"),
        ({"faults": [5]}, "faults[0]: expected a mapping"),
        ({"trajectory": {"segments": [{"mode": "hold"}]}},
         "trajectory.segments[0].duration: expected a number"),
        ({"faults": [{"time": 60.0, "thruster": 1}]},
         "faults[0].weight: expected a number"),
        ({"vehicle": {"u_max": "0.5"}}, "vehicle.u_max: expected a number"),
        ({"faults": [{"time": "60.0", "thruster": 1, "weight": 0.5}]},
         "faults[0].time: expected a number"),
    ])
    def test_malformed_section_rejected(self, tmp_path, capsys, sections,
                                        message):
        path = write_scenario(tmp_path, **sections)
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("sections, message", [
        ({"sim": {"durration": 3.0}}, "sim: unknown keys ['durration']"),
        ({"vehicle": {"u_maxx": 2.0}}, "vehicle: unknown keys ['u_maxx']"),
        ({"gains": {"a3": [1.0, 1.0, 1.0]}}, "gains: unknown keys ['a3']"),
        ({"fdi": {"t_S": 4.0}}, "fdi: unknown keys ['t_S']"),
        ({"trajectory": {"segment": []}}, "trajectory: unknown keys ['segment']"),
        ({"trajectory": {"segments": [{"mode": "hold", "duration": 3.0,
                                       "speed": 1.0}]}},
         "trajectory.segments[0]: unknown keys ['speed']"),
        ({"faults": [{"time": 60.0, "thruster": 1, "weight": 0.5,
                      "when": 1.0}]},
         "faults[0]: unknown keys ['when']"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, sections, message):
        path = write_scenario(tmp_path, **sections)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "custom.csv").exists()

    def test_null_lists_are_empty(self, tmp_path):
        path = write_scenario(tmp_path, trajectory={"segments": None},
                              faults=None)
        sc = load_scenario(str(path))
        assert sc.plan.segments == [] and sc.schedule.events == []

    def test_fault_at_or_after_end_rejected(self, capsys):
        # fault_thruster1 cuts thruster 1 at t = 100 s
        assert main(["validate", "fault_thruster1",
                     "--override", "sim.duration=100"]) == 2
        assert "end of the run" in capsys.readouterr().err
        # 100.004 s is 10 000 steps, the last starting at 99.99 s
        assert main(["validate", "fault_thruster1",
                     "--override", "sim.duration=100.004"]) == 2
        assert "end of the run" in capsys.readouterr().err
        assert main(["validate", "fault_thruster1",
                     "--override", "sim.duration=100.01"]) == 0

    def test_zero_step_run_named_as_such(self, capsys):
        # 0.004 s is no step at all, whatever the fault schedule says
        assert main(["validate", "fault_thruster1",
                     "--override", "sim.duration=0.004"]) == 2
        err = capsys.readouterr().err
        assert "shorter than one step" in err and "end of the run" not in err

    @pytest.mark.parametrize("key", SCHEMA_LEAVES)
    def test_every_schema_leaf_read_strictly(self, capsys, key):
        assert main(["validate", "fig3_baseline",
                     "--override", f"{key}=.nan"]) == 2
        err = capsys.readouterr().err
        assert f"{key}: " in err and "must be finite" in err
        assert main(["validate", "fig3_baseline",
                     "--override", f"{key}=true"]) == 2
        assert f"{key}: expected" in capsys.readouterr().err
        assert main(["validate", "fig3_baseline",
                     "--override", f'{key}="0.5"']) == 2
        assert f"{key}: expected" in capsys.readouterr().err

    def test_integer_beyond_float_range_rejected(self, capsys):
        huge = "1" + "0" * 400
        for override in (f"vehicle.u_max={huge}", f"vehicle.K=[40,40,{huge},40]"):
            assert main(["validate", "fig3_baseline", "--override", override]) == 2
            assert "must be finite" in capsys.readouterr().err

    def test_exponent_without_dot_is_a_number(self):
        # YAML 1.1 reads 1e-2 as the string '1e-2'; the scenario loader
        # reads it as YAML 1.2 does, so strings can be refused in numeric
        # fields, and PyYAML's own SafeLoader is left as it was
        assert yaml.safe_load("1e-2") == "1e-2"
        sc = load_scenario("fig3_baseline", overrides=["fdi.c2=1e-2"])
        assert sc.fdi.c2 == 0.01

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("vehicle: [unclosed\n")
        issues = validate_scenario(str(path))
        assert issues and "parse" in issues[0].lower()

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("does/not/exist.yaml")


class TestOverrides:
    def test_applied_to_nested_key(self):
        sc = load_scenario("fig6_sequential", overrides=["fdi.t_s=4"])
        assert sc.fdi.t_s == 4.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="no such config key"):
            load_scenario("fig6_sequential", overrides=["fdi.bogus=1"])

    def test_malformed_rejected(self):
        with pytest.raises(ScenarioError, match="key=value"):
            load_scenario("fig6_sequential", overrides=["fdi.t_s"])

    def test_defaults_parsed_once(self, monkeypatch):
        parsed = []

        class Spy(scenario._Loader):
            def __init__(self, stream):
                parsed.append(getattr(stream, "name", stream))
                super().__init__(stream)

        monkeypatch.setattr(scenario, "_Loader", Spy)
        scenario._parsed_defaults.cache_clear()
        for _ in range(2):
            load_scenario("fig7_failure", overrides=["fdi.t_s=4"])
        assert sum(str(p).endswith("defaults.yaml") for p in parsed) == 1
        assert len(parsed) == 5  # plus each load's file and override
        # every caller gets its own copy
        scenario._defaults()["sim"]["initial_state"].append(1.0)
        assert len(scenario._defaults()["sim"]["initial_state"]) == 6

    def test_dict_helper(self):
        cfg = {"fdi": {"t_s": 5.0}, "sim": {"dt": 0.01}}
        out = apply_overrides(cfg, ["fdi.t_s=2.5"])
        assert out["fdi"]["t_s"] == 2.5
        assert cfg["fdi"]["t_s"] == 5.0  # input untouched


class TestCli:
    def short_scenario(self, tmp_path, **extra):
        sections = {
            "name": "short",
            "sim": {"duration": 5.0, "decimation": 10},
            "trajectory": {"initial_pose": [0.0, 0.0, 0.0],
                           "segments": [{"mode": "hold", "duration": 10.0}]},
        }
        sections.update(extra)
        return write_scenario(tmp_path, **sections)

    def test_run_writes_artifacts(self, tmp_path, capsys):
        path = self.short_scenario(tmp_path)
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        csv = tmp_path / "out" / "short.csv"
        summary = tmp_path / "out" / "short_summary.txt"
        assert csv.is_file() and summary.is_file()
        header = csv.read_text().splitlines()[0]
        assert header == ",".join(COLUMNS)
        assert "scenario:" in summary.read_text()

    def test_run_reports_overrides(self, tmp_path):
        path = self.short_scenario(tmp_path)
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--override", "fdi.t_s=9.0"])
        assert code == 0
        text = (tmp_path / "out" / "short_summary.txt").read_text()
        assert "fdi.t_s=9.0" in text

    def test_validation_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, gains={"a1": [0.0, 1.0, 1.0]})
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert main(["validate", str(path)]) == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "sim.dt=.nan", "sim.duration=.nan", "fdi.c1=.nan", "fdi.c2=.nan",
        "sim.dt=.inf", "vehicle.u_max=true", "fdi.c1=yes",
        "gains.a1=[1,true,1]", "sim.duration=0.004", "sim.duration=0.016",
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, override):
        path = self.short_scenario(tmp_path)
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--override", override]) == 2
        assert main(["validate", str(path), "--override", override]) == 2
        assert not (tmp_path / "out" / "short.csv").exists()

    def test_malformed_override_rejected(self, tmp_path, capsys):
        path = self.short_scenario(tmp_path)
        out = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--out", str(out)],
                     ["batch", str(path), "--out", str(out)]):
            assert main(argv + ["--override", "sim.dt=[1,"]) == 2
            err = capsys.readouterr().err
            assert "'sim.dt'" in err and "not valid YAML" in err
            assert "Traceback" not in err
        assert not (out / "short.csv").exists()

    def test_rejected_scenario_leaves_no_out_dir(self, tmp_path, capsys):
        path = self.short_scenario(tmp_path)
        out = tmp_path / "fresh"
        for cmd in ("run", "batch"):
            assert main([cmd, str(path), "--out", str(out),
                         "--override", "sim.dt=[1,"]) == 2
            assert not out.exists()

    def test_out_dir_that_cannot_be_created(self, tmp_path, capsys):
        path = self.short_scenario(tmp_path)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        assert main(["run", str(path), "--out", out]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert main(["batch", str(path), "--out", out]) == 4
        assert "i/o failure" in capsys.readouterr().out

    @pytest.mark.parametrize("override", [
        "vehicle.u_max=.nan", "vehicle.alpha=.nan", "vehicle.l=.inf",
        "vehicle.K=[40,40,.inf,40]", "vehicle.inertia=[.nan,20,0.16]",
        "gains.a1=[.nan,1,1]", "sim.initial_state=[.nan,0,0,0,0,0]",
        "sim.settle_time=.nan", "trajectory.initial_pose=[0,.inf,0]",
        "trajectory.segments=[{mode: straight, duration: 10, speed: .nan, "
        "heading: 0}]",
        "trajectory.segments=[{mode: hold, duration: .inf}]",
        "faults=[{time: .nan, thruster: 1, weight: 0.5}]",
        "faults=[{time: 2, thruster: 1, weight: .nan}]",
    ])
    def test_non_finite_field_rejected(self, tmp_path, capsys, override):
        path = self.short_scenario(tmp_path, sim={"duration": 5.0,
                                                  "settle_time": 1.0})
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--override", override]) == 2
        assert main(["validate", str(path), "--override", override]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "short.csv").exists()

    @pytest.mark.parametrize("override", [
        "sim.decimation=2.7", "fdi.n_consec=2.5",
        "faults=[{time: 60, thruster: 1.5, weight: 0.5}]",
        "sim.decimation=on", "fdi.n_consec=yes",
        "faults=[{time: 60, thruster: true, weight: 0.5}]",
    ])
    def test_fractional_count_rejected(self, tmp_path, capsys, override):
        path = self.short_scenario(tmp_path)
        assert main(["validate", str(path), "--override", override]) == 2
        assert "whole number" in capsys.readouterr().err

    def test_integral_float_count_accepted(self):
        sc = load_scenario("fig3_baseline", overrides=[
            "sim.decimation=3.0", "fdi.n_consec=4.0"])
        assert sc.decimation == 3 and type(sc.decimation) is int
        assert sc.fdi.n_consec == 4 and type(sc.fdi.n_consec) is int

    def test_update_period_below_one_step_rejected(self, tmp_path, capsys):
        path = self.short_scenario(tmp_path)
        assert main(["validate", str(path), "--override", "fdi.t_s=0.001"]) == 2
        assert "shorter than one step" in capsys.readouterr().err
        # exactly one step is the shortest admissible period
        assert main(["validate", str(path), "--override", "fdi.t_s=0.01"]) == 0

    def test_validate_ok(self, capsys):
        assert main(["validate", "fig5_residual"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_divergence_exit_code(self, tmp_path, capsys):
        path = self.short_scenario(
            tmp_path,
            sim={"duration": 5.0,
                 "initial_state": [2.0e6, 0.0, 0.0, 0.0, 0.0, 0.0]})
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        # partial CSV retained with the abort marker
        text = (tmp_path / "out" / "short.csv").read_text()
        assert "# aborted" in text

    def test_empty_batch(self, tmp_path, capsys):
        assert main(["batch", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out  # header only

    def test_batch_table(self, tmp_path, capsys):
        a = self.short_scenario(tmp_path, name="a")
        b = self.short_scenario(tmp_path, name="b")
        assert main(["batch", str(a), str(b), "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split()[0] == "a"
        assert lines[2].split()[0] == "b"

    def test_batch_outputs_match_run(self, tmp_path, capsys):
        # the longest member first, so a worker finishing out of order
        # would show in the table
        refs = [self.short_scenario(tmp_path, name=name,
                                    sim={"duration": duration})
                for name, duration in (("zeta", 9.0), ("alpha", 2.0),
                                       ("mid", 5.0))]
        batch_out, run_out = tmp_path / "batch", tmp_path / "run"
        assert main(["batch", *map(str, refs), "--out", str(batch_out)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["zeta", "alpha", "mid"]
        for ref in refs:
            assert main(["run", str(ref), "--out", str(run_out)]) == 0

        def summary(path):
            return [line for line in path.read_text().splitlines()
                    if not line.startswith("runtime:")]

        for name in ("zeta", "alpha", "mid"):
            assert ((batch_out / f"{name}.csv").read_bytes()
                    == (run_out / f"{name}.csv").read_bytes())
            assert (summary(batch_out / f"{name}_summary.txt")
                    == summary(run_out / f"{name}_summary.txt"))

    def test_batch_without_fork_writes_same_files(self, tmp_path, capsys,
                                                  monkeypatch):
        # platforms without fork start the workers with a fresh interpreter
        refs = [self.short_scenario(tmp_path, name=name)
                for name in ("a", "b")]
        fork_out, spawn_out = tmp_path / "fork", tmp_path / "spawn"
        assert main(["batch", *map(str, refs), "--out", str(fork_out)]) == 0
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert main(["batch", *map(str, refs), "--out", str(spawn_out)]) == 0
        for name in ("a", "b"):
            assert ((spawn_out / f"{name}.csv").read_bytes()
                    == (fork_out / f"{name}.csv").read_bytes())

    def test_batch_io_failure_spares_other_members(self, tmp_path, capsys):
        refs = [self.short_scenario(tmp_path, name=name)
                for name in ("a", "b", "c")]
        out = tmp_path / "out"
        (out / "b.csv").mkdir(parents=True)
        assert main(["batch", *map(str, refs), "--out", str(out)]) == 4
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert "i/o failure" in rows[1] and "i/o failure" not in rows[0] + rows[2]
        for name in ("a", "c"):
            assert (out / f"{name}.csv").is_file()
            assert (out / f"{name}_summary.txt").is_file()

    def test_batch_rejects_duplicate_names(self, tmp_path, capsys):
        first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
        for path in (first, second):
            path.write_text("name: same\nsim: {duration: 2.0}\n")
        assert main(["batch", str(first), str(second),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err
        assert not (tmp_path / "out" / "same.csv").exists()

    def test_import_leaves_multiprocessing_out(self):
        code = ("import sys, rovftc; "
                "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_batch_validates_upfront(self, tmp_path, capsys):
        good = self.short_scenario(tmp_path, name="good")
        bad = write_scenario(tmp_path, name="bad", gains={"a1": [0, 1, 1]})
        assert main(["batch", str(good), str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "good.csv").exists()

    def test_list_presets_command(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(ALL_PRESETS) == out

    def test_decimation_flag(self, tmp_path):
        path = self.short_scenario(tmp_path)
        main(["run", str(path), "--out", str(tmp_path / "out"),
              "--decimation", "50"])
        rows = (tmp_path / "out" / "short.csv").read_text().splitlines()
        assert len(rows) == 1 + 11  # header + 5 s / (50 * 0.01 s) + final

    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    def test_decimation_flag_rejects_bad_count(self, tmp_path, capsys, value):
        path = self.short_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--out", str(tmp_path / "out"),
                  "--decimation", value])
        assert exc.value.code == 2
        assert not (tmp_path / "out" / "short.csv").exists()
