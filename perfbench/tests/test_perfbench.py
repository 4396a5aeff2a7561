"""Tests for the benchmark itself, on short runs (a `sim.duration`
override). Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from tracer import TraceTargetMissing, Tracer  # noqa: E402

import rovftc  # noqa: E402
from rovftc.trajectory import TrajectoryPlan  # noqa: E402

SHORT = ["sim.duration=60"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The metric names the benchmark promises, independent of BENCHMARK.json.
END_TO_END = {"wall_s", "us_per_step", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "simulation.self_us_per_step",
    "trajectory.sample_flat_calls_per_step", "trajectory.sample_flat_us_per_step",
    "trajectory.sample_calls_per_step", "trajectory.sample_us_per_step",
    "fdi.update_us_per_step", "fdi.triggers", "fdi.identified_per_trigger",
    "fdi.decrements", "allocation.rebuilds", "allocation.rebuild_us",
    "simulation.rows_recorded", "simulation.write_csv_s", "simulation.csv_bytes",
    "simulation.summary_s", "scenario.load_s", "scenario.load_calls",
    "simulation.init_s", "cli.batch_self_s", "cli.validate_calls",
    "trace.overhead_ratio",
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert END_TO_END == {m["name"] for m in SPEC["end_to_end"]}
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = _bench("--workload", "cruise", "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--override", SHORT[0])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    for name in [*last["metrics"], "error_rate"]:
        assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def short_cruise(tmp_path_factory):
    """Inputs and one untraced and one traced short cruise repetition."""
    base = tmp_path_factory.mktemp("cruise")
    inputs = bench.make_inputs("cruise", 0, base)
    plain = bench.run_rep("cruise", inputs, base / "plain", SHORT, trace=False)
    traced = bench.run_rep("cruise", inputs, base / "traced", SHORT, trace=True)
    return base, plain, traced


def test_gate_flags_tampered_csv_and_summary(short_cruise):
    base, plain, _ = short_cruise
    rep = base / "plain"
    records, problems = bench.gate("cruise", rep, plain, None)
    assert problems == {}
    pins = {"cruise": records}
    assert bench.gate("cruise", rep, plain, pins)[1] == {}

    csv = rep / "fig3_baseline.csv"
    original = csv.read_text()
    last = original.rstrip("\n").rsplit("\n", 1)[1]
    csv.write_text(original.replace(last, last.replace(",", ",1", 1)))
    assert "csv_sha256 differs from the seed-0 pin" in \
        bench.gate("cruise", rep, plain, pins)[1]["fig3_baseline"]
    csv.write_text(original)

    summary = rep / "fig3_baseline_summary.txt"
    text = summary.read_text()
    summary.write_text(text.replace("fault triggers:      0", "fault triggers:      1"))
    found = bench.gate("cruise", rep, plain, pins)[1]["fig3_baseline"]
    assert "summary_sha256 differs from the seed-0 pin" in found
    # A trigger on the fault-free run fails on any seed, pins or not.
    assert bench.gate("cruise", rep, plain, None)[1]["fig3_baseline"] == \
        ["1 triggers on a fault-free run"]
    summary.write_text(text)

    tampered = json.loads(json.dumps(plain))
    tampered["summaries"]["fig3_baseline"]["max_residual"] *= 1.0 + 1e-12
    assert bench.gate("cruise", rep, tampered, pins)[1]["fig3_baseline"] == \
        ["summary differs from the seed-0 pin"]
    assert bench.gate("cruise", rep, plain, pins)[1] == {}


def test_traced_cruise_counts_per_step(short_cruise):
    base, _, traced = short_cruise
    records, problems = bench.gate("cruise", base / "traced", traced, None)
    assert problems == {}
    layers = bench.per_layer(traced["layers"], records)
    assert round(layers["trajectory.sample_flat_calls_per_step"], 3) == 6.0
    assert round(layers["trajectory.sample_calls_per_step"], 3) == 1.0
    assert round(layers["fdi.update_calls_per_step"], 3) == 1.0
    assert layers["allocation.rebuilds"] == 1
    assert layers["scenario.load_calls"] == 1
    assert layers["fdi.decrements"] == 0
    assert layers["simulation.self_us_per_step"] > 0.0
    assert (base / "traced" / "spans.npz").is_file()


def test_missing_trace_target_fails_before_patching():
    before = TrajectoryPlan.sample_flat
    with pytest.raises(TraceTargetMissing):
        Tracer().install([
            ("rovftc.trajectory.TrajectoryPlan", "sample_flat", "trajectory.sample_flat"),
            ("rovftc.simulation", "renamed_away", "simulation.renamed_away"),
        ])
    assert TrajectoryPlan.sample_flat is before


def test_seeded_inputs(tmp_path):
    for seed in (0, 3, 3, 4):
        (tmp_path / str(seed)).mkdir(exist_ok=True)
        bench.make_inputs("fault_cascade", seed, tmp_path / str(seed))
    name = "fig7_failure.yaml"
    assert (tmp_path / "0" / name).read_bytes() == (bench.PRESETS / name).read_bytes()
    assert (tmp_path / "3" / name).read_bytes() != (tmp_path / "4" / name).read_bytes()
    again = tmp_path / "again"
    again.mkdir()
    bench.make_inputs("fault_cascade", 3, again)
    assert (again / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

    preset = rovftc.load_scenario(str(tmp_path / "0" / name))
    jittered = rovftc.load_scenario(str(tmp_path / "3" / name))
    assert jittered.name == preset.name
    for a, b in zip(preset.schedule.events, jittered.schedule.events):
        assert a.thruster == b.thruster and a.weight == b.weight
        assert 0.0 < abs(a.time - b.time) <= bench.FAULT_JITTER_S
    assert not (jittered.initial_state == preset.initial_state).all()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "cruise", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
