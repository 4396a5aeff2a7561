"""rovftc benchmark: closed-loop runs of the paper presets.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-pins

Run from the repository root. Every repetition starts a fresh
interpreter (`worker.py`), so import cost and peak memory are real.
Load is a closed loop: one caller, one scenario at a time, one thread.
With `--trace 0` the end-to-end metrics are measured with no tracing;
with `--trace 1` untraced and traced repetitions alternate and the
per-layer metrics come from the traced ones. Each repetition's outputs
go through the correctness gate; at seed 0 they must match the values
pinned in `expected_seed0.json` bit for bit. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRESETS = ROOT / "src" / "rovftc" / "presets"
PINS = HERE / "expected_seed0.json"
OUT = HERE / "out"

SETUP_GROUP = 6         # timed fresh-interpreter set-ups after each repetition
SETUP_MAX = 30          # set-ups per run, topping up the time left after the last pass
WORKER_TIMEOUT_S = 150  # one repetition; the longest takes about 12 s on a 2-core Xeon
FAULT_JITTER_S = 2.0    # seeded fault-time jitter; preset faults sit >= 90 s apart
STATE_JITTER = (0.25, 0.25, 0.05, 0.05, 0.05, 0.01)  # x, y, psi, u, v, r
# The program's matrices are 3 x (thrusters) or smaller, too small for
# OpenBLAS to split work across threads. Its helper threads only start
# at `import numpy`, and where the scheduler put them made set-up
# bimodal on a 2-core VM (about 0.15 s or 0.23 s for minutes at a time).
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    presets: tuple
    batch: bool      # through `rovftc batch` instead of the Python API
    faulted: bool    # the presets inject faults
    overrides: tuple


# Why each workload was chosen is recorded next to it in BENCHMARK.json.
WORKLOADS = {
    "cruise": Workload(("fig3_baseline",), batch=False, faulted=False, overrides=()),
    "fault_cascade": Workload(("fig7_failure",), batch=False, faulted=True, overrides=()),
    "record_all": Workload(("fig6_sequential",), batch=False, faulted=True,
                           overrides=("sim.decimation=1",)),
    "sweep": Workload(tuple(f"table1_case{i}" for i in range(1, 9)), batch=True,
                      faulted=True, overrides=()),
}


# -- inputs ---------------------------------------------------------------

def make_inputs(workload: str, seed: int, dest: Path) -> list[Path]:
    """Write the workload's scenario files into `dest`.

    Seed 0 copies the shipped presets byte for byte. Any other seed
    jitters the fault times by up to FAULT_JITTER_S and the initial state
    by STATE_JITTER, keeping the fault-schedule invariants, and writes a
    scenario YAML that the program loads like a user file.
    """
    import yaml

    paths = []
    defaults = yaml.safe_load((PRESETS / "defaults.yaml").read_text())["sim"]
    for name in WORKLOADS[workload].presets:
        text = (PRESETS / f"{name}.yaml").read_text()
        path = dest / f"{name}.yaml"
        if seed == 0:
            path.write_text(text)
        else:
            raw = yaml.safe_load(text)
            _jitter(raw, defaults, random.Random(f"{seed}/{name}"))
            path.write_text(yaml.safe_dump(raw, sort_keys=False))
        paths.append(path)
    return paths


def _jitter(raw: dict, defaults: dict, rng: random.Random):
    sim = raw.setdefault("sim", {})
    state = sim.get("initial_state", defaults["initial_state"])
    sim["initial_state"] = [x + rng.uniform(-s, s) for x, s in zip(state, STATE_JITTER)]
    settle = sim.get("settle_time", defaults["settle_time"])
    duration = sim.get("duration", defaults["duration"])
    prev = settle
    for ev in raw.get("faults") or []:
        ev["time"] = ev["time"] + rng.uniform(-FAULT_JITTER_S, FAULT_JITTER_S)
        if not prev <= ev["time"] < duration:
            raise ValueError(f"jittered fault time {ev['time']} leaves "
                             f"[{prev}, {duration})")
        prev = ev["time"]


# -- one repetition ---------------------------------------------------------

def run_worker(args: list[str]) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(workload: str, inputs: list[Path], rep_dir: Path, overrides: list[str],
            trace: bool) -> dict:
    wl = WORKLOADS[workload]
    rep_dir.mkdir(parents=True)
    args = ["run", *map(str, inputs), "--out", str(rep_dir)]
    if wl.batch:
        args.append("--batch")
    if trace:
        args.append("--trace")
    for item in (*wl.overrides, *overrides):
        args += ["--override", item]
    return run_worker(args)


# -- correctness gate ---------------------------------------------------------

def _int(pattern: str, text: str) -> int:
    m = re.search(pattern, text, re.M)
    if m is None:
        raise ValueError(f"summary lacks {pattern!r}")
    return int(m.group(1))


def _count_listed(label: str, text: str) -> int:
    m = re.search(rf"^{label} at: (\[.*\])$", text, re.M)
    return len(ast.literal_eval(m.group(1))) if m else 0


def _batch_identifications(table: str, name: str) -> int:
    for line in table.splitlines():
        cols = line.split()
        if cols and cols[0] == name:
            return 0 if cols[2] == "-" else len(cols[2].split(","))
    raise ValueError(f"batch table has no row for {name}")


def scenario_record(name: str, rep_dir: Path, result: dict) -> dict:
    """Everything the gate compares for one scenario of one repetition."""
    csv = (rep_dir / f"{name}.csv").read_bytes()
    lines = csv.decode().splitlines()
    header = lines[0].split(",")
    wh = [header.index(f"Wh{i}") for i in range(1, 5)]
    rows = decrements = 0
    prev = None
    for line in lines[1:]:
        if line.startswith("#"):  # divergence marker
            continue
        cols = line.split(",")
        cur = [float(cols[j]) for j in wh]
        if prev is not None:
            decrements += sum(c < p for c, p in zip(cur, prev))
        prev = cur
        rows += 1
    text = (rep_dir / f"{name}_summary.txt").read_text()
    kept = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("runtime:"))
    if "summaries" in result:
        identifications = len(result["summaries"][name]["identifications"])
    else:
        identifications = _batch_identifications(result["batch_table"], name)
    record = {
        "csv_sha256": hashlib.sha256(csv).hexdigest(),
        "summary_sha256": hashlib.sha256(kept.encode()).hexdigest(),
        "stats": {
            "steps": _int(r"\((\d+) steps\)", text),
            "rows": rows,
            "csv_bytes": len(csv),
            "diverged": re.search(r"^diverged:\s+True", text, re.M) is not None,
            "triggers": _int(r"^fault triggers:\s+(\d+)", text),
            "identifications": identifications,
            "decrements": decrements,
            "saturation_steps": _int(r"^saturated steps:\s+(\d+)", text),
            "identification_failures": _count_listed("IDENTIFICATION FAILURES", text),
            "reconfiguration_failures": _count_listed("RECONFIGURATION FAILURES", text),
        },
    }
    if "summaries" in result:
        record["summary"] = {k: v for k, v in result["summaries"][name].items()
                             if k != "runtime_s"}
    return record


def check_record(workload: str, record: dict, pinned: dict | None) -> list[str]:
    """Problems with one scenario run; empty when it passes the gate."""
    st = record["stats"]
    problems = []
    if st["diverged"]:
        problems.append("diverged")
    if not WORKLOADS[workload].faulted and st["triggers"]:
        problems.append(f"{st['triggers']} triggers on a fault-free run")
    if WORKLOADS[workload].faulted:
        for key in ("identification_failures", "reconfiguration_failures"):
            if st[key]:
                problems.append(f"{st[key]} {key.replace('_', ' ')}")
    if pinned is not None:
        for key in sorted(set(pinned) | set(record)):
            if pinned.get(key) != record.get(key):
                problems.append(f"{key} differs from the seed-0 pin")
    return problems


def gate(workload: str, rep_dir: Path, result: dict, pins: dict | None):
    """(records, {scenario: problems}) for one repetition."""
    records, problems = {}, {}
    if result.get("batch_exit", 0) != 0:
        problems["batch"] = [f"rovftc batch exited {result['batch_exit']}"]
    for name in WORKLOADS[workload].presets:
        try:
            records[name] = scenario_record(name, rep_dir, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems[name] = [f"outputs unreadable: {exc}"]
            continue
        pinned = None if pins is None else pins[workload][name]
        found = check_record(workload, records[name], pinned)
        if found:
            problems[name] = found
    return records, problems


# -- metrics ------------------------------------------------------------------

def end_to_end(results: list[dict], steps: int, setups: list[float]) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "us_per_step": statistics.median(r["timed_s"] for r in results) / steps * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(layers: dict, records: dict) -> dict:
    """Per-layer metrics of one traced repetition. Times are self times."""
    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    stats = [r["stats"] for r in records.values()]
    steps = sum(s["steps"] for s in stats)
    triggers = sum(s["triggers"] for s in stats)
    return {
        "simulation.self_us_per_step": self_s("simulation.run") / steps * 1e6,
        "trajectory.sample_flat_calls_per_step": calls("trajectory.sample_flat") / steps,
        "trajectory.sample_flat_us_per_step": self_s("trajectory.sample_flat") / steps * 1e6,
        "trajectory.sample_calls_per_step": calls("trajectory.sample") / steps,
        "trajectory.sample_us_per_step": self_s("trajectory.sample") / steps * 1e6,
        "fdi.update_calls_per_step": calls("fdi.update") / steps,
        "fdi.update_us_per_step": self_s("fdi.update") / steps * 1e6,
        "fdi.triggers": triggers,
        "fdi.identified_per_trigger": (sum(s["identifications"] for s in stats) / triggers
                                       if triggers else 0.0),
        "fdi.decrements": calls("fdi.reconfigure_step"),
        "allocation.rebuilds": calls("allocation.distribution_matrix"),
        "allocation.rebuild_us": self_s("allocation.distribution_matrix") * 1e6,
        "simulation.rows_recorded": sum(s["rows"] for s in stats),
        "simulation.write_csv_s": self_s("simulation.write_csv"),
        "simulation.csv_bytes": sum(s["csv_bytes"] for s in stats),
        "simulation.summary_s": self_s("simulation.format_summary"),
        "scenario.load_s": self_s("scenario.load"),
        "scenario.load_calls": calls("scenario.load"),
        "simulation.init_s": self_s("simulation.init"),
        "cli.batch_self_s": self_s("cli.main"),
        "cli.validate_calls": calls("cli.validate"),
    }


# -- machine facts --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout. The git dir is given explicitly so that git
    does not search parent directories when the checkout is not a repo."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "git_commit": _git_commit()}


# -- command line ---------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            overrides: list[str], out: Path) -> dict:
    """Run one benchmark measurement; return the full result record."""
    start = time.perf_counter()
    load_before = os.getloadavg()[0]
    if out.exists():
        shutil.rmtree(out)
    inputs_dir = out / "inputs"
    inputs_dir.mkdir(parents=True)
    inputs = make_inputs(workload, seed, inputs_dir)
    pins = None
    if seed == 0 and not overrides:
        pins = json.loads(PINS.read_text())

    # Set-up is an end-to-end metric only, so a traced run times none.
    setup_args = ["setup", str(inputs[0])]
    for item in (*WORKLOADS[workload].overrides, *overrides):
        setup_args += ["--override", item]
    setup_group = 0 if trace else SETUP_GROUP
    setups, setup_cost = [], 0.0

    def time_setup():
        nonlocal setup_cost
        t = time.perf_counter()
        setups.append(run_worker(setup_args)["setup_s"])
        setup_cost = max(setup_cost, time.perf_counter() - t)

    if not trace:
        run_worker(setup_args)  # warm-up: bytecode cache and file cache

    kinds = (False, True) if trace else (False,)
    n = len(WORKLOADS[workload].presets)
    attempted = failed = 0
    untraced, traced, failures = [], [], {}
    loop_start = time.perf_counter()
    rep = passes = 0
    # Start another pass only when it should end within `seconds` of the
    # start, so a run takes about `seconds`, whatever the workload. The
    # set-ups are spread over the run, a group after each repetition, so
    # host drift within a run does not land on all of them.
    while passes == 0 or (time.perf_counter() - start
                          + (time.perf_counter() - loop_start) / passes <= seconds):
        passes += 1
        for traced_rep in kinds:
            rep_dir = out / f"rep{rep}"
            rep += 1
            attempted += n
            try:
                result = run_rep(workload, inputs, rep_dir, overrides, traced_rep)
            except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                failed += n
                failures[rep_dir.name] = {"worker": [str(exc)]}
                continue
            records, problems = gate(workload, rep_dir, result, pins)
            failed += n if "batch" in problems else len(problems)
            if problems:
                failures[rep_dir.name] = problems
            (traced if traced_rep else untraced).append((result, records))
            for csv in rep_dir.glob("*.csv"):  # keep the disk footprint small
                csv.unlink()
        for _ in range(setup_group):
            time_setup()
    # Fill the time left after the last pass with more set-ups.
    while setups and len(setups) < SETUP_MAX \
            and time.perf_counter() - start + setup_cost <= seconds:
        time_setup()

    record = {"workload": workload, "seed": seed,
              "seconds": seconds, "trace": int(trace), "overrides": overrides,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures,
              "machine": machine_facts(), "load_avg_1m_before": load_before}
    if untraced:
        steps = sum(r["stats"]["steps"] for r in untraced[0][1].values())
        record["versions"] = untraced[0][0]["versions"]
        record["reps"] = [{k: r[k] for k in ("wall_s", "timed_s", "peak_rss_mb")}
                          for r, _ in untraced]
        record["setup_reps"] = setups
        if not trace:
            record["metrics"] = end_to_end([r for r, _ in untraced], steps, setups)
    if trace and traced and untraced:
        layer_runs = [per_layer(r["layers"], recs) for r, recs in traced]
        metrics = {k: statistics.median(run[k] for run in layer_runs)
                   for k in layer_runs[0]}
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r, _ in traced)
            / statistics.median(r["wall_s"] for r, _ in untraced))
        record["metrics"] = metrics
        record["layers"] = traced[-1][0]["layers"]
    record["load_avg_1m_after"] = os.getloadavg()[0]
    return record


def write_pins():
    pins = {}
    for workload in WORKLOADS:
        out = OUT / f"pins-{workload}"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        inputs = make_inputs(workload, 0, out)
        result = run_rep(workload, inputs, out / "rep", [], trace=False)
        pins[workload] = {name: scenario_record(name, out / "rep", result)
                          for name in WORKLOADS[workload].presets}
        print(f"pinned {workload}: {sorted(pins[workload])}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="config override for every scenario (smoke runs); "
                             "disables the seed-0 pins")
    parser.add_argument("--write-pins", action="store_true",
                        help="run every workload at seed 0 and pin its outputs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not (PRESETS / "defaults.yaml").is_file():
        print(f"error: {PRESETS} not found; run from a rovftc checkout",
              file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = measure(args.workload, args.seed, seconds, bool(args.trace),
                     args.override, out)
    if "metrics" not in record:
        print(json.dumps(record["failures"], indent=1), file=sys.stderr)
        print("error: no repetition produced metrics", file=sys.stderr)
        return 1
    if set(record["metrics"]) != set(units):
        print(f"error: measured {sorted(record['metrics'])}, BENCHMARK.json "
              f"names {sorted(units)}", file=sys.stderr)
        return 1
    record["why"] = why
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} (seed {args.seed}): {why}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items())
          + ", " + ", ".join(f"{k}={v}" for k, v in record.get("versions", {}).items())
          + f", load_1m {record['load_avg_1m_before']:.2f} -> "
            f"{record['load_avg_1m_after']:.2f}")
    for name, value in record["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':40s} {record['error_rate']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} scenario runs failed)")
    for rep, problems in record["failures"].items():
        for scenario, found in problems.items():
            print(f"  FAILED {rep} {scenario}: {'; '.join(found)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
