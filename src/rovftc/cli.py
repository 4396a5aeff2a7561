"""Command-line front end: validate, run, and batch scenario files.

Exit codes: 0 success, 2 validation failure, 3 divergence abort,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from .scenario import (ScenarioError, list_presets, load_scenario,
                       load_validated, validate_scenario)
from .simulation import Scenario, Simulation, format_summary

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rovftc",
        description="Fault-tolerant tracking simulator for an over-actuated "
                    "planar marine vehicle")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario, write CSV + summary")
    run.add_argument("scenario", help="scenario file path or preset name")
    batch = sub.add_parser("batch", help="run several scenarios, print a table")
    batch.add_argument("scenarios", nargs="*",
                       help="scenario file paths or preset names")
    val = sub.add_parser("validate", help="schema and invariant check only")
    val.add_argument("scenario", help="scenario file path or preset name")
    sub.add_parser("list-presets", help="list shipped scenario presets")

    for cmd in (run, batch, val):
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="override a config key, e.g. fdi.t_s=4 "
                              "(repeatable)")
    for cmd in (run, batch):
        cmd.add_argument("--out", default=".", metavar="DIR",
                         help="output directory (default: current)")
        cmd.add_argument("--decimation", type=_positive_int, default=None,
                         metavar="N",
                         help="record every N-th step")
    return parser


def _run_one(scenario: Scenario, out_dir: Path, overrides, decimation):
    if decimation is not None:
        scenario.decimation = decimation
    result = Simulation(scenario).run()
    csv_path = out_dir / f"{scenario.name}.csv"
    summary_path = out_dir / f"{scenario.name}_summary.txt"
    result.write_csv(csv_path)
    with open(summary_path, "w") as fh:
        fh.write(format_summary(result.summary, overrides))
    return result, csv_path, summary_path


def _run_member(out_dir: Path, overrides, decimation, scenario: Scenario):
    """Batch pool worker: run one member and write its files. Returns
    (summary, diverged), or the OSError that stopped it."""
    try:
        result, _, _ = _run_one(scenario, out_dir, overrides, decimation)
    except OSError as exc:
        return exc
    return result.summary, result.diverged


def _cmd_run(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        result, csv_path, summary_path = _run_one(
            load_scenario(args.scenario, args.override), out_dir,
            args.override, args.decimation)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(format_summary(result.summary, args.override), end="")
    print(f"wrote {csv_path} and {summary_path}")
    if result.diverged:
        print(f"error: simulation diverged at t={result.diverged_time:.4g} s "
              f"(partial CSV retained)", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_batch(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO
    scenarios = []
    owners = {}
    for ref in args.scenarios:
        scenario, issues = load_validated(ref, args.override)
        if not issues and scenario.name in owners:
            issues = [f"same name {scenario.name!r} as {owners[scenario.name]}; "
                      f"both would write {scenario.name}.csv"]
        if issues:
            for msg in issues:
                print(f"validation error in {ref}: {msg}", file=sys.stderr)
            return EXIT_VALIDATION
        owners[scenario.name] = ref
        scenarios.append(scenario)
    header = (f"{'scenario':24s} {'detections':>10s} {'identified':>12s} "
              f"{'max |w_err|':>11s} {'reconv fail':>11s} {'runtime_s':>9s} "
              f"{'status':>8s}")
    rows = [header]
    worst = EXIT_OK
    # Where the platform can fork, the workers inherit the imported modules
    # and the loaded scenarios; elsewhere (Windows) the default start method
    # imports rovftc again in each worker. The executor forks every worker
    # before it starts its own helper thread. Threads the process already
    # has, such as a BLAS pool started by `import numpy`, are not copied
    # into the workers, which never call BLAS.
    fork = "fork" in multiprocessing.get_all_start_methods()
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(len(scenarios), cpus))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(
            "fork" if fork else None)) as pool:
        outcomes = list(pool.map(partial(_run_member, out_dir, args.override,
                                         args.decimation), scenarios))
    for ref, outcome in zip(args.scenarios, outcomes):
        if isinstance(outcome, OSError):
            rows.append(f"{ref:24s} i/o failure: {outcome}")
            worst = max(worst, EXIT_IO)
            continue
        s, diverged = outcome
        idents = ",".join(str(i) for _, i in s["identifications"]) or "-"
        w_err = max((e["w_hat_error"] for e in s["events"]), default=0.0)
        status = "diverged" if diverged else "ok"
        if diverged:
            worst = max(worst, EXIT_DIVERGENCE)
        rows.append(f"{s['scenario']:24s} {s['trigger_count']:>10d} "
                    f"{idents:>12s} {w_err:>11.3f} "
                    f"{len(s['reconfiguration_failures']):>11d} "
                    f"{s['runtime_s']:>9.2f} {status:>8s}")
    print("\n".join(rows))
    return worst


def _cmd_validate(args) -> int:
    issues = validate_scenario(args.scenario, args.override)
    if issues:
        for msg in issues:
            print(f"invalid: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{args.scenario}: valid")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "validate":
        return _cmd_validate(args)
    for name in list_presets():
        print(name)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
