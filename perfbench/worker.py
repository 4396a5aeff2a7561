"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py setup SCENARIO [--override K=V ...]
    python3 perfbench/worker.py run --out DIR [--batch] [--trace]
                                    [--override K=V ...] SCENARIO ...

`setup` times `import rovftc`, `load_scenario` and `Simulation(...)`.
`run` does what a user does: load, simulate, write the CSV and the text
summary for each scenario, or hand all of them to `rovftc batch` with
`--batch`. It drives the package only through its public calls and
prints one JSON line with its timings. With `--trace` the layer
boundaries are wrapped by `tracer.Tracer`, the spans are written to
`DIR/spans.npz` and their per-layer totals are added to the JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup(args) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rovftc

    rovftc.Simulation(rovftc.load_scenario(args.scenarios[0], args.override))
    return {"setup_s": time.perf_counter() - t0}


def run(args) -> dict:
    out = Path(args.out)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rovftc
    import rovftc.simulation

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {}

    def single():
        timed = 0.0
        summaries = {}
        for path in args.scenarios:
            scenario = rovftc.load_scenario(path, args.override)
            sim = rovftc.Simulation(scenario)
            t = time.perf_counter()
            res = sim.run()
            timed += time.perf_counter() - t
            res.write_csv(out / f"{scenario.name}.csv")
            (out / f"{scenario.name}_summary.txt").write_text(
                rovftc.simulation.format_summary(res.summary, args.override))
            summaries[scenario.name] = res.summary
        result.update(timed_s=timed, summaries=summaries)

    def batch():
        import rovftc.cli

        argv = ["batch", *args.scenarios, "--out", str(out)]
        for item in args.override:
            argv += ["--override", item]
        buf = io.StringIO()
        t = time.perf_counter()
        with redirect_stdout(buf):
            code = rovftc.cli.main(argv)
        result.update(timed_s=time.perf_counter() - t, batch_exit=code,
                      batch_table=buf.getvalue())

    body = batch if args.batch else single
    if tracer is not None:
        body = tracer.wrap(body, "bench.workload")
    body()
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import yaml

    result["versions"] = {"rovftc": rovftc.__version__, "numpy": numpy.__version__,
                          "pyyaml": yaml.__version__}
    if tracer is not None:
        tracer.write(out / "spans.npz")
        result["layers"] = tracer.aggregate()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("scenarios", nargs="+")
    parser.add_argument("--out", default=".")
    parser.add_argument("--batch", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--override", action="append", default=[])
    args = parser.parse_args(argv)
    result = setup(args) if args.mode == "setup" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
