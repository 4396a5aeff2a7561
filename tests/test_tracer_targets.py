"""The benchmark's span tracer wraps rovftc callables by name, so a
deleted or renamed one would otherwise surface only in a traced benchmark
run. Resolve every target here, without patching anything."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{path}.{attr}" for path, attr, _ in tracer.TARGETS
               if not hasattr(tracer._resolve(path), attr)]
    assert tracer.TARGETS and not missing, missing
