"""Span tracer that wraps rovftc's layer boundaries from outside.

Each wrapped call records one span: its id, a layer name, the id of the
span that was open when it started (its parent), and its start and end
on `time.perf_counter`. Spans are kept in flat arrays in memory and
written out once, at the end of the run. A layer's self time is its
span durations minus the time covered by its child spans.

The program itself carries no timers; everything here is patched in by
`install` and only in the traced worker process.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

#: (module or class path under rovftc, attribute, span name). Call sites
#: bind some of these names at import time (`simulation` imports
#: `reconfigure_step` and `_distribution_matrix`, `cli` imports
#: `load_scenario`, `validate_scenario` and `format_summary`), so each
#: binding is wrapped where it is looked up.
TARGETS = (
    ("rovftc", "load_scenario", "scenario.load"),
    ("rovftc.scenario", "load_scenario", "scenario.load"),
    ("rovftc.cli", "load_scenario", "scenario.load"),
    ("rovftc.cli", "validate_scenario", "cli.validate"),
    ("rovftc.cli", "main", "cli.main"),
    ("rovftc.simulation.Simulation", "__init__", "simulation.init"),
    ("rovftc.simulation.Simulation", "run", "simulation.run"),
    ("rovftc.simulation.SimResult", "write_csv", "simulation.write_csv"),
    ("rovftc.simulation", "format_summary", "simulation.format_summary"),
    ("rovftc.cli", "format_summary", "simulation.format_summary"),
    ("rovftc.simulation", "reconfigure_step", "fdi.reconfigure_step"),
    ("rovftc.simulation", "_distribution_matrix", "allocation.distribution_matrix"),
    ("rovftc.trajectory.TrajectoryPlan", "sample_flat", "trajectory.sample_flat"),
    ("rovftc.trajectory.TrajectoryPlan", "sample", "trajectory.sample"),
    ("rovftc.fdi.FdiEngine", "update", "fdi.update"),
)


class TraceTargetMissing(RuntimeError):
    """A callable named in TARGETS no longer exists, so its layer would
    silently drop out of the trace."""


def _resolve(path: str):
    """Module or module attribute named by a dotted path under rovftc."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                raise TraceTargetMissing(f"cannot trace {path}: {attr!r} not found")
            obj = getattr(obj, attr)
        return obj
    raise TraceTargetMissing(f"cannot trace {path}: module not found")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    ROOT = -1

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [self.ROOT]
        self._next = 0

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._nid(name)
        stack = self._stack
        clock = time.perf_counter
        rec_sid, rec_nid, rec_parent = (self.span_id.append, self.name_id.append,
                                        self.parent.append)
        rec_start, rec_end = self.start.append, self.end.append
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec_sid(sid)
                rec_nid(nid)
                rec_parent(parent)
                rec_start(t0)
                rec_end(t1)

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target in place; raise TraceTargetMissing before
        patching anything if one of them does not exist."""
        resolved = []
        for owner_path, attr, name in targets:
            owner = _resolve(owner_path)
            if not hasattr(owner, attr):
                raise TraceTargetMissing(f"cannot trace {owner_path}.{attr}: not found")
            resolved.append((owner, attr, name))
        for owner, attr, name in resolved:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def arrays(self) -> dict:
        return {
            "span_id": np.frombuffer(self.span_id, dtype=np.int64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path):
        """Dump every span, with the name table, to one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def aggregate(self) -> dict:
        """{layer name: {"calls", "total_s", "self_s"}} over all spans."""
        a = self.arrays()
        n = self._next
        dur = np.zeros(n)
        dur[a["span_id"]] = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=(a["end"] - a["start"])[has_parent],
                            minlength=n)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            sids = a["span_id"][mask]
            out[name] = {"calls": int(mask.sum()),
                         "total_s": float(dur[sids].sum()),
                         "self_s": float(self_time[sids].sum())}
        return out
