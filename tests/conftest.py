import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from rovftc.cli import main
from rovftc.scenario import load_scenario, scenario_from_dict
from rovftc.simulation import Simulation, format_summary

#: per shipped preset, the sha256 of the CSV and of the summary text
#: without its `runtime:` line, as `rovftc run` and `rovftc batch` write
#: them. Change it only on purpose.
GOLDEN_PATH = Path(__file__).parent / "data" / "presets.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def check_golden(name: str, csv: bytes, summary: bytes):
    kept = b"".join(line for line in summary.splitlines(keepends=True)
                    if not line.startswith(b"runtime:"))
    entry = {"csv_sha256": hashlib.sha256(csv).hexdigest(),
             "summary_sha256": hashlib.sha256(kept).hexdigest()}
    assert entry == GOLDEN.get(name), (
        f"preset {name} no longer matches {GOLDEN_PATH.name}; new entry:\n"
        + json.dumps({name: entry}, indent=2))


class PresetRuns:
    """Each shipped preset run once per test run, in process or through
    `rovftc batch`, with every run checked against the golden digests."""

    def __init__(self, root: Path):
        self.root = root
        self.results = {}
        self.batches = {}

    def result(self, name: str):
        """The in-process `SimResult` of preset `name`."""
        if name not in self.results:
            res = Simulation(load_scenario(name)).run()
            path = self.root / f"{name}.csv"
            res.write_csv(path)
            check_golden(name, path.read_bytes(),
                         format_summary(res.summary).encode())
            self.results[name] = res
        return self.results[name]

    def batch(self, *names: str):
        """(exit code, printed table, --out directory) of `rovftc batch`
        over `names`."""
        if names not in self.batches:
            out = self.root / f"batch{len(self.batches)}"
            table = io.StringIO()
            with contextlib.redirect_stdout(table):
                code = main(["batch", *names, "--out", str(out)])
            for name in names:
                check_golden(name, (out / f"{name}.csv").read_bytes(),
                             (out / f"{name}_summary.txt").read_bytes())
            self.batches[names] = code, table.getvalue(), out
        return self.batches[names]


@pytest.fixture(scope="session")
def presets(tmp_path_factory):
    return PresetRuns(tmp_path_factory.mktemp("presets"))


@pytest.fixture(scope="session")
def default_scenario():
    """Scenario built entirely from the packaged defaults."""
    return scenario_from_dict({}, name="defaults")


@pytest.fixture(scope="session")
def params(default_scenario):
    return default_scenario.params


@pytest.fixture(scope="session")
def geom(default_scenario):
    return default_scenario.geometry


@pytest.fixture(scope="session")
def gains(default_scenario):
    return default_scenario.gains


@pytest.fixture(scope="session")
def fdi_cfg(default_scenario):
    return default_scenario.fdi


@pytest.fixture()
def bank(default_scenario):
    return default_scenario.bank.copy()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
