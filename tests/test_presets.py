"""End-to-end behavior of the shipped presets through the CLI batch path."""

import numpy as np
import pytest

from rovftc.cli import main
from rovftc.scenario import load_scenario
from rovftc.simulation import Simulation

TABLE_CASES = [f"table1_case{i}" for i in range(1, 9)]
SINGLE_FAULTS = [f"fault_thruster{i}" for i in range(1, 5)]


@pytest.mark.slow
def test_sign_table_cases_all_isolate_first_thruster(tmp_path, capsys):
    code = main(["batch", *TABLE_CASES, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    rows = [ln.split() for ln in lines[1:]]
    assert len(rows) == 8
    for row in rows:
        assert row[0].startswith("table1_case")
        assert row[2] == "1", f"{row[0]} identified {row[2]}"


@pytest.mark.slow
def test_single_fault_presets_identify_each_thruster(tmp_path, capsys):
    code = main(["batch", *SINGLE_FAULTS, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    idents = [ln.split()[2] for ln in lines[1:]]
    assert idents == ["1", "2", "3", "4"]


@pytest.mark.slow
def test_estimates_monotone_and_only_identified_move():
    res = Simulation(load_scenario("fault_thruster3")).run()
    w_hat = np.stack([res.column(f"Wh{i}") for i in range(1, 5)], axis=1)
    assert np.all(np.diff(w_hat, axis=0) <= 1e-12), "estimates must not rise"
    moved = np.abs(w_hat[-1] - w_hat[0]) > 1e-12
    assert list(moved) == [False, False, True, False]


@pytest.mark.slow
def test_stress_preset_contrast_with_default_period(tmp_path):
    # the same schedule converges when the update period is long enough
    healthy = Simulation(load_scenario("fig10_ts_stress",
                                       overrides=["fdi.t_s=8.0"])).run()
    assert healthy.summary["reconfiguration_failures"] == []
