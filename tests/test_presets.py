"""End-to-end behavior of the shipped presets through the CLI batch path."""

import numpy as np
import pytest

from conftest import GOLDEN
from rovftc.scenario import list_presets, load_scenario
from rovftc.simulation import COLUMNS, Simulation

TABLE_CASES = [f"table1_case{i}" for i in range(1, 9)]
SINGLE_FAULTS = [f"fault_thruster{i}" for i in range(1, 5)]


@pytest.mark.slow
def test_sign_table_cases_all_isolate_first_thruster(presets):
    code, table, _ = presets.batch(*TABLE_CASES)
    lines = table.strip().splitlines()
    assert code == 0
    rows = [ln.split() for ln in lines[1:]]
    assert len(rows) == 8
    for row in rows:
        assert row[0].startswith("table1_case")
        assert row[2] == "1", f"{row[0]} identified {row[2]}"


@pytest.mark.slow
def test_single_fault_presets_identify_each_thruster(presets):
    code, table, _ = presets.batch(*SINGLE_FAULTS)
    lines = table.strip().splitlines()
    assert code == 0
    idents = [ln.split()[2] for ln in lines[1:]]
    assert idents == ["1", "2", "3", "4"]


@pytest.mark.slow
def test_estimates_monotone_and_only_identified_move(presets):
    # the rows the single-fault batch wrote, read back from its CSV
    _, _, out = presets.batch(*SINGLE_FAULTS)
    rows = np.loadtxt(out / "fault_thruster3.csv", delimiter=",", skiprows=1)
    w_hat = rows[:, [COLUMNS.index(f"Wh{i}") for i in range(1, 5)]]
    assert np.all(np.diff(w_hat, axis=0) <= 1e-12), "estimates must not rise"
    moved = np.abs(w_hat[-1] - w_hat[0]) > 1e-12
    assert list(moved) == [False, False, True, False]


@pytest.mark.slow
def test_stress_preset_contrast_with_default_period(tmp_path):
    # the same schedule converges when the update period is long enough
    healthy = Simulation(load_scenario("fig10_ts_stress",
                                       overrides=["fdi.t_s=8.0"])).run()
    assert healthy.summary["reconfiguration_failures"] == []


def test_golden_file_covers_every_preset():
    assert sorted(GOLDEN) == list_presets()


@pytest.mark.slow
def test_residual_preset_matches_golden(presets):
    # the one preset no other test runs
    presets.result("fig5_residual")
