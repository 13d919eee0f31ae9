"""Every preset's seeded results against the stored reference outputs.

The stored file is ``reference_outputs.json``, written by
``reference_outputs.py`` (its docstring gives the command).  Stopping epochs
and convergence must match exactly; every value may move by rounding only,
1e-12 of its column's epoch-0 value.  A change to the random stream, a
partition draw or a stopping decision fails here, whatever bound it passes.
"""

import copy
import json

import pytest

from reference_outputs import COLUMNS, PATH, compute, diff

REL = 1e-12


@pytest.fixture(scope="module")
def fresh():
    return compute()


STORED = json.loads(PATH.read_text())
ARMS = [(preset, arm) for preset, arms in STORED["presets"].items() for arm in arms]


def assert_close(got, want, what):
    assert len(got) == len(want), what
    if want and want[0] is None:
        assert all(g is None for g in got), what
        return
    tol = REL * abs(want[0])
    for i, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= tol, f"{what}[{i}]: {g!r} against {w!r} (tolerance {tol:.3g})"


def test_reference_covers_every_preset(fresh):
    assert sorted(fresh["presets"]) == sorted(STORED["presets"])
    for preset, arms in STORED["presets"].items():
        assert sorted(fresh["presets"][preset]) == sorted(arms)


@pytest.mark.parametrize("preset, arm", ARMS, ids=[f"{p}-{a}" for p, a in ARMS])
def test_preset_results_match_the_reference(fresh, preset, arm):
    want, got = STORED["presets"][preset][arm], fresh["presets"][preset][arm]
    assert len(got["trials"]) == len(want["trials"])
    for trial, (g, w) in enumerate(zip(got["trials"], want["trials"])):
        where = f"{preset} {arm} trial {trial}"
        assert (g["final_epoch"], g["converged"]) == (w["final_epoch"], w["converged"]), where
        assert g["epochs"] == w["epochs"], where
        for column in COLUMNS:
            assert_close(g[column], w[column], f"{where} {column}")
    if want["envelope"] is None:
        assert got["envelope"] is None
    else:
        assert (got["envelope"]["metric"], got["envelope"]["epochs"]) == (want["envelope"]["metric"],
                                                                          want["envelope"]["epochs"])
        assert_close(got["envelope"]["values"], want["envelope"]["values"], f"{preset} {arm} envelope")


def test_diff_names_flipped_stops_and_largest_moves():
    # ``reference_outputs.py --diff``: against itself no stop flips and every
    # move is 0; a flipped stop is named, and a moved value is the largest
    # move of its column, as a fraction of the epoch-0 value
    flips, largest = diff(STORED, STORED)
    assert flips == [] and sorted(largest) == sorted(COLUMNS + ("envelope",))
    assert all(move == 0 for move, _ in largest.values())
    preset, arm = ARMS[0]
    moved = copy.deepcopy(STORED)
    trial = moved["presets"][preset][arm]["trials"][0]
    trial["final_epoch"] += 1
    trial["error_l2"][1] += 1e-3 * trial["error_l2"][0]
    flips, largest = diff(STORED, moved)
    assert flips == [f"{preset} {arm} trial 0 final_epoch: {trial['final_epoch'] - 1} -> {trial['final_epoch']}"]
    move, where = largest["error_l2"]
    assert move == pytest.approx(1e-3, rel=1e-9) and where == f"{preset} {arm} trial 0, epoch 1"
    assert all(move == 0 for column, (move, _) in largest.items() if column != "error_l2")
