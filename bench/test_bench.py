"""Tiny-size passes of each workload: metric names and units, the correctness
gate, and the traced run's entry-point check.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import use_checkout_library  # noqa: E402

use_checkout_library()

from blockkaczmarz import cli, harness, solvers  # noqa: E402

import measure  # noqa: E402
from tracing import MissingEntryPoint  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def tiny(name: str):
    """The workload at a size that runs in about a second per operation."""
    workload = copy.copy(WORKLOADS[name])
    if hasattr(workload, "trials"):
        workload.trials = 1
    else:
        workload.n, workload.d = 600, 60
    return workload


def metrics_of(name: str, traced: bool) -> tuple[list, dict]:
    workload = tiny(name)
    ops = measure.run_ops(workload, seed=1, seconds=0, traced=traced)
    metrics, _ = (measure.layer_metrics if traced else measure.end_to_end_metrics)(workload, ops)
    return ops, metrics


def spec_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_emitted_with_its_unit(name, traced):
    ops, metrics = metrics_of(name, traced)
    assert {k: unit for k, (_, unit) in metrics.items()} == spec_units("per_layer" if traced else "end_to_end")
    assert sum(op.verdict.failed for op in ops) == 0
    if not traced:
        assert all(value > 0 for value, _ in metrics.values())
    else:
        assert metrics["trace.coverage"][0] >= 95.0
        assert metrics["solvers.us_per_step.arm1"][0] > 0


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _stop_after_one_epoch(monkeypatch):
    """Make every solver run return after at most one epoch: a wrong result."""
    real = solvers.run

    def truncated(system, config, stop, error_fn=None):
        stop = solvers.StopRule(min(stop.max_epochs, 1), stop.error_threshold)
        return real(system, config, stop, error_fn=error_fn)

    for module in (solvers, harness, cli):
        monkeypatch.setattr(module, "run", truncated)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_counts_a_wrong_result_as_failed(name, monkeypatch):
    _stop_after_one_epoch(monkeypatch)
    ops = measure.run_ops(tiny(name), seed=1, seconds=0, traced=False)
    # Set-up operations stop at epoch 0 anyway; every other solver run is wrong.
    expected = sum(op.verdict.attempted for op in ops if op.kind != "setup")
    assert sum(op.verdict.failed for op in ops) == expected > 0


def test_traced_run_fails_when_an_entry_point_is_bypassed(monkeypatch):
    # Envelopes computed without the wrapped paving_bounds / compute_envelopes.
    monkeypatch.setattr(cli, "compute_envelopes", lambda *args, **kwargs: [])
    with pytest.raises(MissingEntryPoint, match="paving.paving_bounds"):
        measure.run_ops(tiny("gauss-fig3a"), seed=1, seconds=0, traced=True)


def test_traced_run_fails_when_an_entry_point_is_gone(monkeypatch):
    from blockkaczmarz import matio

    monkeypatch.delattr(matio, "read_matrix")
    with pytest.raises(MissingEntryPoint, match="read_matrix"):
        measure.run_ops(tiny("solve-file"), seed=1, seconds=0, traced=True)


def test_wrappers_are_removed_after_each_operation():
    before = (solvers.run, harness.run, cli.run, harness.make_system, cli.read_matrix)
    measure.run_ops(tiny("solve-file"), seed=1, seconds=0, traced=True)
    assert (solvers.run, harness.run, cli.run, harness.make_system, cli.read_matrix) == before


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": ""},
    )


def test_cli_prints_the_result_as_its_last_line():
    proc = _run_cli(CHECKOUT, "--workload", "solve-file", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec_units("end_to_end"))


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "gauss-fig3a", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
