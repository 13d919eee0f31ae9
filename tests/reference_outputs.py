"""Seeded reference results of every preset, and the command that rewrites them.

``compute()`` runs every preset at seed 0 with 2 trials and the ``hybrid``
arm, in one process, and returns per arm and trial the stopping epoch, whether
the run converged, and ``error_l2``, ``residual_l2`` and ``z_error_l2`` at the
epochs of ``EPOCHS`` that the run reached and at its last; per arm, the
envelope values (``compute_envelopes`` on the grid ``experiment`` uses) at the
same epochs and at the arm's last (``None`` for an arm without a bound).  It
also names the numpy and BLAS builds and, on each side of the stop threshold,
the epoch whose ``error_l2`` came closest to it, so a reader can see how near
any stopping decision is to flipping.

``tests/test_reference_outputs.py`` compares a fresh ``compute()`` with the
stored file.  Rewrite the file, after a change that is meant to move these
results, with::

    PYTHONPATH=src python tests/reference_outputs.py
"""

import json
import os
import platform
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from blockkaczmarz.harness import PRESETS, aggregate_bands, compute_envelopes, make_preset, run_experiment  # noqa: E402

PATH = Path(__file__).with_name("reference_outputs.json")
SEED = 0
TRIALS = 2
EPOCHS = (0, 1, 2, 5, 10, 20)
COLUMNS = ("error_l2", "residual_l2", "z_error_l2")


def _pinned(last: int) -> list[int]:
    return [e for e in EPOCHS if e < last] + [last]


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "python": platform.python_version()}


def compute() -> dict:
    presets, closest = {}, {"above": None, "below": None}
    for name in sorted(PRESETS):
        preset = make_preset(name, SEED, include_hybrid=True)
        experiment = run_experiment(preset.spec, list(preset.methods), TRIALS, preset.stop)
        threshold = preset.stop.error_threshold
        arms = {}
        for rec in experiment.records:
            rows = rec.trace.rows
            epochs = _pinned(rec.trace.final_epoch)
            trial = {"final_epoch": rec.trace.final_epoch, "converged": rec.trace.converged, "epochs": epochs}
            for column in COLUMNS:
                trial[column] = [getattr(rows[e], column) for e in epochs]
            arms.setdefault(rec.method, {"trials": []})["trials"].append(trial)
            for row in rows:
                side = "below" if row.error_l2 <= threshold else "above"
                margin = abs(row.error_l2 / threshold - 1.0)
                if closest[side] is None or margin < closest[side]["relative_margin"]:
                    closest[side] = {"preset": name, "arm": rec.method, "trial": rec.trial, "epoch": row.epoch,
                                     "error_l2": row.error_l2, "threshold": threshold, "relative_margin": margin}
        grid = {arm: int(bands.epochs.max()) for arm, bands in aggregate_bands(experiment.records).items()}
        envelopes = compute_envelopes(experiment.arms, grid)
        for arm, last in grid.items():
            values = {row.epoch: row for row in envelopes if row.method == arm}
            epochs = _pinned(last)
            arms[arm]["envelope"] = {"metric": values[0].metric, "epochs": epochs,
                                     "values": [values[e].value for e in epochs]} if values else None
        presets[name] = arms
    return {"seed": SEED, "trials": TRIALS, "include_hybrid": True, "environment": _environment(),
            "closest_stop": closest, "presets": presets}


def main() -> int:
    PATH.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
