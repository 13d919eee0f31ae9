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

A path after the command writes that file instead.  To see what a change
moved without rewriting anything, add ``--diff``: it compares a fresh
``compute()`` with the stored file (or the path given) and prints every
flipped ``final_epoch`` or ``converged``, then, for each column and the
envelopes, the largest move as a fraction of the stored epoch-0 value, and
where it is; it exits 1 when a stop flipped.  To compare two trees exactly,
write the parent tree's results to a file and diff against it::

    PYTHONPATH=../parent/src python tests/reference_outputs.py parent.json
    PYTHONPATH=src python tests/reference_outputs.py --diff parent.json
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


def diff(stored: dict, fresh: dict) -> tuple[list[str], dict]:
    """The flipped stops of ``fresh`` against ``stored``, one line each, and
    per column its largest move as a fraction of the stored epoch-0 value,
    as ``(move, where)``; values are compared at the epochs both pinned."""
    flips, largest = [], {}

    def move(column, where, got, want):
        at = dict(zip(got["epochs"], got["values"]))
        for epoch, w in zip(want["epochs"], want["values"]):
            g = at.get(epoch, w)
            if (g is None) != (w is None):
                flips.append(f"{where} {column} at epoch {epoch}: {w!r} -> {g!r}")
            elif w is not None:
                m = abs(g - w) / (abs(want["values"][0]) or 1.0)
                if m > largest.get(column, (-1.0,))[0]:
                    largest[column] = (m, f"{where}, epoch {epoch}")

    for preset, arms in stored["presets"].items():
        for arm, want in arms.items():
            got = fresh["presets"].get(preset, {}).get(arm)
            if got is None:
                flips.append(f"{preset} {arm}: missing")
                continue
            for trial, (g, w) in enumerate(zip(got["trials"], want["trials"])):
                where = f"{preset} {arm} trial {trial}"
                flips += [f"{where} {key}: {w[key]!r} -> {g[key]!r}" for key in ("final_epoch", "converged")
                          if g[key] != w[key]]
                for column in COLUMNS:
                    move(column, where, {"epochs": g["epochs"], "values": g[column]},
                         {"epochs": w["epochs"], "values": w[column]})
            if (got["envelope"] is None) != (want["envelope"] is None):
                flips.append(f"{preset} {arm} envelope: {want['envelope']!r} -> {got['envelope']!r}")
            elif want["envelope"] is not None:
                move("envelope", f"{preset} {arm}", got["envelope"], want["envelope"])
    return flips, largest


def main(argv: list[str]) -> int:
    args = [a for a in argv if a != "--diff"]
    if len(args) > 1 or any(a.startswith("-") for a in args):
        print("usage: reference_outputs.py [--diff] [PATH]", file=sys.stderr)
        return 2
    path = Path(args[0]) if args else PATH
    if "--diff" in argv:
        flips, largest = diff(json.loads(path.read_text()), compute())
        for line in flips or ["no stop flipped"]:
            print(line)
        for column, (m, where) in largest.items():
            print(f"{column}: largest move {m:.3g} of epoch 0 ({where})")
        return 1 if flips else 0
    path.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
