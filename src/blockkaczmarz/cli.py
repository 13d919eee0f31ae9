"""Command-line interface: ``pave-check``, ``solve``, and ``experiment``."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import (
    ExperimentRecord,
    MethodSetting,
    PRESETS,
    aggregate_bands,
    compute_envelopes,
    derive_seed,
    make_preset,
    prepare_method,
    run_experiment,
    write_csv,
    write_envelopes_csv,
)
from .matio import read_matrix, read_vector
from .paving import COLUMNS, ROWS, paving_bounds, random_partition
from .solvers import METHODS, ConfigError, StopRule, run
from .svgplot import write_svg_plot
from .systems import make_system

OUT_ENV_VAR = "BLOCKKACZMARZ_OUT"


def _bounded(kind, test, what: str):
    """An argparse ``type``: the flag's value read as ``kind``, which must pass
    ``test``; anything else exits 2 with a usage error naming the flag."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not test(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


def _at(path, action, errors=(OSError, ValueError)):
    """``action(path)``; a file or directory that cannot be opened, made,
    read or written (one of ``errors``) exits 1 with one line naming it, not
    a traceback.  Writers pass ``errors=OSError``, so a ``ValueError`` from a
    bug in what they write still shows its traceback."""
    try:
        return action(path)
    except errors as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise SystemExit(reason if str(path) in reason else f"{path}: {reason}") from None


_COUNT = _bounded(int, lambda v: v >= 1, "an integer >= 1")
_NONNEGATIVE = _bounded(int, lambda v: v >= 0, "an integer >= 0")
_TOL = _bounded(float, lambda v: v > 0, "a positive number")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="blockkaczmarz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pave = sub.add_parser("pave-check", help="measure paving bounds of a random partition")
    pave.add_argument("matrix", help="matrix file ('n d' header, then rows)")
    pave.add_argument("--blocks", type=_COUNT, required=True, help="number of partition blocks")
    pave.add_argument("--axis", choices=["rows", "cols"], default="rows")
    pave.add_argument("--seed", type=_NONNEGATIVE, default=0)

    solve = sub.add_parser("solve", help="run one solver on a system read from files")
    solve.add_argument("--matrix", required=True)
    solve.add_argument("--rhs", required=True)
    solve.add_argument("--method", choices=list(METHODS), required=True)
    solve.add_argument("--row-blocks", type=_COUNT, default=None)
    solve.add_argument("--col-blocks", type=_COUNT, default=None)
    solve.add_argument("--seed", type=_NONNEGATIVE, default=0)
    solve.add_argument("--max-epochs", type=_NONNEGATIVE, default=100)
    solve.add_argument("--tol", type=_TOL, default=1e-6)
    solve.add_argument("--trace", default=None, help="write the per-epoch CSV trace here")

    exp = sub.add_parser("experiment", help="run a multi-trial benchmark preset")
    exp.add_argument("--preset", choices=sorted(PRESETS), required=True)
    exp.add_argument("--seed", type=_NONNEGATIVE, default=0)
    exp.add_argument("--trials", type=_COUNT, default=40)
    exp.add_argument("--out", default=None, help=f"output directory (default: ${OUT_ENV_VAR} or '.')")
    exp.add_argument("--max-epochs", type=_NONNEGATIVE, default=None)
    exp.add_argument("--tol", type=_TOL, default=None)
    exp.add_argument("--row-blocks", type=_COUNT, default=None)
    exp.add_argument("--col-blocks", type=_COUNT, default=None)
    exp.add_argument("--include-hybrid", action="store_true", help="add the degraded hybrid arm (diagnostic only)")
    return parser


def _cmd_pave_check(args) -> int:
    a = _at(args.matrix, read_matrix)
    axis = ROWS if args.axis == "rows" else COLUMNS
    extent = a.shape[0] if axis == ROWS else a.shape[1]
    if args.blocks > extent:
        raise SystemExit(f"--blocks {args.blocks} exceeds the matrix's {extent} {axis}")
    params = paving_bounds(a, random_partition(extent, args.blocks, np.random.default_rng(args.seed), axis))
    print(f"{params.p} {params.alpha:.17g} {params.beta:.17g}")
    return 0


def _cmd_solve(args) -> int:
    a, b = _at(args.matrix, read_matrix), _at(args.rhs, read_vector)
    system = _at(f"{args.matrix}, {args.rhs}", lambda _: make_system(a, b))
    setting = MethodSetting(args.method, row_blocks=args.row_blocks, col_blocks=args.col_blocks)
    prep = prepare_method(system, setting, args.seed)
    stop = StopRule(max_epochs=args.max_epochs, error_threshold=args.tol)
    if args.trace:
        # fail before the run, not after it: open (and so create) the trace file now
        _at(args.trace, lambda path: open(path, "a").close(), OSError)
    trace = run(system, replace(prep.config, seed=derive_seed(args.seed, args.method, 0)), stop)
    if args.trace:
        records = [ExperimentRecord(method=args.method, trial=0, trace=trace)]
        _at(args.trace, lambda path: write_csv(records, path), OSError)
    print(f"final_error={trace.final_error:.17g} epochs={trace.final_epoch}")
    return 0


def _cmd_experiment(args) -> int:
    out = args.out if args.out is not None else os.environ.get(OUT_ENV_VAR, ".")
    out_dir = Path(out)
    _at(out_dir, lambda path: path.mkdir(parents=True, exist_ok=True))
    preset = make_preset(
        args.preset,
        seed=args.seed,
        max_epochs=args.max_epochs,
        error_threshold=args.tol,
        row_blocks=args.row_blocks,
        col_blocks=args.col_blocks,
        include_hybrid=args.include_hybrid,
    )
    experiment = run_experiment(preset.spec, list(preset.methods), args.trials, preset.stop)
    bands = aggregate_bands(experiment.records)
    _at(out_dir / "trace.csv", lambda path: write_csv(experiment.records, path), OSError)
    _at(out_dir / "bands.csv", lambda path: write_csv(bands, path), OSError)
    for name, x_axis, what in (("bands_epoch.svg", "epoch", "epochs"), ("bands_cpu.svg", "cpu_seconds", "CPU time")):
        title = f"{args.preset}: error vs {what}"
        _at(out_dir / name, lambda path: write_svg_plot(bands, path, x_axis=x_axis, title=title), OSError)
    grid = {name: int(bands[name].epochs.max()) for name in bands}
    envelopes = compute_envelopes(experiment.arms, grid)
    _at(out_dir / "envelopes.csv", lambda path: write_envelopes_csv(envelopes, path), OSError)
    for name in bands:
        b = bands[name]
        print(f"{name}: median_final_error={b.median[-1]:.6g} epochs={int(b.epochs[-1])}")
    print(f"wrote trace.csv bands.csv bands_epoch.svg bands_cpu.svg envelopes.csv to {out_dir}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "pave-check":
        return _cmd_pave_check(args)
    try:
        return _cmd_solve(args) if args.command == "solve" else _cmd_experiment(args)
    except ConfigError as exc:
        # methods and presets are argparse choices, so only the block counts can
        # fail to fit: lead with the block flags given
        flags = " / ".join(flag for flag, count in (("--row-blocks", args.row_blocks), ("--col-blocks", args.col_blocks)) if count)
        raise SystemExit(f"{flags}: {exc}" if flags else str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
