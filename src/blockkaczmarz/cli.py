"""Command-line interface: ``pave-check``, ``solve``, and ``experiment``."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ExperimentRecord,
    PRESETS,
    aggregate_bands,
    compute_envelopes,
    derive_seed,
    make_preset,
    run_experiment,
    write_csv,
    write_envelopes_csv,
)
from .matio import read_matrix, read_vector
from .paving import COLUMNS, ROWS, paving_bounds, random_partition
from .solvers import METHODS, ConfigError, MethodConfig, StopRule, _partitions_taken, run
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


_COUNT = _bounded(int, lambda v: v >= 1, "an integer >= 1")
_EPOCHS = _bounded(int, lambda v: v >= 0, "an integer >= 0")
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
    pave.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", help="run one solver on a system read from files")
    solve.add_argument("--matrix", required=True)
    solve.add_argument("--rhs", required=True)
    solve.add_argument("--method", choices=list(METHODS), required=True)
    solve.add_argument("--row-blocks", type=_COUNT, default=None)
    solve.add_argument("--col-blocks", type=_COUNT, default=None)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--max-epochs", type=_EPOCHS, default=100)
    solve.add_argument("--tol", type=_TOL, default=1e-6)
    solve.add_argument("--trace", default=None, help="write the per-epoch CSV trace here")

    exp = sub.add_parser("experiment", help="run a multi-trial benchmark preset")
    exp.add_argument("--preset", choices=sorted(PRESETS), required=True)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--trials", type=_COUNT, default=40)
    exp.add_argument("--out", default=None, help=f"output directory (default: ${OUT_ENV_VAR} or '.')")
    exp.add_argument("--max-epochs", type=_EPOCHS, default=None)
    exp.add_argument("--tol", type=_TOL, default=None)
    exp.add_argument("--row-blocks", type=_COUNT, default=None)
    exp.add_argument("--col-blocks", type=_COUNT, default=None)
    exp.add_argument("--include-hybrid", action="store_true", help="add the degraded hybrid arm (diagnostic only)")
    return parser


def _random_partition(a: np.ndarray, count: int, rng: np.random.Generator, axis: str, flag: str):
    """:func:`random_partition` of ``a``'s rows or columns into ``count``
    blocks; a count above their number exits with one line naming ``flag``."""
    extent = a.shape[0] if axis == ROWS else a.shape[1]
    if count > extent:
        raise SystemExit(f"{flag} {count} exceeds the matrix's {extent} {axis}")
    return random_partition(extent, count, rng, axis)


def _cmd_pave_check(args) -> int:
    a = read_matrix(args.matrix)
    axis = ROWS if args.axis == "rows" else COLUMNS
    partition = _random_partition(a, args.blocks, np.random.default_rng(args.seed), axis, "--blocks")
    params = paving_bounds(a, partition)
    print(f"{params.p} {params.alpha:.17g} {params.beta:.17g}")
    return 0


def _cmd_solve(args) -> int:
    needs_row, needs_col = _partitions_taken(args.method)
    for needs, count, flag in ((needs_row, args.row_blocks, "--row-blocks"), (needs_col, args.col_blocks, "--col-blocks")):
        if needs and count is None:
            raise SystemExit(f"method {args.method!r} requires {flag}")
        if count is not None and not needs:
            raise SystemExit(f"method {args.method!r} does not take {flag}")
    a = read_matrix(args.matrix)
    b = read_vector(args.rhs)
    system = make_system(a, b)
    prng = np.random.default_rng(derive_seed(args.seed, "partition", 0))
    row_partition = _random_partition(a, args.row_blocks, prng, ROWS, "--row-blocks") if needs_row else None
    col_partition = _random_partition(a, args.col_blocks, prng, COLUMNS, "--col-blocks") if needs_col else None
    config = MethodConfig(
        method=args.method,
        row_partition=row_partition,
        col_partition=col_partition,
        seed=derive_seed(args.seed, args.method, 0),
    )
    stop = StopRule(max_epochs=args.max_epochs, error_threshold=args.tol)
    trace = run(system, config, stop)
    if args.trace:
        write_csv([ExperimentRecord(method=args.method, trial=0, trace=trace)], args.trace)
    print(f"final_error={trace.final_error:.17g} epochs={trace.final_epoch}")
    return 0


def _cmd_experiment(args) -> int:
    out = args.out if args.out is not None else os.environ.get(OUT_ENV_VAR, ".")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    preset = make_preset(
        args.preset,
        seed=args.seed,
        max_epochs=args.max_epochs,
        error_threshold=args.tol,
        row_blocks=args.row_blocks,
        col_blocks=args.col_blocks,
        include_hybrid=args.include_hybrid,
    )
    try:
        experiment = run_experiment(preset.spec, list(preset.methods), args.trials, preset.stop)
    except ConfigError as exc:
        # the presets fit their systems: only a block count flag can break one
        flags = [flag for flag, count in (("--row-blocks", args.row_blocks), ("--col-blocks", args.col_blocks)) if count]
        if not flags:
            raise
        raise SystemExit(f"{' / '.join(flags)}: {exc}") from None
    bands = aggregate_bands(experiment.records)
    write_csv(experiment.records, out_dir / "trace.csv")
    write_csv(bands, out_dir / "bands.csv")
    write_svg_plot(bands, out_dir / "bands_epoch.svg", x_axis="epoch", title=f"{args.preset}: error vs epochs")
    write_svg_plot(bands, out_dir / "bands_cpu.svg", x_axis="cpu_seconds", title=f"{args.preset}: error vs CPU time")
    grid = {name: int(bands[name].epochs.max()) for name in bands}
    envelopes = compute_envelopes(experiment.arms, grid)
    write_envelopes_csv(envelopes, out_dir / "envelopes.csv")
    for name in bands:
        b = bands[name]
        print(f"{name}: median_final_error={b.median[-1]:.6g} epochs={int(b.epochs[-1])}")
    print(f"wrote trace.csv bands.csv bands_epoch.svg bands_cpu.svg envelopes.csv to {out_dir}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "pave-check":
        return _cmd_pave_check(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
