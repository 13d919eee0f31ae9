"""Layered benchmark of the blockkaczmarz library.

Run from the root of a checkout::

    python3 bench/run.py --workload gauss-fig3a --seed 0 --seconds 30 --trace 0

Each run drives the library from outside, through ``cli.main`` only, on the
inputs of one seeded workload (see ``workloads.py`` and ``BENCHMARK.json``).
It runs one discarded warm-up operation, then cycles of operations until
``--seconds`` have passed.  A cycle runs every arm of the workload once in
full operations, plus one operation of a second kind:

``--trace 0``
    the second kind is a full operation with ``--max-epochs 0``, its
    set-up.  Reports the end-to-end metrics: ``wall_s``, ``setup_s``, the
    per-arm solver run times ``trial_s.arm1..3`` and ``peak_rss_mb``.
``--trace 1``
    full operations carry spans around every public layer entry point;
    the second kind times only the solver runs, for the tracing overhead.
    Reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans, sample counts and
percentiles, and the environment go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_library() -> None:
    """Import ``blockkaczmarz`` from this checkout's ``src``, or exit."""
    src = ROOT / "src"
    if not (src / "blockkaczmarz" / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {src}/blockkaczmarz")
    sys.path.insert(0, str(src))
    import blockkaczmarz

    if Path(blockkaczmarz.__file__).resolve().parent != (src / "blockkaczmarz").resolve():
        sys.exit(f"bench: imported blockkaczmarz from {blockkaczmarz.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    use_checkout_library()
    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(result.json_line())
    return 0


if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: at two threads the tomography
    # workload was no faster and varied more from run to run.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
