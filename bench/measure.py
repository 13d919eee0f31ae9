"""One benchmark run: the operation loop, the metrics and the report."""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blockkaczmarz import cli

import kernels
from tracing import (
    ENTRY_POINTS,
    MODULES,
    ROOT_SPAN,
    SOLVER_RUN,
    Span,
    Tracer,
    check_hit,
    op_profile,
    self_seconds,
)
from workloads import CAPTURE, Verdict

CHECKOUT = Path(__file__).resolve().parent.parent
ALL_SPANS = frozenset(name for _, _, name in ENTRY_POINTS)
TIMING_ONLY = frozenset({SOLVER_RUN})
MIN_COVERAGE = 0.95


@dataclass
class Op:
    kind: str  # warmup, full, setup (--trace 0); traced, timed (--trace 1)
    seconds: float
    spans: list[Span]
    verdict: Verdict
    peak_rss_mb: float  # of the process so far


def run_op(workload, ctx: dict, k: int, kind: str, op_id: int) -> Op:
    """Run operation ``k`` through ``cli.main`` and gate its results."""
    traced = kind == "traced"
    tracer = Tracer(op_id, ALL_SPANS if traced else TIMING_ONLY, CAPTURE)
    argv = workload.argv(ctx, k, setup=kind == "setup")
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        try:
            with tracer.span(ROOT_SPAN):
                exit_code = cli.main(argv)
        except SystemExit as exc:
            exit_code = exc.code or 0
        except Exception:
            exit_code = traceback.format_exc(limit=4)
    verdict = workload.gate(ctx, tracer.spans, exit_code)
    for problem in verdict.problems:
        print(f"bench: {workload.name} op {op_id} ({kind}): {problem}", file=sys.stderr)
    if exit_code == 0:
        check_hit(tracer.spans, workload.expected if traced else TIMING_ONLY)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Op(kind, tracer.spans[0].seconds, tracer.spans, verdict, peak_rss_mb)


def run_ops(workload, seed: int, seconds: float, traced: bool) -> list[Op]:
    """A discarded warm-up, then operations for ``seconds``, in whole cycles.

    A cycle is ``workload.cycle`` full operations, which together run every
    arm, and one operation of a second kind: its set-up, or in a traced run
    one without layer spans.  That second operation alternates between
    running before and after the cycle's last full one, so neither kind
    gains from the order."""
    workdir = CHECKOUT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workload.prepare(seed, workdir)
        # The first SVD of a process is ~50x slower than the next ones.
        ops = [run_op(workload, ctx, 0, "warmup", 0)]
        main, other = ("traced", "timed") if traced else ("full", "setup")
        start = time.perf_counter()
        k = 1
        while True:
            cycle, ends_cycle = k // workload.cycle, k % workload.cycle == 0
            if ends_cycle and cycle % 2 == 0:
                ops.append(run_op(workload, ctx, cycle, other, len(ops)))
            ops.append(run_op(workload, ctx, k, main, len(ops)))
            if ends_cycle and cycle % 2 == 1:
                ops.append(run_op(workload, ctx, cycle, other, len(ops)))
            if ends_cycle and time.perf_counter() - start >= seconds:
                return ops
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_spans(ops: list[Op], arm: str) -> list[tuple[Span, float]]:
    """Solver runs of ``arm`` in ``ops``, each with its self time."""
    out = []
    for op in ops:
        own = self_seconds(op.spans)
        out += [(s, own[i]) for i, s in enumerate(op.spans) if s.name == SOLVER_RUN and s.meta.get("arm") == arm]
    return out


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(workload, ops: list[Op]) -> tuple[dict, dict]:
    full = [op for op in ops if op.kind == "full"]
    samples = {
        "wall_s": [op.seconds for op in full],
        "setup_s": [op.seconds for op in ops if op.kind == "setup"],
    }
    for i, arm in enumerate(workload.arms, 1):
        samples[f"trial_s.arm{i}"] = [s.seconds for s, _ in run_spans(full, arm)]
    metrics = {name: (median(v), "s") for name, v in samples.items()}
    # Over the warm-up and the first cycle only: later operations add malloc
    # fragmentation that grows with how many of them fit in the run.
    metrics["peak_rss_mb"] = (max(op.peak_rss_mb for op in ops[: 2 + workload.cycle]), "MB")
    return metrics, samples


def layer_metrics(workload, ops: list[Op]) -> tuple[dict, dict]:
    traced = [op for op in ops if op.kind == "traced"]
    profiles = [op_profile(op.spans) for op in traced]

    def per_op(fn):
        return median(fn(p) for p in profiles)

    def inclusive(name):
        return per_op(lambda p: p["inclusive"].get(name, 0.0))

    def calls(name):
        return per_op(lambda p: p["calls"].get(name, 0))

    def meta_bytes(op, name):
        return sum(s.meta.get("bytes", 0) for s in op.spans if s.name == name)

    read_rates = [
        meta_bytes(op, "matio.read_matrix") / 1e6 / p["inclusive"]["matio.read_matrix"]
        for op, p in zip(traced, profiles)
        if "matio.read_matrix" in p["inclusive"]
    ]
    m = {
        "matio.read_matrix.s": (inclusive("matio.read_matrix"), "s"),
        "matio.read_mb_per_s": (median(read_rates), "MB/s"),
        "tomography.build_ray_matrix.s": (inclusive("tomography.build_ray_matrix"), "s"),
        "systems.make_system.s": (inclusive("systems.make_system"), "s"),
        "linalg.svd_factor.calls": (calls("linalg.svd_factor"), "count"),
        "linalg.svd_factor.s": (inclusive("linalg.svd_factor"), "s"),
        "solvers.make_block_plan.calls": (calls("solvers.make_block_plan"), "count"),
        "solvers.make_block_plan.s": (inclusive("solvers.make_block_plan"), "s"),
        "theory.compute_envelopes.s": (inclusive("theory.compute_envelopes"), "s"),
        "paving.paving_bounds.calls": (calls("paving.paving_bounds"), "count"),
        "harness.aggregate_bands.s": (inclusive("harness.aggregate_bands"), "s"),
        "harness.write_csv.s": (inclusive("harness.write_csv"), "s"),
        "harness.csv_bytes": (median(meta_bytes(op, "harness.write_csv") for op in traced), "B"),
        "svgplot.write_svg_plot.s": (inclusive("svgplot.write_svg_plot"), "s"),
    }
    samples = {}
    for i, arm in enumerate(workload.arms, 1):
        runs = [(s, own) for s, own in run_spans(traced, arm) if s.meta["steps"] > 0]
        us_per_step = [1e6 * own / s.meta["steps"] for s, own in runs]
        samples[f"solvers.us_per_step.arm{i}"] = us_per_step
        flop, nbytes = (0.0, 0.0)
        if runs:
            meta = runs[0][0].meta
            flop, nbytes = kernels.step_cost(meta["method"], meta["n"], meta["d"], meta["row_block"], meta["col_block"])
        us = median(us_per_step)
        m[f"solvers.steps.arm{i}"] = (median(s.meta["steps"] for s, _ in runs), "count")
        m[f"solvers.epochs.arm{i}"] = (median(s.meta["epochs"] for s, _ in runs), "count")
        m[f"solvers.us_per_step.arm{i}"] = (us, "us")
        m[f"solvers.computed_flop_per_step.arm{i}"] = (flop, "flop")
        m[f"solvers.computed_bytes_per_step.arm{i}"] = (nbytes, "B")
        m[f"solvers.gflops.arm{i}"] = (flop / (us * 1e3) if us > 0 else 0.0, "GFLOP/s")
    for module in MODULES:
        m[f"self_s.{module}"] = (per_op(lambda p: p["self_by_module"][module]), "s")
    coverage = [p["coverage"] for p in profiles]
    m["trace.coverage"] = (100.0 * median(coverage), "%")
    traced_wall = median(op.seconds for op in traced)
    timed_wall = median(op.seconds for op in ops if op.kind == "timed")
    m["trace.overhead"] = (traced_wall / timed_wall - 1.0, "ratio")
    samples["traced_wall_s"] = [op.seconds for op in traced]
    samples["timed_wall_s"] = [op.seconds for op in ops if op.kind == "timed"]
    if min(coverage) < MIN_COVERAGE:
        print(f"bench: top-level spans cover only {100 * min(coverage):.1f}% of an operation", file=sys.stderr)
    return m, samples


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """``(p, value)`` of the highest percentile with at least ten samples above it."""
    v = sorted(values)
    k = len(v) - 11
    if k < 0:
        return None
    return 100.0 * k / (len(v) - 1), v[k]


def describe(values: list[float]) -> dict:
    hp = high_percentile(values)
    return {
        "n": len(values),
        "median": median(values),
        "high_percentile": None if hp is None else {"p": hp[0], "value": hp[1]},
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict

    def json_line(self) -> str:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()}
        return json.dumps({"correct": self.correct, "attempted": self.attempted, "failed": self.failed, "metrics": metrics})


def measure(workload, seed: int, seconds: float, traced: bool) -> Result:
    """Run ``workload``, print a summary, write the details file, return the result."""
    name = workload.name
    env = environment()
    ops = run_ops(workload, seed, seconds, traced)
    metrics, samples = layer_metrics(workload, ops) if traced else end_to_end_metrics(workload, ops)
    attempted = sum(op.verdict.attempted for op in ops)
    failed = sum(op.verdict.failed for op in ops)

    print(f"env: {json.dumps(env)}")
    print("arms: " + ", ".join(f"arm{i}={arm}" for i, arm in enumerate(workload.arms, 1)))
    stats = {key: describe(values) for key, values in samples.items()}
    for key, st in stats.items():
        hp = st["high_percentile"]
        tail = f" p{hp['p']:.0f}={hp['value']:.6g}" if hp else " (fewer than 11 samples: no tail percentile)"
        print(f"{key}: median={st['median']:.6g}{tail} n={st['n']}")

    out = CHECKOUT / ".bench_out"
    out.mkdir(exist_ok=True)
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced, "environment": env,
        "arms": {f"arm{i}": arm for i, arm in enumerate(workload.arms, 1)},
        "samples": stats, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": [
            {"op": s.op, "kind": op.kind, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "error": s.error}
            for op in ops for s in op.spans
        ],
    }
    (out / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(details, indent=1))
    return Result(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics)
