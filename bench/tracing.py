"""Spans recorded around the library's public layer entry points.

The benchmark never edits the library.  It swaps a timing wrapper in for
each entry point under every name the package's modules look it up by
(``harness.run``, ``cli.run`` and ``blockkaczmarz.run`` all refer to
``solvers.run``), runs one operation, and puts the originals back.  Spans
are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "blockkaczmarz"

# (module that defines it, attribute, span name).  The span name is the
# layer the benchmark charges the time to; ``compute_envelopes`` lives in
# ``harness`` but evaluates the ``theory`` envelopes.
ENTRY_POINTS = (
    ("matio", "read_matrix", "matio.read_matrix"),
    ("matio", "read_vector", "matio.read_vector"),
    ("tomography", "build_ray_matrix", "tomography.build_ray_matrix"),
    ("systems", "make_system", "systems.make_system"),
    ("linalg", "svd_factor", "linalg.svd_factor"),
    ("paving", "random_partition", "paving.random_partition"),
    ("paving", "paving_bounds", "paving.paving_bounds"),
    ("solvers", "make_block_plan", "solvers.make_block_plan"),
    ("solvers", "run", "solvers.run"),
    ("harness", "make_preset", "harness.make_preset"),
    ("harness", "generate_system", "harness.generate_system"),
    ("harness", "prepare_method", "harness.prepare_method"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "aggregate_bands", "harness.aggregate_bands"),
    ("harness", "write_csv", "harness.write_csv"),
    ("harness", "compute_envelopes", "theory.compute_envelopes"),
    ("harness", "write_envelopes_csv", "harness.write_envelopes_csv"),
    ("svgplot", "write_svg_plot", "svgplot.write_svg_plot"),
)
SOLVER_RUN = "solvers.run"
ROOT_SPAN = "cli.main"

# Layers the per-module split reports; ``cli`` is what the root span does
# outside every wrapped entry point (argument parsing, mkdir, printing).
MODULES = ("matio", "tomography", "systems", "linalg", "paving", "solvers", "theory", "harness", "svgplot", "cli")


class MissingEntryPoint(RuntimeError):
    """An entry point the benchmark wraps is gone, or an operation never reached it."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    meta: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records the spans of one operation.

    ``capture`` maps a span name to a callback ``(args, kwargs, result) ->
    dict`` whose output is stored on the span, so the caller can inspect
    e.g. each solver run's trace after the operation.
    """

    def __init__(self, op: int, names: frozenset[str], capture: dict | None = None):
        self.op = op
        self.names = names
        self.capture = capture or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        capture = self.capture.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if capture is not None:
                    span.meta = capture(args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point in ``self.names`` wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        patched = []
        try:
            for module_name, attr, name in ENTRY_POINTS:
                if name not in self.names:
                    continue
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
                original = getattr(home, attr, None)
                if original is None:
                    raise MissingEntryPoint(f"{PACKAGE}.{module_name}.{attr} no longer exists")
                wrapped = self._wrap(original, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)


def check_hit(spans: list[Span], expected: frozenset[str]) -> None:
    """Raise if an operation never entered one of the entry points it must use."""
    missing = sorted(expected - {s.name for s in spans})
    if missing:
        raise MissingEntryPoint(f"operation never reached: {', '.join(missing)}")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def op_profile(spans: list[Span]) -> dict:
    """Per-operation totals: inclusive seconds and calls per span name, self
    seconds per module, and the share of the root covered by its children."""
    own = self_seconds(spans)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_module = dict.fromkeys(MODULES, 0.0)
    root = top = 0.0
    for s, self_s in zip(spans, own):
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
        by_module[s.name.split(".", 1)[0]] += self_s
        if s.parent is None:
            root += s.seconds
        elif spans[s.parent].parent is None:
            top += s.seconds
    return {
        "inclusive": inclusive,
        "calls": calls,
        "self_by_module": by_module,
        "coverage": top / root if root > 0 else 0.0,
        "root_seconds": root,
    }
