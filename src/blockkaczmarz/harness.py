"""Problem generation, multi-trial experiments, and telemetry aggregation.

An experiment generates one system from a seeded spec, then runs each
configured method for a number of independent trials whose random streams
are derived deterministically from ``(master seed, method label, trial)``.
Aggregation produces per-epoch median/min/max bands, the natural analogue of
median-line-plus-shaded-region convergence plots.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .paving import COLUMNS, ROWS, column_standardize, paving_bounds, random_partition, row_standardize, unscale_solution
from .systems import LinearSystem, make_system
from .solvers import (BLOCK, BLOCK_CD, DOUBLE, HYBRID, REK, RK, ConfigError, Kernel, MethodConfig, StopRule, Trace,
                      _partitions_taken, epoch_length, run)
from . import theory
from .tomography import build_ray_matrix, radial_phantom

GAUSSIAN_ROWSTD = "gaussian_rowstd"
GAUSSIAN_INCONSISTENT = "gaussian_inconsistent"
GAUSSIAN_DYNAMIC = "gaussian_dynamic_rows"
TOMOGRAPHY = "tomography"

TRACE_HEADER = "method,trial,epoch,error_l2,residual_l2,z_error_l2,cpu_seconds"
BANDS_HEADER = "method,epoch,median,min,max"
ENVELOPES_HEADER = "method,epoch,iterations,metric,value"


@dataclass(frozen=True)
class ProblemSpec:
    """Seeded description of a benchmark problem instance."""

    kind: str
    n: int = 0
    d: int = 0
    residual_norm: float = 0.0
    tomo_n: int = 0
    tomo_f: int = 0
    seed: int = 0


def _gaussian_nonzero_rows(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, d))
    while True:
        zero = np.flatnonzero(np.linalg.norm(g, axis=1) == 0.0)
        if zero.size == 0:
            return g
        g[zero] = rng.standard_normal((zero.size, d))


def _planted_inconsistent(a: np.ndarray, x: np.ndarray, norm: float, rng: np.random.Generator) -> LinearSystem:
    """The system ``a @ x + e``, with ``e`` Gaussian noise projected off the range
    of ``a`` by the ``Q`` of its QR (``a`` has full column rank) and rescaled
    to ``norm``."""
    q = np.linalg.qr(a)[0]
    while True:
        g = rng.standard_normal(a.shape[0])
        e = g - q @ (q.T @ g)
        e_norm = np.linalg.norm(e)
        if e_norm > 1e-12:
            break
    return make_system(a, a @ x + e * (norm / e_norm))


def gen_gaussian_rowstd(n: int, d: int, rng: np.random.Generator) -> LinearSystem:
    """Consistent system: row-normalized Gaussian matrix, planted Gaussian solution."""
    if not n > d >= 1:
        raise ValueError(f"need n > d >= 1, got n={n}, d={d}")
    a = row_standardize(_gaussian_nonzero_rows(n, d, rng))[0]
    x = rng.standard_normal(d)
    return make_system(a, a @ x)


def gen_inconsistent(n: int, d: int, residual_norm: float, rng: np.random.Generator) -> LinearSystem:
    """Row-normalized Gaussian system with an exact least-squares residual norm.

    The right-hand side is ``a @ x + e`` where ``e`` is Gaussian noise
    projected orthogonally to the range of ``a`` and rescaled, so the planted
    ``x`` remains the least-squares solution.
    """
    if not residual_norm > 0:
        raise ValueError("residual_norm must be positive (use gen_gaussian_rowstd for consistent systems)")
    if not n > d >= 1:
        raise ValueError(f"need n > d >= 1, got n={n}, d={d}")
    a = row_standardize(_gaussian_nonzero_rows(n, d, rng))[0]
    x = rng.standard_normal(d)
    return _planted_inconsistent(a, x, residual_norm, rng)


def gen_dynamic_rows(n: int, d: int, rng: np.random.Generator, residual_norm: float = 0.5) -> LinearSystem:
    """Inconsistent Gaussian system whose i-th row has norm ``i+1`` (1-based ``i``).

    The squared-row-norm dynamic range is therefore ``n**2``.
    """
    if not residual_norm > 0:
        raise ValueError("residual_norm must be positive")
    if not n > d >= 1:
        raise ValueError(f"need n > d >= 1, got n={n}, d={d}")
    base = row_standardize(_gaussian_nonzero_rows(n, d, rng))[0]
    a = base * np.arange(1.0, n + 1.0)[:, None]
    x = rng.standard_normal(d)
    return _planted_inconsistent(a, x, residual_norm, rng)


def gen_tomography(n_grid: int, oversampling: int, rng: np.random.Generator) -> LinearSystem:
    """Consistent random-ray tomography system with a smooth radial phantom."""
    a = build_ray_matrix(n_grid, oversampling, rng)
    x = radial_phantom(n_grid)
    return make_system(a, a @ x)


def generate_system(spec: ProblemSpec) -> LinearSystem:
    """Build the system described by ``spec``, deterministically from its seed."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind in (GAUSSIAN_ROWSTD, TOMOGRAPHY) and spec.residual_norm != 0.0:
        raise ValueError(f"kind {spec.kind!r} is consistent; residual_norm must be 0")
    if spec.kind == GAUSSIAN_ROWSTD:
        return gen_gaussian_rowstd(spec.n, spec.d, rng)
    if spec.kind == GAUSSIAN_INCONSISTENT:
        return gen_inconsistent(spec.n, spec.d, spec.residual_norm, rng)
    if spec.kind == GAUSSIAN_DYNAMIC:
        return gen_dynamic_rows(spec.n, spec.d, rng, spec.residual_norm)
    if spec.kind == TOMOGRAPHY:
        return gen_tomography(spec.tomo_n, spec.tomo_f, rng)
    raise ValueError(f"unknown problem kind {spec.kind!r}")


@dataclass(frozen=True)
class MethodSetting:
    """One experiment arm: a method plus its block counts and coordinate handling."""

    method: str
    label: str = ""
    row_blocks: int | None = None
    col_blocks: int | None = None
    standardize_columns: bool = False

    @property
    def name(self) -> str:
        return self.label or self.method


@dataclass
class ExperimentRecord:
    method: str
    trial: int
    trace: Trace


def derive_seed(master: int, label: str, index: int) -> int:
    """Deterministic independent stream seed for ``(master, label, index)``."""
    if master < 0 or index < 0:
        raise ValueError("master seed and index must be nonnegative")
    ss = np.random.SeedSequence([master, zlib.crc32(label.encode()), index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class PreparedMethod:
    """A method arm bound to a concrete system and error metric: ``config``
    holds the method, the partitions every trial of the arm runs on, and the
    arm's kernel on ``solve_system`` (factored, not yet built), with no seed
    yet."""

    setting: MethodSetting
    solve_system: LinearSystem
    config: MethodConfig
    error_fn: object | None
    base_system: LinearSystem


def prepare_method(system: LinearSystem, setting: MethodSetting, master_seed: int) -> PreparedMethod:
    """Bind ``setting`` to ``system``: the one place an arm's block counts
    become partitions, and its partitions a kernel.

    :class:`ConfigError` for an unknown method, a block count missing for a
    side the method takes, a count for a side it does not take, and a count
    above the system's rows or columns.  The partitions come from one stream,
    ``derive_seed(master_seed, setting.name + "#partition", 0)``, row side
    first.  With ``standardize_columns`` the arm solves the column-standardized
    system and measures its error on the unscaled solution.  The kernel,
    ``Kernel.for_config(solve_system, config)``, factors every block once, and
    owns the blocks' singular values that :func:`compute_envelopes` reads.
    """
    takes_rows, takes_cols = _partitions_taken(setting.method)
    solve_system = system
    error_fn = None
    if setting.standardize_columns:
        a_std, scaling = column_standardize(system.a)
        solve_system = make_system(a_std, system.b)
        x_true = system.x_ls
        error_fn = lambda x: float(np.linalg.norm(unscale_solution(x, scaling) - x_true))
    prng = np.random.default_rng(derive_seed(master_seed, setting.name + "#partition", 0))
    partitions = []
    for taken, count, field, axis, extent in (
        (takes_rows, setting.row_blocks, "row_blocks", ROWS, system.n_rows),
        (takes_cols, setting.col_blocks, "col_blocks", COLUMNS, system.n_cols),
    ):
        if taken and not count:
            raise ConfigError(f"method {setting.method!r} needs {field}")
        if not taken and count is not None:
            raise ConfigError(f"method {setting.method!r} does not take {field}")
        if taken and count > extent:
            raise ConfigError(f"arm {setting.name!r} asks for {count} {axis[:-1]} blocks of the system's {extent} {axis}")
        partitions.append(random_partition(extent, count, prng, axis) if taken else None)
    config = MethodConfig(setting.method, *partitions)
    config = replace(config, kernel=Kernel.for_config(solve_system, config))
    return PreparedMethod(setting, solve_system, config, error_fn, system)


@dataclass
class Experiment:
    """One experiment: its system, the method arms prepared on it, and the
    record of every trial, arm by arm."""

    system: LinearSystem
    arms: list[PreparedMethod]
    records: list[ExperimentRecord]


def run_experiment(
    spec: ProblemSpec,
    methods: list[MethodSetting],
    trials: int,
    stop: StopRule,
) -> Experiment:
    """Generate one system and run ``trials`` seeded runs of every method arm.

    Deterministic apart from CPU timings: the system comes from
    ``spec.seed``, partitions and per-trial streams from seeds derived via
    :func:`derive_seed`.  The returned arms are what
    :func:`compute_envelopes` evaluates, so the system is generated once.

    Each arm factors its partitions once: the :class:`~blockkaczmarz.solvers.Kernel`
    that :func:`prepare_method` made for the arm is built here, before the
    first trial, and rides on every trial's ``MethodConfig.kernel``.  The
    trials' iterates are those of a fresh kernel per trial, and their
    ``cpu_seconds`` count iterations only, so no trial pays for the build.
    The arm is built whatever ``stop`` says, even when ``stop.max_epochs`` is
    0.  The returned arms keep their built kernels, and so every arm's
    operands, until the experiment is dropped.  An arm whose method or
    partitions do not fit the system raises
    :class:`~blockkaczmarz.solvers.ConfigError`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    system = generate_system(spec)
    arms: list[PreparedMethod] = []
    records: list[ExperimentRecord] = []
    for setting in methods:
        prep = prepare_method(system, setting, spec.seed)
        arms.append(prep)
        prep.config.kernel.build()
        for trial in range(trials):
            config = replace(prep.config, seed=derive_seed(spec.seed, setting.name, trial))
            trace = run(prep.solve_system, config, stop, error_fn=prep.error_fn)
            records.append(ExperimentRecord(method=setting.name, trial=trial, trace=trace))
    return Experiment(system=system, arms=arms, records=records)


@dataclass
class Bands:
    """Per-epoch median/min/max error across trials of one method."""

    method: str
    epochs: np.ndarray
    median: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cpu_median: np.ndarray
    n_padded: int = 0


def aggregate_bands(records: list[ExperimentRecord]) -> dict[str, Bands]:
    """Aggregate trial traces into bands on a shared epoch grid per method.

    Trials that stopped early are padded by carrying their final error (and
    CPU time) forward; ``n_padded`` counts how many trials needed padding.
    """
    if not records:
        raise ValueError("no records to aggregate")
    by_method: dict[str, list[Trace]] = {}
    for rec in records:
        by_method.setdefault(rec.method, []).append(rec.trace)
    out: dict[str, Bands] = {}
    for method, traces in by_method.items():
        n_epochs = max(t.final_epoch for t in traces) + 1
        errors = np.empty((len(traces), n_epochs))
        cpus = np.empty((len(traces), n_epochs))
        n_padded = 0
        for i, t in enumerate(traces):
            e = np.array([row.error_l2 for row in t.rows])
            c = np.array([row.cpu_seconds for row in t.rows])
            if e.size < n_epochs:
                n_padded += 1
                e = np.concatenate([e, np.full(n_epochs - e.size, e[-1])])
                c = np.concatenate([c, np.full(n_epochs - c.size, c[-1])])
            errors[i] = e
            cpus[i] = c
        out[method] = Bands(
            method=method,
            epochs=np.arange(n_epochs),
            median=np.median(errors, axis=0),
            lo=errors.min(axis=0),
            hi=errors.max(axis=0),
            cpu_median=np.median(cpus, axis=0),
            n_padded=n_padded,
        )
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def write_csv(data, path) -> None:
    """Write experiment records or aggregated bands as CSV.

    Records use the schema ``method,trial,epoch,error_l2,residual_l2,
    z_error_l2,cpu_seconds`` (one row per epoch per trial, blank
    ``z_error_l2`` for methods without an auxiliary sequence); a band mapping
    uses ``method,epoch,median,min,max``.  Values carry 17 significant
    digits, lines end with a single newline.
    """
    path = Path(path)
    lines: list[str] = []
    if isinstance(data, dict):
        lines.append(BANDS_HEADER)
        for method in data:
            b = data[method]
            for k in range(b.epochs.size):
                lines.append(f"{method},{b.epochs[k]},{_fmt(b.median[k])},{_fmt(b.lo[k])},{_fmt(b.hi[k])}")
    else:
        lines.append(TRACE_HEADER)
        for rec in data:
            for row in rec.trace.rows:
                lines.append(
                    f"{rec.method},{rec.trial},{row.epoch},{_fmt(row.error_l2)},"
                    f"{_fmt(row.residual_l2)},{_fmt(row.z_error_l2)},{_fmt(row.cpu_seconds)}"
                )
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class EnvelopeRow:
    method: str
    epoch: int
    iterations: int
    metric: str
    value: float


def compute_envelopes(arms: list[PreparedMethod], max_epochs: dict[str, int]) -> list[EnvelopeRow]:
    """Evaluate the applicable theoretical envelope for each prepared arm.

    ``arms`` are the arms an experiment ran (:attr:`Experiment.arms`), so the
    envelopes use the systems and partitions the trials used.  Envelopes on
    expected squared error are tagged ``error_l2_sq``; the plain row method's
    bound is on the expected error itself (``error_l2``).  The plain block
    method has no evaluable rate (its rate constant is only known up to an
    unspecified absolute constant), so only its plateau term is emitted.
    Methods without a bound, and arms missing from ``max_epochs``, are
    skipped.  The pavings of ``double`` and ``blockcd`` are measured on the
    singular values the arm's kernel holds, so no block is factored again.
    """
    rows: list[EnvelopeRow] = []
    for prep in arms:
        setting, solve, kernel = prep.setting, prep.solve_system, prep.config.kernel
        n_epochs = max_epochs.get(setting.name)
        if n_epochs is None:
            continue
        iters = epoch_length(
            setting.method,
            solve.n_rows,
            row_blocks=setting.row_blocks,
            col_blocks=setting.col_blocks,
        )
        x0_err_sq = float(np.dot(solve.x_ls, solve.x_ls))
        grid = [(ep, ep * iters) for ep in range(n_epochs + 1)]
        if setting.method == REK:
            sp = solve.spectral
            b_sq = float(np.dot(solve.b, solve.b))
            for ep, it in grid:
                val = theory.rek_error_bound(it, sp.scaled_condition, x0_err_sq, b_sq, sp.sigma_min_nonzero)
                rows.append(EnvelopeRow(setting.name, ep, it, "error_l2_sq", val))
        elif setting.method == RK:
            sp = solve.spectral
            horizon = theory.rk_convergence_horizon(solve)
            for ep, it in grid:
                val = theory.rk_error_envelope(it, sp.scaled_condition, np.sqrt(x0_err_sq), horizon)
                rows.append(EnvelopeRow(setting.name, ep, it, "error_l2", val))
        elif setting.method == BLOCK:
            plateau = theory.block_convergence_horizon(solve)
            for ep, it in grid:
                rows.append(EnvelopeRow(setting.name, ep, it, "error_l2_sq", plateau))
        elif setting.method == DOUBLE:
            row_paving = paving_bounds(solve.a, prep.config.row_partition, kernel.singular_values[ROWS])
            col_paving = paving_bounds(solve.a, prep.config.col_partition, kernel.singular_values[COLUMNS])
            consts = theory.rate_constants(solve, row_paving, col_paving)
            for ep, it in grid:
                val = theory.double_block_error_bound(it, consts, x0_err_sq)
                rows.append(EnvelopeRow(setting.name, ep, it, "error_l2_sq", val))
        elif setting.method == BLOCK_CD:
            col_paving = paving_bounds(solve.a, prep.config.col_partition, kernel.singular_values[COLUMNS])
            gamma_col = theory.contraction_rate(solve.spectral.sigma_min_nonzero**2, col_paving)
            base = prep.base_system
            kappa = base.spectral.condition
            xls_sq = float(np.dot(base.x_ls, base.x_ls))
            for ep, it in grid:
                val = theory.block_cd_error_bound(it, gamma_col, kappa, xls_sq)
                rows.append(EnvelopeRow(setting.name, ep, it, "error_l2_sq", val))
    return rows


def write_envelopes_csv(rows: list[EnvelopeRow], path) -> None:
    lines = [ENVELOPES_HEADER]
    lines.extend(f"{r.method},{r.epoch},{r.iterations},{r.metric},{_fmt(r.value)}" for r in rows)
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Preset:
    """Named experiment configuration: problem, method arms, stopping rule."""

    spec: ProblemSpec
    methods: tuple[MethodSetting, ...]
    stop: StopRule


DEFAULT_ROW_BLOCKS = 30
DEFAULT_COL_BLOCKS = 10

PRESETS: dict[str, Preset] = {
    "fig1": Preset(
        spec=ProblemSpec(kind=GAUSSIAN_ROWSTD, n=300, d=100),
        methods=(
            MethodSetting(REK),
            MethodSetting(DOUBLE, row_blocks=DEFAULT_ROW_BLOCKS, col_blocks=DEFAULT_COL_BLOCKS),
        ),
        stop=StopRule(max_epochs=300, error_threshold=1e-6),
    ),
    "fig2": Preset(
        spec=ProblemSpec(kind=GAUSSIAN_ROWSTD, n=300, d=100),
        methods=(
            MethodSetting(REK),
            MethodSetting(BLOCK_CD, col_blocks=DEFAULT_COL_BLOCKS),
        ),
        stop=StopRule(max_epochs=300, error_threshold=1e-6),
    ),
    "fig3a": Preset(
        spec=ProblemSpec(kind=GAUSSIAN_INCONSISTENT, n=300, d=100, residual_norm=0.5),
        methods=(
            MethodSetting(REK),
            MethodSetting(DOUBLE, row_blocks=DEFAULT_ROW_BLOCKS, col_blocks=DEFAULT_COL_BLOCKS),
            MethodSetting(BLOCK, row_blocks=DEFAULT_ROW_BLOCKS),
        ),
        stop=StopRule(max_epochs=400, error_threshold=1e-6),
    ),
    "fig3b": Preset(
        spec=ProblemSpec(kind=GAUSSIAN_INCONSISTENT, n=300, d=100, residual_norm=0.5),
        methods=(
            MethodSetting(REK),
            MethodSetting(BLOCK_CD, col_blocks=DEFAULT_COL_BLOCKS),
        ),
        stop=StopRule(max_epochs=400, error_threshold=1e-6),
    ),
    "figd": Preset(
        spec=ProblemSpec(kind=GAUSSIAN_DYNAMIC, n=300, d=100, residual_norm=0.5),
        methods=(
            MethodSetting(REK),
            MethodSetting(BLOCK_CD, col_blocks=DEFAULT_COL_BLOCKS, standardize_columns=True),
        ),
        stop=StopRule(max_epochs=600, error_threshold=1e-6),
    ),
    "fig4": Preset(
        spec=ProblemSpec(kind=TOMOGRAPHY, tomo_n=20, tomo_f=3),
        methods=(
            MethodSetting(BLOCK_CD, label="blockcd-p10", col_blocks=10),
            MethodSetting(BLOCK_CD, label="blockcd-p20", col_blocks=20),
            MethodSetting(BLOCK_CD, label="blockcd-p40", col_blocks=40),
        ),
        stop=StopRule(max_epochs=300, error_threshold=1e-6),
    ),
}


def make_preset(
    name: str,
    seed: int,
    max_epochs: int | None = None,
    error_threshold: float | None = None,
    row_blocks: int | None = None,
    col_blocks: int | None = None,
    include_hybrid: bool = False,
) -> Preset:
    """Instantiate a preset with a seed and optional overrides.

    ``include_hybrid`` appends the ``hybrid`` arm with
    ``DEFAULT_ROW_BLOCKS`` row blocks.  ``row_blocks`` and ``col_blocks`` then
    replace the count of every arm whose method takes that side;
    :class:`ConfigError` if no arm takes it, or if the arms that take it
    have different counts (their labels would no longer say which is which).
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (choose from {', '.join(sorted(PRESETS))})")
    preset = PRESETS[name]
    spec = replace(preset.spec, seed=seed)
    stop = StopRule(
        max_epochs=max_epochs if max_epochs is not None else preset.stop.max_epochs,
        error_threshold=error_threshold if error_threshold is not None else preset.stop.error_threshold,
    )
    methods = list(preset.methods)
    if include_hybrid:
        methods.append(MethodSetting(HYBRID, row_blocks=DEFAULT_ROW_BLOCKS))
    for side, field, count in ((0, "row_blocks", row_blocks), (1, "col_blocks", col_blocks)):
        if count is None:
            continue
        takers = [i for i, m in enumerate(methods) if _partitions_taken(m.method)[side]]
        if not takers:
            raise ConfigError(f"no arm of preset {name!r} takes {field}")
        counts = sorted({getattr(methods[i], field) for i in takers})
        if len(counts) > 1:
            raise ConfigError(f"the arms of preset {name!r} take different {field}: {', '.join(map(str, counts))}")
        for i in takers:
            methods[i] = replace(methods[i], **{field: count})
    return Preset(spec=spec, methods=tuple(methods), stop=stop)
