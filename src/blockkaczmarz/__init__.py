"""Randomized Kaczmarz-family least-squares solvers with matrix pavings.

The library covers plain randomized Kaczmarz, the extended variant that
converges to the least-squares solution of inconsistent systems, block
Kaczmarz over a row paving, a double-block method using both a row and a
column paving, and block coordinate descent over a column paving; plus
measured paving parameters, closed-form convergence envelopes for each
method, and a seeded benchmark harness.
"""

from .linalg import (
    SpectralSummary,
    SvdFactorization,
    min_norm_lstsq,
    spectral_summary,
    svd_factor,
)
from .matio import read_matrix, read_vector, write_matrix, write_vector
from .paving import (
    COLUMNS,
    ROWS,
    DiagonalScaling,
    Partition,
    PavingParams,
    column_standardize,
    dynamic_range,
    paving_bounds,
    random_partition,
    row_standardize,
    unscale_solution,
)
from .systems import LinearSystem, make_system
from .solvers import (
    BLOCK,
    BLOCK_CD,
    DOUBLE,
    HYBRID,
    METHODS,
    REK,
    RK,
    BlockPlan,
    ConfigError,
    Kernel,
    MethodConfig,
    SolverState,
    StopRule,
    Trace,
    epoch_length,
    initial_state,
    make_block_plan,
    run,
)
from .theory import (
    RateConstants,
    block_cd_error_bound,
    block_convergence_horizon,
    contraction_rate,
    double_block_error_bound,
    geometric_recursion_bound,
    rate_constants,
    rek_error_bound,
    rk_convergence_horizon,
    rk_error_envelope,
    standardized_paving_rate,
    transported_paving_rate,
    z_error_envelope,
)
from .harness import (
    Bands,
    Experiment,
    ExperimentRecord,
    MethodSetting,
    PRESETS,
    ProblemSpec,
    aggregate_bands,
    compute_envelopes,
    derive_seed,
    gen_dynamic_rows,
    gen_gaussian_rowstd,
    gen_inconsistent,
    gen_tomography,
    generate_system,
    make_preset,
    run_experiment,
    write_csv,
    write_envelopes_csv,
)
from .svgplot import write_svg_plot

__version__ = "0.1.0"
