"""Invariants of the in-place epoch kernel over random shapes, ranks and partitions."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockkaczmarz.linalg import DEFAULT_RANK_TOLERANCE, svd_factor
from blockkaczmarz.paving import COLUMNS, paving_bounds, random_partition
from blockkaczmarz.solvers import (
    _CHUNK,
    _REFRESH,
    BLOCK,
    BLOCK_CD,
    DOUBLE,
    HYBRID,
    METHODS,
    REK,
    RK,
    Kernel,
    MethodConfig,
    StopRule,
    initial_state,
    make_block_plan,
    run,
)
from blockkaczmarz.systems import make_system

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """A rank-``r`` n x d system (consistent or not) with row and column plans."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(2, min(n, 10)))
    r = draw(st.integers(1, d))
    p_row = draw(st.integers(1, n))
    p_col = draw(st.integers(1, d))
    consistent = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    b = a @ rng.standard_normal(d) if consistent else rng.standard_normal(n)
    system = make_system(a, b)
    row_plan = make_block_plan(a, random_partition(n, p_row, rng))
    col_plan = make_block_plan(a, random_partition(d, p_col, rng, axis=COLUMNS))
    return system, row_plan, col_plan, rng


@PROPERTY_SETTINGS
@given(problems())
def test_blockcd_keeps_z_equal_to_residual(problem):
    system, _, col_plan, rng = problem
    kernel = Kernel(BLOCK_CD, system.a, system.b, cols=col_plan)
    x, z = np.zeros(system.n_cols), system.b.copy()
    scale = np.linalg.norm(system.b) + system.spectral.sigma_max * np.linalg.norm(system.x_ls)
    for _ in range(5):
        kernel.apply(x, z, kernel.draw(rng, col_plan.partition.n_blocks))
        assert np.linalg.norm(z - (system.b - system.a @ x)) <= 1e-10 * scale


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([DOUBLE, BLOCK_CD]))
def test_z_error_never_increases(problem, method):
    system, row_plan, col_plan, rng = problem
    kernel = Kernel(method, system.a, system.b, rows=row_plan if method == DOUBLE else None, cols=col_plan)
    x, z = np.zeros(system.n_cols), system.b.copy()
    slack = 1e-12 * np.linalg.norm(system.b)
    prev = np.linalg.norm(z - system.b_perp)
    for step in zip(*kernel.draw(rng, 40)):
        kernel.apply(x, z, [[k] for k in step])
        cur = np.linalg.norm(z - system.b_perp)
        assert cur <= prev * (1 + 1e-12) + slack
        prev = cur


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([REK, DOUBLE, BLOCK]))
def test_least_squares_pair_is_fixed_point(problem, method):
    system, row_plan, col_plan, rng = problem
    if method == REK:
        row_plan = col_plan = None  # single rows and columns drawn by squared norm
    if method == BLOCK:
        # without z, row-block steps fix x_ls only where a x_ls = b
        system, col_plan = make_system(system.a, system.a @ system.x_ls), None
    kernel = Kernel(method, system.a, system.b, rows=row_plan, cols=col_plan)
    x, z = system.x_ls.copy(), None if method == BLOCK else system.b_perp.copy()
    kernel.apply(x, z, kernel.draw(rng, 3 * system.n_rows))
    b_norm = np.linalg.norm(system.b)
    if z is not None:
        assert np.linalg.norm(z - system.b_perp) <= 1e-10 * b_norm
    assert np.linalg.norm(x - system.x_ls) <= 1e-10 * (np.linalg.norm(system.x_ls) + b_norm / system.spectral.sigma_min_nonzero)


@st.composite
def rank_deficient_columns(draw):
    """An n x d system with one zero column, one duplicated column and one
    nearly duplicated column, and a column plan over a random partition."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(4, min(n, 10)))
    p_col = draw(st.integers(1, d))
    spread = draw(st.sampled_from([1e-3, 1e-6, 1e-8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, d))
    zero, dup, near, source = rng.permutation(d)[:4]
    a[:, zero] = 0.0
    a[:, dup] = a[:, source]
    a[:, near] = a[:, source] + spread * rng.standard_normal(n)
    plan = make_block_plan(a, random_partition(d, p_col, rng, axis=COLUMNS))
    return a, rng.standard_normal(n), plan, zero, rng


def reference_descent(plan, ks, x, z):
    """``blockcd`` steps on ``z`` itself: ``w = V S^-1 U^T z`` over the block's
    numerical rank, ``x[idx] += w``, ``z -= A_k w``."""
    for k in ks:
        f = plan.factorizations[k]
        r = f.rank
        w = f.v[:, :r] @ ((f.u[:, :r].T @ z) / f.singular_values[:r])
        x[plan.partition.blocks[k]] += w
        z -= plan.submatrices[k] @ w


@PROPERTY_SETTINGS
@given(rank_deficient_columns())
def test_blockcd_matches_residual_space_steps_on_rank_deficient_blocks(problem):
    a, b, plan, zero, rng = problem
    # Both paths lose accuracy in proportion to the worst block's condition
    # number over its numerical rank (up to ~1e8 here, from the near duplicate).
    facts = [f for f in plan.factorizations if f.rank]
    tol = 1e-12 * max(f.singular_values[0] / f.singular_values[f.rank - 1] for f in facts)
    kernel = Kernel(BLOCK_CD, a, b, cols=plan)
    x, z = np.zeros(a.shape[1]), b.copy()
    x_ref, z_ref = x.copy(), z.copy()
    for _ in range(4):
        ks = kernel.draw(rng, 2 * plan.partition.n_blocks)
        kernel.apply(x, z, ks)
        reference_descent(plan, ks[0], x_ref, z_ref)
        assert np.linalg.norm(x - x_ref) <= tol * (np.linalg.norm(x_ref) + np.linalg.norm(b))
        assert np.linalg.norm(z - z_ref) <= tol * np.linalg.norm(b)
        assert x[zero] == 0.0


def max_block_condition(plan):
    """The worst condition number of ``plan``'s blocks over their numerical rank."""
    facts = [f for f in plan.factorizations if f.rank]
    return max(f.singular_values[0] / f.singular_values[f.rank - 1] for f in facts)


# A descent run on its kernel, the bound of its h's drift (1e-12 times the
# worst condition number of the blocks it descends on, 1 for the orthonormal
# bases of double and hybrid), and a stream.
DESCENT_RUNS = [
    problems().map(lambda p: (Kernel(BLOCK_CD, p[0].a, p[0].b, cols=p[2]), max_block_condition(p[2]), p[3])),
    rank_deficient_columns().map(lambda p: (Kernel(BLOCK_CD, p[0], p[1], cols=p[2]), max_block_condition(p[2]), p[4])),
    problems().map(lambda p: (Kernel(DOUBLE, p[0].a, p[0].b, rows=p[1], cols=p[2]), 1.0, p[3])),
    problems().map(lambda p: (Kernel(HYBRID, p[0].a, p[0].b, rows=p[1]), 1.0, p[3])),
]
DESCENT_IDS = ["problems", "rank_deficient_columns", "double-problems", "hybrid-problems"]


def start_descent(kernel):
    """A run started on ``kernel`` (built) at ``x = 0`` and ``z = b``."""
    return kernel.build().start(np.zeros(kernel.a.shape[1]), kernel.b.copy())


def epoch_steps(kernel):
    return 2 * max(p.n_blocks for p in (kernel.row_partition, kernel.col_partition) if p is not None)


@pytest.mark.parametrize("strategy", DESCENT_RUNS, ids=DESCENT_IDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_blockcd_carried_h_stays_near_a_fresh_one(strategy, data):
    # A run carries h across epochs and recomputes it from its iterate only
    # every _REFRESH epochs; in between it may drift by rounding, which grows
    # with the worst block's condition number over its numerical rank.
    kernel, cond, rng = data.draw(strategy)
    run_epoch = start_descent(kernel)
    tol = 1e-12 * cond
    for _ in range(2 * _REFRESH + 3):
        run_epoch(kernel.draw(rng, epoch_steps(kernel)))
        fresh = run_epoch.h0 - run_epoch.y @ kernel._engine._c
        assert np.linalg.norm(run_epoch.h - fresh) <= tol * np.linalg.norm(run_epoch.h0)


@pytest.mark.parametrize("strategy", DESCENT_RUNS, ids=DESCENT_IDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_descent_run_refreshes_h_every_refresh_epochs(strategy, data):
    # After _REFRESH epochs of steps the next epoch starts by recomputing h
    # from the iterate: an epoch of no steps then leaves exactly h0 - y C.
    kernel, _, rng = data.draw(strategy)
    run_epoch = start_descent(kernel)
    for _ in range(_REFRESH):
        run_epoch(kernel.draw(rng, epoch_steps(kernel)))
    run_epoch(kernel.draw(rng, 0))
    fresh = np.subtract(run_epoch.h0, np.dot(run_epoch.y, kernel._engine._c))
    assert np.array_equal(run_epoch.h, fresh)


@st.composite
def coherent_row_blocks(draw):
    """An n x d system with a zero row, a zero column, one duplicated row and
    one nearly duplicated row, with a random row plan and column plan."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(2, 10))
    spread = draw(st.sampled_from([1e-3, 1e-6, 1e-8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, d))
    zero, dup, near, source = rng.permutation(n)[:4]
    a[dup] = a[source]
    a[near] = a[source] + spread * rng.standard_normal(d)
    a[zero] = 0.0
    zero_col = rng.integers(d)
    a[:, zero_col] = 0.0
    row_plan = make_block_plan(a, random_partition(n, draw(st.integers(1, n)), rng))
    col_plan = make_block_plan(a, random_partition(d, draw(st.integers(1, d)), rng, axis=COLUMNS))
    return make_system(a, rng.standard_normal(n)), row_plan, col_plan, zero_col, rng


def reference_column_step(a, j, z):
    """Project ``z`` off column ``j`` of ``a``: ``z -= (a_j . z) / |a_j|^2 a_j``."""
    col = a[:, j]
    z -= (col @ z) / (col @ col) * col


def reference_row_step(a, b, i, x, z):
    """Project ``x`` onto row ``i`` of ``a x = b - z`` (``a x = b`` without ``z``):
    ``x += (b_i - z_i - a_i . x) / |a_i|^2 a_i``."""
    r = b[i] - a[i] @ x - (0.0 if z is None else z[i])
    x += r / (a[i] @ a[i]) * a[i]


def reference_single_steps(system, steps, x, z):
    """``rk``/``rek`` steps one at a time: a column step for ``rek``, then a
    row step."""
    cols = steps[0] if z is not None else [None] * len(steps[-1])
    for j, i in zip(cols, steps[-1]):
        if j is not None:
            reference_column_step(system.a, j, z)
        reference_row_step(system.a, system.b, i, x, z)


def reference_row_blocks(system, row_plan, col_plan, steps, x, z):
    """``block``/``double``/``hybrid`` steps in the form
    ``x += V S^-1 U^T (b - z - A_k x)_k`` over the block's numerical rank,
    after ``z -= U_l U_l^T z`` for ``double`` and a single-column projection
    (:func:`reference_column_step`) for ``hybrid`` (no ``col_plan``)."""
    cols = steps[0] if z is not None else [None] * len(steps[-1])
    for l, k in zip(cols, steps[-1]):
        if l is not None and col_plan is None:
            reference_column_step(system.a, l, z)
        elif l is not None:
            u = col_plan.factorizations[l].u[:, : col_plan.factorizations[l].rank]
            z -= u @ (u.T @ z)
        f, idx = row_plan.factorizations[k], row_plan.partition.blocks[k]
        r = system.b[idx] - row_plan.submatrices[k] @ x
        if z is not None:
            r -= z[idx]
        x += f.v[:, : f.rank] @ ((f.u[:, : f.rank].T @ r) / f.singular_values[: f.rank])


@PROPERTY_SETTINGS
@given(coherent_row_blocks(), st.sampled_from([BLOCK, DOUBLE, HYBRID]))
def test_row_block_epoch_matches_residual_form_steps(problem, method):
    system, row_plan, col_plan, zero_col, rng = problem
    # Both forms lose accuracy in proportion to the worst block's condition
    # number over its numerical rank (up to ~1e8 here, from the near duplicate).
    facts = [f for f in row_plan.factorizations if f.rank]
    tol = 1e-12 * max(f.singular_values[0] / f.singular_values[f.rank - 1] for f in facts)
    col_plan = col_plan if method == DOUBLE else None
    kernel = Kernel(method, system.a, system.b, rows=row_plan, cols=col_plan)
    x = np.zeros(system.n_cols)
    z = None if method == BLOCK else system.b.copy()
    x_ref, z_ref = x.copy(), None if z is None else z.copy()
    steps = kernel.draw(rng, row_plan.partition.n_blocks)
    kernel.apply(x, z, steps)
    reference_row_blocks(system, row_plan, col_plan, steps, x_ref, z_ref)
    assert np.linalg.norm(x - x_ref) <= tol * (np.linalg.norm(system.x_ls) + np.linalg.norm(system.b))
    if z is not None:
        assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(system.b)
    assert x[zero_col] == 0.0


@st.composite
def coherent_systems(draw):
    """An inconsistent n x d system of near-duplicate rows (copies of a few
    base rows, perturbed by ``spread``, with norms graded over 1..300), with
    two near-collinear columns, a zero row and a zero column; ``n`` lies below,
    at or above a multiple of the chunk size, and some systems are wide."""
    n = draw(st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 3, 3 * _CHUNK - 2]))
    d = draw(st.one_of(st.integers(4, 12), st.just(n + 7)))
    spread = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((draw(st.integers(1, 4)), d))
    a = base[rng.integers(base.shape[0], size=n)] + spread * rng.standard_normal((n, d))
    zero_col, near, source = rng.permutation(d)[:3]
    a[:, near] = a[:, source] + spread * rng.standard_normal(n)
    a *= np.exp(rng.uniform(0.0, np.log(300.0), n))[:, None]
    a[:, zero_col] = 0.0
    a[rng.integers(n)] = 0.0
    return make_system(a, rng.standard_normal(n)), rng


@PROPERTY_SETTINGS
@given(coherent_systems(), st.sampled_from([RK, REK]))
def test_chunked_epoch_matches_single_steps(problem, method):
    system, rng = problem
    kernel = Kernel(method, system.a, system.b)
    x = np.zeros(system.n_cols)
    z = None if method == RK else system.b.copy()
    x_ref, z_ref = x.copy(), None if z is None else z.copy()
    scale = np.linalg.norm(system.x_ls) + np.linalg.norm(system.b)
    for _ in range(3):
        steps = kernel.draw(rng, system.n_rows)
        kernel.apply(x, z, steps)
        reference_single_steps(system, steps, x_ref, z_ref)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * scale
        if z is not None:
            assert np.linalg.norm(z - z_ref) <= 1e-12 * scale


@st.composite
def telemetry_problems(draw):
    """A tall or wide rank-``r`` system, consistent or not, sometimes with a
    zero column, and a run config of ``method`` with random partitions."""
    n = draw(st.integers(2, 20))
    d = draw(st.integers(2, 20))
    r = draw(st.integers(1, min(n, d)))
    consistent = draw(st.booleans())
    zero_col = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    if zero_col:
        a[:, rng.integers(d)] = 0.0
    b = a @ rng.standard_normal(d) if consistent else rng.standard_normal(n)
    rows = random_partition(n, draw(st.integers(1, n)), rng)
    cols = random_partition(d, draw(st.integers(1, d)), rng, axis=COLUMNS)
    return make_system(a, b), rows, cols, draw(st.integers(0, 2**16))


@pytest.mark.parametrize("method", METHODS + (HYBRID,))
@PROPERTY_SETTINGS
@given(telemetry_problems())
def test_trace_telemetry_matches_direct_norms(method, problem):
    # With an oracle the trace reads the residual off the range factor
    # (tau, c - r x_ls and r (x - x_ls)); every row must agree with the
    # direct norms of the iterate of that epoch.
    system, rows, cols, seed = problem
    config = MethodConfig(method, row_partition=rows if method in (BLOCK, DOUBLE, HYBRID) else None,
                          col_partition=cols if method in (DOUBLE, BLOCK_CD) else None, seed=seed)
    tol = 1e-12 * np.linalg.norm(system.b)
    trace = run(system, config, StopRule(max_epochs=4, error_threshold=1e-300))
    for t, row in enumerate(trace.rows):
        x = run(system, config, StopRule(max_epochs=t, error_threshold=1e-300)).final_x
        resid = system.b - system.a @ x
        assert row.error_l2 == np.linalg.norm(x - system.x_ls)
        assert abs(row.residual_l2 - np.linalg.norm(resid)) <= tol
        if method == BLOCK_CD:
            assert abs(row.z_error_l2 - np.linalg.norm(resid - system.b_perp)) <= tol


# Systems a, b with a column partition and a stream: full, low and deficient
# column rank, tall and wide.
RANGE_FACTOR_PROBLEMS = [
    problems().map(lambda p: (p[0].a, p[0].b, p[2].partition, p[3])),
    rank_deficient_columns().map(lambda p: (p[0], p[1], p[2].partition, p[4])),
    telemetry_problems().map(lambda p: (p[0].a, p[0].b, p[2], np.random.default_rng(p[3]))),
]
RANGE_FACTOR_IDS = ["problems", "rank_deficient_columns", "tall_or_wide"]


@pytest.mark.parametrize("strategy", RANGE_FACTOR_PROBLEMS, ids=RANGE_FACTOR_IDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_range_factor_gives_the_oracle_and_descent_of_a(strategy, data):
    # make_system, the telemetry and blockcd's kernel work on r, c and tau
    # from the QR of [a | b]: each quantity must match the one taken from a
    # itself.  The bounds are 450 eps on the scale each quantity's rounding
    # has: sigma_max for the singular values and |r e|; sigma_max |x| + |b|
    # for the residual of x; kappa (|x| + |b| / sigma_r) for x_ls (the
    # least-squares perturbation bound, kappa over the numerical rank); and
    # kappa_b^2 for C and kappa_b^2 |b| / sigma_max for h_b, with
    # kappa_b = sigma_max(a) / (the smallest kept singular value of any block).
    a, b, part, rng = data.draw(strategy)
    tol = 1e-13
    system = make_system(a, b)
    s_a = np.linalg.svd(a, compute_uv=False)
    rank = int(np.count_nonzero(s_a > DEFAULT_RANK_TOLERANCE * s_a[0]))
    kappa = s_a[0] / s_a[rank - 1]

    r, c = system.r, system.c
    assert r.flags.c_contiguous
    assert r.shape == c.shape + (a.shape[1],) == (min(a.shape), a.shape[1])
    s_r = svd_factor(r).singular_values
    assert np.max(np.abs(s_r - s_a[: s_r.size])) <= tol * s_a[0]
    assert abs(system.spectral.sigma_min_nonzero - s_a[rank - 1]) <= tol * s_a[0]

    x_ref = np.linalg.lstsq(a, b, rcond=DEFAULT_RANK_TOLERANCE)[0]
    scale = kappa * (np.linalg.norm(x_ref) + np.linalg.norm(b) / s_a[rank - 1])
    assert np.linalg.norm(system.x_ls - x_ref) <= tol * scale
    x = rng.standard_normal(a.shape[1])
    resid = np.hypot(system.tau, np.linalg.norm(c - r @ x))
    assert abs(resid - np.linalg.norm(b - a @ x)) <= tol * (s_a[0] * np.linalg.norm(x) + np.linalg.norm(b))
    e = rng.standard_normal(a.shape[1])
    assert abs(np.linalg.norm(r @ e) - np.linalg.norm(a @ e)) <= tol * s_a[0] * np.linalg.norm(e)

    kernel = Kernel.for_config(system, MethodConfig(BLOCK_CD, col_partition=part)).build()
    direct = Kernel(BLOCK_CD, a, b, cols=make_block_plan(a, part)).build()
    blocks = [np.linalg.svd(a[:, idx], compute_uv=False) for idx in part.blocks]
    kept = [sv[sv > DEFAULT_RANK_TOLERANCE * sv[0]] for sv in blocks if sv[0] > 0]
    kappa_b = s_a[0] / min(sv[-1] for sv in kept)
    assert np.linalg.norm(kernel._engine._c - direct._engine._c) <= tol * kappa_b**2
    assert np.linalg.norm(kernel._engine._hb - direct._engine._hb) <= tol * kappa_b**2 * np.linalg.norm(b) / s_a[0]

    zero = ~a.any(axis=0)
    x = np.zeros(a.shape[1])
    kernel.apply(x, None, kernel.draw(rng, 3 * part.n_blocks))
    assert np.all(x[zero] == 0.0)


@pytest.mark.parametrize("rank_tolerance", [DEFAULT_RANK_TOLERANCE, 1e-3])
@pytest.mark.parametrize("strategy", RANGE_FACTOR_PROBLEMS, ids=RANGE_FACTOR_IDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_oracle_cutoff_is_the_truncated_svd_of_r(strategy, rank_tolerance, data):
    # make_system's least-squares solve drops the singular values of r at or
    # below rank_tolerance * s_max: its x_ls and spectral summary are those of
    # the SVD of r truncated by that rule.  A singular value within rounding
    # of the cutoff may fall on either side, so such draws are skipped.  The
    # bounds are 450 eps on sigma_max for the singular values, kappa_k times
    # that relative for the quotients, and kappa_k (|x| + |c| / sigma_k) for
    # x_ls, with kappa_k over the kept singular values.
    a, b, _, _ = data.draw(strategy)
    tol = 1e-13
    system = make_system(a, b, rank_tolerance=rank_tolerance)
    u, s, vt = np.linalg.svd(system.r, full_matrices=False)
    assume(np.all(np.abs(s - rank_tolerance * s[0]) > tol * s[0]))
    k = int(np.count_nonzero(s > rank_tolerance * s[0]))
    kappa = s[0] / s[k - 1]

    x_ref = vt[:k].T @ ((u[:, :k].T @ system.c) / s[:k])
    scale = kappa * (np.linalg.norm(x_ref) + np.linalg.norm(system.c) / s[k - 1])
    assert np.linalg.norm(system.x_ls - x_ref) <= tol * scale
    got = system.spectral
    assert got.frobenius == np.linalg.norm(a)
    assert abs(got.sigma_max - s[0]) <= tol * s[0]
    assert abs(got.sigma_min_nonzero - s[k - 1]) <= tol * s[0]
    assert got.condition == pytest.approx(s[0] / s[k - 1], rel=tol * kappa)
    assert got.scaled_condition == pytest.approx(np.linalg.norm(a) / s[k - 1], rel=tol * kappa)


@st.composite
def shared_kernel_problems(draw):
    """A tall or wide rank-``r`` system, consistent or not, with a zero column
    and a duplicated one (so column and row blocks can be rank deficient),
    random partitions, and two distinct run seeds."""
    n = draw(st.integers(4, 24))
    d = draw(st.integers(3, 10))
    r = draw(st.integers(1, d))
    consistent = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    zero, dup, source = rng.permutation(d)[:3]
    a[:, zero] = 0.0
    a[:, dup] = a[:, source]
    b = a @ rng.standard_normal(d) if consistent else rng.standard_normal(n)
    rows = random_partition(n, draw(st.integers(1, n)), rng)
    cols = random_partition(d, draw(st.integers(1, d)), rng, axis=COLUMNS)
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True))
    return make_system(a, b), rows, cols, seeds


def step_states(kernel, system, method, seed, steps=12):
    state, g, out = initial_state(system, method), np.random.default_rng(seed), []
    for _ in range(steps):
        state = kernel.step(state, g)
        out.append(state)
    return out


@pytest.mark.parametrize("method", METHODS + (HYBRID,))
@PROPERTY_SETTINGS
@given(shared_kernel_problems())
def test_one_built_kernel_serves_runs_like_fresh_kernels(method, problem):
    # The harness runs every trial of an arm through one kernel built ahead:
    # runs with different seeds through it, and single steps after them, must
    # be those of a fresh kernel each, once the kernel has dropped its plans.
    system, rows, cols, seeds = problem
    rows = rows if method in (BLOCK, DOUBLE, HYBRID) else None
    cols = cols if method in (DOUBLE, BLOCK_CD) else None
    config = MethodConfig(method, row_partition=rows, col_partition=cols)
    stop = StopRule(max_epochs=4, error_threshold=1e-300)
    fresh_runs = [run(system, replace(config, seed=s), stop) for s in seeds]
    # planned as Kernel.for_config plans them: blockcd's on the range factor
    src, qtb = (system.r, system.c) if method == BLOCK_CD else (system.a, None)
    plans = [None if part is None else make_block_plan(src, part) for part in (rows, cols)]
    fresh_steps = step_states(Kernel(method, system.a, system.b, *plans, qtb=qtb), system, method, seeds[0])

    kernel = Kernel(method, system.a, system.b, *plans, qtb=qtb).build()
    refs = [weakref.ref(obj) for plan in plans if plan is not None for obj in (plan, *plan.factorizations)]
    del plans
    assert all(ref() is None for ref in refs)
    for s, ref in zip(seeds, fresh_runs):
        shared = run(system, replace(config, seed=s, kernel=kernel), stop)
        assert [(r.epoch, r.error_l2, r.residual_l2, r.z_error_l2) for r in shared.rows] == \
            [(r.epoch, r.error_l2, r.residual_l2, r.z_error_l2) for r in ref.rows]
        assert np.array_equal(shared.final_x, ref.final_x)
    for built, fresh in zip(step_states(kernel, system, method, seeds[0]), fresh_steps):
        assert np.array_equal(built.x, fresh.x)
        assert (built.z is None and fresh.z is None) or np.array_equal(built.z, fresh.z)
        assert (built.last_row, built.last_col, built.last_row_block, built.last_col_block) == \
            (fresh.last_row, fresh.last_col, fresh.last_row_block, fresh.last_col_block)


def held_arrays(obj):
    """Every ndarray reachable from ``obj`` through attributes, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from held_arrays(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from held_arrays(value)


@pytest.mark.parametrize("method", METHODS + (HYBRID,))
@PROPERTY_SETTINGS
@given(shared_kernel_problems())
def test_built_kernel_operands_stay_unchanged(method, problem):
    # Every trial of an arm runs through one built kernel, so applies and
    # single steps must write into no array the kernel holds.
    system, rows, cols, seeds = problem
    rows = make_block_plan(system.a, rows) if method in (BLOCK, DOUBLE, HYBRID) else None
    cols = make_block_plan(system.a, cols) if method in (DOUBLE, BLOCK_CD) else None
    kernel = Kernel(method, system.a, system.b, rows=rows, cols=cols).build()
    held = list(held_arrays(kernel))
    before = [v.copy() for v in held]
    g = np.random.default_rng(seeds[0])
    state = initial_state(system, method)
    x, z = state.x.copy(), None if state.z is None else state.z.copy()
    kernel.apply(x, z, kernel.draw(g, 2 * system.n_rows))
    for _ in range(5):
        state = kernel.step(state, g)
    after = list(held_arrays(kernel))
    assert len(after) == len(held) and all(v is w for v, w in zip(after, held))
    for v, c in zip(held, before):
        assert np.array_equal(v, c)


def epoch_iterates(kernel, system, method, seeds, epochs, interleaved):
    """Per seed, ``x`` and ``z`` after each of ``epochs`` epochs of one run
    started on ``kernel``: every run's epochs in turn when ``interleaved``,
    else each run to its end before the next starts."""
    runs = [(initial_state(system, method), np.random.default_rng(seed)) for seed in seeds]
    out = [[] for _ in seeds]

    def epoch(i, run_epoch):
        state, g = runs[i]
        run_epoch(kernel.draw(g, system.n_rows))
        out[i].append((state.x.copy(), None if state.z is None else state.z.copy()))

    if interleaved:
        started = [kernel.start(state.x, state.z) for state, _ in runs]
        for _ in range(epochs):
            for i, run_epoch in enumerate(started):
                epoch(i, run_epoch)
    else:
        for i, (state, _) in enumerate(runs):
            run_epoch = kernel.start(state.x, state.z)
            for _ in range(epochs):
                epoch(i, run_epoch)
    return out


@pytest.mark.parametrize("method", METHODS + (HYBRID,))
@PROPERTY_SETTINGS
@given(shared_kernel_problems())
def test_interleaved_runs_on_one_kernel_match_runs_in_turn(method, problem):
    # Two runs started on one built kernel are alive at once: if any run's
    # state (blockcd's carried h and block-ordered x) lived on the kernel,
    # interleaving their epochs would mix them.
    system, rows, cols, seeds = problem
    rows = make_block_plan(system.a, rows) if method in (BLOCK, DOUBLE, HYBRID) else None
    cols = make_block_plan(system.a, cols) if method in (DOUBLE, BLOCK_CD) else None
    kernel = Kernel(method, system.a, system.b, rows=rows, cols=cols).build()
    epochs = _REFRESH + 2
    in_turn = epoch_iterates(kernel, system, method, seeds, epochs, interleaved=False)
    interleaved = epoch_iterates(kernel, system, method, seeds, epochs, interleaved=True)
    for ref, got in zip(in_turn, interleaved):
        for (x_ref, z_ref), (x, z) in zip(ref, got):
            assert np.array_equal(x, x_ref)
            assert (z is None and z_ref is None) or np.array_equal(z, z_ref)


@pytest.mark.parametrize("strategy", [
    problems().map(lambda p: Kernel(DOUBLE, p[0].a, p[0].b, rows=p[1], cols=p[2])),
    rank_deficient_columns().map(lambda p: Kernel(BLOCK_CD, p[0], p[1], cols=p[2])),
], ids=["problems", "rank_deficient_columns"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_paving_bounds_on_the_kernel_spectra_match_a_fresh_measure(strategy, data):
    # A built kernel keeps each block's singular values; the pavings measured
    # on them take no SVD and must match pavings measured afresh.  Row blocks
    # of more rows than columns pad alpha with 0, and blocks with zero or
    # duplicated columns have a rounding-sized alpha, which both SVDs still
    # agree on to 1e-12 relative: they share the block's bidiagonal form.
    kernel = data.draw(strategy).build()
    parts = [part for part in (kernel.row_partition, kernel.col_partition) if part is not None]
    assert sorted(kernel.singular_values) == sorted(part.axis for part in parts)
    for part in parts:
        given_ = paving_bounds(kernel.a, part, singular_values=kernel.singular_values[part.axis])
        fresh = paving_bounds(kernel.a, part)
        assert given_.p == fresh.p
        assert abs(given_.beta - fresh.beta) <= 1e-12 * fresh.beta
        assert abs(given_.alpha - fresh.alpha) <= 1e-12 * fresh.alpha
