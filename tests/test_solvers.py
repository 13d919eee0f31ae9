import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from blockkaczmarz import solvers
from blockkaczmarz.harness import MethodSetting, prepare_method
from blockkaczmarz.linalg import min_norm_lstsq
from blockkaczmarz.paving import COLUMNS, ROWS, Partition, paving_bounds, random_partition
from blockkaczmarz.solvers import (
    _CHUNK,
    BLOCK,
    BLOCK_CD,
    DOUBLE,
    HYBRID,
    REK,
    RK,
    METHODS,
    ConfigError,
    Kernel,
    MethodConfig,
    NormSampler,
    SolverState,
    StopRule,
    epoch_length,
    initial_state,
    make_block_plan,
    run,
)
from blockkaczmarz.systems import make_system


def small_system(rng, n=20, d=10, inconsistent=False):
    a = rng.standard_normal((n, d))
    x = rng.standard_normal(d)
    b = a @ x
    if inconsistent:
        b = b + rng.standard_normal(n)
    return make_system(a, b)


def whole_partition(size, axis):
    return Partition(axis=axis, blocks=(np.arange(size),), universe_size=size)


class TestEpochLength:
    def test_row_methods_take_n(self):
        assert epoch_length(REK, 300) == 300
        assert epoch_length(RK, 17) == 17

    def test_block_methods_take_block_count(self):
        assert epoch_length(DOUBLE, 300, row_blocks=30) == 30
        assert epoch_length(BLOCK, 300, row_blocks=12) == 12
        assert epoch_length(HYBRID, 300, row_blocks=30) == 30

    def test_column_block_method_takes_ceil(self):
        assert epoch_length(BLOCK_CD, 300, col_blocks=30) == 10
        assert epoch_length(BLOCK_CD, 10, col_blocks=3) == 4

    def test_missing_counts_rejected(self):
        with pytest.raises(ValueError):
            epoch_length(BLOCK, 300)
        with pytest.raises(ValueError):
            epoch_length(BLOCK_CD, 300)


class TestNormSampler:
    def test_frequencies_track_weights(self):
        sampler = NormSampler(np.array([1.0, 3.0]))
        rng = np.random.default_rng(0)
        draws = np.array([sampler.draw(rng) for _ in range(20000)])
        assert abs(np.mean(draws == 1) - 0.75) < 0.02

    def test_zero_weights_never_drawn(self):
        sampler = NormSampler(np.array([0.0, 2.0, 0.0, 0.0, 1.0, 0.0]))
        draws = sampler.draw(np.random.default_rng(0), size=20000)
        assert set(np.unique(draws).tolist()) == {1, 4}
        assert abs(np.mean(draws == 1) - 2 / 3) < 0.02
        # the edges of the unit interval land on the first and last positive weight
        assert sampler.locate(np.array([0.0, np.nextafter(1.0, 0.0)])).tolist() == [1, 4]

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="not all zero"):
            NormSampler(np.zeros(3))
        with pytest.raises(ValueError, match="nonnegative"):
            NormSampler(np.array([1.0, -1.0]))


class TestRkStep:
    def test_identity_projection(self):
        state = SolverState(x=np.zeros(2), z=None)
        out = Kernel(RK, np.eye(2), np.array([1.0, 2.0])).step(state, np.random.default_rng(0), 0)
        assert np.array_equal(out.x, [1.0, 0.0])
        assert out.last_row == 0 and out.iteration == 1

    def test_symmetric_projection(self):
        a = np.array([[1.0, 1.0]])
        state = SolverState(x=np.zeros(2), z=None)
        out = Kernel(RK, a, np.array([2.0])).step(state, np.random.default_rng(0), 0)
        np.testing.assert_allclose(out.x, [1.0, 1.0], atol=1e-15)

    def test_sampled_constraint_holds_after_step(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        state = initial_state(sys_, RK)
        kernel = Kernel(RK, sys_.a, sys_.b)
        g = np.random.default_rng(3)
        for _ in range(50):
            state = kernel.step(state, g)
            i = state.last_row
            assert abs(sys_.a[i] @ state.x - sys_.b[i]) <= 1e-12 * (abs(sys_.b[i]) + np.linalg.norm(sys_.a[i]) * np.linalg.norm(state.x))

    def test_inputs_not_mutated(self, rng):
        sys_ = small_system(rng)
        state = initial_state(sys_, RK)
        x_before = state.x.copy()
        Kernel(RK, sys_.a, sys_.b).step(state, np.random.default_rng(0))
        assert np.array_equal(state.x, x_before)


class TestRekStep:
    def test_identity_example(self):
        a = np.eye(2)
        b = np.array([1.0, 2.0])
        state = SolverState(x=np.zeros(2), z=b.copy())
        out = Kernel(REK, a, b).step(state, np.random.default_rng(0), 0, 0)
        assert np.array_equal(out.z, [0.0, 2.0])
        assert np.array_equal(out.x, [1.0, 0.0])

    def test_fixed_point_at_solution(self, rng):
        sys_ = small_system(rng)  # consistent
        state = SolverState(x=sys_.x_ls.copy(), z=np.zeros(sys_.n_rows))
        kernel = Kernel(REK, sys_.a, sys_.b)
        g = np.random.default_rng(1)
        for _ in range(20):
            state = kernel.step(state, g)
        assert np.linalg.norm(state.x - sys_.x_ls) <= 1e-10 * np.linalg.norm(sys_.x_ls)
        assert np.linalg.norm(state.z) <= 1e-10 * np.linalg.norm(sys_.b)

    def test_z_orthogonal_to_sampled_column(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        state = initial_state(sys_, REK)
        kernel = Kernel(REK, sys_.a, sys_.b)
        g = np.random.default_rng(5)
        for _ in range(50):
            state = kernel.step(state, g)
            k = state.last_col
            col = sys_.a[:, k]
            assert abs(col @ state.z) <= 1e-12 * np.linalg.norm(col) * max(np.linalg.norm(state.z), 1e-30)


class TestBlockKaczmarzStep:
    def test_single_block_solves_in_one_step(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        plan = make_block_plan(sys_.a, whole_partition(sys_.n_rows, ROWS))
        state = initial_state(sys_, BLOCK)
        out = Kernel(BLOCK, sys_.a, sys_.b, rows=plan).step(state, np.random.default_rng(0))
        assert np.linalg.norm(out.x - sys_.x_ls) <= 1e-10 * np.linalg.norm(sys_.x_ls)

    def test_satisfied_block_is_fixed_point(self, rng):
        sys_ = small_system(rng)  # consistent: x_ls satisfies every block
        plan = make_block_plan(sys_.a, random_partition(sys_.n_rows, 4, rng))
        state = SolverState(x=sys_.x_ls.copy(), z=None)
        out = Kernel(BLOCK, sys_.a, sys_.b, rows=plan).step(state, np.random.default_rng(0))
        assert np.linalg.norm(out.x - sys_.x_ls) <= 1e-12 * np.linalg.norm(sys_.x_ls)

    def test_block_residual_vanishes_after_step(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        plan = make_block_plan(sys_.a, random_partition(sys_.n_rows, 5, rng))
        state = initial_state(sys_, BLOCK)
        kernel = Kernel(BLOCK, sys_.a, sys_.b, rows=plan)
        g = np.random.default_rng(2)
        for _ in range(40):
            state = kernel.step(state, g)
            k = state.last_row_block
            idx = plan.partition.blocks[k]
            resid = np.linalg.norm(sys_.b[idx] - plan.submatrices[k] @ state.x)
            scale = np.linalg.norm(sys_.b[idx]) + np.linalg.norm(plan.submatrices[k]) * np.linalg.norm(state.x)
            assert resid <= 1e-10 * scale


class TestDoubleBlockStep:
    def test_identity_single_blocks(self):
        sys_ = make_system(np.eye(2), np.array([1.0, 2.0]))
        row_plan = make_block_plan(sys_.a, whole_partition(2, ROWS))
        col_plan = make_block_plan(sys_.a, whole_partition(2, COLUMNS))
        state = initial_state(sys_, DOUBLE)
        out = Kernel(DOUBLE, sys_.a, sys_.b, rows=row_plan, cols=col_plan).step(state, np.random.default_rng(0))
        assert np.allclose(out.z, 0.0, atol=1e-14)
        np.testing.assert_allclose(out.x, [1.0, 2.0], atol=1e-14)

    def test_rhs_orthogonal_to_range_is_fixed(self, rng):
        # b entirely outside the range: once z captures it, x stays at zero
        q = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        a = q[:, :1]  # 6x1, range = span(q0)
        b = q[:, 1]  # orthogonal to range
        sys_ = make_system(a, b)
        row_plan = make_block_plan(a, whole_partition(6, ROWS))
        col_plan = make_block_plan(a, whole_partition(1, COLUMNS))
        state = initial_state(sys_, DOUBLE)
        kernel = Kernel(DOUBLE, a, b, rows=row_plan, cols=col_plan)
        g = np.random.default_rng(0)
        for _ in range(10):
            state = kernel.step(state, g)
            assert np.allclose(state.x, 0.0, atol=1e-12)

    def test_per_step_contracts(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        row_plan = make_block_plan(sys_.a, random_partition(20, 4, rng))
        col_plan = make_block_plan(sys_.a, random_partition(10, 4, rng, axis=COLUMNS))
        state = initial_state(sys_, DOUBLE)
        kernel = Kernel(DOUBLE, sys_.a, sys_.b, rows=row_plan, cols=col_plan)
        g = np.random.default_rng(9)
        for _ in range(100):
            z_prev = state.z
            state = kernel.step(state, g)
            t = state.last_col_block
            col_block = col_plan.submatrices[t]
            # projection removed the column-block component of z
            assert np.linalg.norm(col_block.T @ state.z) <= 1e-10 * np.linalg.norm(col_block) * max(
                np.linalg.norm(z_prev), 1e-30
            )
            # row-block equations hold against b - z
            u = state.last_row_block
            idx = row_plan.partition.blocks[u]
            sub = row_plan.submatrices[u]
            resid = np.linalg.norm(sys_.b[idx] - state.z[idx] - sub @ state.x)
            scale = np.linalg.norm(sys_.b[idx]) + np.linalg.norm(sub) * np.linalg.norm(state.x) + np.linalg.norm(state.z)
            assert resid <= 1e-10 * scale

    def test_orthogonal_error_decomposition(self, rng):
        # squared error splits exactly into the part untouched by the row
        # block and the part injected by the z mismatch on that block
        sys_ = small_system(rng, inconsistent=True)
        row_plan = make_block_plan(sys_.a, random_partition(20, 4, rng))
        col_plan = make_block_plan(sys_.a, random_partition(10, 4, rng, axis=COLUMNS))
        state = initial_state(sys_, DOUBLE)
        kernel = Kernel(DOUBLE, sys_.a, sys_.b, rows=row_plan, cols=col_plan)
        g = np.random.default_rng(12)
        for _ in range(60):
            x_prev = state.x
            state = kernel.step(state, g)
            u = state.last_row_block
            fact = row_plan.factorizations[u]
            idx = row_plan.partition.blocks[u]
            v = fact.v[:, : fact.rank]
            err_prev = x_prev - sys_.x_ls
            untouched = err_prev - v @ (v.T @ err_prev)
            injected = min_norm_lstsq(row_plan.submatrices[u], state.z[idx] - sys_.b_perp[idx])[0]
            lhs = np.sum((state.x - sys_.x_ls) ** 2)
            rhs = np.sum(untouched**2) + np.sum(injected**2)
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-30)

    def test_fixed_point_at_least_squares(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        row_plan = make_block_plan(sys_.a, random_partition(20, 4, rng))
        col_plan = make_block_plan(sys_.a, random_partition(10, 2, rng, axis=COLUMNS))
        state = SolverState(x=sys_.x_ls.copy(), z=sys_.b_perp.copy())
        kernel = Kernel(DOUBLE, sys_.a, sys_.b, rows=row_plan, cols=col_plan)
        g = np.random.default_rng(3)
        for _ in range(20):
            state = kernel.step(state, g)
        assert np.linalg.norm(state.x - sys_.x_ls) <= 1e-10 * np.linalg.norm(sys_.x_ls)
        assert np.linalg.norm(state.z - sys_.b_perp) <= 1e-10 * np.linalg.norm(sys_.b)


class TestBlockCdStep:
    def test_identity_single_coordinate_block(self):
        sys_ = make_system(np.eye(3), np.array([1.0, 2.0, 3.0]))
        part = Partition(axis=COLUMNS, blocks=(np.array([0]), np.array([1]), np.array([2])), universe_size=3)
        plan = make_block_plan(sys_.a, part)
        state = initial_state(sys_, BLOCK_CD)
        out = Kernel(BLOCK_CD, sys_.a, sys_.b, cols=plan).step(state, np.random.default_rng(0), 0)
        assert np.array_equal(out.x, [1.0, 0.0, 0.0])
        assert np.array_equal(out.z, [0.0, 2.0, 3.0])

    def test_zero_residual_is_fixed_point(self, rng):
        sys_ = small_system(rng)
        plan = make_block_plan(sys_.a, random_partition(10, 3, rng, axis=COLUMNS))
        state = SolverState(x=sys_.x_ls.copy(), z=np.zeros(20))
        kernel = Kernel(BLOCK_CD, sys_.a, sys_.b, cols=plan)
        g = np.random.default_rng(0)
        for _ in range(10):
            state = kernel.step(state, g)
        assert np.linalg.norm(state.x - sys_.x_ls) <= 1e-12 * np.linalg.norm(sys_.x_ls)

    def test_rank_deficient_matrix_reduces_image_error(self, rng):
        # with duplicated columns only the image error is meaningful; the
        # iterate itself need not approach the minimum-norm solution
        base = rng.standard_normal((20, 5))
        a = np.hstack([base, base[:, :1]])
        sys_ = make_system(a, rng.standard_normal(20))
        plan = make_block_plan(a, random_partition(6, 2, rng, axis=COLUMNS))
        state = initial_state(sys_, BLOCK_CD)
        kernel = Kernel(BLOCK_CD, sys_.a, sys_.b, cols=plan)
        g = np.random.default_rng(1)
        for _ in range(400):
            state = kernel.step(state, g)
        image_err = np.linalg.norm(a @ (state.x - sys_.x_ls))
        assert image_err <= 1e-8 * np.linalg.norm(sys_.b)
        # the trace still reports both norms
        trace = run(
            sys_,
            MethodConfig(BLOCK_CD, col_partition=plan.partition, seed=2),
            StopRule(max_epochs=5, error_threshold=1e-300),
        )
        assert np.isfinite(trace.rows[-1].error_l2)
        assert np.isfinite(trace.rows[-1].residual_l2)

    def test_residual_identity_many_steps(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        plan = make_block_plan(sys_.a, random_partition(10, 3, rng, axis=COLUMNS))
        state = initial_state(sys_, BLOCK_CD)
        kernel = Kernel(BLOCK_CD, sys_.a, sys_.b, cols=plan)
        g = np.random.default_rng(7)
        sigma_max = sys_.spectral.sigma_max
        for _ in range(500):
            state = kernel.step(state, g)
            gap = np.linalg.norm(state.z - (sys_.b - sys_.a @ state.x))
            assert gap <= 1e-10 * (np.linalg.norm(sys_.b) + sigma_max * np.linalg.norm(state.x))


    @pytest.mark.parametrize("case", ["zero column", "rank-deficient block"])
    def test_apply_without_z_leaves_x_bit_identical(self, rng, case):
        # run passes no z when the oracle gives the residual: x must not move by a bit
        a = rng.standard_normal((20, 8))
        if case == "zero column":
            a[:, 3] = 0.0
        else:
            a[:, 5] = a[:, 1]  # block 0 has rank 2
        b = rng.standard_normal(20)
        part = Partition(axis=COLUMNS, blocks=(np.array([0, 1, 5]), np.array([2, 3, 4]), np.array([6, 7])),
                         universe_size=8)
        kernel = Kernel(BLOCK_CD, a, b, cols=make_block_plan(a, part))
        g = np.random.default_rng(3)
        x, x_without, z = np.zeros(8), np.zeros(8), b.copy()
        for _ in range(3):
            ks = kernel.draw(g, 5)
            kernel.apply(x, z, ks)
            kernel.apply(x_without, None, ks)
            assert x.tobytes() == x_without.tobytes()
            assert np.array_equal(z, b - a @ x)
        if case == "zero column":
            assert x[3] == 0.0


class TestZMonotonicity:
    def test_double_and_blockcd_never_increase_z_error(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        row_plan = make_block_plan(sys_.a, random_partition(20, 4, rng))
        col_plan = make_block_plan(sys_.a, random_partition(10, 4, rng, axis=COLUMNS))
        for method in (DOUBLE, BLOCK_CD):
            state = initial_state(sys_, method)
            kernel = Kernel(method, sys_.a, sys_.b, rows=row_plan if method == DOUBLE else None, cols=col_plan)
            g = np.random.default_rng(4)
            prev = np.linalg.norm(state.z - sys_.b_perp)
            for _ in range(80):
                state = kernel.step(state, g)
                cur = np.linalg.norm(state.z - sys_.b_perp)
                assert cur <= prev * (1 + 1e-12)
                prev = cur


def test_exact_block_contraction_enumeration(rng):
    # averaging the projected residual over every block of the partition is a
    # deterministic finite enumeration, no sampling involved
    for _ in range(5):
        a = rng.standard_normal((12, 6))
        part = random_partition(12, 3, rng)
        plan = make_block_plan(a, part)
        params = paving_bounds(a, part)
        sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
        u = rng.standard_normal(6)
        acc = 0.0
        for k in range(3):
            fact = plan.factorizations[k]
            v = fact.v[:, : fact.rank]
            residual = u - v @ (v.T @ u)
            acc += np.sum(residual**2)
        mean = acc / 3.0
        bound = (1.0 - sigma_min**2 / (3 * params.beta)) * np.sum(u**2)
        assert mean <= bound * (1 + 1e-12)


class TestHybrid:
    def test_step_mechanics(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        row_plan = make_block_plan(sys_.a, random_partition(20, 4, rng))
        state = initial_state(sys_, HYBRID)
        g = np.random.default_rng(0)
        state = Kernel(HYBRID, sys_.a, sys_.b, rows=row_plan).step(state, g)
        k = state.last_col
        assert abs(sys_.a[:, k] @ state.z) <= 1e-12 * np.linalg.norm(sys_.a[:, k]) * np.linalg.norm(sys_.b)

    def test_degrades_relative_to_double(self, rng):
        # mismatched projection/update speeds need more epochs on the same system
        sys_ = small_system(rng, n=60, d=20, inconsistent=True)
        rowp = random_partition(60, 6, np.random.default_rng(1))
        colp = random_partition(20, 5, np.random.default_rng(2), axis=COLUMNS)
        stop = StopRule(max_epochs=2000, error_threshold=1e-6)
        t_double = run(sys_, MethodConfig(DOUBLE, row_partition=rowp, col_partition=colp, seed=3), stop)
        t_hybrid = run(sys_, MethodConfig(HYBRID, row_partition=rowp, seed=3), stop)
        assert t_double.converged
        assert t_hybrid.final_epoch > t_double.final_epoch


class TestRun:
    def test_unreachable_threshold_row_count(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        trace = run(sys_, MethodConfig(RK, seed=0), StopRule(max_epochs=7, error_threshold=1e-300))
        assert len(trace.rows) == 8
        assert [r.epoch for r in trace.rows] == list(range(8))
        assert not trace.converged

    def test_start_at_solution_halts_immediately(self):
        # zero right-hand side puts the initial iterate exactly at the solution
        sys_ = make_system(np.eye(3), np.zeros(3))
        trace = run(sys_, MethodConfig(RK, seed=0), StopRule(max_epochs=10, error_threshold=1e-12))
        assert len(trace.rows) == 1
        assert trace.converged and trace.rows[0].epoch == 0

    def test_max_epochs_zero_gives_single_row(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        trace = run(sys_, MethodConfig(RK, seed=0), StopRule(max_epochs=0, error_threshold=1e-12))
        assert len(trace.rows) == 1

    def test_blockcd_builds_descent_arrays_only_when_an_epoch_runs(self, rng, monkeypatch):
        def fail(self):
            raise AssertionError("descent arrays built")

        monkeypatch.setattr(solvers._PinvDescent, "build", fail)
        sys_ = small_system(rng, inconsistent=True)
        config = MethodConfig(BLOCK_CD, col_partition=random_partition(10, 3, rng, axis=COLUMNS), seed=0)
        assert len(run(sys_, config, StopRule(max_epochs=0, error_threshold=1e-12)).rows) == 1
        with pytest.raises(AssertionError, match="descent arrays"):
            run(sys_, config, StopRule(max_epochs=1, error_threshold=1e-12))

    @pytest.mark.parametrize("method", [BLOCK, DOUBLE, HYBRID])
    def test_row_blocks_build_pinv_only_when_an_epoch_runs(self, method, rng, monkeypatch):
        def fail(sub, f):
            raise AssertionError("block pseudoinverse built")

        monkeypatch.setattr(solvers, "_pinv_transpose", fail)
        sys_ = small_system(rng, inconsistent=True)
        colp = random_partition(10, 3, rng, axis=COLUMNS) if method == DOUBLE else None
        config = MethodConfig(method, row_partition=random_partition(20, 4, rng), col_partition=colp, seed=0)
        assert len(run(sys_, config, StopRule(max_epochs=0, error_threshold=1e-12)).rows) == 1
        with pytest.raises(AssertionError, match="block pseudoinverse"):
            run(sys_, config, StopRule(max_epochs=1, error_threshold=1e-12))

    def test_deterministic_replay(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        colp = random_partition(10, 3, np.random.default_rng(0), axis=COLUMNS)
        stop = StopRule(max_epochs=20, error_threshold=1e-9)
        t1 = run(sys_, MethodConfig(BLOCK_CD, col_partition=colp, seed=42), stop)
        t2 = run(sys_, MethodConfig(BLOCK_CD, col_partition=colp, seed=42), stop)
        assert len(t1.rows) == len(t2.rows)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert r1.error_l2 == r2.error_l2
            assert r1.residual_l2 == r2.residual_l2
            assert r1.z_error_l2 == r2.z_error_l2
        assert np.array_equal(t1.final_x, t2.final_x)

    def test_blockcd_residual_is_b_minus_a_x(self, rng):
        # without an oracle the trace computes blockcd's residual directly: it must be exactly b - a x
        oracle = small_system(rng, inconsistent=True)
        sys_ = make_system(oracle.a, oracle.b, with_oracle=False)
        config = MethodConfig(BLOCK_CD, col_partition=random_partition(10, 3, rng, axis=COLUMNS), seed=0)
        for max_epochs in (0, 1, 6):
            trace = run(sys_, config, StopRule(max_epochs=max_epochs, error_threshold=1e-300))
            assert trace.rows[-1].residual_l2 == np.linalg.norm(sys_.b - sys_.a @ trace.final_x)

    def test_blockcd_oracle_residual_is_b_minus_a_x_to_rounding(self, rng):
        # with an oracle the residual and z error come from r (x - x_ls), c and tau, up to rounding
        sys_ = small_system(rng, inconsistent=True)
        config = MethodConfig(BLOCK_CD, col_partition=random_partition(10, 3, rng, axis=COLUMNS), seed=0)
        tol = 1e-12 * np.linalg.norm(sys_.b)
        for max_epochs in (0, 1, 6):
            trace = run(sys_, config, StopRule(max_epochs=max_epochs, error_threshold=1e-300))
            resid = sys_.b - sys_.a @ trace.final_x
            assert trace.rows[-1].residual_l2 == pytest.approx(np.linalg.norm(resid), rel=0, abs=tol)
            assert trace.rows[-1].z_error_l2 == pytest.approx(np.linalg.norm(resid - sys_.b_perp), rel=0, abs=tol)

    @pytest.mark.parametrize("method", [RK, BLOCK_CD])
    def test_residual_exact_when_oracle_cutoff_drops_a_direction(self, rng, method):
        # a coarse rank cutoff leaves b's share along the dropped direction in
        # b_perp; the trace must still report norm(b - a x), not count it twice
        u = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        v = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        s = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.9e-3])
        a = (u * s) @ v.T
        sys_ = make_system(a, u[:, 5] + 0.1 * rng.standard_normal(20), rank_tolerance=1e-3)
        assert sys_.spectral.sigma_min_nonzero == pytest.approx(0.2)
        config = MethodConfig(method, col_partition=whole_partition(6, COLUMNS) if method == BLOCK_CD else None,
                              seed=0)
        tol = 1e-12 * np.linalg.norm(sys_.b)
        for max_epochs in (0, 1, 3):
            trace = run(sys_, config, StopRule(max_epochs=max_epochs, error_threshold=1e-300))
            resid = sys_.b - a @ trace.final_x
            assert trace.rows[-1].residual_l2 == pytest.approx(np.linalg.norm(resid), rel=0, abs=tol)
            if method == BLOCK_CD:
                assert trace.rows[-1].z_error_l2 == pytest.approx(np.linalg.norm(resid - sys_.b_perp), rel=0, abs=tol)

    def test_z_error_column_only_for_z_methods(self, rng):
        sys_ = small_system(rng)
        stop = StopRule(max_epochs=2, error_threshold=1e-300)
        assert run(sys_, MethodConfig(RK, seed=0), stop).rows[0].z_error_l2 is None
        assert run(sys_, MethodConfig(REK, seed=0), stop).rows[0].z_error_l2 is not None

    def test_error_fn_overrides_metric(self, rng):
        sys_ = small_system(rng)
        stop = StopRule(max_epochs=3, error_threshold=1e-300)
        trace = run(sys_, MethodConfig(RK, seed=0), stop, error_fn=lambda x: 7.5)
        assert all(r.error_l2 == 7.5 for r in trace.rows)

    def test_residual_stagnation_without_oracle(self, rng):
        a = rng.standard_normal((15, 5))
        x = rng.standard_normal(5)
        sys_ = make_system(a, a @ x, with_oracle=False)
        trace = run(sys_, MethodConfig(RK, seed=0), StopRule(max_epochs=500, error_threshold=1e-9))
        assert trace.converged
        assert np.isnan(trace.rows[0].error_l2)
        assert trace.rows[-1].residual_l2 <= 1e-6 * np.linalg.norm(sys_.b)

    def test_stagnation_stop_is_relative_to_the_first_residual(self, rng):
        # scaling a and b by a power of two leaves every iterate as it is and
        # scales every residual exactly, so the stop must land on one epoch
        a = rng.standard_normal((15, 5))
        b = a @ rng.standard_normal(5)
        stop = StopRule(max_epochs=500, error_threshold=1e-9)
        plain, scaled = (run(make_system(s * a, s * b, with_oracle=False), MethodConfig(RK, seed=0), stop)
                         for s in (1.0, 2.0**20))
        assert plain.converged and plain.final_epoch < stop.max_epochs
        assert scaled.converged and scaled.final_epoch == plain.final_epoch

    def test_cpu_seconds_cumulative(self, rng):
        sys_ = small_system(rng, inconsistent=True)
        trace = run(sys_, MethodConfig(REK, seed=0), StopRule(max_epochs=5, error_threshold=1e-300))
        cpus = [r.cpu_seconds for r in trace.rows]
        assert cpus[0] == 0.0
        assert all(b >= a for a, b in zip(cpus, cpus[1:]))


class TestConsistentConvergence:
    def test_all_five_methods_reach_threshold(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((60, 20))
        x = rng.standard_normal(20)
        sys_ = make_system(a, a @ x)
        rowp = random_partition(60, 6, np.random.default_rng(1))
        colp = random_partition(20, 5, np.random.default_rng(2), axis=COLUMNS)
        stop = StopRule(max_epochs=800, error_threshold=1e-6)
        configs = {
            RK: MethodConfig(RK, seed=10),
            REK: MethodConfig(REK, seed=11),
            BLOCK: MethodConfig(BLOCK, row_partition=rowp, seed=12),
            DOUBLE: MethodConfig(DOUBLE, row_partition=rowp, col_partition=colp, seed=13),
            BLOCK_CD: MethodConfig(BLOCK_CD, col_partition=colp, seed=14),
        }
        for method, config in configs.items():
            trace = run(sys_, config, stop)
            assert trace.converged, f"{method} did not reach 1e-6 (err {trace.final_error:.2e})"


class TestConfigValidation:
    def test_missing_partitions(self, rng):
        sys_ = small_system(rng)
        stop = StopRule(max_epochs=1, error_threshold=1e-6)
        for method in (BLOCK, DOUBLE, BLOCK_CD):
            with pytest.raises(ConfigError, match="requires"):
                run(sys_, MethodConfig(method, seed=0), stop)

    def test_extraneous_partition_rejected(self, rng):
        sys_ = small_system(rng)
        rowp = random_partition(20, 2, rng)
        with pytest.raises(ConfigError, match="does not take"):
            run(sys_, MethodConfig(RK, row_partition=rowp, seed=0), StopRule(1, 1e-6))

    def test_wrong_partition_size(self, rng):
        sys_ = small_system(rng)
        rowp = random_partition(19, 2, rng)
        with pytest.raises(ConfigError, match="does not match"):
            run(sys_, MethodConfig(BLOCK, row_partition=rowp, seed=0), StopRule(1, 1e-6))

    def test_wrong_axis(self, rng):
        sys_ = small_system(rng)
        colp_as_row = random_partition(20, 2, rng, axis=COLUMNS)
        with pytest.raises(ConfigError, match="does not match"):
            run(sys_, MethodConfig(BLOCK, row_partition=colp_as_row, seed=0), StopRule(1, 1e-6))

    def test_unknown_method(self, rng):
        sys_ = small_system(rng)
        with pytest.raises(ConfigError, match="unknown method"):
            run(sys_, MethodConfig("sor", seed=0), StopRule(1, 1e-6))

    def test_stop_rule_validation(self):
        with pytest.raises(ConfigError):
            StopRule(max_epochs=-1, error_threshold=1e-6)
        with pytest.raises(ConfigError):
            StopRule(max_epochs=5, error_threshold=0.0)


class TestZeroRowsAndColumns:
    # 60 and 30 rows run at most two chunks per epoch; MULTI_CHUNK rows run
    # full and partial chunks.
    MULTI_CHUNK = 2 * _CHUNK + 11

    def test_rek_skips_zero_column(self, n=60):
        # the min-norm least-squares solution exists; its zeroed coordinate stays 0
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, 20))
        a[:, 7] = 0.0
        sys_ = make_system(a, rng.standard_normal(n))
        with np.errstate(divide="raise", invalid="raise"):
            trace = run(sys_, MethodConfig(REK, seed=1), StopRule(max_epochs=800, error_threshold=1e-6))
        assert trace.converged
        assert trace.final_x[7] == 0.0

    def test_rk_skips_zero_row(self, n=30):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((n, 8))
        a[4] = 0.0
        x = rng.standard_normal(8)
        sys_ = make_system(a, a @ x)
        trace = run(sys_, MethodConfig(RK, seed=2), StopRule(max_epochs=400, error_threshold=1e-8))
        assert trace.converged

    def test_rek_skips_zero_column_over_chunks(self):
        self.test_rek_skips_zero_column(self.MULTI_CHUNK)

    def test_rk_skips_zero_row_over_chunks(self):
        self.test_rk_skips_zero_row(self.MULTI_CHUNK)

    @staticmethod
    def final_x_with_zero_column(method):
        # a zero column's row of V is only roundoff-small; the row-block steps
        # must not write that roundoff into x
        rng = np.random.default_rng(5)
        a = rng.standard_normal((60, 20))
        a[:, 5] = 0.0
        sys_ = make_system(a, rng.standard_normal(60))
        rowp = random_partition(60, 6, np.random.default_rng(1))
        colp = random_partition(20, 4, np.random.default_rng(2), axis=COLUMNS) if method == DOUBLE else None
        config = MethodConfig(method, row_partition=rowp, col_partition=colp, seed=1)
        return run(sys_, config, StopRule(max_epochs=50, error_threshold=1e-300)).final_x

    def test_block_skips_zero_column(self):
        assert self.final_x_with_zero_column(BLOCK)[5] == 0.0

    def test_double_skips_zero_column(self):
        assert self.final_x_with_zero_column(DOUBLE)[5] == 0.0


def mixed_setup(seed=0, n=40):
    """An inconsistent n x 12 system with row and column partitions, and the
    method configs and plans that go with them."""
    rng = np.random.default_rng(seed)
    sys_ = small_system(rng, n=n, d=12, inconsistent=True)
    rowp = random_partition(n, 5, np.random.default_rng(seed + 1))
    colp = random_partition(12, 3, np.random.default_rng(seed + 2), axis=COLUMNS)
    configs = {
        RK: MethodConfig(RK, seed=21),
        REK: MethodConfig(REK, seed=22),
        BLOCK: MethodConfig(BLOCK, row_partition=rowp, seed=23),
        DOUBLE: MethodConfig(DOUBLE, row_partition=rowp, col_partition=colp, seed=24),
        BLOCK_CD: MethodConfig(BLOCK_CD, col_partition=colp, seed=25),
        HYBRID: MethodConfig(HYBRID, row_partition=rowp, seed=26),
    }
    return sys_, configs, make_block_plan(sys_.a, rowp), make_block_plan(sys_.a, colp)


STEP_METHODS = sorted(METHODS + (HYBRID,))


def step_kernel(method, sys_, row_plan, col_plan):
    """The kernel of ``method`` on ``sys_``, given the plans the method takes."""
    rows = row_plan if method in (BLOCK, DOUBLE, HYBRID) else None
    cols = col_plan if method in (DOUBLE, BLOCK_CD) else None
    return Kernel(method, sys_.a, sys_.b, rows=rows, cols=cols)


def plan_arrays(*plans):
    arrays = []
    for plan in plans:
        arrays += list(plan.submatrices)
        for f in plan.factorizations:
            arrays += [f.u, f.singular_values, f.v]
    return arrays


@pytest.mark.parametrize(
    "method, n",
    [pytest.param(m, 40, id=m) for m in STEP_METHODS]
    + [pytest.param(m, 2 * _CHUNK + 11, id=f"{m}-multichunk") for m in STEP_METHODS],
)
def test_batched_run_matches_stepwise_wrappers(method, n):
    # the epoch kernel draws a whole epoch at once; the stream must be the one
    # Kernel.step draws step by step, and the epoch's grouped steps (rk/rek's
    # chunked solves, double/hybrid's descent beside the row steps) must give
    # its iterates up to rounding
    sys_, configs, row_plan, col_plan = mixed_setup(n=n)
    drawn = np.zeros(sys_.n_cols, dtype=bool)
    config = configs[method]
    epochs = 6
    trace = run(sys_, config, StopRule(max_epochs=epochs, error_threshold=1e-300))
    per_epoch = epoch_length(method, sys_.n_rows, row_blocks=row_plan.partition.n_blocks, col_blocks=col_plan.partition.n_blocks)
    state = initial_state(sys_, method)
    kernel = step_kernel(method, sys_, row_plan, col_plan)
    g = np.random.default_rng(config.seed)
    assert len(trace.rows) == epochs + 1
    for row in trace.rows[1:]:
        for _ in range(per_epoch):
            state = kernel.step(state, g)
            if method == HYBRID:
                drawn[state.last_col] = True
            elif method == DOUBLE:
                drawn[col_plan.partition.blocks[state.last_col_block]] = True
        assert row.error_l2 == pytest.approx(np.linalg.norm(state.x - sys_.x_ls), rel=1e-12)
        assert row.residual_l2 == pytest.approx(np.linalg.norm(sys_.b - sys_.a @ state.x), rel=1e-12)
        if state.z is None:
            assert row.z_error_l2 is None
        else:
            assert row.z_error_l2 == pytest.approx(np.linalg.norm(state.z - sys_.b_perp), rel=1e-12)
    # With row blocks of full column rank, a double/hybrid row step sets x to
    # y, the sum of the column steps' coefficients, so a column never drawn
    # keeps x_j = 0 in exact arithmetic. The grouped and the single steps hold
    # different rounding there (hybrid-multichunk: 6.5e-17 against 3.4e-16),
    # so those entries are checked against 0 and all others against each other.
    full_rank = all(np.linalg.matrix_rank(sub) == sys_.n_cols for sub in row_plan.submatrices)
    zero = ~drawn if method in (DOUBLE, HYBRID) and full_rank else np.zeros(sys_.n_cols, dtype=bool)
    np.testing.assert_allclose(trace.final_x[~zero], state.x[~zero], rtol=1e-12, atol=0)
    assert np.all(np.abs(trace.final_x[zero]) <= 1e-15 * np.linalg.norm(sys_.x_ls))
    assert np.all(np.abs(state.x[zero]) <= 1e-15 * np.linalg.norm(sys_.x_ls))


@pytest.mark.parametrize("method", STEP_METHODS)
def test_draw_matches_scalar_draws_in_turn(method):
    # Kernel.draw's stream contract: a batch of steps draws what each step's
    # indices drawn in turn, side by side (column side first), with one scalar
    # draw each would; single rows and columns by squared norm, blocks uniformly
    sys_, _, row_plan, col_plan = mixed_setup()
    kernel = step_kernel(method, sys_, row_plan, col_plan)
    by_norm = {side: NormSampler(np.sum(sys_.a**2, axis=axis)) for side, axis in (("col", 0), ("row", 1))}
    rows, cols = row_plan.partition, col_plan.partition
    sides = {RK: [by_norm["row"]], REK: [by_norm["col"], by_norm["row"]], BLOCK: [rows],
             DOUBLE: [cols, rows], HYBRID: [by_norm["col"], rows], BLOCK_CD: [cols]}[method]
    for seed in (0, 5, 91):
        for steps in (1, 2, 7, _CHUNK + 3):
            g_batch, g_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = kernel.draw(g_batch, steps)
            in_turn = [[p.draw(g_scalar) if isinstance(p, NormSampler) else int(g_scalar.integers(p.n_blocks))
                        for p in sides] for _ in range(steps)]
            assert batch == [list(side) for side in zip(*in_turn)]
            assert all(type(k) is int for side in batch for k in side)
            assert g_batch.random() == g_scalar.random()


@pytest.mark.parametrize("method", STEP_METHODS)
def test_draw_of_no_steps_gives_one_empty_list_per_side(method):
    # an epoch of no steps still hands its engine one index list per side
    sys_, _, row_plan, col_plan = mixed_setup()
    kernel = step_kernel(method, sys_, row_plan, col_plan)
    sides = 2 if method in (REK, DOUBLE, HYBRID) else 1
    assert kernel.draw(np.random.default_rng(0), 0) == [[]] * sides


class TestNoMutation:
    @pytest.mark.parametrize("method", STEP_METHODS)
    def test_step_wrappers_leave_inputs_alone(self, method):
        sys_, _, row_plan, col_plan = mixed_setup(3)
        state = initial_state(sys_, method)
        before = [sys_.a, sys_.b, state.x, *([] if state.z is None else [state.z]), *plan_arrays(row_plan, col_plan)]
        copies = [v.copy() for v in before]
        kernel = step_kernel(method, sys_, row_plan, col_plan)
        g = np.random.default_rng(0)
        out = state
        for _ in range(30):
            out = kernel.step(out, g)
        assert out.iteration == 30 and not np.array_equal(out.x, state.x)
        for v, c in zip(before, copies):
            assert np.array_equal(v, c)

    @pytest.mark.parametrize("method", STEP_METHODS)
    def test_run_leaves_system_and_plans_alone(self, method, monkeypatch):
        sys_, configs, _, _ = mixed_setup(4)
        built = []

        def recording_plan(a, partition):
            plan = make_block_plan(a, partition)
            built.append((plan, [v.copy() for v in plan_arrays(plan)]))
            return plan

        monkeypatch.setattr(solvers, "make_block_plan", recording_plan)
        system_arrays = [sys_.a, sys_.b, sys_.x_ls, sys_.b_perp]
        copies = [v.copy() for v in system_arrays]
        trace = run(sys_, configs[method], StopRule(max_epochs=5, error_threshold=1e-300))
        assert trace.final_epoch == 5
        assert len(built) == (configs[method].row_partition is not None) + (configs[method].col_partition is not None)
        for v, c in zip(system_arrays, copies):
            assert np.array_equal(v, c)
        for plan, plan_copies in built:
            for v, c in zip(plan_arrays(plan), plan_copies):
                assert np.array_equal(v, c)


LAST_FIELDS = ("iteration", "last_row", "last_col", "last_row_block", "last_col_block")


def assert_same_state(s1, s2):
    for name in LAST_FIELDS:
        assert getattr(s1, name) == getattr(s2, name)
    assert np.array_equal(s1.x, s2.x)
    assert (s1.z is None) == (s2.z is None)
    assert s1.z is None or np.array_equal(s1.z, s2.z)


class TestKernelStep:
    @pytest.mark.parametrize("method", STEP_METHODS)
    def test_no_pinned_indices_draws_every_side(self, method):
        sys_, _, row_plan, col_plan = mixed_setup()
        kernel = step_kernel(method, sys_, row_plan, col_plan)
        state = initial_state(sys_, method)
        sides = 2 if method in (REK, DOUBLE, HYBRID) else 1
        drawn = kernel.step(state, np.random.default_rng(6))
        assert drawn.iteration == 1
        assert_same_state(drawn, kernel.step(state, np.random.default_rng(6), *[None] * sides))

    @pytest.mark.parametrize("method, pinned, sides", [(RK, (0, 0), 1), (REK, (0,), 2), (DOUBLE, (0, 0, 0), 2), (BLOCK_CD, (0, 1), 1)])
    def test_wrong_number_of_pinned_indices_rejected(self, method, pinned, sides):
        sys_, _, row_plan, col_plan = mixed_setup()
        kernel = step_kernel(method, sys_, row_plan, col_plan)
        with pytest.raises(ValueError, match=f"has {sides} side"):
            kernel.step(initial_state(sys_, method), np.random.default_rng(0), *pinned)

    @pytest.mark.parametrize("method, k", [(RK, 2.7), (RK, 2.0), (RK, True), (BLOCK, 1.5), (BLOCK_CD, "0")])
    def test_non_integer_index_rejected(self, method, k):
        sys_, _, row_plan, col_plan = mixed_setup()
        kernel = step_kernel(method, sys_, row_plan, col_plan)
        state = initial_state(sys_, method)
        with pytest.raises(ValueError, match="must be an integer"):
            kernel.step(state, np.random.default_rng(0), k)
        # numpy integers are indices like ints
        assert kernel.step(state, np.random.default_rng(0), np.int64(2)).iteration == 1

    @pytest.mark.parametrize(
        "method, pinned",
        [(BLOCK, (-1,)), (BLOCK, (5,)), (BLOCK_CD, (3,)), (RK, (-1,)), (RK, (40,)), (REK, (12, 0)), (DOUBLE, (0, 5))],
    )
    def test_index_out_of_range_rejected(self, method, pinned):
        # mixed_setup: 40 rows, 12 columns, 5 row blocks, 3 column blocks
        sys_, _, row_plan, col_plan = mixed_setup()
        kernel = step_kernel(method, sys_, row_plan, col_plan)
        with pytest.raises(ValueError, match="outside"):
            kernel.step(initial_state(sys_, method), np.random.default_rng(0), *pinned)

    @pytest.mark.parametrize("method, pinned", [(RK, (3,)), (REK, (0, 3)), (REK, (7, 0)), (HYBRID, (7, 0))])
    def test_zero_weight_index_rejected(self, method, pinned):
        # row 3 and column 7 are zero: a step on them would divide by zero
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 10))
        a[3], a[:, 7] = 0.0, 0.0
        sys_ = make_system(a, rng.standard_normal(20))
        rows = make_block_plan(a, random_partition(20, 4, rng)) if method == HYBRID else None
        kernel = Kernel(method, sys_.a, sys_.b, rows=rows)
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(ValueError, match="zero norm"):
            kernel.step(initial_state(sys_, method), np.random.default_rng(0), *pinned)

    @pytest.mark.parametrize("method, given, message", [
        (BLOCK, "column", "requires a row"), (DOUBLE, "column", "requires a row"), (DOUBLE, "row", "requires a column"),
        (HYBRID, "", "requires a row"), (BLOCK_CD, "", "requires a column"), (RK, "row", "does not take a row"),
        (RK, "column", "does not take a column"), (REK, "row", "does not take a row"),
        (BLOCK, "row column", "does not take a column"), (HYBRID, "row column", "does not take a column"),
        (BLOCK_CD, "row column", "does not take a row"),
    ])
    def test_missing_or_extra_plan_rejected(self, method, given, message):
        # MethodConfig.validate's rule and wording: no plan is silently ignored
        sys_, _, row_plan, col_plan = mixed_setup()
        rows, cols = (row_plan if "row" in given else None), (col_plan if "column" in given else None)
        with pytest.raises(ConfigError, match=f"method '{method}' {message} partition"):
            Kernel(method, sys_.a, sys_.b, rows=rows, cols=cols)

    @pytest.mark.parametrize("method", STEP_METHODS)
    def test_reused_kernel_matches_fresh_kernels(self, method):
        # the arrays a kernel builds on its first apply (the row blocks'
        # pinv(A_k)^T, blockcd's C and h_b, rek's chunked a^T and a^T a) must hold no step
        # state: one kernel, reused for single steps and for applies of 40
        # steps in between, gives the states of a fresh kernel per call
        sys_, _, row_plan, col_plan = mixed_setup(n=75)
        kernel = step_kernel(method, sys_, row_plan, col_plan)

        def advance(k, state, g, t):
            if t % 10 != 9:
                return k.step(state, g)
            x, z = state.x.copy(), None if state.z is None else state.z.copy()
            k.apply(x, z, k.draw(g, 40))
            return replace(state, x=x, z=z)

        reused = fresh = initial_state(sys_, method)
        g_reused, g_fresh = np.random.default_rng(8), np.random.default_rng(8)
        for t in range(60):
            reused = advance(kernel, reused, g_reused, t)
            fresh = advance(step_kernel(method, sys_, row_plan, col_plan), fresh, g_fresh, t)
            assert_same_state(reused, fresh)
        assert reused.iteration == 54


def trace_rows(trace):
    """A trace's rows without ``cpu_seconds``."""
    return [(r.epoch, r.error_l2, r.residual_l2, r.z_error_l2) for r in trace.rows]


class TestSharedKernel:
    @pytest.mark.parametrize("method", STEP_METHODS)
    def test_run_through_a_built_kernel_matches_a_fresh_one(self, method, monkeypatch):
        sys_, configs, _, _ = mixed_setup(5)
        config = configs[method]
        stop = StopRule(max_epochs=7, error_threshold=1e-300)
        fresh = [run(sys_, replace(config, seed=seed), stop) for seed in (3, 4)]
        kernel = Kernel.for_config(sys_, config).build()

        def fail(a, partition):
            raise AssertionError("a run on a shared kernel factored a block")

        monkeypatch.setattr(solvers, "make_block_plan", fail)
        for seed, ref in zip((3, 4), fresh):
            shared = run(sys_, replace(config, seed=seed, kernel=kernel), stop)
            assert trace_rows(shared) == trace_rows(ref)
            assert np.array_equal(shared.final_x, ref.final_x)

    def test_blockcd_kernel_lets_the_range_factor_go(self):
        # blockcd plans on the system's r and descends against its c; the
        # built kernel keeps only copies of r's blocks, so once the system
        # is dropped r is freed, and the kernel still steps
        sys_, configs, _, _ = mixed_setup()
        a, b = sys_.a, sys_.b
        system = make_system(a, b, with_oracle=False)
        kernel = Kernel.for_config(system, configs[BLOCK_CD]).build()
        ref = weakref.ref(system.r)
        del system
        assert ref() is None
        x = np.zeros(a.shape[1])
        kernel.apply(x, None, kernel.draw(np.random.default_rng(0), 9))
        assert np.linalg.norm(b - a @ x) < np.linalg.norm(b)

    def test_kernel_takes_no_part_in_config_equality(self):
        sys_, configs, _, _ = mixed_setup()
        config = configs[BLOCK_CD]
        with_kernel = replace(config, kernel=Kernel.for_config(sys_, config))
        assert with_kernel == config
        assert repr(with_kernel) == repr(config)

    @pytest.mark.parametrize("foreign", ["method", "partition", "matrix", "rhs"])
    def test_foreign_kernel_rejected(self, foreign):
        sys_, configs, _, _ = mixed_setup()
        config = configs[DOUBLE]
        built_for, system = config, sys_
        if foreign == "method":
            built_for = configs[BLOCK]
        elif foreign == "partition":
            # equal blocks, but another partition object
            other = Partition(COLUMNS, config.col_partition.blocks, config.col_partition.universe_size)
            built_for = replace(config, col_partition=other)
        elif foreign == "matrix":
            system = make_system(sys_.a.copy(), sys_.b)
        else:
            system = make_system(sys_.a, sys_.b.copy())
        kernel = Kernel.for_config(system, built_for)
        with pytest.raises(ConfigError, match="kernel was built for"):
            run(sys_, replace(config, kernel=kernel), StopRule(max_epochs=1, error_threshold=1e-300))

    @pytest.mark.parametrize("method", [BLOCK, BLOCK_CD, "nope"])
    def test_for_config_validates_before_factoring(self, method, monkeypatch):
        def fail(a, partition):
            raise AssertionError("a config that does not fit was factored")

        monkeypatch.setattr(solvers, "make_block_plan", fail)
        sys_, configs, _, _ = mixed_setup()
        if method == BLOCK:
            # a row partition of 41 rows for a 40-row system
            config = replace(configs[BLOCK], row_partition=random_partition(41, 5, np.random.default_rng(0)))
        elif method == BLOCK_CD:
            # a partition of the rows where the columns' is expected
            config = replace(configs[BLOCK_CD], col_partition=random_partition(12, 3, np.random.default_rng(0)))
        else:
            config = MethodConfig(method)
        with pytest.raises(ConfigError, match="does not match|unknown method"):
            Kernel.for_config(sys_, config)

    @pytest.mark.parametrize(
        "method, target",
        [(BLOCK_CD, (solvers._PinvDescent, "build")), (BLOCK, (solvers, "_pinv_transpose")),
         (DOUBLE, (solvers, "_pinv_transpose")), (REK, (solvers._NormChunks, "build"))],
    )
    def test_cpu_seconds_leave_out_the_operand_build(self, method, target, monkeypatch):
        # the first epoch's CPU time is its iterations': a build that burns
        # 50 ms of CPU is paid before the timed epochs
        owner, name = target
        real = getattr(owner, name)
        burnt = []

        def slow_build(*args):
            if not burnt:
                t0 = time.process_time()
                while time.process_time() - t0 < 0.05:
                    pass
                burnt.append(True)
            return real(*args)

        monkeypatch.setattr(owner, name, slow_build)
        sys_, configs, _, _ = mixed_setup(6)
        trace = run(sys_, configs[method], StopRule(max_epochs=1, error_threshold=1e-300))
        assert burnt
        assert trace.rows[1].cpu_seconds < 0.05


def assert_same_telemetry(trace, reference):
    """Same epochs, errors, stop and iterate; residuals and z errors equal up
    to the rounding of a wider or narrower product."""
    assert [(r.epoch, r.error_l2) for r in trace.rows] == [(r.epoch, r.error_l2) for r in reference.rows]
    assert trace.converged == reference.converged
    assert np.array_equal(trace.final_x, reference.final_x)
    for row, ref in zip(trace.rows, reference.rows):
        assert row.residual_l2 == pytest.approx(ref.residual_l2, rel=1e-14, abs=0)
        assert (row.z_error_l2 is None) == (ref.z_error_l2 is None)
        if ref.z_error_l2 is not None:
            assert row.z_error_l2 == pytest.approx(ref.z_error_l2, rel=1e-14, abs=0)


def assert_direct_telemetry(system, config, trace):
    """Every row's residual (and blockcd's z error) within 1e-12 |b| of the
    direct norms of that epoch's iterate."""
    tol = 1e-12 * np.linalg.norm(system.b)
    for row in trace.rows:
        x = run(system, config, StopRule(max_epochs=row.epoch, error_threshold=1e-300)).final_x
        resid = system.b - system.a @ x
        assert abs(row.residual_l2 - np.linalg.norm(resid)) <= tol
        if config.method == BLOCK_CD:
            assert abs(row.z_error_l2 - np.linalg.norm(resid - system.b_perp)) <= tol


def coarse_cutoff_system(rng):
    """A 20 x 6 system whose oracle, at rank tolerance 1e-3, drops a singular
    value of 0.9e-3 that b has a share along."""
    u = np.linalg.qr(rng.standard_normal((20, 6)))[0]
    v = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    a = (u * np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.9e-3])) @ v.T
    return make_system(a, u[:, 5] + 0.1 * rng.standard_normal(20), rank_tolerance=1e-3)


class TestBatchedTelemetry:
    """A run on a system with ``x_ls`` keeps each epoch's ``x - x_ls`` and
    reads the residuals off one product with ``r`` per ``_BATCH`` epochs; with
    ``_BATCH`` = 3 a run takes several products, and its rows must be those
    of a run that takes one."""

    @pytest.mark.parametrize("method", STEP_METHODS)
    def test_run_over_three_products_stopping_part_way_through_one(self, method, monkeypatch):
        sys_, configs, _, _ = mixed_setup(4)
        assert sys_.x_ls is not None
        config = configs[method]
        # a threshold that epoch t is the first to reach, with t past the
        # second product and not at the end of one
        errors = [r.error_l2 for r in run(sys_, config, StopRule(max_epochs=40, error_threshold=1e-300)).rows]
        t = next(t for t in range(6, 41) if (t + 1) % 3 and errors[t] < min(errors[:t]))
        stop = StopRule(max_epochs=40, error_threshold=errors[t])
        reference = run(sys_, config, stop)
        monkeypatch.setattr(solvers, "_BATCH", 3)
        trace = run(sys_, config, stop)
        assert trace.converged and trace.final_epoch == t
        assert_same_telemetry(trace, reference)
        assert_direct_telemetry(sys_, config, trace)

    @pytest.mark.parametrize("method", [RK, BLOCK_CD])
    def test_zero_epochs(self, method, monkeypatch):
        sys_, configs, _, _ = mixed_setup(7)
        stop = StopRule(max_epochs=0, error_threshold=1e-300)
        reference = run(sys_, configs[method], stop)
        monkeypatch.setattr(solvers, "_BATCH", 3)
        trace = run(sys_, configs[method], stop)
        assert len(trace.rows) == 1
        assert_same_telemetry(trace, reference)
        assert_direct_telemetry(sys_, configs[method], trace)

    @pytest.mark.parametrize("method", [RK, BLOCK_CD])
    def test_coarse_oracle_cutoff(self, method, monkeypatch):
        # x_ls misses a direction above rounding, so b_perp is not orthogonal
        # to a's range: the product with r must still give the exact norms
        sys_ = coarse_cutoff_system(np.random.default_rng(8))
        assert sys_.spectral.sigma_min_nonzero == pytest.approx(0.2)
        config = MethodConfig(method, col_partition=whole_partition(6, COLUMNS) if method == BLOCK_CD else None,
                              seed=0)
        stop = StopRule(max_epochs=8, error_threshold=1e-300)
        reference = run(sys_, config, stop)
        monkeypatch.setattr(solvers, "_BATCH", 3)
        trace = run(sys_, config, stop)
        assert len(trace.rows) == 9
        assert_same_telemetry(trace, reference)
        assert_direct_telemetry(sys_, config, trace)

    @pytest.mark.parametrize("method", [RK, BLOCK_CD])
    def test_converged_at_epoch_zero(self, method, monkeypatch):
        sys_ = make_system(np.eye(3), np.zeros(3))
        assert sys_.x_ls is not None
        config = MethodConfig(method, col_partition=whole_partition(3, COLUMNS) if method == BLOCK_CD else None)
        monkeypatch.setattr(solvers, "_BATCH", 3)
        trace = run(sys_, config, StopRule(max_epochs=10, error_threshold=1e-12))
        assert trace.converged and len(trace.rows) == 1
        assert trace.rows[0].residual_l2 == 0.0
        assert trace.rows[0].z_error_l2 == (0.0 if method == BLOCK_CD else None)

    @pytest.mark.parametrize("method, blocks", [(REK, {}), (BLOCK_CD, {"col_blocks": 3})])
    def test_error_fn_arm(self, method, blocks, monkeypatch):
        # a column-standardized arm (figd): errors from its error_fn, the
        # residual from the standardized system's range factor
        sys_, _, _, _ = mixed_setup(7)
        prep = prepare_method(sys_, MethodSetting(method, standardize_columns=True, **blocks), 3)
        assert prep.error_fn is not None and prep.solve_system.x_ls is not None
        stop = StopRule(max_epochs=8, error_threshold=1e-300)
        reference = run(prep.solve_system, prep.config, stop, error_fn=prep.error_fn)
        monkeypatch.setattr(solvers, "_BATCH", 3)
        trace = run(prep.solve_system, prep.config, stop, error_fn=prep.error_fn)
        assert [r.error_l2 for r in trace.rows] == [prep.error_fn(x) for x in (
            run(prep.solve_system, prep.config, StopRule(max_epochs=t, error_threshold=1e-300)).final_x
            for t in range(9))]
        assert_same_telemetry(trace, reference)
        assert_direct_telemetry(prep.solve_system, prep.config, trace)

    @pytest.mark.parametrize("method", STEP_METHODS)
    def test_interleaved_runs_on_one_kernel(self, method, monkeypatch):
        # every epoch of the outer run starts and ends a whole inner run on
        # the same kernel while the outer run still holds epochs for a product
        sys_, configs, _, _ = mixed_setup(7)
        config = replace(configs[method], kernel=Kernel.for_config(sys_, configs[method]).build())
        other = replace(config, seed=99)
        stop = StopRule(max_epochs=8, error_threshold=1e-300)
        references = [run(sys_, c, stop) for c in (config, other)]
        monkeypatch.setattr(solvers, "_BATCH", 3)
        inner = []

        def error_fn(x):
            inner.append(run(sys_, other, stop))
            return float(np.linalg.norm(x - sys_.x_ls))

        assert_same_telemetry(run(sys_, config, stop, error_fn=error_fn), references[0])
        assert len(inner) == 9
        for trace in inner:
            assert_same_telemetry(trace, references[1])
