import math

import numpy as np
import pytest

from blockkaczmarz.harness import gen_inconsistent
from blockkaczmarz.paving import COLUMNS, PavingParams, paving_bounds, random_partition, row_standardize
from blockkaczmarz.solvers import (
    BLOCK,
    BLOCK_CD,
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
from blockkaczmarz.theory import (
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


def identity_system(n):
    return make_system(np.eye(n), np.ones(n))


class TestRateConstants:
    def test_identity_two_blocks(self, rng):
        sys_ = identity_system(4)
        part = random_partition(4, 2, rng)
        consts = rate_constants(sys_, row_paving=paving_bounds(sys_.a, part))
        assert consts.gamma_row == pytest.approx(0.5)

    def test_single_block_orthonormal_rows(self, rng):
        sys_ = identity_system(4)
        part = random_partition(4, 1, rng)
        consts = rate_constants(sys_, row_paving=paving_bounds(sys_.a, part))
        assert consts.gamma_row == pytest.approx(0.0, abs=1e-14)

    def test_measured_on_gaussian(self):
        g = np.random.default_rng(0).standard_normal((300, 100))
        a = row_standardize(g)[0]
        x = np.random.default_rng(1).standard_normal(100)
        sys_ = make_system(a, a @ x)
        rowp = random_partition(300, 30, np.random.default_rng(2))
        colp = random_partition(100, 10, np.random.default_rng(3), axis=COLUMNS)
        consts = rate_constants(sys_, paving_bounds(a, rowp), paving_bounds(a, colp))
        assert 0.0 < consts.gamma_row < 1.0
        assert 0.0 < consts.gamma_col < 1.0
        # norms decompose the right-hand side
        b_sq = float(np.dot(sys_.b, sys_.b))
        assert consts.b_range_norm**2 + consts.b_perp_norm**2 == pytest.approx(b_sq, rel=1e-10)

    def test_contraction_rate_rejects_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            contraction_rate(10.0, PavingParams(p=1, alpha=1.0, beta=1.0))


def consts_for(gamma_row, gamma_col, alpha_row, b_range_norm, b_perp_norm=0.0):
    return RateConstants(gamma_row, gamma_col, alpha_row, b_range_norm, b_perp_norm)


class TestDoubleBlockErrorBound:
    def test_t_zero(self):
        c = consts_for(0.5, 0.5, 1.0, 2.0)
        # x0_err_sq + 2 * bR^2 / (alpha * (1 - gamma))
        assert double_block_error_bound(0, c, 3.0) == pytest.approx(3.0 + 2 * 4.0 / 0.5)

    def test_orthogonal_rhs_gives_pure_decay(self):
        c = consts_for(0.5, 0.9, 1.0, 0.0, b_perp_norm=1.0)
        assert double_block_error_bound(6, c, 8.0) == pytest.approx(8.0 * 0.5**6)

    def test_hand_computed_value(self):
        c = consts_for(0.5, 0.5, 1.0, 1.0)
        assert double_block_error_bound(4, c, 1.0) == pytest.approx(1.0625)

    def test_vacuous_rate_rejected(self):
        c = consts_for(1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="vacuous|\\[0, 1\\)"):
            double_block_error_bound(3, c, 1.0)

    def test_missing_paving_rejected(self):
        c = RateConstants(None, 0.5, None, 1.0, 0.0)
        with pytest.raises(ValueError, match="needs both"):
            double_block_error_bound(3, c, 1.0)

    def test_nonincreasing_from_t_two(self):
        c = consts_for(0.93, 0.97, 0.2, 3.0)
        values = [double_block_error_bound(t, c, 10.0) for t in range(2, 120)]
        assert all(b <= a * (1 + 1e-14) for a, b in zip(values, values[1:]))

    def test_consistent_with_recursion_combiner(self, rng):
        for _ in range(20):
            gamma = float(rng.uniform(0, 0.99))
            gamma_bar = float(rng.uniform(0, 0.99))
            alpha = float(rng.uniform(0.05, 2.0))
            b_range = float(rng.uniform(0, 5.0))
            x0 = float(rng.uniform(0, 9.0))
            t = int(rng.integers(0, 40))
            c = consts_for(gamma, gamma_bar, alpha, b_range)
            via_consts = double_block_error_bound(t, c, x0)
            via_combiner = geometric_recursion_bound(t, gamma, gamma_bar, b_range**2 / alpha, x0)
            assert via_consts == pytest.approx(via_combiner, rel=1e-14)


class TestGeometricRecursionBound:
    def test_no_forcing_is_pure_decay(self):
        assert geometric_recursion_bound(7, 0.5, 0.9, 0.0, 4.0) == pytest.approx(4.0 * 0.5**7)

    def test_t_one_floor_arithmetic(self):
        # floor(1/2) = 0 so both forcing factors are 1
        val = geometric_recursion_bound(1, 0.5, 0.25, 3.0, 2.0)
        assert val == pytest.approx(0.5 * 2.0 + 2 * 3.0 / 0.5)

    def test_independent_reevaluation(self, rng):
        for _ in range(25):
            g, gb = rng.uniform(0, 0.95, size=2)
            forcing = float(rng.uniform(0, 4))
            x0 = float(rng.uniform(0, 4))
            t = int(rng.integers(0, 30))
            expected = g**t * x0 + (g ** (t // 2) + gb ** (t // 2)) * forcing / (1 - g)
            assert geometric_recursion_bound(t, g, gb, forcing, x0) == pytest.approx(expected, rel=1e-14)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            geometric_recursion_bound(1, 1.0, 0.5, 1.0, 1.0)


class TestZErrorEnvelope:
    def test_k_zero(self):
        assert z_error_envelope(0, 0.7, 5.0) == 5.0

    def test_zero_rate_kills_after_one_step(self):
        assert z_error_envelope(0, 0.0, 5.0) == 5.0
        assert z_error_envelope(1, 0.0, 5.0) == 0.0
        assert z_error_envelope(3, 0.0, 5.0) == 0.0

    def test_decay_value(self):
        assert z_error_envelope(10, 0.9, 4.0) == pytest.approx(4.0 * math.exp(10 * math.log(0.9)), rel=1e-12)

    def test_monotone(self):
        vals = [z_error_envelope(k, 0.85, 2.0) for k in range(40)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestRekErrorBound:
    def test_j_zero_constant(self):
        assert rek_error_bound(0, 2.0, 3.0, 4.0, 0.5) == pytest.approx(3.0 + 2 * 4.0 / 0.25)

    def test_degenerate_condition_kills(self):
        assert rek_error_bound(2, 1.0, 3.0, 4.0, 1.0) == 0.0
        assert rek_error_bound(8, 1.0, 3.0, 4.0, 1.0) == 0.0

    def test_independent_reevaluation(self, rng):
        for _ in range(20):
            j = int(rng.integers(0, 50))
            k_scaled = float(rng.uniform(1.0, 30.0))
            xls_sq = float(rng.uniform(0, 9))
            b_sq = float(rng.uniform(0, 9))
            smin = float(rng.uniform(0.1, 2.0))
            expected = (1 - 1 / k_scaled**2) ** (j / 2) * (xls_sq + 2 * b_sq / smin**2)
            assert rek_error_bound(j, k_scaled, xls_sq, b_sq, smin) == pytest.approx(expected, rel=1e-13)


class TestHorizons:
    def test_consistent_system_has_zero_horizon(self, rng):
        a = rng.standard_normal((10, 4))
        x = rng.standard_normal(4)
        sys_ = make_system(a, a @ x)
        assert rk_convergence_horizon(sys_) <= 1e-10
        assert block_convergence_horizon(sys_) <= 1e-20

    def test_row_standardized_horizon_is_scaled_sup_norm(self):
        sys_ = gen_inconsistent(30, 10, 0.5, np.random.default_rng(0))
        # unit rows: the per-row denominators drop out
        expected = sys_.spectral.scaled_condition * np.max(np.abs(sys_.b_perp))
        assert rk_convergence_horizon(sys_) == pytest.approx(expected, rel=1e-12)

    def test_block_horizon_formula(self, rng):
        sys_ = gen_inconsistent(25, 8, 1.5, rng)
        expected = 3.0 * 1.5**2 / sys_.spectral.sigma_min_nonzero**2
        assert block_convergence_horizon(sys_) == pytest.approx(expected, rel=1e-10)

    def test_rk_error_envelope_combines_decay_and_plateau(self):
        val = rk_error_envelope(0, 2.0, 3.0, 0.25)
        assert val == pytest.approx(3.25)
        assert rk_error_envelope(10**6, 2.0, 3.0, 0.25) == pytest.approx(0.25, rel=1e-6)

    def test_rk_plateau_is_order_of_magnitude(self):
        # plain row projections stall near the horizon instead of converging
        sys_ = gen_inconsistent(60, 20, 0.5, np.random.default_rng(5))
        horizon = rk_convergence_horizon(sys_)
        trace = run(sys_, MethodConfig(RK, seed=1), StopRule(max_epochs=150, error_threshold=1e-12))
        tail = [r.error_l2 for r in trace.rows[-30:]]
        assert max(tail) <= 3.0 * horizon
        assert min(tail) >= 1e-3 * horizon

    def test_block_plateau_within_horizon(self):
        sys_ = gen_inconsistent(60, 20, 0.5, np.random.default_rng(6))
        rowp = random_partition(60, 6, np.random.default_rng(7))
        trace = run(
            sys_, MethodConfig(BLOCK, row_partition=rowp, seed=2), StopRule(max_epochs=200, error_threshold=1e-12)
        )
        plateau_sq = block_convergence_horizon(sys_)
        tail_sq = [r.error_l2**2 for r in trace.rows[-30:]]
        assert max(tail_sq) <= 3.0 * plateau_sq
        assert min(tail_sq) >= 1e-6 * plateau_sq


class TestStandardizedAndTransportedRates:
    def test_identity_matrix(self, rng):
        part = random_partition(4, 2, rng)
        paving = paving_bounds(np.eye(4), part)
        assert standardized_paving_rate(np.eye(4), paving) == pytest.approx(0.5)

    def test_single_block(self, rng):
        part = random_partition(4, 1, rng)
        paving = paving_bounds(np.eye(4), part)
        assert standardized_paving_rate(np.eye(4), paving) == pytest.approx(0.0, abs=1e-14)

    def test_measured_gaussian(self, rng):
        a = row_standardize(rng.standard_normal((60, 20)))[0]
        part = random_partition(60, 6, rng)
        rate = standardized_paving_rate(a, paving_bounds(a, part))
        assert 0.0 < rate < 1.0

    def test_transport_reduces_to_standardized_for_unit_rows(self, rng):
        a = row_standardize(rng.standard_normal((40, 10)))[0]
        part = random_partition(40, 5, rng)
        paving = paving_bounds(a, part)
        delta = paving.beta - 1.0
        transported = transported_paving_rate(a, delta, paving)
        assert transported.paving.beta == pytest.approx(paving.beta, rel=1e-12)
        assert transported.gamma == pytest.approx(standardized_paving_rate(a, paving), rel=1e-10)

    def test_transport_scales_with_dynamic_range(self, rng):
        base = row_standardize(rng.standard_normal((30, 8)))[0]
        scaled = base * np.arange(1.0, 31.0)[:, None]
        part = random_partition(30, 5, rng)
        paving_std = paving_bounds(base, part)
        delta = max(1.0 - paving_std.alpha, paving_std.beta - 1.0)
        transported = transported_paving_rate(scaled, delta, paving_std)
        assert transported.paving.beta == pytest.approx(900.0 * (1 + delta), rel=1e-12)
        # larger dynamic range pushes the rate toward 1
        assert transported.gamma > standardized_paving_rate(base, paving_std)

    def test_negative_delta_rejected(self, rng):
        with pytest.raises(ValueError, match="delta"):
            transported_paving_rate(np.eye(3), -0.1, PavingParams(1, 1.0, 1.0))


class TestBlockCdBounds:
    def test_error_bound_reevaluation(self, rng):
        for _ in range(15):
            t = int(rng.integers(0, 60))
            gamma = float(rng.uniform(0, 0.99))
            kappa = float(rng.uniform(1, 10))
            xls_sq = float(rng.uniform(0, 5))
            expected = gamma**t * kappa**2 * xls_sq
            assert block_cd_error_bound(t, gamma, kappa, xls_sq) == pytest.approx(expected, rel=1e-13)

    def test_bad_condition_rejected(self):
        with pytest.raises(ValueError, match="condition"):
            block_cd_error_bound(1, 0.5, 0.9, 1.0)


class TestEnvelopesVsEmpirics:
    def test_rek_mean_below_envelope(self):
        sys_ = gen_inconsistent(40, 12, 0.5, np.random.default_rng(8))
        sp = sys_.spectral
        xls_sq = float(np.dot(sys_.x_ls, sys_.x_ls))
        b_sq = float(np.dot(sys_.b, sys_.b))
        kernel = Kernel(REK, sys_.a, sys_.b)
        runs, steps = 200, 30
        err_sq = np.zeros((runs, steps + 1))
        for r in range(runs):
            state = initial_state(sys_, "rek")
            g = np.random.default_rng(5000 + r)
            for k in range(1, steps + 1):
                state = kernel.step(state, g)
                err_sq[r, k] = np.sum((state.x - sys_.x_ls) ** 2)
        mean = err_sq.mean(axis=0)
        for j in range(1, steps + 1):
            envelope = rek_error_bound(j, sp.scaled_condition, xls_sq, b_sq, sp.sigma_min_nonzero)
            assert mean[j] <= envelope * 1.25

    def test_blockcd_image_mean_below_envelope(self):
        sys_ = gen_inconsistent(40, 12, 0.5, np.random.default_rng(9))
        colp = random_partition(12, 4, np.random.default_rng(10), axis=COLUMNS)
        plan = make_block_plan(sys_.a, colp)
        gamma_col = contraction_rate(sys_.spectral.sigma_min_nonzero**2, paving_bounds(sys_.a, colp))
        b_range_sq = float(np.dot(sys_.b_range, sys_.b_range))
        kernel = Kernel(BLOCK_CD, sys_.a, sys_.b, cols=plan)
        runs, steps = 200, 40
        img_sq = np.zeros((runs, steps + 1))
        for r in range(runs):
            state = initial_state(sys_, "blockcd")
            g = np.random.default_rng(7000 + r)
            for k in range(1, steps + 1):
                state = kernel.step(state, g)
                img_sq[r, k] = np.sum((sys_.a @ (sys_.x_ls - state.x)) ** 2)
        mean = img_sq.mean(axis=0)
        for t in range(1, steps + 1):
            assert mean[t] <= z_error_envelope(t, gamma_col, b_range_sq) * 1.25
