import numpy as np
import pytest

from blockkaczmarz.linalg import min_norm_lstsq
from blockkaczmarz.paving import (
    COLUMNS,
    ROWS,
    DiagonalScaling,
    Partition,
    block_submatrices,
    column_standardize,
    dynamic_range,
    paving_bounds,
    random_partition,
    row_standardize,
    unscale_solution,
)


def gram_extremes(a, partition):
    """Independent oracle: dense symmetric eigensolve of each block Gram matrix."""
    alpha, beta = np.inf, 0.0
    for idx in partition.blocks:
        block = a[idx, :] if partition.axis == ROWS else a[:, idx].T
        eigs = np.linalg.eigvalsh(block @ block.T)
        alpha = min(alpha, eigs[0])
        beta = max(beta, eigs[-1])
    return alpha, beta


class TestRandomPartition:
    def test_all_singletons(self, rng):
        p = random_partition(4, 4, rng)
        assert p.n_blocks == 4
        assert all(len(b) == 1 for b in p.blocks)

    def test_single_block(self, rng):
        p = random_partition(4, 1, rng)
        assert p.n_blocks == 1
        assert sorted(p.blocks[0]) == [0, 1, 2, 3]

    def test_near_equal_sizes(self, rng):
        p = random_partition(10, 3, rng)
        assert sorted(len(b) for b in p.blocks) == [3, 3, 4]
        # extra element goes to the earliest block
        assert len(p.blocks[0]) == 4

    def test_union_and_disjointness(self):
        for seed in range(10):
            p = random_partition(23, 5, np.random.default_rng(seed))
            allidx = np.sort(np.concatenate(p.blocks))
            assert np.array_equal(allidx, np.arange(23))

    def test_deterministic_for_seed(self):
        p1 = random_partition(12, 4, np.random.default_rng(7))
        p2 = random_partition(12, 4, np.random.default_rng(7))
        assert all(np.array_equal(a, b) for a, b in zip(p1.blocks, p2.blocks))

    @pytest.mark.parametrize("p", [0, 5])
    def test_bad_block_count(self, p):
        with pytest.raises(ValueError):
            random_partition(4, p, np.random.default_rng(0))

    def test_partition_validates_coverage(self):
        with pytest.raises(ValueError, match="cover"):
            Partition(axis=ROWS, blocks=(np.array([0]), np.array([2])), universe_size=3)


class TestPavingBounds:
    def test_identity_any_partition(self, rng):
        p = random_partition(4, 2, rng)
        params = paving_bounds(np.eye(4), p)
        assert params.p == 2
        assert params.alpha == pytest.approx(1.0)
        assert params.beta == pytest.approx(1.0)

    def test_diag_singletons(self):
        p = Partition(axis=ROWS, blocks=(np.array([0]), np.array([1])), universe_size=2)
        params = paving_bounds(np.diag([2.0, 1.0]), p)
        assert params.alpha == pytest.approx(1.0)
        assert params.beta == pytest.approx(4.0)

    def test_matches_eigensolve_oracle(self, rng):
        a = row_standardize(rng.standard_normal((30, 10)))[0]
        p = random_partition(30, 5, rng)
        params = paving_bounds(a, p)
        alpha, beta = gram_extremes(a, p)
        assert params.alpha == pytest.approx(alpha, rel=1e-10)
        assert params.beta == pytest.approx(beta, rel=1e-10)

    def test_columns_axis_matches_oracle(self, rng):
        a = rng.standard_normal((12, 8))
        p = random_partition(8, 3, rng, axis=COLUMNS)
        params = paving_bounds(a, p)
        alpha, beta = gram_extremes(a, p)
        assert params.alpha == pytest.approx(alpha, rel=1e-10)
        assert params.beta == pytest.approx(beta, rel=1e-10)

    def test_tall_block_padded_with_zeros(self, rng):
        # 4x2 block has a 4x4 Gram of rank <= 2, so alpha must be 0
        a = rng.standard_normal((4, 2))
        p = Partition(axis=ROWS, blocks=(np.arange(4),), universe_size=4)
        params = paving_bounds(a, p)
        assert params.alpha == 0.0
        eigs = np.linalg.eigvalsh(a @ a.T)
        assert params.beta == pytest.approx(eigs[-1], rel=1e-10)

    def test_size_mismatch(self, rng):
        p = random_partition(4, 2, rng)
        with pytest.raises(ValueError, match="partition"):
            paving_bounds(np.eye(5), p)

    def test_row_normalized_gaussian_beta_stays_small(self):
        # statistical check: a random row partition of a 300x100 row-normalized
        # Gaussian is a genuine paving with modest upper bound
        hits = 0
        seeds = 40
        for seed in range(seeds):
            g = np.random.default_rng(seed).standard_normal((300, 100))
            a = row_standardize(g)[0]
            p = random_partition(300, 30, np.random.default_rng(1000 + seed))
            params = paving_bounds(a, p)
            assert params.alpha > 0
            if params.beta <= 4.0:
                hits += 1
        assert hits >= seeds - 1


class TestStandardize:
    def test_row_already_standardized(self, rng):
        a = row_standardize(rng.standard_normal((5, 3)))[0]
        out, scaling = row_standardize(a)
        np.testing.assert_allclose(out, a, atol=1e-15)
        np.testing.assert_allclose(scaling.reciprocals, np.ones(5), atol=1e-12)

    def test_row_345_triangle(self):
        out, scaling = row_standardize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)
        assert scaling.reciprocals[0] == pytest.approx(0.2)

    def test_row_norms_of_output(self, rng):
        out, scaling = row_standardize(rng.standard_normal((20, 6)))
        norms = np.linalg.norm(out, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_row_scaling_reconstructs(self, rng):
        a = rng.standard_normal((9, 4))
        out, scaling = row_standardize(a)
        np.testing.assert_allclose(scaling.reciprocals[:, None] * a, out, rtol=1e-14)

    def test_row_zero_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            row_standardize(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_col_orthonormal_unchanged(self, rng):
        q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        out, scaling = column_standardize(q)
        np.testing.assert_allclose(out, q, atol=1e-12)

    def test_col_single_column(self):
        out, scaling = column_standardize(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out, [[0.6], [0.8]], atol=1e-15)

    def test_col_norms_of_output(self, rng):
        out, _ = column_standardize(rng.standard_normal((20, 6)))
        norms = np.linalg.norm(out, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_col_zero_rejected(self):
        with pytest.raises(ValueError, match="column"):
            column_standardize(np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestUnscale:
    def test_identity_scaling(self, rng):
        x = rng.standard_normal(4)
        assert np.array_equal(unscale_solution(x, DiagonalScaling(np.ones(4))), x)

    def test_entrywise_product(self):
        out = unscale_solution(np.array([2.0, 2.0]), DiagonalScaling(np.array([0.5, 1.0])))
        assert np.array_equal(out, [1.0, 2.0])

    def test_two_path_least_squares(self, rng):
        # solving the column-standardized system and unscaling matches the
        # direct least-squares solve
        a = rng.standard_normal((15, 6)) * np.exp(rng.standard_normal(6))[None, :]
        b = rng.standard_normal(15)
        direct = min_norm_lstsq(a, b)[0]
        a_std, scaling = column_standardize(a)
        via_std = unscale_solution(min_norm_lstsq(a_std, b)[0], scaling)
        assert np.linalg.norm(direct - via_std) <= 1e-8 * max(np.linalg.norm(direct), 1e-30)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            unscale_solution(np.ones(3), DiagonalScaling(np.ones(2)))

    def test_nonpositive_scaling_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DiagonalScaling(np.array([1.0, 0.0]))


class TestDynamicRange:
    def test_standardized_is_one(self, rng):
        a = row_standardize(rng.standard_normal((6, 3)))[0]
        assert dynamic_range(a) == pytest.approx(1.0)

    def test_norms_one_and_two(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert dynamic_range(a) == pytest.approx(4.0)

    def test_graded_rows(self, rng):
        base = row_standardize(rng.standard_normal((5, 3)))[0]
        a = base * np.arange(1.0, 6.0)[:, None]
        assert dynamic_range(a) == pytest.approx(25.0, rel=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            dynamic_range(np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestBlockSubmatrices:
    @pytest.mark.parametrize("axis", [ROWS, COLUMNS])
    def test_contiguous_copies_in_block_order(self, rng, axis):
        a = rng.standard_normal((9, 7))
        p = random_partition(a.shape[0] if axis == ROWS else a.shape[1], 3, rng, axis=axis)
        blocks = list(block_submatrices(a, p))
        assert len(blocks) == p.n_blocks
        for block, idx in zip(blocks, p.blocks):
            assert np.array_equal(block, a[idx, :] if axis == ROWS else a[:, idx])
            assert block.flags.c_contiguous and not np.shares_memory(block, a)

    def test_rejects_bad_matrix(self, rng):
        p = random_partition(4, 2, rng)
        with pytest.raises(ValueError, match="non-finite"):
            list(block_submatrices(np.full((4, 2), np.nan), p))
        with pytest.raises(ValueError, match="partition covers"):
            list(block_submatrices(np.eye(5), p))
