import numpy as np
import pytest

from blockkaczmarz.linalg import (
    _summarize,
    as_matrix,
    as_vector,
    min_norm_lstsq,
    spectral_summary,
    svd_factor,
)
from blockkaczmarz.paving import row_standardize
from blockkaczmarz.systems import make_system


class TestSvdFactor:
    def test_identity_singular_values(self):
        f = svd_factor(np.eye(3))
        np.testing.assert_allclose(f.singular_values, [1.0, 1.0, 1.0], atol=1e-14)
        assert f.rank == 3

    def test_rank_deficient_diag(self):
        f = svd_factor(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(f.singular_values, [3.0, 0.0], atol=1e-14)
        assert f.rank == 1

    def test_orthonormality_and_reconstruction(self, rng):
        a = rng.standard_normal((6, 4))
        f = svd_factor(a)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(4), atol=1e-12)
        recon = f.u @ np.diag(f.singular_values) @ f.v.T
        assert np.linalg.norm(a - recon) <= 1e-10 * np.linalg.norm(a)
        assert np.all(np.diff(f.singular_values) <= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestMinNormLstsq:
    """One rank-revealing solve gives the minimum-norm least-squares solution."""

    def test_identity(self):
        x, s, rank = min_norm_lstsq(np.eye(2), np.array([4.0, 5.0]))
        assert np.allclose(x, [4.0, 5.0])
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-14)
        assert rank == 2

    def test_null_space_discarded(self):
        x, s, rank = min_norm_lstsq(np.diag([2.0, 0.0]), np.array([2.0, 9.0]))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(s, [2.0, 0.0], atol=1e-14)
        assert rank == 1

    def test_matches_normal_equations(self, rng):
        a = rng.standard_normal((5, 3))
        v = rng.standard_normal(5)
        expected = np.linalg.solve(a.T @ a, a.T @ v)
        np.testing.assert_allclose(min_norm_lstsq(a, v)[0], expected, rtol=1e-10, atol=1e-12)

    def test_roundtrip_property(self, rng):
        # min_norm_lstsq(a, a x) == x for full column rank, 1e-8 relative
        for _ in range(10):
            d = int(rng.integers(1, 6))
            n = d + int(rng.integers(1, 6))
            a = rng.standard_normal((n, d))
            x = rng.standard_normal(d)
            out = min_norm_lstsq(a, a @ x)[0]
            assert np.linalg.norm(out - x) <= 1e-8 * max(np.linalg.norm(x), 1e-30)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            min_norm_lstsq(np.eye(2), np.ones(3))

    def test_symmetric_projection_mean(self):
        a = np.array([[1.0], [1.0]])
        np.testing.assert_allclose(min_norm_lstsq(a, np.array([0.0, 2.0]))[0], [1.0], atol=1e-14)

    def test_residual_orthogonality(self, rng):
        a = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        x = min_norm_lstsq(a, b)[0]
        sigma_max = np.linalg.svd(a, compute_uv=False)[0]
        assert np.linalg.norm(a.T @ (b - a @ x)) <= 1e-8 * sigma_max * np.linalg.norm(b)

    def test_cutoff_drops_values_at_or_below_it(self):
        # the rule of svd_factor's rank: s > rank_tolerance * s_max is kept
        a = np.diag([1.0, 1.000001e-3, 1e-3, 0.0])
        x, s, rank = min_norm_lstsq(a, np.ones(4), rank_tolerance=1e-3)
        assert rank == 2
        np.testing.assert_allclose(x, [1.0, 1 / 1.000001e-3, 0.0, 0.0], rtol=1e-14)
        np.testing.assert_array_equal(s, [1.0, 1.000001e-3, 1e-3, 0.0])

    def test_rank_tolerance_checked(self):
        # the least-squares solve's cutoff is the only one a caller can set
        with pytest.raises(ValueError, match="rank_tolerance"):
            min_norm_lstsq(np.eye(2), np.ones(2), rank_tolerance=1.0)
        with pytest.raises(ValueError, match="rank_tolerance"):
            make_system(np.eye(2), np.ones(2), rank_tolerance=1.0)


class TestLapackFailure:
    """A LAPACK iteration that does not converge is a ValueError naming the shape."""

    @staticmethod
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    @pytest.mark.parametrize("factor", [svd_factor, spectral_summary])
    def test_svd(self, factor, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", self.fail)
        with pytest.raises(ValueError, match="3x2 matrix"):
            factor(np.ones((3, 2)))

    def test_least_squares(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "lstsq", self.fail)
        with pytest.raises(ValueError, match="3x2 matrix"):
            min_norm_lstsq(np.ones((3, 2)), np.ones(3))

    def test_make_system(self, monkeypatch):
        # the solve is on the 2x2 range factor r of the 3x2 a: both are named
        monkeypatch.setattr(np.linalg, "lstsq", self.fail)
        with pytest.raises(ValueError, match="^least-squares SVD failed to converge for the 2x2 range factor "
                           "of the 3x2 matrix$") as caught:
            make_system(np.eye(3, 2), np.ones(3))
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)


class TestSpectralSummary:
    def test_identity(self):
        s = spectral_summary(np.eye(3))
        assert s.sigma_min_nonzero == pytest.approx(1.0)
        assert s.sigma_max == pytest.approx(1.0)
        assert s.condition == pytest.approx(1.0)
        assert s.frobenius == pytest.approx(np.sqrt(3.0))

    def test_diag(self):
        s = spectral_summary(np.diag([2.0, 1.0]))
        assert s.condition == pytest.approx(2.0)
        assert s.scaled_condition == pytest.approx(np.sqrt(5.0))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            spectral_summary(np.zeros((2, 2)))

    def test_row_normalized_gaussian_condition(self):
        # 300x100 row-normalized Gaussian concentrates near condition 3.7;
        # regenerate on the rare seed that falls outside the accepted window.
        for seed in range(5):
            g = np.random.default_rng(seed).standard_normal((300, 100))
            a = row_standardize(g)[0]
            kappa = spectral_summary(a).condition
            if 3.0 <= kappa <= 4.5:
                break
        assert 3.0 <= kappa <= 4.5

    def test_scaled_condition_sq_at_least_rank(self, rng):
        for _ in range(5):
            a = rng.standard_normal((8, 4))
            s = spectral_summary(a)
            assert s.scaled_condition**2 >= 4 - 1e-9

    @pytest.mark.parametrize("shape, rank", [((30, 8), 8), ((8, 30), 8), ((30, 8), 5), ((12, 12), 1)])
    def test_matches_the_factorization_summary(self, rng, shape, rank):
        # singular values alone give the summary of the full thin SVD, rank cutoff included
        n, d = shape
        a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
        a[:, 0] = 0.0
        f = svd_factor(a)
        expected = _summarize(a, f.singular_values, f.rank)
        got = spectral_summary(a)
        for name in ("sigma_min_nonzero", "sigma_max", "frobenius", "condition", "scaled_condition"):
            assert getattr(got, name) == pytest.approx(getattr(expected, name), rel=1e-12)


class TestValidators:
    def test_as_matrix_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            as_matrix(np.ones(3))

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            as_matrix(np.ones((0, 2)))

    def test_as_vector_rejects_2d(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            as_vector(np.ones((2, 2)))

    def test_as_vector_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector(np.array([1.0, np.inf]))
