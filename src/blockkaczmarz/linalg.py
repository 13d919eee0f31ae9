"""Dense linear algebra substrate shared by the solvers.

Everything here operates on plain float64 numpy arrays: matrices are 2-D
row-major arrays, vectors are 1-D arrays.  All functions are pure and never
mutate their inputs, so factorizations and matrices can be shared freely
across concurrent solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOLERANCE = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array with finite entries."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``a = u @ diag(s) @ v.T`` with a numerical-rank cutoff.

    ``u`` and ``v`` have orthonormal columns, ``singular_values`` is
    nonincreasing, and ``rank`` counts the singular values above
    ``DEFAULT_RANK_TOLERANCE * s_max``.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    rank: int


def svd_factor(a: np.ndarray) -> SvdFactorization:
    """Factor ``a`` by a thin SVD; its rank counts the singular values above
    ``DEFAULT_RANK_TOLERANCE * s_max``.

    Raises
    ------
    ValueError
        On invalid input, and if the underlying LAPACK iteration fails to
        converge (no silent garbage).
    """
    a = as_matrix(a)
    u, s, vt = _svd(a, compute_uv=True)
    return SvdFactorization(u=u, singular_values=s, v=vt.T, rank=_numerical_rank(s))


def _svd(a: np.ndarray, compute_uv: bool):
    """``np.linalg.svd`` of a validated ``a``, thin, with a convergence failure
    raised as ``ValueError``."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed to converge for {a.shape[0]}x{a.shape[1]} matrix") from exc


def _numerical_rank(s: np.ndarray) -> int:
    """Number of singular values above ``DEFAULT_RANK_TOLERANCE * s[0]``."""
    cutoff = DEFAULT_RANK_TOLERANCE * s[0] if s.size else 0.0
    return int(np.count_nonzero(s > cutoff))


def min_norm_lstsq(a: np.ndarray, v: np.ndarray,
                   rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> tuple[np.ndarray, np.ndarray, int]:
    """The minimum-norm least-squares solution of ``a x = v``, with ``a``'s
    singular values and numerical rank, from one rank-revealing LAPACK solve
    (``gelsd``); no singular vector is formed.

    Singular values at or below ``rank_tolerance * s_max`` are treated as
    zero, the rule of :func:`svd_factor` at its default: components of ``v``
    along the dropped directions do not reach ``x``.

    Returns
    -------
    x : (d,) array
    singular_values : (min(n, d),) nonincreasing array
    rank : int

    Raises
    ------
    ValueError
        On invalid input, on a ``rank_tolerance`` outside [0, 1), and if the
        underlying LAPACK iteration fails to converge.
    """
    a, v = as_matrix(a), as_vector(v)
    if not 0.0 <= rank_tolerance < 1.0:
        raise ValueError(f"rank_tolerance must lie in [0, 1), got {rank_tolerance}")
    if v.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: matrix has {a.shape[0]} rows, vector has {v.shape[0]}")
    try:
        x, _, rank, s = np.linalg.lstsq(a, v, rcond=rank_tolerance)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"least-squares SVD failed to converge for {a.shape[0]}x{a.shape[1]} matrix") from exc
    return x, s, int(rank)


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral constants of a matrix derived from its thin SVD.

    ``condition`` is ``sigma_max / sigma_min_nonzero`` and
    ``scaled_condition`` is ``frobenius / sigma_min_nonzero``; the latter
    squared is at least the numerical rank.
    """

    sigma_min_nonzero: float
    sigma_max: float
    frobenius: float
    condition: float
    scaled_condition: float


def spectral_summary(a: np.ndarray) -> SpectralSummary:
    """Compute :class:`SpectralSummary` for a nonzero matrix.

    Only the singular values are computed, not the singular vectors; the rank
    rule is :func:`svd_factor`'s.
    """
    a = as_matrix(a)
    s = _svd(a, compute_uv=False)
    return _summarize(a, s, _numerical_rank(s))


def _summarize(a: np.ndarray, s: np.ndarray, rank: int) -> SpectralSummary:
    """:class:`SpectralSummary` of ``a`` from its nonincreasing singular values
    ``s`` and numerical rank; only the Frobenius norm is read off ``a``."""
    if rank == 0:
        raise ValueError("spectral summary undefined for the zero matrix")
    sigma_max = float(s[0])
    sigma_min = float(s[rank - 1])
    fro = float(np.linalg.norm(a))
    return SpectralSummary(
        sigma_min_nonzero=sigma_min,
        sigma_max=sigma_max,
        frobenius=fro,
        condition=sigma_max / sigma_min,
        scaled_condition=fro / sigma_min,
    )
