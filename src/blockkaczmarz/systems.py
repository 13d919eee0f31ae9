"""Least-squares problem instances with precomputed ground truth.

A :class:`LinearSystem` bundles the matrix, the right-hand side, the exact
minimum-norm least-squares solution, and the orthogonal decomposition of the
right-hand side into its components inside and orthogonal to the range of the
matrix.  Solvers treat all of it as read-only; the exact solution is what the
per-epoch error telemetry is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOLERANCE,
    SpectralSummary,
    SvdFactorization,
    as_matrix,
    as_vector,
    pinv_apply,
    summarize_factorization,
    svd_factor,
)


@dataclass(frozen=True)
class LinearSystem:
    """Immutable problem instance ``a x ~ b`` with oracle data.

    ``b_range + b_perp == b`` where ``b_range = a @ x_ls`` lies in the range
    of ``a`` and ``b_perp`` is orthogonal to it; ``norm(b_perp)`` equals the
    least-squares residual norm.  ``s_vt = diag(s) @ v.T`` is the
    ``min(n, d) x d`` tail of the oracle's thin SVD ``a = u diag(s) v.T``, so
    ``norm(a @ e) == norm(s_vt @ e)`` for every ``e`` and the residual of any
    ``x`` is ``sqrt(norm(b_perp)**2 + norm(s_vt @ (x - x_ls))**2)``: an
    O(d^2) product instead of O(n d), for 8 d min(n, d) bytes (1.3 MB on the
    1200 x 400 fig4 matrix).  ``s_vt`` is ``None`` when the oracle's rank
    cutoff drops singular values above ``DEFAULT_RANK_TOLERANCE * s[0]``:
    ``b_perp`` then keeps the components of ``b`` along those directions and
    the identity fails.  The oracle fields may be ``None`` for systems built
    with ``with_oracle=False``, in which case error-based stopping is
    unavailable.
    """

    a: np.ndarray
    b: np.ndarray
    x_ls: np.ndarray | None
    spectral: SpectralSummary | None
    b_range: np.ndarray | None
    b_perp: np.ndarray | None
    s_vt: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]


def make_system(
    a: np.ndarray,
    b: np.ndarray,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
    with_oracle: bool = True,
) -> LinearSystem:
    """Build a :class:`LinearSystem`, solving for the exact solution once.

    The full SVD used for the oracle is computed here (or by the caller of
    :func:`attach_oracle`), so solver timings never include it.
    """
    a = as_matrix(a)
    b = as_vector(b, "b")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: matrix has {a.shape[0]} rows, rhs has {b.shape[0]}")
    system = LinearSystem(a=a, b=b, x_ls=None, spectral=None, b_range=None, b_perp=None)
    return attach_oracle(system, svd_factor(a, rank_tolerance)) if with_oracle else system


def attach_oracle(system: LinearSystem, fact: SvdFactorization) -> LinearSystem:
    """``system`` with its oracle read off ``fact``, a factorization of ``system.a``."""
    spectral = summarize_factorization(system.a, fact)
    x_ls = pinv_apply(fact, system.b)
    b_range = system.a @ x_ls
    s = fact.singular_values
    # b_perp is orthogonal only to the kept directions: s_vt stands in for a
    # only when the dropped singular values are rounding-sized
    exact_range = fact.rank == s.size or s[fact.rank] <= DEFAULT_RANK_TOLERANCE * s[0]
    return replace(system, x_ls=x_ls, spectral=spectral, b_range=b_range, b_perp=system.b - b_range,
                   s_vt=s[:, None] * fact.v.T if exact_range else None)
