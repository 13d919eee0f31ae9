"""Least-squares problem instances with precomputed ground truth.

A :class:`LinearSystem` bundles the matrix, the right-hand side, the exact
minimum-norm least-squares solution, and the orthogonal decomposition of the
right-hand side into its components inside and orthogonal to the range of the
matrix.  Solvers treat all of it as read-only; the exact solution is what the
per-epoch error telemetry is measured against.

A system made by :func:`make_system` is factored once, as the triangular
factor ``T`` of the Householder QR of ``[a | b]`` (``Q`` is never formed).
With ``k = min(n, d)``, ``R = T[:k, :d]`` and ``c = T[:k, d]`` satisfy
``a = Q R`` and ``Q^T b = c`` for a ``Q`` with orthonormal columns, so
``pinv(a) b = pinv(R) c`` and ``pinv(A_l) A_k = pinv(R_l) R_k`` for column
blocks: the oracle and the column-block descent work on ``k`` rows, not
``n`` (:func:`reduced_factor`).
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

    ``triangular`` is ``T``, the triangular factor of ``[a | b]``
    (:func:`triangular_factor`, ``min(n, d + 1) x (d + 1)``), when
    :func:`make_system` computed it for the oracle, and ``None`` otherwise;
    :func:`reduced_factor` reads ``R`` and ``c`` off it, or computes it.
    """

    a: np.ndarray
    b: np.ndarray
    x_ls: np.ndarray | None
    spectral: SpectralSummary | None
    b_range: np.ndarray | None
    b_perp: np.ndarray | None
    s_vt: np.ndarray | None = None
    triangular: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]


def triangular_factor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``T``, the triangular factor of the Householder QR of ``[a | b]``.

    ``Q`` is never formed.  A zero column of ``a`` is an exactly zero
    column of ``T``: every reflection maps a zero vector to zero.
    """
    return np.linalg.qr(np.column_stack((a, b)), mode="r")


def reduced_factor(system: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    """``(R, c)``: the ``k x d`` factor ``R = T[:k, :d]`` and ``c = T[:k, d]``,
    ``k = min(n, d)``, of the system's ``T``, computed here when the system
    has none.

    ``a = Q R`` and ``c = Q^T b`` for a ``Q`` with orthonormal columns.
    ``R`` is a view of ``T`` and ``c`` a copy, so whoever keeps only ``c``
    (or copies of ``R``'s blocks) does not keep ``T``.
    """
    t = system.triangular
    if t is None:
        t = triangular_factor(system.a, system.b)
    k = min(system.n_rows, system.n_cols)
    return t[:k, :-1], t[:k, -1].copy()


def make_system(
    a: np.ndarray,
    b: np.ndarray,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
    with_oracle: bool = True,
) -> LinearSystem:
    """Build a :class:`LinearSystem`, solving for the exact solution once.

    With the oracle, ``[a | b]`` is factored once (:func:`triangular_factor`)
    and the system keeps ``T``; the oracle is the thin SVD of the ``k x d``
    factor ``R`` applied to ``c`` (:func:`reduced_factor`), so no factor with
    ``n`` rows is formed.  Both are computed here, so solver timings never
    include them.  Without the oracle nothing is factored.
    """
    a = as_matrix(a)
    b = as_vector(b, "b")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: matrix has {a.shape[0]} rows, rhs has {b.shape[0]}")
    system = LinearSystem(a=a, b=b, x_ls=None, spectral=None, b_range=None, b_perp=None,
                          triangular=triangular_factor(a, b) if with_oracle else None)
    if not with_oracle:
        return system
    r, c = reduced_factor(system)
    return attach_oracle(system, svd_factor(r, rank_tolerance), c)


def attach_oracle(system: LinearSystem, fact: SvdFactorization, rhs: np.ndarray) -> LinearSystem:
    """``system`` with its oracle read off ``fact`` and ``rhs``.

    ``fact`` factors ``Q^T a`` and ``rhs`` is ``Q^T b``, for any ``Q`` with
    orthonormal columns whose range contains ``a``'s: ``system.a`` itself
    with ``system.b`` (``Q = I``), or :func:`reduced_factor`'s ``R`` with
    ``c``.  Either way ``x_ls = pinv_apply(fact, rhs)``, the singular values
    and ``V`` are ``a``'s, and ``b_range = a @ x_ls``.
    """
    spectral = summarize_factorization(system.a, fact)
    x_ls = pinv_apply(fact, rhs)
    b_range = system.a @ x_ls
    s = fact.singular_values
    # b_perp is orthogonal only to the kept directions: s_vt stands in for a
    # only when the dropped singular values are rounding-sized
    exact_range = fact.rank == s.size or s[fact.rank] <= DEFAULT_RANK_TOLERANCE * s[0]
    return replace(system, x_ls=x_ls, spectral=spectral, b_range=b_range, b_perp=system.b - b_range,
                   s_vt=s[:, None] * fact.v.T if exact_range else None)
