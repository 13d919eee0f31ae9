"""Least-squares problem instances with precomputed ground truth.

A :class:`LinearSystem` bundles the matrix, the right-hand side, its range
factor ``(r, c, tau)``, and, with the oracle, the exact minimum-norm
least-squares solution and the orthogonal decomposition of the right-hand
side into its components inside and orthogonal to the range of the matrix.
Solvers treat all of it as read-only; the exact solution is what the
per-epoch error telemetry is measured against.

:func:`make_system` factors every system once, by the Householder QR of
``[a | b]`` (``Q`` is never formed).  With ``k = min(n, d)`` and ``T`` its
upper-trapezoidal factor, ``r = T[:k, :d]`` and ``c = T[:k, d]`` satisfy
``a = Q r`` and ``Q^T b = c`` for a ``Q`` with orthonormal columns, and
``tau = norm(T[k:, d])`` is the norm of the part of ``b`` outside ``Q``'s
range.  So ``norm(b - a x)**2 = tau**2 + norm(c - r x)**2`` for every ``x``,
``pinv(a) b = pinv(r) c``, and ``pinv(A_l) A_k = pinv(R_l) R_k`` for column
blocks: the oracle, the telemetry and the column-block descent work on
``k`` rows, not ``n``.  The oracle is one rank-revealing least-squares solve
of ``r x = c`` (:func:`~blockkaczmarz.linalg.min_norm_lstsq`), which gives
``x_ls`` and ``a``'s singular values and forms no singular vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOLERANCE,
    SpectralSummary,
    _summarize,
    as_matrix,
    as_vector,
    min_norm_lstsq,
)


@dataclass(frozen=True)
class LinearSystem:
    """Immutable problem instance ``a x ~ b`` with its range factor and
    oracle data.

    ``r`` (``k x d``, ``k = min(n, d)``, C-contiguous), ``c`` (``k``) and
    ``tau`` are the range factor of ``[a | b]`` (module docstring): ``a = Q r``,
    ``c = Q^T b`` and ``norm(b - a x)**2 = tau**2 + norm(c - r x)**2`` for
    every ``x``, with nothing dropped by a rank cutoff.  Every system has
    them.

    ``b_range + b_perp == b`` where ``b_range = a @ x_ls`` lies in the range
    of ``a`` and ``b_perp`` is orthogonal to it; ``norm(b_perp)`` equals the
    least-squares residual norm.  The oracle fields are ``None`` for systems
    built with ``with_oracle=False``, in which case error-based stopping is
    unavailable.
    """

    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    c: np.ndarray
    tau: float
    x_ls: np.ndarray | None
    spectral: SpectralSummary | None
    b_range: np.ndarray | None
    b_perp: np.ndarray | None

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

    ``[a | b]`` is factored once, for ``r``, ``c`` and ``tau``.  With the
    oracle, ``x_ls``, the singular values and the rank come from one
    least-squares solve of ``r x = c`` that drops singular values at or
    below ``rank_tolerance * s_max`` and forms no singular vector, so no
    factor with ``n`` rows is formed; ``with_oracle=False`` skips that
    solve.  Both are computed here, so solver timings never include them.
    When the solve's LAPACK iteration fails to converge, the ``ValueError``
    names the shapes of ``r`` and of ``a``.  A zero column of ``a`` is an
    exactly zero column of ``r``: every reflection maps a zero vector to
    zero.
    """
    a = as_matrix(a)
    b = as_vector(b, "b")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: matrix has {a.shape[0]} rows, rhs has {b.shape[0]}")
    t, k = np.linalg.qr(np.column_stack((a, b)), mode="r"), min(a.shape)
    system = LinearSystem(a=a, b=b, r=np.ascontiguousarray(t[:k, :-1]), c=t[:k, -1].copy(),
                          tau=float(np.linalg.norm(t[k:, -1])), x_ls=None, spectral=None, b_range=None, b_perp=None)
    del t  # the system keeps copies only: free T before the least-squares solve
    if not with_oracle:
        return system
    try:
        x_ls, s, rank = min_norm_lstsq(system.r, system.c, rank_tolerance)
    except ValueError as exc:
        if not isinstance(exc.__cause__, np.linalg.LinAlgError):
            raise  # an invalid rank_tolerance
        n, d = a.shape
        raise ValueError(f"least-squares SVD failed to converge for the {k}x{d} range factor of the {n}x{d} "
                         "matrix") from exc.__cause__
    b_range = a @ x_ls
    return replace(system, x_ls=x_ls, spectral=_summarize(a, s, rank), b_range=b_range, b_perp=b - b_range)
