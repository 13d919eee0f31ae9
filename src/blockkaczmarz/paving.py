"""Row/column partitions, standardization, and measured paving parameters.

A ``(p, alpha, beta)`` paving of a matrix is a partition of its rows (or
columns) into ``p`` blocks such that every block submatrix ``B`` satisfies
``alpha <= lambda_min(B B^T)`` and ``lambda_max(B B^T) <= beta``.  Rather than
running a constructive paving algorithm, this module builds random partitions
and *measures* the resulting bounds, which is how well-conditioned blocks are
obtained for row-standardized matrices in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector

ROWS = "rows"
COLUMNS = "columns"


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint index blocks covering ``range(universe_size)``."""

    axis: str
    blocks: tuple[np.ndarray, ...]
    universe_size: int

    def __post_init__(self):
        if self.axis not in (ROWS, COLUMNS):
            raise ValueError(f"axis must be '{ROWS}' or '{COLUMNS}', got {self.axis!r}")
        if not self.blocks:
            raise ValueError("partition needs at least one block")
        seen = np.concatenate([np.asarray(b, dtype=int) for b in self.blocks])
        if any(len(b) == 0 for b in self.blocks):
            raise ValueError("partition blocks must be nonempty")
        if seen.size != self.universe_size or not np.array_equal(np.sort(seen), np.arange(self.universe_size)):
            raise ValueError("blocks must be disjoint and cover the index universe exactly")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class PavingParams:
    """Measured paving size and eigenvalue bounds, tight over the blocks."""

    p: int
    alpha: float
    beta: float


@dataclass(frozen=True)
class DiagonalScaling:
    """Positive diagonal scaling stored as the reciprocals of row/column norms."""

    reciprocals: np.ndarray

    def __post_init__(self):
        r = as_vector(self.reciprocals, "reciprocals")
        if np.any(r <= 0):
            raise ValueError("scaling entries must be positive")


def random_partition(universe_size: int, n_blocks: int, rng: np.random.Generator, axis: str = ROWS) -> Partition:
    """Split a uniformly random permutation of the index universe into blocks.

    Blocks are contiguous chunks of the permutation with sizes differing by at
    most one; the first ``universe_size % n_blocks`` blocks take the extra
    element.  Deterministic for a given generator state.
    """
    if not 1 <= n_blocks <= universe_size:
        raise ValueError(f"need 1 <= n_blocks <= universe_size, got {n_blocks} blocks for {universe_size} indices")
    perm = rng.permutation(universe_size)
    base, extra = divmod(universe_size, n_blocks)
    blocks = []
    start = 0
    for k in range(n_blocks):
        size = base + (1 if k < extra else 0)
        blocks.append(np.array(perm[start:start + size], dtype=int))
        start += size
    return Partition(axis=axis, blocks=tuple(blocks), universe_size=universe_size)


def _check_conformal(a: np.ndarray, partition: Partition) -> None:
    extent = a.shape[0] if partition.axis == ROWS else a.shape[1]
    if partition.universe_size != extent:
        raise ValueError(
            f"partition covers {partition.universe_size} indices but matrix has {extent} along axis '{partition.axis}'"
        )


def block_submatrices(a: np.ndarray, partition: Partition):
    """Yield a contiguous copy of each block submatrix of ``partition``, in
    block order.

    ``a`` is validated once, when the first block is taken; the partition
    already guarantees disjoint in-range indices, so each block is sliced
    without further checks.
    """
    a = as_matrix(a)
    _check_conformal(a, partition)
    for idx in partition.blocks:
        yield np.ascontiguousarray(a[idx] if partition.axis == ROWS else a[:, idx])


def paving_bounds(a: np.ndarray, partition: Partition, singular_values: list[np.ndarray] | None = None) -> PavingParams:
    """Measure the paving parameters of ``partition`` on ``a``.

    For a row partition, each block contributes the extreme eigenvalues of
    ``B B^T`` where ``B`` is the block's row submatrix; a column partition is
    treated as a row partition of ``a.T``.  Eigenvalues are obtained as squared
    singular values of the block, padded with zeros when the block Gram matrix
    is rank-deficient by shape.  ``singular_values``, one nonincreasing array
    per block as a :class:`~blockkaczmarz.solvers.Kernel`'s
    ``singular_values`` holds them, are those already measured on ``a``'s
    blocks: given, ``a`` is not read and no SVD is taken.
    """
    if singular_values is None:
        singular_values = [np.linalg.svd(block, compute_uv=False) for block in block_submatrices(a, partition)]
    alpha = np.inf
    beta = 0.0
    for idx, sv in zip(partition.blocks, singular_values, strict=True):
        eigs = sv**2
        smallest = 0.0 if len(idx) > eigs.size else float(eigs[-1])
        alpha = min(alpha, smallest)
        beta = max(beta, float(eigs[0]))
    return PavingParams(p=partition.n_blocks, alpha=float(alpha), beta=float(beta))


def row_standardize(a: np.ndarray) -> tuple[np.ndarray, DiagonalScaling]:
    """Rescale every row of ``a`` to unit Euclidean norm.

    Returns the standardized matrix together with the diagonal scaling whose
    entries are the reciprocals of the original row norms, so that applying
    the scaling to ``a`` reconstructs the output.
    """
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms == 0):
        raise ValueError(f"cannot standardize: row {int(np.argmin(norms))} is zero")
    return a / norms[:, None], DiagonalScaling(reciprocals=1.0 / norms)


def column_standardize(a: np.ndarray) -> tuple[np.ndarray, DiagonalScaling]:
    """Rescale every column of ``a`` to unit Euclidean norm."""
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0):
        raise ValueError(f"cannot standardize: column {int(np.argmin(norms))} is zero")
    return a / norms[None, :], DiagonalScaling(reciprocals=1.0 / norms)


def unscale_solution(x: np.ndarray, scaling: DiagonalScaling) -> np.ndarray:
    """Map a solution of the column-standardized system back to original coordinates.

    If ``a_std = a @ D`` with ``D = diag(scaling.reciprocals)``, a solve
    against ``a_std`` yields ``D^{-1} x``; this applies ``D`` entrywise to
    undo that.
    """
    x = as_vector(x, "x")
    r = scaling.reciprocals
    if x.shape[0] != r.shape[0]:
        raise ValueError(f"dimension mismatch: solution has {x.shape[0]} entries, scaling has {r.shape[0]}")
    return x * r


def dynamic_range(a: np.ndarray) -> float:
    """Ratio of the largest to the smallest squared row norm."""
    a = as_matrix(a)
    sq = np.einsum("ij,ij->i", a, a)
    smallest = float(sq.min())
    if smallest == 0.0:
        raise ValueError(f"dynamic range undefined: row {int(np.argmin(sq))} is zero")
    return float(sq.max()) / smallest

