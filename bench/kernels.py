"""Computed work of one solver step, from array shapes alone.

Counts are what the seed's step functions ask numpy for, one numpy call at
a time: floating-point operations, and float64 elements each call reads
and writes, times 8 bytes.  They ignore caches and index arrays, so the
byte figures are labelled "computed", not measured.  Comparing the computed
flops with the measured time per step shows whether a step's cost is
arithmetic or interpreter dispatch.
"""

from __future__ import annotations

from blockkaczmarz.solvers import BLOCK, BLOCK_CD, DOUBLE, REK


def _matvec(rows: float, cols: float) -> tuple[float, float]:
    return 2 * rows * cols, rows * cols + cols + rows


def _elementwise(length: float, operands: int = 2) -> tuple[float, float]:
    return length, (operands + 1) * length


def _copy(length: float) -> tuple[float, float]:
    return 0.0, 2 * length


def _dot(length: float) -> tuple[float, float]:
    return 2 * length, 2 * length


def _pinv_apply(rows: float, cols: float, rank: float) -> list[tuple[float, float]]:
    # (u[:, :r].T @ v) / s, then v[:, :r] @ coeff
    return [_matvec(rank, rows), _elementwise(rank), _matvec(cols, rank)]


def _row_block_update(m: float, d: float) -> list[tuple[float, float]]:
    # x + pinv(block) @ (rhs[idx] - block @ x)
    return [_copy(m), _matvec(m, d), _elementwise(m), *_pinv_apply(m, d, min(m, d)), _elementwise(d)]


def step_cost(method: str, n: int, d: int, row_block: float | None, col_block: float | None) -> tuple[float, float]:
    """``(flops, bytes)`` of one step; block sizes are the partition's mean."""
    if method == REK:
        # z -= (col @ z / |col|^2) col ; x += ((b_i - z_i - row @ x) / |row|^2) row
        ops = [_dot(n), _elementwise(n, 1), _elementwise(n), _dot(d), _elementwise(d, 1), _elementwise(d)]
    elif method == BLOCK:
        ops = _row_block_update(row_block, d)
    elif method == DOUBLE:
        c = min(n, col_block)
        # z -= U (U^T z) over the column block, then the row-block update on b - z
        ops = [_matvec(c, n), _matvec(n, c), _elementwise(n), _copy(row_block), _elementwise(row_block)]
        ops += _row_block_update(row_block, d)
    elif method == BLOCK_CD:
        c = col_block
        # w = pinv(A_k) z ; x[idx] += w ; z -= A_k w
        ops = [*_pinv_apply(n, c, min(n, c)), _copy(d), _copy(c), _elementwise(c), _matvec(n, c), _elementwise(n)]
    else:
        raise ValueError(f"no cost model for method {method!r}")
    flops = sum(f for f, _ in ops)
    elements = sum(e for _, e in ops)
    return float(flops), float(8 * elements)
