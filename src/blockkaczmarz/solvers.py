"""Randomized Kaczmarz-family iterative solvers.

Five methods share one run loop:

``rk``
    Project onto the hyperplane of one equation per step, with the row
    sampled proportionally to its squared norm.
``rek``
    Extended variant: an auxiliary vector ``z`` (initialized to ``b``) is
    projected off one random column direction per step, which drives ``z``
    to the component of ``b`` orthogonal to the range; the row update then
    solves against ``b - z``, so the iterate converges to the least-squares
    solution even on inconsistent systems.
``block``
    Project onto the solution space of a whole row block at once: the
    block's residual ``r = (b - a x)_k`` first, as one gemv of
    ``[b_k | -A_k]`` on ``[1; x]``, then ``x += r @ pinv(A_k)^T`` through the
    block's precomputed, contiguous ``pinv(A_k)^T`` (not the x-space form,
    which fixes the rounding of ``S^-1`` applied to ``b`` into its fixed
    point); blocks are drawn uniformly from a fixed partition.
``double``
    Block version of ``rek``: a column block projects ``z`` off a slice of
    the range, then the ``block`` step runs against ``b - z``:
    ``x += (b - z - a x)_k @ pinv(A_k)^T``.  Requires both a row and a column
    partition.
``blockcd``
    Block coordinate descent on the least-squares objective: only a column
    partition is needed, and only the coordinates of the chosen column block
    change per step.  Steps run on the blocks' pseudoinverse images of the
    residual, ``pinv(A_l) (b - a x)``, O(d c) each for blocks of ``c``
    columns; the blocks are factored on the system's ``min(n, d) x d``
    range factor ``r``, not on ``a`` (:meth:`Kernel.for_config`).
    ``z = b - a @ x`` is formed at the end of an epoch only when
    one is passed in: :meth:`Kernel.step` always passes one, and :func:`run`
    none, since only its telemetry would read it.

A sixth tag ``hybrid`` (single-column projection + row-block update) exists
only to demonstrate that mismatched projection/update speeds degrade
convergence; it is not a supported method.

All of them are one sketch-and-project update (Gower & Richtarik, 2015): a
step projects ``z`` off a column block (``blockcd``: a descent step on it)
and/or ``x`` onto the solution set of a row block of ``a x = b - z``; single
rows and columns drawn by squared norm are blocks of size one.  As
``z = b - a y``, with ``y`` the sum of the column steps' coefficients, the
column side is ``blockcd``'s descent and the row side ``block``'s step (the
extended Gauss-Seidel view of Ma, Needell & Ramdas, 2015).  :class:`Kernel`
holds that update once: :meth:`Kernel.start` starts a run, whose epochs of
batched draws update ``x`` and ``z`` in place (:meth:`Kernel.apply` is the
first epoch of a new run), and :meth:`Kernel.step` is the one pure step,
with its indices drawn or pinned side by side, column side first.  A run
keeps its own state (the block methods: one carried run that keeps the
descent coordinates in block order and ``h``, and the row side's
``[1; x]``, across epochs); nothing writes into a system's arrays, a
:class:`BlockPlan` or a kernel's operands, so independent runs can share
them, even at once:
:meth:`Kernel.build` factors every block of a fixed partition once and
drops the plans, and :func:`run` takes such a kernel through
:attr:`MethodConfig.kernel`, as :func:`~blockkaczmarz.harness.prepare_method`
makes one per experiment arm for all of its trials.

The single-row and single-column sides (``rk``, ``rek``) run a chunk of
steps as one triangular solve, a single step as a chunk of one: a run of
Kaczmarz steps is one forward substitution on the Gram matrix of its rows
(Bjorck & Elfving, BIT 1979), and ``rek``'s column side is the same on the
columns.  The iterates are those of the steps taken one by one, up to
rounding.  The block sides run step by step in one loop, each step only its
``np.dot`` calls and in-place updates on operands that :meth:`Kernel.build`
made for every block of the partition, once per kernel, each writing into a
buffer of the run: three numpy calls per ``blockcd`` descent step, and three
per ``block`` row step (four against ``b - z``).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import SvdFactorization, as_vector, svd_factor
from .paving import COLUMNS, ROWS, Partition, block_submatrices
from .systems import LinearSystem

RK = "rk"
REK = "rek"
BLOCK = "block"
DOUBLE = "double"
BLOCK_CD = "blockcd"
HYBRID = "hybrid"

METHODS = (RK, REK, BLOCK, DOUBLE, BLOCK_CD)


class ConfigError(ValueError):
    """Raised when a method configuration is inconsistent before any step runs."""


@dataclass(frozen=True)
class SolverState:
    """Iterate ``x``, auxiliary vector ``z`` (``None`` for methods without one),
    and the indices sampled by the most recent step (diagnostics only)."""

    x: np.ndarray
    z: np.ndarray | None
    iteration: int = 0
    last_row: int | None = None
    last_col: int | None = None
    last_row_block: int | None = None
    last_col_block: int | None = None


@dataclass(frozen=True)
class StopRule:
    """Halt after ``max_epochs`` epochs or once the epoch error reaches
    ``error_threshold``.

    The threshold applies to the solution error when an exact solution (or an
    ``error_fn``) is available, and otherwise to epoch-over-epoch residual
    stagnation: the run halts once the relative residual change over one
    epoch drops to the threshold.
    """

    max_epochs: int
    error_threshold: float

    def __post_init__(self):
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if not self.error_threshold > 0:
            raise ConfigError(f"error_threshold must be positive, got {self.error_threshold}")


@dataclass(frozen=True)
class MethodConfig:
    """Which method to run, its partitions, and the seed of its random stream.

    ``kernel`` optionally carries a :class:`Kernel` built for this method,
    system and partitions (:meth:`Kernel.for_config`), shared by every run
    of the config; it takes no part in comparisons or the repr.
    """

    method: str
    row_partition: Partition | None = None
    col_partition: Partition | None = None
    seed: int = 0
    kernel: Kernel | None = field(default=None, compare=False, repr=False)

    def validate(self, n_rows: int, n_cols: int) -> None:
        _check_taken(self.method, self.row_partition is not None, self.col_partition is not None)
        if self.row_partition is not None:
            if self.row_partition.axis != ROWS or self.row_partition.universe_size != n_rows:
                raise ConfigError("row partition does not match the system's rows")
        if self.col_partition is not None:
            if self.col_partition.axis != COLUMNS or self.col_partition.universe_size != n_cols:
                raise ConfigError("column partition does not match the system's columns")


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    error_l2: float
    residual_l2: float
    z_error_l2: float | None
    cpu_seconds: float


@dataclass
class Trace:
    """Per-epoch telemetry of one solver run."""

    method: str
    rows: list[TraceRow] = field(default_factory=list)
    final_x: np.ndarray | None = None
    converged: bool = False

    @property
    def final_error(self) -> float:
        return self.rows[-1].error_l2

    @property
    def final_epoch(self) -> int:
        return self.rows[-1].epoch


class NormSampler:
    """Draw indices with probability proportional to given squared norms.

    Zero weights are allowed and never drawn: the search on the cumulative
    sum lands right of every flat step.  Only all-zero weights are rejected.
    """

    def __init__(self, sq_norms: np.ndarray):
        sq_norms = as_vector(sq_norms, "sq_norms")
        if np.any(sq_norms < 0) or not np.any(sq_norms > 0):
            raise ValueError("squared norms must be nonnegative and not all zero")
        self.sq_norms = sq_norms
        self._cdf = np.cumsum(sq_norms)

    def draw(self, rng: np.random.Generator, size: int | None = None):
        """One index, or an array of ``size`` indices."""
        return self.locate(rng.random(size))

    def locate(self, u):
        """Map uniform draws in ``[0, 1)`` to indices."""
        k = np.searchsorted(self._cdf, u * self._cdf[-1], side="right")
        return int(k) if np.ndim(k) == 0 else k


@dataclass(frozen=True)
class BlockPlan:
    """A partition with its block submatrices and SVDs.

    A :class:`Kernel` builds its step operands from its plans and drops them
    once built (:meth:`Kernel.build`).
    """

    partition: Partition
    submatrices: tuple[np.ndarray, ...]
    factorizations: tuple[SvdFactorization, ...]


def make_block_plan(a: np.ndarray, partition: Partition) -> BlockPlan:
    subs = tuple(block_submatrices(a, partition))
    return BlockPlan(partition=partition, submatrices=subs, factorizations=tuple(svd_factor(sub) for sub in subs))


def _factors(plan: BlockPlan):
    """Per block: ``U``, ``V`` and singular values cut to the numerical rank,
    as views of the plan's factorizations."""
    facts = plan.factorizations
    return ([f.u[:, : f.rank] for f in facts], [f.v[:, : f.rank] for f in facts],
            [f.singular_values[: f.rank] for f in facts])


def _clear_zero_columns(sub: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v`` with the rows of ``sub``'s zero columns cleared.

    A zero column's row of ``V`` is only roundoff-small; cleared, that
    coordinate of ``x`` stays exactly 0 under ``pinv(A_k) = V S^-1 U^T``.
    """
    return np.where(sub.any(axis=0)[:, None], v, 0.0)


class _PinvDescent:
    """Block coordinate descent on the least-squares objective, run on the
    block pseudoinverse images of the residual.

    A step on column block ``k`` of ``B`` solves the block's least-squares
    problem against ``z = b - B y``: it adds ``w = pinv(B_k) z`` to the
    block's coordinates of ``y`` (the block's rank cutoff kept), which
    removes ``B_k w`` from ``z``.  So a step needs only
    ``h = [pinv(B_l) z]_l``, stacked over all blocks, which it updates by
    ``M[:, j] w`` with ``M = [pinv(B_l) B]_l``.  With the coordinates in
    block order, so that block ``k`` is the slice ``j``, and ``C = M^T``, the
    step is ``w = h[j]; y[j] += w; h -= w @ C[j]``: O(c d) work on views,
    against O(n c) for the same step on ``z``.  :class:`_DescentRun` takes it.

    ``blockcd`` descends on ``B = a``, with ``y = x``
    (``double`` and ``hybrid`` on the blocks' bases: :class:`_RowBlocks`).
    The descent reads ``a`` only through ``pinv(A_l) A_k`` and
    ``h_b = [pinv(A_l) b]_l``, and for any ``Q`` with orthonormal columns and
    ``a = Q F``, they are ``pinv(F_l) F_k`` and ``pinv(F_l) Q^T b``.  So
    ``cols`` plans the column blocks of such an ``F`` and ``qtb`` is
    ``Q^T b``: :meth:`Kernel.for_config` plans them on the system's
    ``k x d`` range factor ``R = system.r``, ``k = min(n, d)``, with
    ``qtb = system.c``, and a plan of ``a`` itself takes ``qtb = b``.
    ``M_lk = V_l S_l^-1 (U_l^T U_k) S_k V_k^T`` is built from the blocks' SVD
    factors, so the overlap ``U_l^T U_k`` is ``k x k`` on ``R``, not
    ``n x n``.  The ``U_l`` are orthonormal, so rounding in ``h`` grows by
    at most ``cond(A_k)`` per step, as on ``z``.  Built from ``a^T a``
    instead, it would grow by ``cond(A_k)^2`` and diverge on nearly
    collinear blocks.  A block's zero column is an exactly zero column of
    ``R``, so its coordinate of ``x`` stays exactly 0 either way.

    :meth:`build` makes ``C``, its block rows as views, and ``h_b``
    (O(d^2) memory), and drops the plan and ``qtb``; nothing of a run is
    kept here.  :meth:`start` gives a run its own :class:`_DescentRun` on
    ``y = x`` in block order, with ``h0 = h_b``; each epoch ends by
    scattering ``y`` into ``x`` (O(d)).  The ``z`` passed in is not read:
    when it is an array, it is set to ``b - a x`` at each epoch's end (an
    O(n d) gemv), and when it is ``None``, no residual is formed and ``x``
    is the same.
    """

    def __init__(self, a, b, cols: BlockPlan, qtb):
        self._a, self._b, self._cols, self._qtb = a, b, cols, qtb
        blocks = cols.partition.blocks
        self._perm = np.concatenate(blocks)
        self._slices = _slices([len(idx) for idx in blocks])

    def build(self) -> None:
        u, v, s = _factors(self._cols)
        ranks = _slices([sk.size for sk in s])
        left, right = [], []
        for sub, vk, sk in zip(self._cols.submatrices, v, s):
            vk = _clear_zero_columns(sub, vk)
            left.append(vk / sk)
            right.append(vk * sk)
        # overlap[r_l, r_k] = U_l^T U_k; half[:, j_l] = overlap[:, r_l] S_l^-1 V_l^T
        ut = np.concatenate(u, axis=1)
        # the plan is read: its blocks and U factors go before the d x d arrays
        self._cols = None
        del u, v
        overlap, utb = ut.T @ ut, ut.T @ self._qtb
        self._qtb = None
        del ut  # free it before the d x d arrays
        d = self._perm.size
        half = np.empty((overlap.shape[0], d))
        for j, r, lk in zip(self._slices, ranks, left):
            half[:, j] = overlap[:, r] @ lk.T
        self._c, self._hb = np.empty((d, d)), np.empty(d)
        for j, r, lk, rk in zip(self._slices, ranks, left, right):
            self._c[j] = rk @ half[r]
            self._hb[j] = lk @ utb[r]
        self._cv = [self._c[j] for j in self._slices]

    def start(self, x, z) -> _DescentRun:
        y = x[self._perm]

        def end() -> None:
            x[self._perm] = y
            if z is not None:
                np.subtract(self._b, np.dot(self._a, x), out=z)

        return _DescentRun(self, y, self._hb, end)


# Epochs between refreshes of a descent run's carried h from its iterate.
_REFRESH = 10


class _DescentRun:
    """One run of a built block engine (:class:`_PinvDescent` or
    :class:`_RowBlocks`), and its epoch callable.

    A step is a descent step on column block ``l``, then a row step on row
    block ``k``; a run takes the sides its method has.  The descent state is
    the coordinates in block order, :attr:`y`; the carried :attr:`h`; and
    per-block views of both.  ``h`` is set to ``h0 - y C`` (a gemv on ``C``)
    at the first epoch and then every ``_REFRESH`` epochs, with :attr:`h0`
    the ``h`` of ``y = 0``, taken once per run; in between it drifts by
    rounding, at most ``cond(B_l)`` per step.  ``rows`` are the operands,
    views and buffers of the row step (:meth:`_RowBlocks.start`), all
    ``None`` for ``blockcd``, which has no row side; ``block`` has no column
    blocks, so its runs take no descent step and no refresh.  ``end`` writes
    the run's ``x`` and ``z`` at each epoch's end.

    Every call writes into a prebuilt array passed as its positional output,
    so a step allocates nothing and parses no keyword: ``w = h[l]`` is read
    by ``y[l] += w`` and by ``w @ C[l]`` into a buffer before ``h -=`` that
    buffer writes ``h``.
    """

    def __init__(self, engine, y, h0, end, rows=(None,) * 7):
        self.y, self.h0, self.h = y, h0, np.empty(y.size)
        self._c, self._cv, self._end, self._rows = engine._c, engine._cv, end, rows
        self._hv = [self.h[j] for j in engine._slices]
        self._yv = [y[j] for j in engine._slices]
        self._tmp = np.empty(y.size)
        self._epochs = 0

    def __call__(self, indices) -> None:
        h, y, hv, yv, cv, tmp = self.h, self.y, self._hv, self._yv, self._cv, self._tmp
        dot, add, subtract = np.dot, np.add, np.subtract
        if cv and self._epochs % _REFRESH == 0:
            subtract(self.h0, dot(y, self._c, tmp), h)
        self._epochs += 1
        folded, lifted, v, x1, zv, rv, dx = self._rows
        # the column side draws indices[0]; indices[-1] is the row side's
        # (a method with one side draws one list: k is l, or l is k)
        for l, k in zip(indices[0], indices[-1]):
            if cv:
                w = hv[l]
                add(yv[l], w, yv[l])
                subtract(h, dot(w, cv[l], tmp), h)
            if folded:
                rk = dot(folded[k], v, rv[k])
                if zv:
                    subtract(rk, zv[k], rk)
                add(x1, dot(rk, lifted[k], dx), x1)
        self._end()


def _slices(sizes) -> list[slice]:
    """Consecutive slices of the given sizes."""
    ends = list(itertools.accumulate(sizes))
    return [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]


class _RowBlocks:
    """``block``, ``double`` and ``hybrid``: per step, :class:`_PinvDescent`'s
    step on the column side's bases, when the method has one, then the
    projection of ``x`` onto the solution set of row block ``k`` of
    ``a x = b - z`` (``block`` has no column side, and ``z`` is 0).

    The row step forms the block's residual first and applies the block
    pseudoinverse to it, ``P_k = pinv(A_k)^T = U_k S_k^-1 V_k^T`` (Needell &
    Tropp, 2014), built from the plan's SVD factors with the rank cutoff
    kept.  The residual folds into the same gemv: ``x`` runs as ``[1; x]``,
    and ``block``'s step is ``r = [b_k | -A_k] [1; x]`` and
    ``[1; x] += r @ [0 | P_k]``, three numpy calls.  This is still residual
    first.  The x-space form ``x += (S^-1 U^T b_k - V_k^T x) V_k^T`` is as
    fast, but it applies ``S^-1`` to ``b`` once and fixes that rounding into
    its fixed point: on blocks of near-duplicate rows its error floor was up
    to 28 times that of the residual-first step.

    The column side descends on ``B = U``, the orthonormal bases ``U_l`` of
    the column blocks (of the single columns, ``a_j / |a_j|``, when ``cols``
    is the column :class:`NormSampler`): there ``pinv(U_l) = U_l^T``,
    ``C = U^T U`` and ``h = U^T z``.  The coordinates ``t`` keep
    ``z = z_0 - U t`` as accurate as the projections ``z -= U_l U_l^T z``; on
    ``a``'s blocks, ``z -= A_l w`` would lose ``cond(A_l)`` digits.

    :meth:`build` makes ``U^T`` and ``C`` (O(n d) memory; empty without a
    column side), the contiguous :attr:`folded` ``[b_k | -A_k | U_k]``, with
    ``U_k`` the block's rows of ``U``, and :attr:`lifted` ``[0 | P_k]``, and
    drops the plans.
    """

    def __init__(self, a, b, rows: BlockPlan, cols):
        self._a, self._b, self._rows, self._cols = a, b, rows, cols

    def build(self) -> None:
        a, rows, cols = self._a, self._rows, self._cols
        if isinstance(cols, NormSampler):
            norms = np.sqrt(cols.sq_norms)
            # a zero column has an empty basis: its steps leave z and t alone
            bases = [a[:, [j]] / nj if nj else a[:, :0] for j, nj in enumerate(norms)]
        else:
            bases = [] if cols is None else _factors(cols)[0]
        self._rows = self._cols = None
        self._slices = _slices([u.shape[1] for u in bases])
        # n x 0 bases without a column side
        ut = self._ut = np.concatenate([a[:, :0], *bases], axis=1).T.copy()
        self._c = ut @ ut.T
        self._cv = [self._c[j] for j in self._slices]
        rows_of, subs = rows.partition.blocks, rows.submatrices
        bks = [self._b[i] for i in rows_of]
        self.folded = [np.hstack((bk[:, None], -sub, ut.T[i])) for i, bk, sub in zip(rows_of, bks, subs)]
        self.lifted = [np.hstack((np.zeros((len(bk), 1)), _pinv_transpose(sub, f)))
                       for bk, sub, f in zip(bks, subs, rows.factorizations)]
        self._row_order, self._row_slices = np.concatenate(rows_of), _slices([len(i) for i in rows_of])

    def start(self, x, z) -> _DescentRun:
        """A run on ``x`` and, with a column side, on ``z`` from ``z_0``, the
        ``z`` passed in: its :class:`_DescentRun` on ``t``, with
        ``h0 = U^T z_0``, and the row step.  After the descent steps so far
        ``z = z_0 - U t``, so the row residual ``(b - z - a x)_k`` is
        ``[b_k | -A_k | U_k] [1; x; t] - (z_0)_k``: the run keeps
        ``v = [1; x; t]``, ``z_0`` gathered into row-block order once, and a
        view of each for every block, and writes each dot into a buffer.
        Each epoch ends with ``x`` set from ``v`` and ``z = z_0 - U t``, one
        n x d gemv.  Without a column side (``block``) ``t`` is empty, and
        ``z`` is neither read nor written."""
        ut = self._ut
        v = np.concatenate(([1.0], x, np.zeros(ut.shape[0])))
        x1, t = v[: x.size + 1], v[x.size + 1 :]
        r = np.empty(self._b.size)
        rv, z0, zv, h0 = [r[i] for i in self._row_slices], None, None, None
        if self._cv:
            z0, zr = z.copy(), z[self._row_order]
            zv, h0 = [zr[i] for i in self._row_slices], np.dot(ut, z0)

        def end() -> None:
            x[:] = x1[1:]
            if z0 is not None:
                np.subtract(z0, np.dot(ut.T, t), out=z)

        return _DescentRun(self, t, h0, end, (self.folded, self.lifted, v, x1, zv, rv, np.empty(x1.size)))


def _pinv_transpose(sub: np.ndarray, f: SvdFactorization) -> np.ndarray:
    """``pinv(sub)^T = U S^-1 V^T`` over the numerical rank, C-contiguous, with
    the columns of ``sub``'s zero columns exactly 0."""
    r = f.rank
    return (f.u[:, :r] / f.singular_values[:r]) @ _clear_zero_columns(sub, f.v[:, :r]).T


# Steps per triangular solve of the single-row and single-column sides.
_CHUNK = 32
_TRI = np.tri(_CHUNK)


class _NormChunks:
    """``rk`` and ``rek`` steps run a chunk at a time; a single step is a
    chunk of one.

    Sequential Kaczmarz steps on rows ``I = (i_1..i_m)`` are one forward
    substitution (Bjorck & Elfving, BIT 1979): the coefficients ``c`` solve
    ``tril(a_I a_I^T) c = b_I - z_I - a_I x``, then ``x += c @ a_I``.  The
    column side on ``J = (j_1..j_m)`` is the same on ``a^T``:
    ``tril(a_J^T a_J) e = a_J^T z``, then ``z -= e @ a_J^T``.  Row step ``t``
    reads ``z`` after column step ``t``, which adds the inclusive lower
    triangle of ``a[I][:, J]`` applied to ``e`` to the row side's right-hand
    side.  The diagonals are the squared norms, which are never zero for a
    drawn index, so both triangles are nonsingular.

    The column side reads a contiguous ``a^T`` and gathers each chunk's Gram
    from ``a^T a``, both made by :meth:`build`; for wide systems (more
    columns than rows) the chunk's Gram is computed instead, to keep memory
    O(n d).
    """

    def __init__(self, a, b, columns: bool):
        self._a, self._b, self._columns = a, b, columns

    def build(self) -> None:
        self._at = self._ata = None
        if self._columns:
            a = self._a
            self._at = np.ascontiguousarray(a.T)
            self._ata = self._at @ a if a.shape[1] <= a.shape[0] else None

    def start(self, x, z):
        return lambda indices: self(indices, x, z)

    def __call__(self, indices, x, z) -> None:
        a, b, at, ata = self._a, self._b, self._at, self._ata
        rows, cols = np.asarray(indices[-1]), np.asarray(indices[0])
        for lo in range(0, rows.size, _CHUNK):
            i = rows[lo : lo + _CHUNK]
            tri = _TRI[: i.size, : i.size]
            a_i = a.take(i, 0)
            rhs = b[i] - a_i @ x
            if self._columns:
                j = cols[lo : lo + _CHUNK]
                at_j = at.take(j, 0)
                gram = at_j @ at_j.T if ata is None else ata.take(j, 0).take(j, 1)
                e = np.linalg.solve(gram * tri, at_j @ z)
                rhs += (a_i.take(j, 1) * tri) @ e - z[i]
                z -= e @ at_j
            x += np.linalg.solve((a_i @ a_i.T) * tri, rhs) @ a_i


# How each method's column side and row side pick their block: a single
# column or row by squared norm, a block of a partition that the method takes
# uniformly, or no such side (None).
_NORM, _BLOCKS = "norm", "blocks"
_SKETCH = {
    RK: (None, _NORM),
    REK: (_NORM, _NORM),
    BLOCK: (None, _BLOCKS),
    DOUBLE: (_BLOCKS, _BLOCKS),
    HYBRID: (_NORM, _BLOCKS),
    BLOCK_CD: (_BLOCKS, None),
}


def _partitions_taken(method: str) -> tuple[bool, bool]:
    """Whether ``method`` takes a row partition, and whether it takes a
    column partition; :class:`ConfigError` for an unknown method."""
    if method not in _SKETCH:
        raise ConfigError(f"unknown method {method!r}")
    col, row = _SKETCH[method]
    return row == _BLOCKS, col == _BLOCKS


def _check_taken(method: str, has_row: bool, has_col: bool) -> None:
    """Raise :class:`ConfigError` unless ``method`` is given exactly the
    partitions (or plans) it takes."""
    sides = list(zip(_partitions_taken(method), (has_row, has_col), ("row", "column")))
    for needs, has, name in sides:
        if needs and not has:
            raise ConfigError(f"method {method!r} requires a {name} partition")
    for needs, has, name in sides:
        if has and not needs:
            raise ConfigError(f"method {method!r} does not take a {name} partition")


class Kernel:
    """The in-place sketch-and-project update of one method on one system:
    its draws plus one engine.

    The draws: each side of a step picks one block, a single row or column
    of ``a`` drawn by squared norm, or a block of the :class:`BlockPlan`
    passed as ``rows`` or ``cols``, drawn uniformly; which one is the
    method's (``_SKETCH``).  A missing or extra plan raises
    :class:`ConfigError`, as a partition does in
    :meth:`MethodConfig.validate`.

    The engine runs the drawn steps on ``x`` and ``z``; each of the three
    has ``build()`` and ``start(x, z)``, which returns a run's epoch
    callable.  The kernel holds no run's state, so runs can share it, even
    at once.  ``rk`` and ``rek`` (single rows and columns only) run chunks
    of steps as triangular solves (:class:`_NormChunks`), a single step as a
    chunk of one; their runs call the engine on ``x`` and ``z``.  The runs
    of the block methods are one :class:`_DescentRun` each, which keeps its
    state between epochs: ``blockcd`` runs the descent of
    :class:`_PinvDescent`, and ``block``, ``double`` and ``hybrid`` the
    folded row step of :class:`_RowBlocks`, after the descent on the column
    blocks' bases for the two with a column side (``hybrid``'s on single
    columns, on the column norms of its :class:`NormSampler`).  Each step is
    only its BLAS calls on operands that :meth:`build` made for every block,
    once, before the first step.

    ``method``, ``a``, ``b`` and the two partitions (``None`` for a side
    drawn by squared norm) record what the kernel was built for.  The kernel
    owns its blocks' spectra: ``singular_values`` maps the axis of each of
    its partitions to each block's singular values, as :func:`svd_factor`
    gave them and not cut to rank (O(d) floats, kept after :meth:`build`
    drops the plans), for the envelopes' pavings
    (:func:`~blockkaczmarz.paving.paving_bounds`).  ``blockcd``'s ``cols``
    may plan the column blocks of ``Q^T a`` for any ``Q`` with orthonormal
    columns whose range contains ``a``'s, with ``qtb = Q^T b``
    (:class:`_PinvDescent`); without ``qtb`` they plan ``a``'s own, and
    ``qtb`` is ``b``.  Every other side plans ``a``'s blocks.
    """

    def __init__(self, method: str, a, b: np.ndarray, rows=None, cols=None, qtb=None):
        _check_taken(method, rows is not None, cols is not None)
        col_side, row_side = _SKETCH[method]
        sides = [(side, plan, name, sq) for side, plan, name, sq in
                 ((col_side, cols, "col", "ij,ij->j"), (row_side, rows, "row", "ij,ij->i")) if side is not None]
        self._picks = [NormSampler(np.einsum(sq, a, a)) if side == _NORM else plan.partition for side, plan, _, sq in sides]
        self._fields = [f"last_{name}" if side == _NORM else f"last_{name}_block" for side, _, name, _ in sides]
        self.method, self.a, self.b = method, a, b
        self.row_partition = None if rows is None else rows.partition
        self.col_partition = None if cols is None else cols.partition
        self.singular_values = {p.partition.axis: [f.singular_values for f in p.factorizations] for p in (rows, cols) if p}
        if row_side == _NORM:
            self._engine = _NormChunks(a, b, columns=col_side is not None)
        elif row_side is None:
            self._engine = _PinvDescent(a, b, cols, b if qtb is None else qtb)
        else:
            self._engine = _RowBlocks(a, b, rows, self._picks[0] if col_side == _NORM else cols)
        self._built = False

    @classmethod
    def for_config(cls, system: LinearSystem, config: MethodConfig) -> Kernel:
        """The kernel of ``config``'s method on ``system``, with a
        :func:`make_block_plan` for each of its partitions.

        ``blockcd`` plans its column blocks on the system's ``k x d`` range
        factor ``r`` (``k = min(n, d)``) and descends against its ``c``; the
        kernel keeps only copies of ``r``'s blocks, and neither ``r`` nor
        ``c`` once built.  Every other method plans ``a``'s blocks: its
        steps read ``a``'s rows or live in ``n``-space.

        Raises :class:`ConfigError` when ``config`` does not fit ``system``.
        """
        config.validate(system.n_rows, system.n_cols)
        a, qtb = (system.r, system.c) if config.method == BLOCK_CD else (system.a, None)
        plan = lambda part: None if part is None else make_block_plan(a, part)
        return cls(config.method, system.a, system.b, rows=plan(config.row_partition), cols=plan(config.col_partition),
                   qtb=qtb)

    def build(self) -> Kernel:
        """Build the operands of every block, and drop the plans.

        The first :meth:`start` calls it when nobody has; later calls do
        nothing.  What is left is only what the steps read (for ``blockcd``:
        the column order, its block slices, ``C``, its block rows as views,
        and ``h_b``), so one kernel can serve many runs at the memory of one.
        Returns the kernel.
        """
        if not self._built:
            self._engine.build()
            self._built = True
        return self

    def check(self, system: LinearSystem, config: MethodConfig) -> None:
        """Raise :class:`ConfigError` unless the kernel was built for
        ``config``'s method and partitions on ``system``'s arrays."""
        if self.method != config.method:
            raise ConfigError(f"kernel was built for method {self.method!r}, not {config.method!r}")
        if self.a is not system.a or self.b is not system.b:
            raise ConfigError("kernel was built for another system's arrays")
        if self.row_partition is not config.row_partition or self.col_partition is not config.col_partition:
            raise ConfigError("kernel was built for other partitions")

    def draw(self, rng: np.random.Generator, steps: int) -> list[list[int]]:
        """Block indices of ``steps`` steps, one list per side.

        The stream is the same as drawing each step's indices in turn, side
        by side, with one scalar draw each.
        """
        picks = self._picks
        weighted = [isinstance(p, NormSampler) for p in picks]
        if all(weighted):
            u = rng.random((steps, len(picks)))
            return [p.locate(u[:, j]).tolist() for j, p in enumerate(picks)]
        if len(picks) == 1:
            return [rng.integers(picks[0].n_blocks, size=steps).tolist()]
        if not any(weighted):
            return rng.integers([p.n_blocks for p in picks], size=(steps, len(picks))).T.tolist()
        # norm and uniform draws interleave (hybrid): draw step by step
        ks = [[p.draw(rng) if w else int(rng.integers(p.n_blocks)) for p, w in zip(picks, weighted)] for _ in range(steps)]
        return [[k[j] for k in ks] for j in range(len(picks))]

    def start(self, x: np.ndarray, z: np.ndarray | None):
        """A run on ``x`` and ``z``: a callable that runs the steps
        ``indices`` (as from :meth:`draw`) on them in place, one epoch per
        call.

        The run owns what it carries between its epochs (the block methods:
        the descent coordinates in block order and ``h``, refreshed every
        ``_REFRESH`` epochs, and the row side's ``[1; x]``; ``x`` and, for
        the bases, ``z`` are written at each epoch's end but never read
        back), so ``x`` and ``z`` change only through the run's calls.
        """
        return self.build()._engine.start(x, z)

    def apply(self, x: np.ndarray, z: np.ndarray | None, indices: list[list[int]]) -> None:
        """Run the steps ``indices`` (as from :meth:`draw`) on ``x`` and ``z``
        in place, as the first epoch of a new run."""
        self.start(x, z)(indices)

    def step(self, state: SolverState, rng: np.random.Generator, *pinned) -> SolverState:
        """One pure step from ``state``: the step :meth:`apply` takes, on copies.

        ``pinned`` gives the step's indices side by side, column side first:
        ``Kernel(REK, a, b).step(state, rng, j, i)`` projects ``z`` off
        column ``j``, then ``x`` onto row ``i``.  ``None``, or no indices at
        all, draws them as :meth:`draw` does.  A pinned index must be an
        integer in range and, on a side drawn by squared norm, pick a
        nonzero row or column.  The indices go to the ``last_*`` fields.
        """
        sides = [name.removeprefix("last_").replace("_", " ") for name in self._fields]
        pinned = pinned or (None,) * len(sides)
        if len(pinned) != len(sides):
            raise ValueError(f"a {self.method!r} step has {len(sides)} side(s) to pin "
                             f"({', '.join(sides)}), got {len(pinned)} indices")
        drawn = self.draw(rng, 1) if any(k is None for k in pinned) else [[None]] * len(pinned)
        ks = [d[0] if k is None else _check_pinned(k, pick, side)
              for k, d, pick, side in zip(pinned, drawn, self._picks, sides)]
        x, z = state.x.copy(), None if state.z is None else state.z.copy()
        self.apply(x, z, [[k] for k in ks])
        return replace(state, x=x, z=z, iteration=state.iteration + 1, **dict(zip(self._fields, ks)))


def _check_pinned(k, pick, side: str) -> int:
    """``k`` as an index that ``pick`` can draw, or a ``ValueError`` naming ``side``."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"pinned {side} index must be an integer, got {k!r}")
    weighted = isinstance(pick, NormSampler)
    size = pick.sq_norms.size if weighted else pick.n_blocks
    if not 0 <= k < size:
        raise ValueError(f"pinned {side} index {k} is outside [0, {size})")
    if weighted and pick.sq_norms[k] == 0:
        raise ValueError(f"pinned {side} {k} has zero norm and is never drawn")
    return int(k)


def epoch_length(method: str, n_rows: int, row_blocks: int | None = None, col_blocks: int | None = None) -> int:
    """Number of iterations that counts as one epoch (one sweep through the rows).

    Row methods take ``n_rows`` iterations per epoch, block row methods one
    iteration per row block, and the column-block method ``ceil(n/p)``
    iterations where ``p`` is the number of column blocks.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be positive")
    if method not in _SKETCH:
        raise ValueError(f"unknown method {method!r}")
    row_side = _SKETCH[method][1]
    if row_side == _NORM:
        return n_rows
    if row_side == _BLOCKS:
        if not row_blocks or row_blocks < 1:
            raise ValueError(f"method {method!r} needs a positive row block count")
        return row_blocks
    if not col_blocks or col_blocks < 1:
        raise ValueError(f"method {method!r} needs a positive column block count")
    return -(-n_rows // col_blocks)


def initial_state(system: LinearSystem, method: str) -> SolverState:
    """Zero iterate, with ``z`` initialized to ``b`` for methods that carry one."""
    z = system.b.copy() if _SKETCH[method][0] is not None else None
    return SolverState(x=np.zeros(system.n_cols), z=z)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a 1-D float array, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v.dot(v))


# Epochs of e = x - x_ls that a run with an oracle keeps for one product.
_BATCH = 512


def run(system: LinearSystem, config: MethodConfig, stop: StopRule, error_fn=None) -> Trace:
    """Run one method on one system, recording one trace row per epoch.

    Parameters
    ----------
    system : LinearSystem
    config : MethodConfig
        Fully determines the method and its random stream; two runs with the
        same config on the same system produce identical traces except for
        ``cpu_seconds``.  The run steps through ``config.kernel`` when it has
        one, which must have been built for this method and these partitions
        on ``system``'s arrays (:class:`ConfigError` otherwise), and through
        a kernel of its own, from :meth:`Kernel.for_config`, when not.
        Either way the iterates are the same.
    stop : StopRule
    error_fn : callable, optional
        Maps the iterate to the reported error; defaults to the distance to
        ``system.x_ls``.  Used e.g. to report errors in original coordinates
        when solving a column-rescaled system.

    Returns
    -------
    Trace
        Rows for epoch 0 (initial state) through the stopping epoch.
        ``cpu_seconds`` accumulates process CPU time spent inside solver
        iterations only: the kernel's operands (block factors and
        pseudoinverses, ``blockcd``'s ``C`` and ``h_b``, ``rek``'s ``a^T`` and
        ``a^T a``) are built by :meth:`Kernel.build`, and the run's state
        started by :meth:`Kernel.start`, before the first epoch, and only
        when ``stop.max_epochs >= 1``; telemetry and stopping checks are
        excluded too.  Every epoch runs on that one started state, so the
        block methods carry ``h``, their block-ordered coordinates and
        ``[1; x]`` across epochs.
        ``residual_l2`` is ``norm(b - a x)``.  When the system has
        ``x_ls``, it is read off the system's range factor: with
        ``e = x - x_ls`` and ``g_ls = c - r x_ls``, it is
        ``sqrt(tau**2 + norm(g_ls - r e)**2)``, equal to the direct norm up
        to rounding whatever the oracle's rank cutoff, and ``blockcd``'s
        ``z_error_l2``, ``norm(a e)``, is ``norm(r e)``.  Such a run stops on
        its error, and nothing reads its residual before it ends: each
        epoch's ``e`` goes into a column of a d x (W + 1) buffer of the
        run's own, after ``x_ls``, ``W = min(stop.max_epochs + 1, _BATCH)``,
        and one product ``r @ [x_ls | E]`` gives ``g_ls`` and the norms of
        all its epochs when the buffer is full and when the run ends.
        Without ``x_ls`` the residual is computed directly every epoch,
        exactly, and ``blockcd`` has no ``z_error_l2``.  ``blockcd``'s
        steps form no ``z``.  The rows are made when the run ends.
    """
    a, b = system.a, system.b
    config.validate(system.n_rows, system.n_cols)
    method = config.method

    kernel = config.kernel
    if kernel is None:
        kernel = Kernel.for_config(system, config)
    else:
        kernel.check(system, config)
    rng = np.random.default_rng(config.seed)
    row_part, col_part = config.row_partition, config.col_partition
    iters_per_epoch = epoch_length(method, system.n_rows, row_blocks=row_part and row_part.n_blocks,
                                   col_blocks=col_part and col_part.n_blocks)

    state = initial_state(system, method)
    x, z = state.x, state.z
    trace = Trace(method=method)
    solver_cpu = 0.0
    # one plain float (or None) per epoch; the rows are made once the run ends
    errors, residuals, z_errors, cpus = [], [], [], []

    x_ls = system.x_ls
    error_based = error_fn is not None or x_ls is not None
    if x_ls is not None:
        # |b - a x|^2 = tau^2 + |c - r x|^2 and c - r x = g_ls - r e, with
        # g_ls = c - r x_ls; nothing reads the residual before the run ends,
        # so the e of each epoch waits in a column of `pending`, after x_ls,
        # for one product r @ [x_ls | E]
        tau_sq = system.tau * system.tau
        pending = np.empty((system.n_cols, min(stop.max_epochs + 1, _BATCH) + 1), order="F")
        pending[:, 0] = x_ls
    if method == BLOCK_CD:
        z = None  # only telemetry would read it: record forms the residual

    def flush() -> None:
        """The residuals (and ``blockcd``'s z errors) of the pending epochs."""
        g = np.dot(system.r, pending[:, : len(errors) - len(residuals) + 1])
        g_ls, g = system.c - g[:, 0], g[:, 1:]
        if method == BLOCK_CD:
            z_errors.extend(np.sqrt(np.einsum("ij,ij->j", g, g)).tolist())
        np.subtract(g_ls[:, None], g, out=g)
        residuals.extend(np.sqrt(tau_sq + np.einsum("ij,ij->j", g, g)).tolist())

    def record() -> float:
        if x_ls is not None:
            column = len(errors) - len(residuals) + 1
            e = pending[:, column]
            np.subtract(x, x_ls, out=e)
        if error_fn is not None:
            err = float(error_fn(x))
        elif x_ls is not None:
            err = _norm(e)
        else:
            err = float("nan")
        errors.append(err)
        cpus.append(solver_cpu)
        if x_ls is not None:
            resid = None  # read off `pending` by flush
            if column + 1 == pending.shape[1]:
                flush()
        else:
            resid = _norm(b - np.dot(a, x))
            residuals.append(resid)
        if method != BLOCK_CD or x_ls is None:  # else flush gives blockcd's
            z_errors.append(None if z is None or x_ls is None else _norm(z - system.b_perp))
        return err if error_based else resid

    metric = record()
    prev_metric = metric
    if error_based and metric <= stop.error_threshold:
        trace.converged = True
    else:
        residual_0 = metric
        if stop.max_epochs >= 1:
            run_epoch = kernel.start(x, z)  # untimed: cpu_seconds counts iterations only
        for epoch in range(1, stop.max_epochs + 1):
            t0 = time.process_time()
            run_epoch(kernel.draw(rng, iters_per_epoch))
            solver_cpu += time.process_time() - t0
            metric = record()
            if error_based:
                if metric <= stop.error_threshold:
                    trace.converged = True
                    break
            else:
                if abs(prev_metric - metric) <= stop.error_threshold * max(residual_0, 1e-300):
                    trace.converged = True
                    break
            prev_metric = metric

    if len(residuals) < len(errors):
        flush()
    trace.rows = [TraceRow(*row) for row in zip(range(len(errors)), errors, residuals, z_errors, cpus)]
    trace.final_x = x.copy()
    return trace
