"""Closed-form convergence envelopes for the solver family.

Every bound evaluated here uses *measured* quantities: spectral constants
from the SVD and paving parameters measured on the actual partitions a run
used.  Envelopes bound expected squared errors, so an empirical check must
average over many seeded runs; a single trajectory may exceed its envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, spectral_summary
from .paving import PavingParams
from .systems import LinearSystem


@dataclass(frozen=True)
class RateConstants:
    """Per-step contraction rates and forcing-term norms for one system/paving pair.

    ``gamma_row`` is the Kaczmarz-update rate ``1 - sigma_min^2 / (p * beta)``
    from the row paving, ``gamma_col`` the analogous projection rate from the
    column paving, and ``alpha_row`` the row paving's lower bound.
    """

    gamma_row: float | None
    gamma_col: float | None
    alpha_row: float | None
    b_range_norm: float
    b_perp_norm: float


def contraction_rate(sigma_min_sq: float, paving: PavingParams) -> float:
    """Per-step rate ``1 - sigma_min_sq / (p * beta)`` from measured paving bounds."""
    if sigma_min_sq <= 0:
        raise ValueError("sigma_min_sq must be positive")
    if paving.beta <= 0:
        raise ValueError("paving beta must be positive")
    gamma = 1.0 - sigma_min_sq / (paving.p * paving.beta)
    if gamma < -1e-12:
        raise ValueError(
            f"inconsistent inputs: sigma_min_sq={sigma_min_sq} exceeds p*beta={paving.p * paving.beta}"
        )
    return max(gamma, 0.0)


def rate_constants(
    system: LinearSystem,
    row_paving: PavingParams | None = None,
    col_paving: PavingParams | None = None,
) -> RateConstants:
    """Assemble :class:`RateConstants` for a system and its measured pavings."""
    if system.spectral is None:
        raise ValueError("system has no oracle/spectral data")
    s2 = system.spectral.sigma_min_nonzero**2
    return RateConstants(
        gamma_row=contraction_rate(s2, row_paving) if row_paving is not None else None,
        gamma_col=contraction_rate(s2, col_paving) if col_paving is not None else None,
        alpha_row=row_paving.alpha if row_paving is not None else None,
        b_range_norm=float(np.linalg.norm(system.b_range)),
        b_perp_norm=float(np.linalg.norm(system.b_perp)),
    )


def geometric_recursion_bound(
    t: int, gamma: float, gamma_bar: float, forcing: float, x0_err_sq: float
) -> float:
    """Envelope for a contraction with a geometrically decaying forcing term.

    For an error recursion contracting by ``gamma`` per step and driven by a
    term bounded by ``gamma_bar**k * forcing``, the error after ``t`` steps is
    at most::

        gamma**t * x0_err_sq + (gamma**floor(t/2) + gamma_bar**floor(t/2)) * forcing / (1 - gamma)
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not (0.0 <= gamma < 1.0 and 0.0 <= gamma_bar < 1.0):
        raise ValueError(f"rates must lie in [0, 1), got gamma={gamma}, gamma_bar={gamma_bar}")
    if forcing < 0 or x0_err_sq < 0:
        raise ValueError("forcing and x0_err_sq must be nonnegative")
    half = t // 2
    return gamma**t * x0_err_sq + (gamma**half + gamma_bar**half) * forcing / (1.0 - gamma)


def double_block_error_bound(t: int, consts: RateConstants, x0_err_sq: float) -> float:
    """Expected squared-error envelope of the double-block solver after ``t`` steps."""
    if consts.gamma_row is None or consts.gamma_col is None or consts.alpha_row is None:
        raise ValueError("double-block bound needs both a row and a column paving")
    if consts.gamma_row >= 1.0:
        raise ValueError("bound is vacuous for gamma_row >= 1")
    if consts.alpha_row <= 0:
        raise ValueError("row paving lower bound must be positive")
    forcing = consts.b_range_norm**2 / consts.alpha_row
    return geometric_recursion_bound(t, consts.gamma_row, consts.gamma_col, forcing, x0_err_sq)


def z_error_envelope(k: int, gamma_col: float, b_range_norm_sq: float) -> float:
    """Expected squared distance of the auxiliary ``z`` sequence from ``b_perp``.

    Decays as ``gamma_col**k`` from ``norm(b_range)**2``; nonincreasing in
    ``k``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0.0 <= gamma_col <= 1.0:
        raise ValueError(f"gamma_col must lie in [0, 1], got {gamma_col}")
    if b_range_norm_sq < 0:
        raise ValueError("b_range_norm_sq must be nonnegative")
    return gamma_col**k * b_range_norm_sq


def rek_error_bound(
    j: int, scaled_condition: float, x_ls_norm_sq: float, b_norm_sq: float, sigma_min: float
) -> float:
    """Expected squared-error envelope of the extended Kaczmarz method after ``j`` steps."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if scaled_condition < 1.0:
        raise ValueError(f"scaled condition number is at least 1, got {scaled_condition}")
    if sigma_min <= 0:
        raise ValueError("sigma_min must be positive")
    base = 1.0 - 1.0 / scaled_condition**2
    return base ** (j / 2.0) * (x_ls_norm_sq + 2.0 * b_norm_sq / sigma_min**2)


def rk_error_envelope(j: int, scaled_condition: float, x0_err_norm: float, horizon: float) -> float:
    """Expected-error envelope of plain randomized Kaczmarz after ``j`` steps.

    Decaying term plus the fixed plateau radius; note this bounds the
    expected error itself, not its square.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if scaled_condition < 1.0:
        raise ValueError(f"scaled condition number is at least 1, got {scaled_condition}")
    if x0_err_norm < 0 or horizon < 0:
        raise ValueError("x0_err_norm and horizon must be nonnegative")
    base = 1.0 - 1.0 / scaled_condition**2
    return base ** (j / 2.0) * x0_err_norm + horizon


def rk_convergence_horizon(system: LinearSystem) -> float:
    """Radius of the error plateau of plain randomized Kaczmarz on this system.

    ``sqrt(R) * max_i |e_i| / norm(row_i)`` where ``e`` is the least-squares
    residual and ``R`` the squared scaled condition number.  Zero for
    consistent systems.  The plain method cannot converge below (a constant
    times) this radius, so tests treat it as an order-of-magnitude plateau.
    """
    if system.spectral is None or system.b_perp is None:
        raise ValueError("system has no oracle data")
    row_norms = np.linalg.norm(system.a, axis=1)
    if np.any(row_norms == 0):
        raise ValueError("horizon undefined for zero rows")
    ratio = float(np.max(np.abs(system.b_perp) / row_norms))
    return system.spectral.scaled_condition * ratio


def block_convergence_horizon(system: LinearSystem) -> float:
    """Squared-error plateau term of the plain block method: ``3*norm(e)^2/sigma_min^2``."""
    if system.spectral is None or system.b_perp is None:
        raise ValueError("system has no oracle data")
    e_sq = float(np.dot(system.b_perp, system.b_perp))
    return 3.0 * e_sq / system.spectral.sigma_min_nonzero**2


def standardized_paving_rate(a_std: np.ndarray, paving: PavingParams) -> float:
    """Measured contraction rate of a row-standardized matrix under ``paving``."""
    a_std = as_matrix(a_std)
    summary = spectral_summary(a_std)
    return contraction_rate(summary.sigma_min_nonzero**2, paving)


@dataclass(frozen=True)
class TransportedPaving:
    """Paving bounds transported from a row-standardized matrix to the original one."""

    paving: PavingParams
    gamma: float


def transported_paving_rate(a: np.ndarray, delta: float, std_paving: PavingParams) -> TransportedPaving:
    """Transport a standardized-matrix row paving to the unstandardized matrix.

    If the standardized version of ``a`` has a row paving with bounds in
    ``[1 - delta, 1 + delta]``, reusing the same partition on ``a`` itself
    gives (conservatively) bounds ``[a_min*(1-delta), a_max*(1+delta)]`` in
    terms of the extreme squared row norms, and the rate follows from the
    transported upper bound.  The rate gap shrinks with the dynamic range
    ``a_max / a_min``.
    """
    a = as_matrix(a)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    sq = np.einsum("ij,ij->i", a, a)
    a_min, a_max = float(sq.min()), float(sq.max())
    if a_min == 0:
        raise ValueError("transported paving undefined for zero rows")
    alpha_t = max(a_min * (1.0 - delta), 0.0)
    beta_t = a_max * (1.0 + delta)
    paving = PavingParams(p=std_paving.p, alpha=alpha_t, beta=beta_t)
    summary = spectral_summary(a)
    return TransportedPaving(paving=paving, gamma=contraction_rate(summary.sigma_min_nonzero**2, paving))


def block_cd_error_bound(t: int, gamma_col: float, condition: float, x_ls_norm_sq: float) -> float:
    """Full-column-rank envelope for ``E norm(x_ls - x_t)**2`` of the column-block solver.

    For a run on the column-rescaled system, pass ``gamma_col`` measured on
    the rescaled matrix and the condition number of the original matrix; the
    bound then covers the error after mapping the iterate back to original
    coordinates.
    """
    if condition < 1.0:
        raise ValueError(f"condition number is at least 1, got {condition}")
    if x_ls_norm_sq < 0:
        raise ValueError("x_ls_norm_sq must be nonnegative")
    return z_error_envelope(t, gamma_col, 1.0) * condition**2 * x_ls_norm_sq
