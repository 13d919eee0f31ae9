"""Measured pavings, rate certificates, and envelopes over empirical means.

Every convergence guarantee in this library is a statement about expected
squared error driven by two measured quantities: the smallest singular value
of the matrix and the (p, alpha, beta) bounds of the partition actually used.
This script measures them on a 60x20 inconsistent system, evaluates the
double-block envelope, and overlays the mean of 200 independent runs; the
mean stays below the envelope at every step, while a single run may not.
It also shows how transporting a paving from the row-standardized matrix to
a graded-row version inflates the certified rate with the dynamic range.
"""

import numpy as np

from blockkaczmarz import (
    COLUMNS,
    DOUBLE,
    ROWS,
    Kernel,
    double_block_error_bound,
    dynamic_range,
    gen_inconsistent,
    initial_state,
    make_block_plan,
    paving_bounds,
    random_partition,
    rate_constants,
    row_standardize,
    standardized_paving_rate,
    transported_paving_rate,
    z_error_envelope,
)

RUNS = 200
STEPS = 40


def main():
    system = gen_inconsistent(60, 20, 0.5, np.random.default_rng(11))
    row_part = random_partition(60, 6, np.random.default_rng(12))
    col_part = random_partition(20, 5, np.random.default_rng(13), axis="columns")
    # the kernel factors every block once and keeps its singular values
    kernel = Kernel(DOUBLE, system.a, system.b, rows=make_block_plan(system.a, row_part),
                    cols=make_block_plan(system.a, col_part))
    row_paving = paving_bounds(system.a, row_part, kernel.singular_values[ROWS])
    col_paving = paving_bounds(system.a, col_part, kernel.singular_values[COLUMNS])
    consts = rate_constants(system, row_paving, col_paving)

    print("measured pavings on the 60x20 system:")
    print(f"  rows    p={row_paving.p} alpha={row_paving.alpha:.3f} beta={row_paving.beta:.3f}")
    print(f"  columns p={col_paving.p} alpha={col_paving.alpha:.3f} beta={col_paving.beta:.3f}")
    print(f"  per-step rates: gamma_row={consts.gamma_row:.4f} gamma_col={consts.gamma_col:.4f}")

    x_sq = np.zeros((RUNS, STEPS + 1))
    z_sq = np.zeros((RUNS, STEPS + 1))
    for r in range(RUNS):
        state = initial_state(system, "double")
        g = np.random.default_rng(5000 + r)
        for k in range(1, STEPS + 1):
            state = kernel.step(state, g)
            x_sq[r, k] = np.sum((state.x - system.x_ls) ** 2)
            z_sq[r, k] = np.sum((state.z - system.b_perp) ** 2)

    x0_sq = float(np.dot(system.x_ls, system.x_ls))
    b_range_sq = consts.b_range_norm**2
    print(f"\nmean of {RUNS} runs vs envelopes (squared errors):")
    print("  step   mean |x-x*|^2   envelope      mean |z-b_perp|^2   envelope")
    for k in (1, 5, 10, 20, 40):
        xb = double_block_error_bound(k, consts, x0_sq)
        zb = z_error_envelope(k, consts.gamma_col, b_range_sq)
        print(f"  {k:4d}   {x_sq[:, k].mean():12.4e}  {xb:12.4e}   {z_sq[:, k].mean():14.4e}  {zb:12.4e}")

    base = row_standardize(system.a)[0]
    graded = base * np.arange(1.0, 61.0)[:, None]
    std_paving = paving_bounds(base, row_part)
    delta = max(1.0 - std_paving.alpha, std_paving.beta - 1.0)
    transported = transported_paving_rate(graded, delta, std_paving)
    print(f"\ntransporting the standardized paving to graded rows (dynamic range {dynamic_range(graded):.0f}):")
    print(f"  standardized rate {standardized_paving_rate(base, std_paving):.4f}")
    print(f"  transported rate  {transported.gamma:.4f} with beta inflated to {transported.paving.beta:.1f}")


if __name__ == "__main__":
    main()
