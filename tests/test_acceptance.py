"""Acceptance suite: the package's end-to-end quality gates.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
Criteria with a runtime budget assert the budget too.

Known red: the tomography conditioning window in criterion 9.  The measured
condition number of the two-boundary-point chord ensemble concentrates near
20 at this size, and a mass-balance argument shows the asserted window is
unreachable for this ensemble (see the test docstring).  The gate is kept as
stated rather than widened; everything else in criterion 9 holds.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from blockkaczmarz.cli import main as cli_main
from blockkaczmarz.harness import (
    GAUSSIAN_DYNAMIC,
    GAUSSIAN_INCONSISTENT,
    GAUSSIAN_ROWSTD,
    TOMOGRAPHY,
    MethodSetting,
    ProblemSpec,
    gen_inconsistent,
    run_experiment,
)
from blockkaczmarz.matio import write_matrix, write_vector
from blockkaczmarz.paving import COLUMNS, paving_bounds, random_partition
from blockkaczmarz.solvers import BLOCK_CD, DOUBLE, Kernel, StopRule, initial_state, make_block_plan
from blockkaczmarz.systems import make_system
from blockkaczmarz.theory import double_block_error_bound, rate_constants, z_error_envelope


def report(num, name, ok, detail):
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def error_at_epoch(trace, epoch):
    """Error at the given epoch, carrying the final value forward for early stops."""
    return trace.rows[min(epoch, trace.final_epoch)].error_l2


def test_criterion_01_blockcd_residual_identity():
    # 100 random 20x10 systems, 500 column-block steps each: the running
    # residual estimate must track b - a x to 1e-10 relative accuracy
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        a = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        sys_ = make_system(a, b)
        p_col = (2, 3, 5)[trial % 3]
        plan = make_block_plan(a, random_partition(10, p_col, rng, axis=COLUMNS))
        state = initial_state(sys_, "blockcd")
        kernel = Kernel(BLOCK_CD, a, b, cols=plan)
        sigma_max = sys_.spectral.sigma_max
        b_norm = np.linalg.norm(b)
        for _ in range(500):
            state = kernel.step(state, rng)
            gap = np.linalg.norm(state.z - (b - a @ state.x))
            worst = max(worst, gap / (b_norm + sigma_max * np.linalg.norm(state.x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 30.0
    report(1, "blockcd residual identity", ok, f"worst ratio {worst:.2e}, {elapsed:.1f}s of 30s")
    assert worst <= 1e-10
    assert elapsed <= 30.0


def test_criterion_02_exact_block_contraction():
    # deterministic enumeration over all blocks, no statistical slack
    t0 = time.perf_counter()
    margin = np.inf
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        a = rng.standard_normal((12, 6))
        part = random_partition(12, 3, rng)
        plan = make_block_plan(a, part)
        beta = paving_bounds(a, part).beta
        sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
        u = rng.standard_normal(6)
        total = 0.0
        for k in range(3):
            fact = plan.factorizations[k]
            v = fact.v[:, : fact.rank]
            res = u - v @ (v.T @ u)
            total += np.sum(res**2)
        mean = total / 3.0
        bound = (1.0 - sigma_min**2 / (3.0 * beta)) * np.sum(u**2)
        margin = min(margin, bound - mean)
        assert mean <= bound * (1 + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 5.0
    report(2, "exact block contraction enumeration", ok, f"min slack {margin:.3e}, {elapsed:.1f}s of 5s")
    assert elapsed <= 5.0


@lru_cache(maxsize=1)
def double_block_runs():
    """200 seeded double-block runs on a 60x20 inconsistent system, 50 steps each."""
    t0 = time.perf_counter()
    system = gen_inconsistent(60, 20, 0.5, np.random.default_rng(11))
    row_part = random_partition(60, 6, np.random.default_rng(12))
    col_part = random_partition(20, 5, np.random.default_rng(13), axis=COLUMNS)
    row_plan = make_block_plan(system.a, row_part)
    col_plan = make_block_plan(system.a, col_part)
    consts = rate_constants(system, paving_bounds(system.a, row_part), paving_bounds(system.a, col_part))
    kernel = Kernel(DOUBLE, system.a, system.b, rows=row_plan, cols=col_plan)
    runs, steps = 200, 50
    z_sq = np.zeros((runs, steps + 1))
    x_sq = np.zeros((runs, steps + 1))
    for r in range(runs):
        state = initial_state(system, "double")
        g = np.random.default_rng(10_000 + r)
        z_sq[r, 0] = np.sum((state.z - system.b_perp) ** 2)
        x_sq[r, 0] = np.sum((state.x - system.x_ls) ** 2)
        for k in range(1, steps + 1):
            state = kernel.step(state, g)
            z_sq[r, k] = np.sum((state.z - system.b_perp) ** 2)
            x_sq[r, k] = np.sum((state.x - system.x_ls) ** 2)
    return system, consts, z_sq.mean(axis=0), x_sq.mean(axis=0), time.perf_counter() - t0


def test_criterion_03_z_envelope():
    system, consts, z_mean, _, elapsed = double_block_runs()
    b_range_sq = consts.b_range_norm**2
    ratios = [z_mean[k] / z_error_envelope(k, consts.gamma_col, b_range_sq) for k in range(1, 51)]
    worst = max(ratios)
    ok = worst <= 1.25 and elapsed <= 60.0
    report(3, "auxiliary-sequence contraction envelope", ok, f"worst mean/envelope {worst:.3f}, {elapsed:.1f}s of 60s")
    assert worst <= 1.25
    assert elapsed <= 60.0


def test_criterion_04_double_block_envelope():
    system, consts, _, x_mean, _ = double_block_runs()
    x0_sq = float(np.dot(system.x_ls, system.x_ls))
    ratios = [x_mean[t] / double_block_error_bound(t, consts, x0_sq) for t in range(1, 51)]
    worst = max(ratios)
    ok = worst <= 1.25
    report(4, "double-block error envelope", ok, f"worst mean/bound {worst:.3e}")
    assert worst <= 1.25


def test_criterion_05_convergence_horizon_break():
    t0 = time.perf_counter()
    spec = ProblemSpec(kind=GAUSSIAN_INCONSISTENT, n=300, d=100, residual_norm=0.5, seed=0)
    trials = 40

    block_recs = run_experiment(spec, [MethodSetting("block", row_blocks=30)], trials, StopRule(200, 1e-6)).records
    block_median = float(np.median([error_at_epoch(r.trace, 200) for r in block_recs]))

    double_recs = run_experiment(
        spec, [MethodSetting("double", row_blocks=30, col_blocks=10)], trials, StopRule(600, 1e-6)
    ).records
    double_median_200 = float(np.median([error_at_epoch(r.trace, 200) for r in double_recs]))
    double_all_success = all(r.trace.converged and r.trace.final_epoch <= 600 for r in double_recs)

    blockcd_recs = run_experiment(spec, [MethodSetting("blockcd", col_blocks=10)], trials, StopRule(600, 1e-6)).records
    blockcd_median_200 = float(np.median([error_at_epoch(r.trace, 200) for r in blockcd_recs]))

    elapsed = time.perf_counter() - t0
    ok = (
        block_median >= 1e-2
        and double_median_200 < 1e-4
        and blockcd_median_200 < 1e-4
        and double_all_success
        and elapsed <= 300.0
    )
    report(
        5,
        "convergence horizon break",
        ok,
        f"block plateau {block_median:.2e}, double@200 {double_median_200:.2e}, "
        f"blockcd@200 {blockcd_median_200:.2e}, double all<=600ep {double_all_success}, {elapsed:.0f}s of 300s",
    )
    assert block_median >= 1e-2
    assert double_median_200 < 1e-4
    assert blockcd_median_200 < 1e-4
    assert double_all_success
    assert elapsed <= 300.0


def test_criterion_06_consistent_case_success():
    spec = ProblemSpec(kind=GAUSSIAN_ROWSTD, n=300, d=100, seed=0)
    methods = [
        MethodSetting("rek"),
        MethodSetting("double", row_blocks=30, col_blocks=10),
        MethodSetting("blockcd", col_blocks=10),
    ]
    recs = run_experiment(spec, methods, trials=40, stop=StopRule(400, 1e-6)).records
    by = {}
    for r in recs:
        by.setdefault(r.method, []).append(r.trace)
    med_err = {m: float(np.median([t.final_error for t in ts])) for m, ts in by.items()}
    med_epochs = {m: float(np.median([t.final_epoch for t in ts])) for m, ts in by.items()}
    med_cpu = {m: float(np.median([t.rows[-1].cpu_seconds for t in ts])) for m, ts in by.items()}
    ok = (
        all(v <= 1e-6 for v in med_err.values())
        and med_epochs["double"] < med_epochs["rek"]
        and med_cpu["double"] <= med_cpu["rek"]
        and med_cpu["blockcd"] <= med_cpu["rek"]
    )
    report(
        6,
        "consistent-case success",
        ok,
        f"median errors {med_err['rek']:.1e}/{med_err['double']:.1e}/{med_err['blockcd']:.1e}, "
        f"epochs rek {med_epochs['rek']:.0f} vs double {med_epochs['double']:.0f}, "
        f"cpu rek {med_cpu['rek']:.3f}s vs double {med_cpu['double']:.3f}s vs blockcd {med_cpu['blockcd']:.3f}s",
    )
    for m in ("rek", "double", "blockcd"):
        assert med_err[m] <= 1e-6, m
    assert med_epochs["double"] < med_epochs["rek"]
    assert med_cpu["double"] <= med_cpu["rek"]
    assert med_cpu["blockcd"] <= med_cpu["rek"]


def test_criterion_07_paving_verifier_oracle_equivalence():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        d = int(rng.integers(8, 16))
        p = int(rng.integers(2, 6))
        block_size = int(rng.integers(2, max(3, d // 2)))
        n = p * block_size
        a = rng.standard_normal((n, d))
        part = random_partition(n, p, rng)
        params = paving_bounds(a, part)
        alpha, beta = np.inf, 0.0
        for idx in part.blocks:
            eigs = np.linalg.eigvalsh(a[idx, :] @ a[idx, :].T)
            alpha = min(alpha, eigs[0])
            beta = max(beta, eigs[-1])
        worst = max(worst, abs(params.alpha - alpha) / abs(alpha), abs(params.beta - beta) / beta)
        assert params.alpha == pytest.approx(alpha, rel=1e-10)
        assert params.beta == pytest.approx(beta, rel=1e-10)
    report(7, "paving verifier oracle equivalence", True, f"worst relative gap {worst:.2e} over 50 instances")


def test_criterion_08_dynamic_range_preset():
    t0 = time.perf_counter()
    spec = ProblemSpec(kind=GAUSSIAN_DYNAMIC, n=300, d=100, residual_norm=0.5, seed=0)
    recs = run_experiment(
        spec,
        [MethodSetting("blockcd", col_blocks=10, standardize_columns=True)],
        trials=40,
        stop=StopRule(600, 1e-4),
    ).records
    median_final = float(np.median([r.trace.final_error for r in recs]))
    elapsed = time.perf_counter() - t0
    ok = median_final < 1e-4 and elapsed <= 180.0
    report(8, "dynamic-range preset", ok, f"median error in original coordinates {median_final:.2e}, {elapsed:.0f}s of 180s")
    assert median_final < 1e-4
    assert elapsed <= 180.0


def test_criterion_09_tomography_preset():
    """Tomography gate.

    The build and solver checks hold.  The conditioning window [1.3, 4.0]
    does not: for a nonnegative chord-length matrix of this shape, the
    all-ones direction alone carries so much of the operator mass that
    ``sum(sigma^2) < 400 * (sigma_max / 4)^2``, which makes a condition
    number of 4.0 or less impossible; measured values concentrate near 20
    across seeds.  The assertion is kept as stated instead of widening the
    window, so this test is expected to fail until the window is revisited.
    """
    spec = ProblemSpec(kind=TOMOGRAPHY, tomo_n=20, tomo_f=3, seed=0)
    experiment = run_experiment(spec, [MethodSetting("blockcd", col_blocks=10)], trials=40, stop=StopRule(300, 1e-6))
    system = experiment.system
    shape_ok = system.a.shape == (1200, 400)
    kappa = system.spectral.condition

    median_final = float(np.median([r.trace.final_error for r in experiment.records]))
    solver_ok = median_final <= 1e-6

    kappa_ok = 1.3 <= kappa <= 4.0
    report(
        9,
        "tomography preset",
        shape_ok and solver_ok and kappa_ok,
        f"shape {system.a.shape} ok={shape_ok}, blockcd median {median_final:.2e} ok={solver_ok}, "
        f"recorded kappa {kappa:.3f} in [1.3, 4.0]={kappa_ok}",
    )
    assert shape_ok
    assert solver_ok
    assert kappa_ok, (
        f"measured condition number {kappa:.3f} outside [1.3, 4.0]; "
        "structurally unreachable for this ray ensemble (see docstring)"
    )


def test_criterion_10_cli_determinism(tmp_path):
    def strip_cpu(path):
        return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    exp_args = ["experiment", "--preset", "fig3b", "--seed", "7", "--trials", "2", "--max-epochs", "5"]
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    assert cli_main(exp_args + ["--out", str(d1)]) == 0
    assert cli_main(exp_args + ["--out", str(d2)]) == 0
    exp_ok = strip_cpu(d1 / "trace.csv") == strip_cpu(d2 / "trace.csv")

    rng = np.random.default_rng(0)
    a = rng.standard_normal((15, 5))
    b = a @ rng.standard_normal(5)
    write_matrix(a, tmp_path / "a.txt")
    write_vector(b, tmp_path / "b.txt")
    solve_args = [
        "solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt"),
        "--method", "blockcd", "--col-blocks", "2", "--seed", "3", "--max-epochs", "10", "--tol", "1e-8",
    ]
    assert cli_main(solve_args + ["--trace", str(tmp_path / "t1.csv")]) == 0
    assert cli_main(solve_args + ["--trace", str(tmp_path / "t2.csv")]) == 0
    solve_ok = strip_cpu(tmp_path / "t1.csv") == strip_cpu(tmp_path / "t2.csv")

    report(10, "CLI determinism", exp_ok and solve_ok, f"experiment replay {exp_ok}, solve replay {solve_ok}")
    assert exp_ok
    assert solve_ok
