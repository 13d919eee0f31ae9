from dataclasses import replace

import numpy as np
import pytest

from blockkaczmarz.harness import (
    BANDS_HEADER,
    ENVELOPES_HEADER,
    GAUSSIAN_DYNAMIC,
    GAUSSIAN_INCONSISTENT,
    GAUSSIAN_ROWSTD,
    PRESETS,
    TOMOGRAPHY,
    TRACE_HEADER,
    MethodSetting,
    ProblemSpec,
    aggregate_bands,
    compute_envelopes,
    derive_seed,
    gen_dynamic_rows,
    gen_gaussian_rowstd,
    gen_inconsistent,
    generate_system,
    make_preset,
    prepare_method,
    run_experiment,
    write_csv,
    write_envelopes_csv,
)
from blockkaczmarz import harness, linalg, solvers
from blockkaczmarz.paving import column_standardize, dynamic_range, row_standardize
from blockkaczmarz.solvers import StopRule, make_block_plan, run
from blockkaczmarz.systems import make_system


class TestGenGaussianRowstd:
    def test_small_system_consistent(self, rng):
        sys_ = gen_gaussian_rowstd(3, 2, rng)
        assert np.linalg.norm(sys_.b - sys_.a @ sys_.x_ls) <= 1e-10 * max(np.linalg.norm(sys_.b), 1e-30)

    def test_rows_are_unit_norm(self, rng):
        sys_ = gen_gaussian_rowstd(25, 7, rng)
        norms = np.linalg.norm(sys_.a, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_oracle_recovers_planted_solution(self):
        # replicate the generator's draw order: matrix first, then solution
        seed = 123
        sys_ = gen_gaussian_rowstd(30, 8, np.random.default_rng(seed))
        ref = np.random.default_rng(seed)
        ref.standard_normal((30, 8))
        planted = ref.standard_normal(8)
        assert np.linalg.norm(sys_.x_ls - planted) <= 1e-8 * np.linalg.norm(planted)

    def test_paper_scale_condition_number(self):
        for seed in range(5):
            sys_ = gen_gaussian_rowstd(300, 100, np.random.default_rng(seed))
            if 3.0 <= sys_.spectral.condition <= 4.5:
                break
        assert 3.0 <= sys_.spectral.condition <= 4.5

    def test_requires_overdetermined(self, rng):
        with pytest.raises(ValueError):
            gen_gaussian_rowstd(5, 5, rng)


class TestGenInconsistent:
    def test_residual_norm_exact(self, rng):
        sys_ = gen_inconsistent(40, 10, 0.5, rng)
        resid = np.linalg.norm(sys_.b - sys_.a @ sys_.x_ls)
        assert resid == pytest.approx(0.5, rel=1e-10)

    def test_normal_equations_orthogonality(self, rng):
        sys_ = gen_inconsistent(40, 10, 2.0, rng)
        assert np.linalg.norm(sys_.a.T @ (sys_.b - sys_.a @ sys_.x_ls)) <= 1e-10 * np.linalg.norm(sys_.b)

    def test_zero_residual_rejected(self, rng):
        with pytest.raises(ValueError, match="positive"):
            gen_inconsistent(40, 10, 0.0, rng)


class TestGenDynamicRows:
    def test_row_norms_are_graded(self, rng):
        sys_ = gen_dynamic_rows(3, 2, rng)
        norms = np.linalg.norm(sys_.a, axis=1)
        np.testing.assert_allclose(norms, [1.0, 2.0, 3.0], rtol=1e-12)

    def test_paper_scale_dynamic_range(self):
        sys_ = gen_dynamic_rows(300, 100, np.random.default_rng(0))
        assert dynamic_range(sys_.a) == pytest.approx(90000.0, rel=1e-9)

    def test_column_standardize_succeeds(self, rng):
        sys_ = gen_dynamic_rows(50, 12, rng)
        a_std, _ = column_standardize(sys_.a)
        assert np.all(np.abs(np.linalg.norm(a_std, axis=0) - 1.0) <= 1e-12)

    def test_residual_matches_request(self, rng):
        sys_ = gen_dynamic_rows(40, 10, rng, residual_norm=0.25)
        assert np.linalg.norm(sys_.b - sys_.a @ sys_.x_ls) == pytest.approx(0.25, rel=1e-9)


class TestGenerateSystem:
    @pytest.mark.parametrize(
        "spec",
        [
            ProblemSpec(kind=GAUSSIAN_ROWSTD, n=24, d=6, seed=1),
            ProblemSpec(kind=GAUSSIAN_INCONSISTENT, n=24, d=6, residual_norm=0.5, seed=2),
            ProblemSpec(kind=GAUSSIAN_DYNAMIC, n=24, d=6, residual_norm=0.5, seed=3),
            ProblemSpec(kind=TOMOGRAPHY, tomo_n=5, tomo_f=2, seed=4),
        ],
        ids=lambda s: s.kind,
    )
    def test_every_generator_satisfies_decomposition_invariants(self, spec):
        sys_ = generate_system(spec)
        scale = np.linalg.norm(sys_.b) + 1e-30
        np.testing.assert_allclose(sys_.b_range + sys_.b_perp, sys_.b, rtol=0, atol=1e-10 * scale)
        assert abs(np.dot(sys_.b_range, sys_.b_perp)) <= 1e-10 * scale**2
        assert np.linalg.norm(sys_.a.T @ sys_.b_perp) <= 1e-10 * np.linalg.norm(sys_.a) * scale
        resid = np.linalg.norm(sys_.b - sys_.a @ sys_.x_ls)
        assert abs(resid - np.linalg.norm(sys_.b_perp)) <= 1e-10 * scale

    def test_consistent_kind_rejects_residual(self):
        with pytest.raises(ValueError, match="consistent"):
            generate_system(ProblemSpec(kind=GAUSSIAN_ROWSTD, n=10, d=3, residual_norm=0.5, seed=0))

    def test_dispatch_and_determinism(self):
        spec = ProblemSpec(kind=GAUSSIAN_INCONSISTENT, n=20, d=5, residual_norm=0.5, seed=9)
        s1 = generate_system(spec)
        s2 = generate_system(spec)
        assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)

    def test_tomography_kind(self):
        spec = ProblemSpec(kind=TOMOGRAPHY, tomo_n=4, tomo_f=2, seed=0)
        sys_ = generate_system(spec)
        assert sys_.a.shape == (32, 16)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            generate_system(ProblemSpec(kind="banded", seed=0))

    @pytest.mark.parametrize("preset", ["fig3a", "figd"])
    def test_inconsistent_system_takes_one_least_squares_solve(self, preset, monkeypatch):
        # the noise is projected with a QR of a, and the oracle is one
        # least-squares solve on the d x d range factor: no SVD is taken
        calls = []

        def counting(real):
            return lambda a, *args, **kwargs: calls.append((real.__name__, a.shape)) or real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "lstsq", counting(np.linalg.lstsq))
        generate_system(make_preset(preset, 0).spec)
        assert calls == [("lstsq", (100, 100))]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("preset", ["fig3a", "figd"])
    def test_inconsistent_system_matches_its_replayed_draws(self, preset, seed):
        # replay the generator's draws, project the noise with the QR of a and
        # build the system with make_system: not a bit may differ
        spec = make_preset(preset, seed).spec
        n, d = spec.n, spec.d
        rng = np.random.default_rng(seed)
        a = row_standardize(rng.standard_normal((n, d)))[0]
        if spec.kind == GAUSSIAN_DYNAMIC:
            a = a * np.arange(1.0, n + 1.0)[:, None]
        x = rng.standard_normal(d)
        q = np.linalg.qr(a)[0]
        g = rng.standard_normal(n)
        e = g - q @ (q.T @ g)
        ref = make_system(a, a @ x + e * (spec.residual_norm / np.linalg.norm(e)))
        sys_ = generate_system(spec)
        for name in ("a", "b", "r", "c", "tau", "x_ls", "b_range", "b_perp"):
            assert np.array_equal(getattr(sys_, name), getattr(ref, name)), name
        assert sys_.spectral == ref.spectral


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        s = derive_seed(7, "rek", 3)
        assert s == derive_seed(7, "rek", 3)
        assert s != derive_seed(7, "rek", 4)
        assert s != derive_seed(7, "double", 3)
        assert s != derive_seed(8, "rek", 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "rek", 0)


def tiny_spec(seed=0):
    return ProblemSpec(kind=GAUSSIAN_INCONSISTENT, n=20, d=10, residual_norm=0.5, seed=seed)


class TestRunExperiment:
    def test_epoch_zero_only_when_budget_zero(self):
        recs = run_experiment(tiny_spec(), [MethodSetting("rek")], trials=1, stop=StopRule(0, 1e-6)).records
        assert len(recs) == 1
        assert [r.epoch for r in recs[0].trace.rows] == [0]

    def test_default_trial_count(self):
        recs = run_experiment(tiny_spec(), [MethodSetting("rk")], trials=40, stop=StopRule(1, 1e-300)).records
        assert len(recs) == 40
        assert sorted(r.trial for r in recs) == list(range(40))

    def test_deterministic_modulo_cpu(self, tmp_path):
        methods = [MethodSetting("blockcd", col_blocks=3)]
        stop = StopRule(30, 1e-8)
        paths = []
        for k in range(2):
            recs = run_experiment(tiny_spec(5), methods, trials=3, stop=stop).records
            p = tmp_path / f"t{k}.csv"
            write_csv(recs, p)
            paths.append(p)

        def strip_cpu(path):
            return ["," .join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

        assert strip_cpu(paths[0]) == strip_cpu(paths[1])

    def test_standardized_arm_reports_original_coordinates(self):
        spec = ProblemSpec(kind=GAUSSIAN_DYNAMIC, n=30, d=8, residual_norm=0.5, seed=3)
        experiment = run_experiment(
            spec,
            [MethodSetting("blockcd", col_blocks=4, standardize_columns=True)],
            trials=1,
            stop=StopRule(300, 1e-6),
        )
        trace = experiment.records[0].trace
        system = experiment.system
        assert trace.converged
        assert trace.final_error <= 1e-6
        # the iterate lives in standardized coordinates; unscaling it must
        # reproduce the recorded error against the original solution
        from blockkaczmarz.paving import unscale_solution

        _, scaling = column_standardize(system.a)
        unscaled = unscale_solution(trace.final_x, scaling)
        assert np.linalg.norm(unscaled - system.x_ls) == pytest.approx(trace.final_error, rel=1e-9)

    def test_hybrid_arm_runs(self):
        recs = run_experiment(
            tiny_spec(), [MethodSetting("hybrid", row_blocks=4)], trials=1, stop=StopRule(5, 1e-300)
        ).records
        assert recs[0].trace.rows[-1].epoch == 5


def fresh_kernel_replay(experiment, trials, stop):
    """Every trial of ``experiment`` again, each through a kernel of its own
    (``kernel=None``: the arm's config carries the arm's shared kernel)."""
    traces = []
    for prep in experiment.arms:
        for trial in range(trials):
            config = replace(prep.config, seed=derive_seed(0, prep.setting.name, trial), kernel=None)
            traces.append(run(prep.solve_system, config, stop, error_fn=prep.error_fn))
    return traces


class TestSharedArmKernel:
    @pytest.mark.parametrize("preset, include_hybrid", [("fig4", False), ("fig3a", True)])
    def test_trials_match_a_fresh_kernel_per_trial(self, preset, include_hybrid):
        p = make_preset(preset, 0, include_hybrid=include_hybrid)
        experiment = run_experiment(p.spec, list(p.methods), 2, p.stop)
        replay = fresh_kernel_replay(experiment, 2, p.stop)
        assert len(replay) == len(experiment.records)
        for rec, ref in zip(experiment.records, replay):
            rows = [(r.epoch, r.error_l2, r.residual_l2, r.z_error_l2) for r in rec.trace.rows]
            assert rows == [(r.epoch, r.error_l2, r.residual_l2, r.z_error_l2) for r in ref.rows]
            assert np.array_equal(rec.trace.final_x, ref.final_x)
            assert rec.trace.converged == ref.converged

    @pytest.mark.parametrize("preset, trials", [("fig4", 2), ("fig3a", 3)])
    def test_each_arm_factors_its_partitions_once(self, preset, trials, monkeypatch):
        # fig4: one column plan per blockcd arm; fig3a: double's row and
        # column plans and block's row plan, none for rek
        calls = []

        def counting_plan(a, partition):
            calls.append(partition)
            return make_block_plan(a, partition)

        monkeypatch.setattr(solvers, "make_block_plan", counting_plan)
        p = make_preset(preset, 0, max_epochs=1)
        experiment = run_experiment(p.spec, list(p.methods), trials, p.stop)
        assert len(calls) == 3
        assert len({id(part) for part in calls}) == 3
        assert len(experiment.records) == trials * len(p.methods)

    # each method's step engine, and the block counts of its arms
    ENGINES = {
        "rk": ("_NormChunks", {}),
        "rek": ("_NormChunks", {}),
        "blockcd": ("_PinvDescent", {"col_blocks": 3}),
        "block": ("_RowBlocks", {"row_blocks": 4}),
        "double": ("_BasesDescent", {"row_blocks": 4, "col_blocks": 3}),
        "hybrid": ("_BasesDescent", {"row_blocks": 4}),
    }

    @pytest.mark.parametrize("max_epochs", [0, 3])
    @pytest.mark.parametrize("method", list(ENGINES))
    def test_each_arm_builds_its_kernel_once_whatever_the_stop_rule(self, method, max_epochs, monkeypatch):
        # an arm's kernel is built when the arm is prepared, so an experiment
        # without epochs builds it too, and its trials never build it again
        builds = []
        engine, blocks = self.ENGINES[method]
        owner = getattr(solvers, engine)
        real = owner.build

        def counting_build(self):
            builds.append(self)
            return real(self)

        monkeypatch.setattr(owner, "build", counting_build)
        arms = [MethodSetting(method, **blocks), MethodSetting(method, label="second", **blocks)]
        experiment = run_experiment(tiny_spec(), arms, 3, StopRule(max_epochs, 1e-300))
        assert len(builds) == 2 and builds[0] is not builds[1]
        assert all(len(rec.trace.rows) == max_epochs + 1 for rec in experiment.records)

    @pytest.mark.parametrize(
        "blocks, message",
        [({"row_blocks": 21}, "arm 'double' asks for 21 row blocks of the system's 20 rows"),
         ({"col_blocks": 11}, "arm 'double' asks for 11 column blocks of the system's 10 columns"),
         ({"row_blocks": None}, "method 'double' needs row_blocks"),
         ({"col_blocks": None}, "method 'double' needs col_blocks"),
         ({"method": "rk", "col_blocks": None}, "method 'rk' does not take row_blocks"),
         ({"method": "blockcd"}, "method 'blockcd' does not take row_blocks")],
    )
    def test_arm_whose_block_counts_do_not_fit_raises_config_error(self, blocks, message):
        arm = MethodSetting(**{"method": "double", "row_blocks": 4, "col_blocks": 3, **blocks})
        with pytest.raises(solvers.ConfigError, match=f"^{message}$"):
            run_experiment(tiny_spec(), [arm], 1, StopRule(1, 1e-6))

    def test_unknown_method_raises_config_error(self):
        with pytest.raises(solvers.ConfigError, match="unknown method 'nope'"):
            run_experiment(tiny_spec(), [MethodSetting("nope")], 1, StopRule(1, 1e-6))


class TestAggregateBands:
    def test_single_record_collapses(self):
        recs = run_experiment(tiny_spec(), [MethodSetting("rek")], trials=1, stop=StopRule(4, 1e-300)).records
        bands = aggregate_bands(recs)["rek"]
        assert np.array_equal(bands.median, bands.lo)
        assert np.array_equal(bands.median, bands.hi)

    def test_two_records_midpoint_median(self):
        recs = run_experiment(tiny_spec(), [MethodSetting("rek")], trials=2, stop=StopRule(4, 1e-300)).records
        bands = aggregate_bands(recs)["rek"]
        e0 = [r.trace.rows[2].error_l2 for r in recs]
        assert bands.median[2] == pytest.approx(0.5 * (e0[0] + e0[1]))

    def test_band_contains_every_trace(self):
        recs = run_experiment(
            tiny_spec(), [MethodSetting("blockcd", col_blocks=3)], trials=40, stop=StopRule(60, 1e-6)
        ).records
        bands = aggregate_bands(recs)["blockcd"]
        for rec in recs:
            errors = [row.error_l2 for row in rec.trace.rows]
            padded = errors + [errors[-1]] * (bands.epochs.size - len(errors))
            assert np.all(bands.lo <= np.array(padded) + 1e-300)
            assert np.all(np.array(padded) <= bands.hi + 1e-300)

    def test_padding_flagged(self):
        recs = run_experiment(
            tiny_spec(), [MethodSetting("blockcd", col_blocks=3)], trials=8, stop=StopRule(60, 1e-6)
        ).records
        lengths = {len(r.trace.rows) for r in recs}
        bands = aggregate_bands(recs)["blockcd"]
        if len(lengths) > 1:
            assert bands.n_padded >= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate_bands([])


class TestWriteCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([], path)
        assert path.read_text() == TRACE_HEADER + "\n"

    def test_line_count(self, tmp_path):
        recs = run_experiment(tiny_spec(), [MethodSetting("rek")], trials=1, stop=StopRule(2, 1e-300)).records
        path = tmp_path / "t.csv"
        write_csv(recs, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # header + epochs 0..2
        assert lines[0] == TRACE_HEADER

    def test_roundtrip_values(self, tmp_path):
        recs = run_experiment(tiny_spec(), [MethodSetting("rek")], trials=2, stop=StopRule(3, 1e-300)).records
        path = tmp_path / "t.csv"
        write_csv(recs, path)
        lines = path.read_text().splitlines()[1:]
        k = 0
        for rec in recs:
            for row in rec.trace.rows:
                fields = lines[k].split(",")
                assert fields[0] == "rek" and int(fields[1]) == rec.trial
                assert float(fields[3]) == row.error_l2
                assert float(fields[4]) == row.residual_l2
                assert float(fields[5]) == row.z_error_l2
                k += 1

    def test_z_error_blank_for_rk(self, tmp_path):
        recs = run_experiment(tiny_spec(), [MethodSetting("rk")], trials=1, stop=StopRule(1, 1e-300)).records
        path = tmp_path / "t.csv"
        write_csv(recs, path)
        line = path.read_text().splitlines()[1]
        assert line.split(",")[5] == ""

    def test_bands_schema(self, tmp_path):
        recs = run_experiment(tiny_spec(), [MethodSetting("rek")], trials=2, stop=StopRule(2, 1e-300)).records
        path = tmp_path / "b.csv"
        write_csv(aggregate_bands(recs), path)
        lines = path.read_text().splitlines()
        assert lines[0] == BANDS_HEADER
        assert len(lines) == 4


def envelopes_from_spec(spec, methods, max_epochs):
    """Reference: envelopes on a system generated again from ``spec``, with
    every arm prepared afresh (how envelopes were once computed)."""
    system = generate_system(spec)
    return compute_envelopes([prepare_method(system, m, spec.seed) for m in methods], max_epochs)


def prepared_arms(spec, methods):
    return run_experiment(spec, methods, trials=1, stop=StopRule(0, 1e-6)).arms


class TestEnvelopes:
    def test_rows_for_each_bounded_method(self):
        spec = tiny_spec()
        methods = [
            MethodSetting("rek"),
            MethodSetting("rk"),
            MethodSetting("block", row_blocks=4),
            MethodSetting("double", row_blocks=4, col_blocks=3),
            MethodSetting("blockcd", col_blocks=3),
            MethodSetting("hybrid", row_blocks=4),
        ]
        rows = compute_envelopes(prepared_arms(spec, methods), {m.name: 5 for m in methods})
        by_method = {}
        for r in rows:
            by_method.setdefault(r.method, []).append(r)
        assert set(by_method) == {"rek", "rk", "block", "double", "blockcd"}
        for name, rs in by_method.items():
            assert len(rs) == 6
            assert all(np.isfinite(r.value) and r.value >= 0 for r in rs)
        # the plain block method only gets its plateau term
        block_vals = {r.value for r in by_method["block"]}
        assert len(block_vals) == 1
        # the plain row method bounds the error itself, other bounds are squared
        assert {r.metric for r in by_method["rk"]} == {"error_l2"}
        assert {r.metric for r in by_method["rek"]} == {"error_l2_sq"}

    def test_experiment_arms_match_the_spec_path(self):
        spec = ProblemSpec(kind=GAUSSIAN_DYNAMIC, n=30, d=8, residual_norm=0.5, seed=3)
        methods = [
            MethodSetting("rek"),
            MethodSetting("rk"),
            MethodSetting("block", row_blocks=4),
            MethodSetting("double", row_blocks=4, col_blocks=3),
            MethodSetting("blockcd", col_blocks=3),
            MethodSetting("blockcd", label="blockcd-std", col_blocks=3, standardize_columns=True),
        ]
        grid = {m.name: 4 for m in methods}
        experiment = run_experiment(spec, methods, trials=2, stop=StopRule(3, 1e-300))
        assert all(arm.base_system is experiment.system for arm in experiment.arms)
        rows = compute_envelopes(experiment.arms, grid)
        assert {r.method for r in rows} == set(grid)
        assert rows == envelopes_from_spec(spec, methods, grid)

    @pytest.mark.parametrize("preset, include_hybrid, paved_sides", [("fig3a", True, 2), ("fig4", False, 3)])
    def test_envelopes_read_the_kernel_spectra_and_take_no_svd(self, preset, include_hybrid, paved_sides, monkeypatch):
        # double paves its rows and columns, each blockcd arm its columns, all
        # on the singular values the arm's kernel holds: no block is factored
        # again, and rek, block and hybrid pave nothing
        p = make_preset(preset, 0, max_epochs=0, include_hybrid=include_hybrid)
        arms = run_experiment(p.spec, list(p.methods), 1, p.stop).arms
        svds, pavings = [], []

        def counting(real, calls):
            return lambda *args, **kwargs: calls.append(real.__name__) or real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, svds))
        for module in (linalg, solvers):
            monkeypatch.setattr(module, "svd_factor", counting(linalg.svd_factor, svds))
        monkeypatch.setattr(harness, "paving_bounds", counting(harness.paving_bounds, pavings))
        rows = compute_envelopes(arms, {arm.setting.name: 3 for arm in arms})
        assert svds == []
        assert len(pavings) == paved_sides
        assert {r.method for r in rows} == {m.name for m in p.methods if m.method != "hybrid"}

    def test_fig4_factors_nothing_with_more_than_d_plus_one_rows(self, monkeypatch):
        # make_system factors [a | b] once and solves for the oracle on its
        # d x d factor R, and each blockcd arm plans its column blocks on R:
        # no SVD or solve sees the 1200 rows of the ray matrix
        p = make_preset("fig4", 0, max_epochs=0)
        shapes = []

        def counting(real):
            return lambda a, *args, **kwargs: shapes.append((real.__name__, a.shape)) or real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "lstsq", counting(np.linalg.lstsq))
        for module in (linalg, solvers):
            monkeypatch.setattr(module, "svd_factor", counting(linalg.svd_factor))
        experiment = run_experiment(p.spec, list(p.methods), 1, p.stop)
        n, d = experiment.system.a.shape
        assert n > d + 1
        blocks = sum(m.col_blocks for m in p.methods)
        assert [name for name, _ in shapes].count("svd_factor") == blocks
        assert [shape for name, shape in shapes if name == "lstsq"] == [(d, d)]
        assert max(shape[0] for _, shape in shapes) <= d + 1

    def test_arms_missing_from_the_grid_are_skipped(self):
        arms = prepared_arms(tiny_spec(), [MethodSetting("rek"), MethodSetting("rk")])
        assert {r.method for r in compute_envelopes(arms, {"rk": 2})} == {"rk"}

    def test_envelope_csv(self, tmp_path):
        rows = compute_envelopes(prepared_arms(tiny_spec(), [MethodSetting("rek")]), {"rek": 3})
        path = tmp_path / "e.csv"
        write_envelopes_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ENVELOPES_HEADER
        assert len(lines) == 5


class TestPresets:
    def test_all_presets_well_formed(self):
        assert set(PRESETS) == {"fig1", "fig2", "fig3a", "fig3b", "figd", "fig4"}
        for name, preset in PRESETS.items():
            assert preset.methods
            assert preset.stop.max_epochs >= 1

    def test_make_preset_overrides(self):
        preset = make_preset("fig1", seed=11, max_epochs=7, error_threshold=1e-3, col_blocks=5)
        assert preset.spec.seed == 11
        assert preset.stop.max_epochs == 7
        assert preset.stop.error_threshold == 1e-3
        double = [m for m in preset.methods if m.method == "double"][0]
        assert double.col_blocks == 5
        assert double.row_blocks == 30

    def test_make_preset_hybrid_arm(self):
        preset = make_preset("fig1", seed=0, include_hybrid=True)
        assert preset.methods[-1].method == "hybrid"

    def test_block_flag_reaches_every_arm_that_takes_its_side(self):
        preset = make_preset("fig3a", seed=0, row_blocks=5, include_hybrid=True)
        assert {m.method: m.row_blocks for m in preset.methods} == {"rek": None, "double": 5, "block": 5, "hybrid": 5}
        assert [m.col_blocks for m in preset.methods] == [None, 10, None, None]
        hybrid_only = make_preset("fig2", seed=0, row_blocks=5, include_hybrid=True)
        assert [(m.method, m.row_blocks) for m in hybrid_only.methods] == [("rek", None), ("blockcd", None), ("hybrid", 5)]

    @pytest.mark.parametrize(
        "preset, blocks, message",
        [("fig2", {"row_blocks": 5}, "no arm of preset 'fig2' takes row_blocks"),
         ("fig4", {"col_blocks": 25}, "the arms of preset 'fig4' take different col_blocks: 10, 20, 40")],
    )
    def test_block_flag_no_arm_or_arms_of_several_counts_take(self, preset, blocks, message):
        with pytest.raises(solvers.ConfigError, match=f"^{message}$"):
            make_preset(preset, seed=0, **blocks)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_preset("fig9", seed=0)
