import re
from dataclasses import replace

import numpy as np
import pytest

from blockkaczmarz import cli, harness
from blockkaczmarz.cli import main
from blockkaczmarz.harness import ExperimentRecord, MethodSetting, derive_seed, prepare_method, write_csv
from blockkaczmarz.matio import read_matrix, read_vector, write_matrix, write_vector
from blockkaczmarz.paving import paving_bounds, random_partition
from blockkaczmarz.solvers import StopRule, run
from blockkaczmarz.systems import make_system


@pytest.fixture
def system_files(tmp_path, rng):
    a = rng.standard_normal((24, 6))
    x = rng.standard_normal(6)
    b = a @ x
    mpath, bpath = tmp_path / "a.txt", tmp_path / "b.txt"
    write_matrix(a, mpath)
    write_vector(b, bpath)
    return a, b, str(mpath), str(bpath)


class TestPaveCheck:
    def test_output_matches_library(self, system_files, capsys):
        a, _, mpath, _ = system_files
        assert main(["pave-check", mpath, "--blocks", "4", "--axis", "rows", "--seed", "3"]) == 0
        out = capsys.readouterr().out.strip().split()
        partition = random_partition(24, 4, np.random.default_rng(3))
        params = paving_bounds(a, partition)
        assert int(out[0]) == 4
        assert float(out[1]) == pytest.approx(params.alpha, rel=1e-15)
        assert float(out[2]) == pytest.approx(params.beta, rel=1e-15)

    def test_columns_axis(self, system_files, capsys):
        _, _, mpath, _ = system_files
        assert main(["pave-check", mpath, "--blocks", "2", "--axis", "cols"]) == 0
        assert len(capsys.readouterr().out.strip().split()) == 3


class TestSolve:
    def test_rek_converges(self, system_files, capsys):
        _, _, mpath, bpath = system_files
        code = main(
            ["solve", "--matrix", mpath, "--rhs", bpath, "--method", "rek", "--max-epochs", "400", "--tol", "1e-8"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        final = float(out.split()[0].split("=")[1])
        assert final <= 1e-8

    def test_trace_file(self, system_files, tmp_path, capsys):
        _, _, mpath, bpath = system_files
        trace_path = tmp_path / "trace.csv"
        main(
            [
                "solve", "--matrix", mpath, "--rhs", bpath, "--method", "blockcd",
                "--col-blocks", "2", "--max-epochs", "50", "--tol", "1e-8",
                "--trace", str(trace_path),
            ]
        )
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("method,trial,epoch")
        assert lines[1].split(",")[0] == "blockcd"

    @pytest.mark.parametrize("method, blocks", [("blockcd", ["--col-blocks", "3"]),
                                                ("double", ["--row-blocks", "4", "--col-blocks", "2"])])
    def test_trace_matches_the_prepared_arm_at_the_same_seed(self, system_files, tmp_path, capsys, method, blocks):
        # solve draws the partitions an experiment arm of its method draws
        _, _, mpath, bpath = system_files
        trace_path = tmp_path / "trace.csv"
        argv = ["solve", "--matrix", mpath, "--rhs", bpath, "--method", method, *blocks,
                "--seed", "5", "--max-epochs", "20", "--tol", "1e-12", "--trace", str(trace_path)]
        assert main(argv) == 0
        system = make_system(read_matrix(mpath), read_vector(bpath))
        counts = dict(zip(blocks[::2], map(int, blocks[1::2])))
        setting = MethodSetting(method, row_blocks=counts.get("--row-blocks"), col_blocks=counts.get("--col-blocks"))
        config = replace(prepare_method(system, setting, 5).config, seed=derive_seed(5, method, 0))
        ref = tmp_path / "ref.csv"
        write_csv([ExperimentRecord(method=method, trial=0, trace=run(system, config, StopRule(20, 1e-12)))], ref)
        assert strip_cpu_column(trace_path) == strip_cpu_column(ref)

    def test_block_requires_row_blocks(self, system_files):
        _, _, mpath, bpath = system_files
        with pytest.raises(SystemExit):
            main(["solve", "--matrix", mpath, "--rhs", bpath, "--method", "block"])

    def test_bad_method_rejected(self, system_files):
        _, _, mpath, bpath = system_files
        with pytest.raises(SystemExit):
            main(["solve", "--matrix", mpath, "--rhs", bpath, "--method", "hybrid"])


class TestNumericFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve-blockcd", "--col-blocks", "0"),
            ("solve-blockcd", "--col-blocks", "-3"),
            ("solve-block", "--row-blocks", "two"),
            ("solve-blockcd", "--max-epochs", "-1"),
            ("solve-blockcd", "--tol", "0"),
            ("solve-blockcd", "--tol", "nan"),
            ("pave-check", "--blocks", "0"),
            ("experiment", "--trials", "0"),
            ("experiment", "--max-epochs", "-1"),
            ("experiment", "--tol", "-0.5"),
            ("experiment", "--row-blocks", "0"),
            ("solve-blockcd", "--seed", "-1"),
            ("pave-check", "--seed", "-1"),
            ("experiment", "--seed", "-1"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, system_files, tmp_path, capsys, command, flag, value):
        _, _, mpath, bpath = system_files
        argv = {
            "solve-blockcd": ["solve", "--matrix", mpath, "--rhs", bpath, "--method", "blockcd", "--col-blocks", "2"],
            "solve-block": ["solve", "--matrix", mpath, "--rhs", bpath, "--method", "block"],
            "pave-check": ["pave-check", mpath],
            "experiment": ["experiment", "--preset", "fig1", "--out", str(tmp_path)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected " in err and f", got {value!r}" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_zero_epochs_accepted(self, system_files, capsys):
        _, _, mpath, bpath = system_files
        argv = ["solve", "--matrix", mpath, "--rhs", bpath, "--method", "blockcd", "--col-blocks", "2"]
        assert main(argv + ["--max-epochs", "0"]) == 0
        assert capsys.readouterr().out.strip().endswith("epochs=0")

    @pytest.mark.parametrize("method, flag", [("rek", "--row-blocks"), ("rk", "--col-blocks"),
                                              ("block", "--col-blocks"), ("blockcd", "--row-blocks")])
    def test_solve_rejects_a_block_flag_its_method_does_not_take(self, system_files, method, flag):
        _, _, mpath, bpath = system_files
        argv = ["solve", "--matrix", mpath, "--rhs", bpath, "--method", method, flag, "3"]
        needed = {"block": ["--row-blocks", "2"], "blockcd": ["--col-blocks", "2"]}.get(method, [])
        # the message leads with every block flag given, rows first
        flags = "--row-blocks / --col-blocks" if needed else flag
        field = flag[2:].replace("-", "_")
        with pytest.raises(SystemExit, match=f"^{flags}: method '{method}' does not take {field}$"):
            main(argv + needed)

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["solve", "--method", "blockcd", "--col-blocks", "7"],
                         "--col-blocks: arm 'blockcd' asks for 7 column blocks of the system's 6 columns",
                         id="argv0---col-blocks 7 exceeds the matrix's 6 columns"),
            pytest.param(["solve", "--method", "block", "--row-blocks", "25"],
                         "--row-blocks: arm 'block' asks for 25 row blocks of the system's 24 rows",
                         id="argv1---row-blocks 25 exceeds the matrix's 24 rows"),
            (["pave-check", "--blocks", "25"], "--blocks 25 exceeds the matrix's 24 rows"),
            (["pave-check", "--blocks", "7", "--axis", "cols"], "--blocks 7 exceeds the matrix's 6 columns"),
        ],
    )
    def test_block_count_above_the_matrix_extent(self, system_files, argv, message):
        _, _, mpath, bpath = system_files
        files = ["--matrix", mpath, "--rhs", bpath] if argv[0] == "solve" else [mpath]
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(argv[:1] + files + argv[1:])

    @pytest.mark.parametrize(
        "flag, count, message",
        [("--col-blocks", "101", "arm 'double' asks for 101 column blocks of the system's 100 columns"),
         ("--row-blocks", "301", "arm 'double' asks for 301 row blocks of the system's 300 rows")],
    )
    def test_experiment_block_count_above_the_system_extent(self, tmp_path, flag, count, message):
        argv = ["experiment", "--preset", "fig1", "--trials", "1", "--max-epochs", "0", "--out", str(tmp_path)]
        with pytest.raises(SystemExit, match=f"^{flag}: {message}$"):
            main(argv + [flag, count])

    @pytest.mark.parametrize(
        "argv, message",
        [(["--preset", "fig2", "--row-blocks", "5"], "--row-blocks: no arm of preset 'fig2' takes row_blocks"),
         (["--preset", "fig4", "--col-blocks", "25"],
          "--col-blocks: the arms of preset 'fig4' take different col_blocks: 10, 20, 40")],
    )
    def test_experiment_block_flag_no_arm_or_arms_of_several_counts_take(self, tmp_path, argv, message):
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(["experiment", *argv, "--trials", "1", "--max-epochs", "0", "--out", str(tmp_path)])
        assert not (tmp_path / "trace.csv").exists()


def strip_cpu_column(path):
    return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]


EXPERIMENT_FILES = ["trace.csv", "bands.csv", "bands_epoch.svg", "bands_cpu.svg", "envelopes.csv"]


class TestExperiment:
    def test_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["experiment", "--preset", "fig1", "--seed", "2", "--trials", "2", "--max-epochs", "3", "--out", str(out)]
        )
        assert code == 0
        for name in EXPERIMENT_FILES:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "rek" in stdout and "double" in stdout

    def test_repeat_invocation_identical_minus_cpu(self, tmp_path, capsys):
        args = ["experiment", "--preset", "fig3b", "--seed", "7", "--trials", "2", "--max-epochs", "4"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        assert strip_cpu_column(d1 / "trace.csv") == strip_cpu_column(d2 / "trace.csv")
        assert (d1 / "bands.csv").read_text() == (d2 / "bands.csv").read_text()
        assert (d1 / "envelopes.csv").read_text() == (d2 / "envelopes.csv").read_text()

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("BLOCKKACZMARZ_OUT", str(env_dir))
        main(["experiment", "--preset", "fig2", "--seed", "0", "--trials", "1", "--max-epochs", "2"])
        assert (env_dir / "trace.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("BLOCKKACZMARZ_OUT", str(env_dir))
        main(
            ["experiment", "--preset", "fig2", "--seed", "0", "--trials", "1", "--max-epochs", "2", "--out", str(flag_dir)]
        )
        assert (flag_dir / "trace.csv").exists()
        assert not env_dir.exists()

    @pytest.mark.parametrize("preset, solve_systems", [("fig2", 1), ("figd", 2), ("fig4", 1)])
    def test_system_generated_once(self, preset, solve_systems, tmp_path, monkeypatch, capsys):
        # figd solves a column-standardized copy of its system: two solve systems
        calls = dict.fromkeys(("generate_system", "make_system", "build_ray_matrix"), 0)
        for name in calls:
            real = getattr(harness, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        args = ["experiment", "--preset", preset, "--trials", "2", "--max-epochs", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "envelopes.csv").read_text().count("\n") > 1
        assert calls == {"generate_system": 1, "make_system": solve_systems, "build_ray_matrix": int(preset == "fig4")}

    def test_include_hybrid_arm(self, tmp_path, capsys):
        out = tmp_path / "hyb"
        main(
            [
                "experiment", "--preset", "fig1", "--seed", "1", "--trials", "1",
                "--max-epochs", "2", "--include-hybrid", "--out", str(out),
            ]
        )
        methods = {line.split(",")[0] for line in (out / "trace.csv").read_text().splitlines()[1:]}
        assert "hybrid" in methods


@pytest.mark.parametrize("argv", [
    ["solve", "--matrix", "{missing}", "--rhs", "{b}", "--method", "rk"],
    ["solve", "--matrix", "{a}", "--rhs", "{missing}", "--method", "rk"],
    ["pave-check", "{missing}", "--blocks", "2"],
], ids=["solve-matrix", "solve-rhs", "pave-check"])
def test_missing_file_exits_with_one_line_naming_it(system_files, tmp_path, argv):
    _, _, mpath, bpath = system_files
    missing = str(tmp_path / "nope.txt")
    with pytest.raises(SystemExit, match=f"^{re.escape(missing)}: No such file or directory$"):
        main([arg.format(a=mpath, b=bpath, missing=missing) for arg in argv])


@pytest.mark.parametrize("argv, named", [
    (["solve", "--matrix", "{zero}", "--rhs", "{b}", "--method", "rk"], "{zero}"),
    (["solve", "--matrix", "{nan}", "--rhs", "{b}", "--method", "rk"], "{nan}"),
    (["solve", "--matrix", "{a}", "--rhs", "{short}", "--method", "rk"], "{short}"),
    (["solve", "--matrix", "{a}", "--rhs", "{a}", "--method", "rk"], "{a}"),
    (["pave-check", "{nan}", "--blocks", "2"], "{nan}"),
    (["experiment", "--preset", "fig1", "--trials", "1", "--max-epochs", "0", "--out", "{file}/out"], "{file}/out"),
    (["solve", "--matrix", "{a}", "--rhs", "{b}", "--method", "rk", "--max-epochs", "1", "--trace", "{nodir}/t.csv"],
     "{nodir}/t.csv"),
    (["experiment", "--preset", "fig1", "--trials", "1", "--max-epochs", "0", "--out", "{taken}"], "{taken}/trace.csv"),
], ids=["solve-zero-matrix", "solve-nan-matrix", "solve-short-rhs", "solve-matrix-as-rhs", "pave-check-nan-matrix",
        "experiment-out-under-a-file", "solve-trace-in-a-missing-directory", "experiment-output-taken-by-a-directory"])
def test_unusable_input_or_output_exits_with_one_line_naming_it(system_files, tmp_path, argv, named):
    # a string SystemExit code exits 1 with that one line on stderr
    _, b, mpath, bpath = system_files
    paths = {"a": mpath, "b": bpath, **{name: str(tmp_path / f"{name}.txt") for name in ("zero", "nan", "short", "file")},
             "nodir": str(tmp_path / "nodir"), "taken": str(tmp_path / "taken")}
    (tmp_path / "taken" / "trace.csv").mkdir(parents=True)
    write_matrix(np.zeros((24, 6)), paths["zero"])
    (tmp_path / "nan.txt").write_text("2 2\n1 nan\n0 1\n")
    write_vector(b[:-1], paths["short"])
    (tmp_path / "file.txt").write_text("a regular file\n")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert named.format(**paths) in message


@pytest.mark.parametrize("trace", ["nodir/t.csv", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_trace_exits_before_the_run(system_files, tmp_path, monkeypatch, trace):
    def fail(*args, **kwargs):
        raise AssertionError("solve ran before checking its --trace")

    monkeypatch.setattr(cli, "run", fail)
    _, _, mpath, bpath = system_files
    path = str(tmp_path / trace)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--matrix", mpath, "--rhs", bpath, "--method", "rk", "--trace", path])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message and path in message


def test_seed_derivation_is_pinned():
    # solve and experiment derive every run's stream through derive_seed, so a
    # change to the derivation moves every recorded trace
    assert derive_seed(5, "rek", 0) == 7686206377599393753
