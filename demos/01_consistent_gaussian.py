"""Consistent Gaussian benchmark: extended Kaczmarz vs the block methods.

A 300x100 matrix with unit-norm rows and a planted solution.  The double
block method sweeps a 30-block row partition and a 10-block column partition;
block coordinate descent uses the column partition alone.  Both reach the
1e-6 success threshold in fewer epochs and far less CPU time than the
single-row extended method, even though every iteration touches more data.

Writes error-vs-epoch and error-vs-CPU band plots next to this script.
"""

from pathlib import Path


from blockkaczmarz import (
    MethodSetting,
    ProblemSpec,
    StopRule,
    aggregate_bands,
    run_experiment,
    write_csv,
    write_svg_plot,
)

TRIALS = 10  # the benchmark presets default to 40; trimmed here for a quick demo
OUT = Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    spec = ProblemSpec(kind="gaussian_rowstd", n=300, d=100, seed=0)
    methods = [
        MethodSetting("rek"),
        MethodSetting("double", row_blocks=30, col_blocks=10),
        MethodSetting("blockcd", col_blocks=10),
    ]
    records = run_experiment(spec, methods, trials=TRIALS, stop=StopRule(max_epochs=300, error_threshold=1e-6)).records
    bands = aggregate_bands(records)

    print(f"consistent 300x100 Gaussian, {TRIALS} trials, success threshold 1e-6")
    for name, b in bands.items():
        print(
            f"  {name:8s} median final error {b.median[-1]:.2e} "
            f"after {int(b.epochs[-1])} epochs, median cpu {b.cpu_median[-1]:.3f}s"
        )

    write_csv(records, OUT / "consistent_trace.csv")
    write_svg_plot(bands, OUT / "consistent_epochs.svg", x_axis="epoch", title="consistent: error vs epochs")
    write_svg_plot(bands, OUT / "consistent_cpu.svg", x_axis="cpu_seconds", title="consistent: error vs CPU")
    print(f"wrote plots and trace to {OUT}")


if __name__ == "__main__":
    main()
