"""Wild row norms: solve through the column-standardized system instead.

Here the i-th row of the matrix has norm i, so the squared-row-norm dynamic
range is n^2 = 90000 and no useful row paving exists.  Block coordinate
descent needs only a column partition, and running it on the column-rescaled
matrix keeps the blocks well conditioned; rescaling the iterate back at the
end recovers the least-squares solution of the *original* system.  The trace
below reports errors in original coordinates throughout.
"""

from pathlib import Path

from blockkaczmarz import (
    MethodSetting,
    ProblemSpec,
    StopRule,
    aggregate_bands,
    dynamic_range,
    generate_system,
    run_experiment,
    write_svg_plot,
)

TRIALS = 10
OUT = Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    spec = ProblemSpec(kind="gaussian_dynamic_rows", n=300, d=100, residual_norm=0.5, seed=0)
    system = generate_system(spec)
    print(f"graded-row system: dynamic range of squared row norms = {dynamic_range(system.a):.0f}")

    methods = [
        MethodSetting("rek"),
        MethodSetting("blockcd", label="blockcd-std", col_blocks=10, standardize_columns=True),
    ]
    records = run_experiment(spec, methods, trials=TRIALS, stop=StopRule(max_epochs=400, error_threshold=1e-6)).records
    bands = aggregate_bands(records)
    for name, b in bands.items():
        print(f"  {name:12s} median final error {b.median[-1]:.2e} after {int(b.epochs[-1])} epochs")

    write_svg_plot(bands, OUT / "dynamic_epochs.svg", x_axis="epoch", title="graded rows: error vs epochs")
    write_svg_plot(bands, OUT / "dynamic_cpu.svg", x_axis="cpu_seconds", title="graded rows: error vs CPU")
    print(f"wrote plots to {OUT}")


if __name__ == "__main__":
    main()
