"""The convergence horizon, and how the projection step breaks it.

On an inconsistent system, plain (block) Kaczmarz projections keep bouncing
off the noise component of the right-hand side: the error stalls at a radius
set by the residual.  The extended variants first learn that component with
an auxiliary sequence and subtract it, so they pass straight through the
horizon and converge to the least-squares solution.

The script prints the theoretical plateau radii next to the observed stalls.
"""

from pathlib import Path

import numpy as np

from blockkaczmarz import (
    MethodSetting,
    ProblemSpec,
    StopRule,
    aggregate_bands,
    block_convergence_horizon,
    generate_system,
    rk_convergence_horizon,
    run_experiment,
    write_svg_plot,
)

TRIALS = 10
OUT = Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    spec = ProblemSpec(kind="gaussian_inconsistent", n=300, d=100, residual_norm=0.5, seed=0)
    system = generate_system(spec)
    print("inconsistent 300x100 system, residual norm 0.5")
    print(f"  single-row plateau radius : {rk_convergence_horizon(system):.3e}")
    print(f"  block plateau radius      : {np.sqrt(block_convergence_horizon(system)):.3e}")

    methods = [
        MethodSetting("block", row_blocks=30),
        MethodSetting("double", row_blocks=30, col_blocks=10),
        MethodSetting("blockcd", col_blocks=10),
    ]
    records = run_experiment(spec, methods, trials=TRIALS, stop=StopRule(max_epochs=200, error_threshold=1e-6)).records
    bands = aggregate_bands(records)
    for name, b in bands.items():
        print(f"  {name:8s} median error at last epoch {b.median[-1]:.2e} (epoch {int(b.epochs[-1])})")

    write_svg_plot(bands, OUT / "horizon_epochs.svg", x_axis="epoch", title="inconsistent: error vs epochs")
    print(f"wrote plot to {OUT}")


if __name__ == "__main__":
    main()
