"""Random-ray tomography: block coordinate descent at several paving sizes.

Builds a 1200x400 absorption operator (3x oversampled random chords of a
20x20 pixel grid), reconstructs a smooth phantom, and compares column paving
sizes 10/20/40.  Fewer, larger blocks do more work per iteration but an
"epoch" is normalized to one sweep over the rows either way, so the curves
are directly comparable.
"""

from pathlib import Path


from blockkaczmarz import (
    MethodSetting,
    ProblemSpec,
    StopRule,
    aggregate_bands,
    generate_system,
    run_experiment,
    write_svg_plot,
)

TRIALS = 5
OUT = Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    spec = ProblemSpec(kind="tomography", tomo_n=20, tomo_f=3, seed=0)
    system = generate_system(spec)
    print(f"tomography operator: shape {system.a.shape}, condition number {system.spectral.condition:.2f}")
    print(f"phantom mass: {system.x_ls.sum():.2f} over {system.n_cols} pixels")

    methods = [
        MethodSetting("blockcd", label=f"blockcd-p{p}", col_blocks=p) for p in (10, 20, 40)
    ]
    records = run_experiment(spec, methods, trials=TRIALS, stop=StopRule(max_epochs=300, error_threshold=1e-6)).records
    bands = aggregate_bands(records)
    for name, b in bands.items():
        print(f"  {name:12s} median final error {b.median[-1]:.2e} after {int(b.epochs[-1])} epochs")

    write_svg_plot(bands, OUT / "tomography_epochs.svg", x_axis="epoch", title="tomography: error vs epochs")
    write_svg_plot(bands, OUT / "tomography_cpu.svg", x_axis="cpu_seconds", title="tomography: error vs CPU")
    print(f"wrote plots to {OUT}")


if __name__ == "__main__":
    main()
