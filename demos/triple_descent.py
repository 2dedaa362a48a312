"""Triple descent of a two-component random feature model, theory only.

Sweeps the complexity ratio c = (N1 + N2)/n for features built from ELU(3x)
and ReLU(x/4) at small ridge, then reports the interior local maxima of the
excess risk curve.  With two components the curve shows three descents: the
classical peak at c = 1 plus a second peak where the wider block alone
matches the sample count.  Writes the curve as CSV and SVG.
"""

import argparse
import pathlib

from multidescent import (
    ActivationSpec,
    SweepSpec,
    TheorySpec,
    compute_moments,
    render_svg,
    run_sweep,
    write_csv,
)


def interior_maxima(c, risks) -> list[float]:
    return [
        c[i]
        for i in range(1, len(c) - 1)
        if risks[i] > risks[i - 1] and risks[i] > risks[i + 1]
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_output", help="artifact directory")
    args = parser.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    moments = (
        compute_moments(ActivationSpec("elu", in_scale=3.0)),
        compute_moments(ActivationSpec("relu", in_scale=0.25)),
    )
    # Equal block widths; the sweep scales them along c.
    base = TheorySpec(
        psi=(1.0, 1.0), psi_n=10.0 / 3.0, moments=moments, lam=1e-5, F1=1.0, tau=0.1
    )
    grid = tuple(0.2 + 0.05 * i for i in range(61))
    result = run_sweep(SweepSpec(base=base, c_grid=grid))

    csv_path = outdir / "triple_descent.csv"
    svg_path = outdir / "triple_descent.svg"
    write_csv(result, str(csv_path))
    render_svg(result, str(svg_path), log_y=True)

    peaks = interior_maxima(result.c.tolist(), result.theory_risk)
    print(f"swept {len(result.c)} grid points at lambda = {base.lam:g}")
    print(f"interior risk maxima at c = {[round(p, 2) for p in peaks]}")
    print("descents: below c=1 (underparameterized), between the peaks, and")
    print("past the last peak where the risk falls toward its width limit.")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
