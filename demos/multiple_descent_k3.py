"""Designing a risk curve with four descents from three feature blocks.

Scaling ReLU scales all of its Gaussian moments, so three ReLU blocks with
input scales (9, 1, 0.1) have second moments separated by factors of about
a hundred.  The strong block dominates while it is narrow; once it can fit
the data the next block takes over, and so on.  Sweeping c = (N1+N2+N3)/n
with width ratios (1, 1, 3) therefore produces a risk curve with peaks near
c = 1, 2.5 and a third one past c = 4, i.e. four separate descents.
Writes CSV and SVG.
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_output", help="artifact directory")
    args = parser.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    scales = (9.0, 1.0, 0.1)
    moments = tuple(
        compute_moments(ActivationSpec("relu", in_scale=s)) for s in scales
    )
    for s, m in zip(scales, moments):
        print(
            f"relu({s:g}x): mu1^2 = {m.mu1**2:.6g}, mu2^2 = {m.mu2_sq:.6g}, "
            f"total power {m.mu1**2 + m.mu2_sq:.6g}"
        )
    # Block widths in proportions 1:1:3; the sweep scales them along c.
    base = TheorySpec(
        psi=(1.0, 1.0, 3.0), psi_n=10.0 / 3.0, moments=moments,
        lam=1e-4, F1=1.0, tau=0.1,
    )
    grid = tuple(0.2 + 0.05 * i for i in range(117))
    result = run_sweep(SweepSpec(base=base, c_grid=grid))

    c, risks = result.c.tolist(), result.theory_risk
    peaks = [
        c[i]
        for i in range(1, len(risks) - 1)
        if risks[i] > risks[i - 1] and risks[i] > risks[i + 1]
    ]
    print(f"\ninterior risk maxima at c = {[round(p, 2) for p in peaks]}")
    print("each peak marks one block exhausting the sample budget; between")
    print("peaks the risk descends again, giving a multiple-descent curve.")

    csv_path = outdir / "multiple_descent_k3.csv"
    svg_path = outdir / "multiple_descent_k3.svg"
    write_csv(result, str(csv_path))
    render_svg(result, str(svg_path), log_y=True)
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
