"""Both ends of the width axis: vanishing and diverging feature counts.

At vanishing widths the model can only predict zero, so the excess risk is
F1^2 exactly.  At diverging widths with a fixed ratio r1:r2 between the two
blocks the risk approaches a closed-form limit that depends on the moments
only through r1*mu_{1,j}^2 + r2*mu_{2,j}^2.  This script evaluates the exact
finite-width risk along a geometric ladder of widths and shows it sliding
from one limit to the other.
"""

from multidescent import (
    ActivationSpec,
    LimitSpec,
    TheorySpec,
    asymptotic_risk,
    compute_moments,
    format_number,
    limit_risk_infinite_width,
)


def main() -> None:
    moments = (
        compute_moments(ActivationSpec("elu", in_scale=3.0)),
        compute_moments(ActivationSpec("relu", in_scale=0.25)),
    )
    psi_n, lam, F1 = 2.0, 1e-2, 1.0
    narrow = TheorySpec(
        psi=(1e-6, 1e-6), psi_n=psi_n, moments=moments, lam=lam, F1=F1
    )
    lo = narrow.F1 ** 2
    hi = limit_risk_infinite_width(
        LimitSpec(r=(1.0, 1.0), psi_n=psi_n, moments=moments, F1=F1)
    )
    print(f"zero-width limit      : {format_number(lo)}  (= F1^2)")
    print(f"infinite-width limit  : {format_number(hi)}")
    print()
    print(f"{'psi_1 = psi_2':>14} {'risk':>18} {'gap to nearer limit':>22}")
    for exponent in range(-6, 7, 2):
        psi = 10.0 ** exponent
        spec = TheorySpec(
            psi=(psi, psi), psi_n=psi_n, moments=moments, lam=lam, F1=F1
        )
        risk = asymptotic_risk(spec).risk
        gap = min(abs(risk - lo), abs(risk - hi))
        print(f"{psi:>14.0e} {format_number(risk):>18} {gap:>22.3e}")
    print()
    print("the exact risk interpolates between the two closed-form limits;")
    print("the approach is O(1/psi) on the wide side and O(psi) on the narrow side.")


if __name__ == "__main__":
    main()
