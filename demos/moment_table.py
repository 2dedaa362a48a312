"""Gaussian moment table for the built-in activation catalog.

For each activation sigma this prints the mean mu0 = E sigma(G), the linear
component mu1 = E G sigma(G) and the nonlinear power mu2^2 = E sigma(G)^2 -
mu0^2 - mu1^2 under G ~ N(0, 1), computed by the panel quadrature in
``compute_moments``.  Where an elementary closed form exists it is printed
alongside so the agreement is visible at a glance.
"""

import math

from multidescent import ActivationSpec, compute_moments, format_number


def closed_forms() -> dict[str, tuple[float, float, float]]:
    """Hand-derived moment triples for the kinds that admit one."""
    inv_root_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    bump = 0.25 - 1.0 / (2.0 * math.pi)
    return {
        "relu": (inv_root_2pi, 0.5, bump),
        "step": (0.5, inv_root_2pi, bump),
        "identity": (0.0, 1.0, 0.0),
        "constant": (1.0, 0.0, 0.0),
        "sin": (0.0, math.exp(-0.5), 0.5 * (1.0 - math.exp(-2.0)) - math.exp(-1.0)),
        "cos": (math.exp(-0.5), 0.0, 0.5 * (1.0 - math.exp(-1.0)) ** 2),
    }


def main() -> None:
    catalog = [
        ActivationSpec("relu"),
        ActivationSpec("step"),
        ActivationSpec("elu"),
        ActivationSpec("sigmoid"),
        ActivationSpec("tanh"),
        ActivationSpec("sin"),
        ActivationSpec("cos"),
        ActivationSpec("identity"),
        ActivationSpec("constant"),
        ActivationSpec("elu", in_scale=3.0),
        ActivationSpec("relu", in_scale=0.25),
    ]
    oracles = closed_forms()
    print(f"{'activation':<16} {'mu0':>20} {'mu1':>20} {'mu2_sq':>20}")
    for act in catalog:
        m = compute_moments(act)
        label = act.kind if act.in_scale == 1.0 else f"{act.kind}({act.in_scale:g}x)"
        print(
            f"{label:<16} {format_number(m.mu0):>20} "
            f"{format_number(m.mu1):>20} {format_number(m.mu2_sq):>20}"
        )
        if act.in_scale == 1.0 and act.kind in oracles:
            o0, o1, o2 = oracles[act.kind]
            drift = max(abs(m.mu0 - o0), abs(m.mu1 - o1), abs(m.mu2_sq - o2))
            print(f"{'  closed form':<16} {format_number(o0):>20} "
                  f"{format_number(o1):>20} {format_number(o2):>20}"
                  f"   (max gap {drift:.1e})")
    print()
    print("mu1 separates the linear part of the activation; mu2_sq is what is")
    print("left after mean and linear part are removed.  Activations with the")
    print("same (mu1, mu2_sq) pair are interchangeable in the asymptotic theory.")


if __name__ == "__main__":
    main()
