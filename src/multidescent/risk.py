"""Asymptotic excess risk from the converged scale system.

Everything is evaluated in real arithmetic: the scales are purely imaginary
(nu_j = i b_j), so every squared quantity entering the auxiliary matrices
gets the sign substitution nu_j^2 -> -b_j^2, and the matrices come out real.
The risk splits as

    risk = F1^2 * (1/MD^2 + L[3,4] + L[1,4])  +  tau^2 * (L[2,3] + L[1,2])

with L = V^T H^{-1} V (1-based indices above), evaluated for a whole stack
of points with one batched solve.  The two width limits (infinitely wide at
fixed block proportions, for any K, and vanishingly narrow) have closed
forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .activations import Moments
from .nu_system import (
    NuStar,
    SolverConfig,
    TheorySpec,
    _check_blocks,
    _newton,
    _nu_stars,
    _solve_stack,
    _stack_coeffs,
)

__all__ = [
    "TheoryRisk",
    "LimitSpec",
    "DegenerateB",
    "DegenerateMoments",
    "IllConditionedWarning",
    "asymptotic_risk",
    "asymptotic_risk_stack",
    "limit_risk_infinite_width",
    "limit_risk_zero_width",
]

COND_WARN_THRESHOLD = 1e12


class DegenerateB(ValueError):
    """A scale b_j is zero, so the 1/b_j^2 matrix entries are undefined."""


class DegenerateMoments(ValueError):
    """Width-limit formula needs nonzero linear and nonlinear moment weights."""


class IllConditionedWarning(UserWarning):
    """H is numerically ill-conditioned; the risk value may lose digits."""


@dataclass
class TheoryRisk:
    risk: float
    bias: float
    variance: float
    L: np.ndarray
    nu: NuStar


@dataclass(frozen=True)
class LimitSpec:
    """Infinite-width limit instance: widths grow as psi_c = t r_c, t -> inf.

    ``r`` holds one weight per block (only its direction matters),
    ``psi_n`` the sample ratio n/d and ``moments`` one triple per block.
    """

    r: tuple[float, ...]
    psi_n: float
    moments: tuple[Moments, ...]
    F1: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        object.__setattr__(self, "moments", tuple(self.moments))
        _check_blocks("r", self.r, self.moments, self.psi_n, self.F1, self.tau)


def _matrices(psi, m1, m2, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """mN and MD (G,), H (G, K+1, K+1) and V (G, K+1, 4) of G points."""
    k = m1.shape[1]
    bc, bn = b[:, :k], b[:, k]
    mN = (m1 * bc).sum(axis=1)
    MD = -(bn * mN + 1.0)
    md2 = MD * MD
    bn2 = bn * bn
    diag = np.arange(k)

    h = np.empty((len(b), k + 1, k + 1))
    h[:, :k, :k] = bn2[:, None, None] * (m1[:, :, None] * m1[:, None, :]) / md2[:, None, None]
    h[:, diag, diag] -= psi[:, :k] / (bc * bc)
    h[:, :k, k] = -m1 / md2[:, None] - m2
    h[:, k, :k] = h[:, :k, k]
    h[:, k, k] = mN * mN / md2 - psi[:, k] / bn2

    v = np.zeros((len(b), k + 1, 4))
    v[:, :k, 0] = m2
    v[:, k, 1] = 1.0
    v[:, :k, 2] = m1 / md2[:, None]
    v[:, k, 2] = -mN * mN / md2
    v[:, :k, 3] = -bn2[:, None] * m1 / md2[:, None]
    v[:, k, 3] = 1.0 / md2
    return mN, MD, h, v


def _exact_conds(h: np.ndarray) -> np.ndarray:
    """Exact cond(H), in stack order, of every H whose cond(H) may exceed
    ``COND_WARN_THRESHOLD``.

    The SVD behind ``np.linalg.cond`` runs only where the cheap bound
    ||H||_F ||H^-1||_F, never below cond_2(H), exceeds a tenth of the
    threshold (room for the rounding of the bound) or is not finite.
    """
    screen = COND_WARN_THRESHOLD / 10.0
    try:
        with np.errstate(all="ignore"):
            inv = np.linalg.inv(h)
            bound_sq = (h * h).sum(axis=(1, 2)) * (inv * inv).sum(axis=(1, 2))
        h = h[~(bound_sq <= screen * screen)]
    except np.linalg.LinAlgError:  # a singular H: every point gets the SVD
        pass
    return np.linalg.cond(h)


def _score(psi, m1, m2, b, f1_sq, tau_sq, errors: dict):
    """Risk, bias and variance (G,) and L (G, 4, 4) of G solved points.

    Coefficients are as from ``nu_system._stack_coeffs``, ``b`` holds the
    scales and ``f1_sq``, ``tau_sq`` hold F1^2 and tau^2, one per point.
    ``errors`` maps the points that already failed to their exception; it
    gains ``DegenerateB`` for scales with a zero and ``LinAlgError`` for a
    singular H, and every failed point reads NaN.  Warns
    ``IllConditionedWarning`` for each scored point whose cond(H) exceeds
    1e12, in order.
    """
    g = len(b)
    scored = np.ones(g, dtype=bool)
    scored[list(errors)] = False
    zero = scored & (b == 0.0).any(axis=1)
    for i in np.flatnonzero(zero):
        errors[int(i)] = DegenerateB("all b_j must be nonzero")
    scored &= ~zero
    risk, bias, variance = np.full((3, g), np.nan)
    L = np.full((g, 4, 4), np.nan)
    rows = np.flatnonzero(scored)
    if rows.size == 0:
        return risk, bias, variance, L
    if rows.size < g:
        psi, m1, m2, b, f1_sq, tau_sq = (x[rows] for x in (psi, m1, m2, b, f1_sq, tau_sq))
    _, MD, h, v = _matrices(psi, m1, m2, b)
    for cond in _exact_conds(h):
        if not np.isfinite(cond) or cond > COND_WARN_THRESHOLD:
            warnings.warn(
                f"cond(H) = {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; "
                "risk may be inaccurate",
                IllConditionedWarning,
                stacklevel=3,  # the caller of asymptotic_risk_stack or run_sweep
            )
    x, singular = _solve_stack(h, v)
    for j, err in singular.items():
        errors[int(rows[j])] = err
    lr = np.swapaxes(v, 1, 2) @ x
    inv_md2 = 1.0 / (MD * MD)
    bias_r = f1_sq * (inv_md2 + lr[:, 2, 3] + lr[:, 0, 3])
    variance_r = tau_sq * (lr[:, 1, 2] + lr[:, 0, 1])
    risk[rows], bias[rows], variance[rows], L[rows] = bias_r + variance_r, bias_r, variance_r, lr
    return risk, bias, variance, L


def asymptotic_risk_stack(specs, cfg: SolverConfig | None = None) -> list:
    """Asymptotic excess risk of G specs of one K via the matrix route.

    Solves the stacked scale system, builds every H and V, and evaluates
    each L = V^T H^{-1} V with one batched linear solve.  Returns one entry
    per spec, in order: its ``TheoryRisk``, or the exception that failed
    that point alone (``NoConvergence``, ``DegenerateB``, or
    ``LinAlgError`` for a singular Jacobian or H).  Emits
    ``IllConditionedWarning`` for each point whose cond(H) exceeds 1e12.
    """
    specs = list(specs)
    psi, m1, m2, lam = _stack_coeffs(specs)
    b, residual, steps, errors = _newton(psi, m1, m2, lam, cfg or SolverConfig())
    f1_sq = np.array([spec.F1 ** 2 for spec in specs])
    tau_sq = np.array([spec.tau ** 2 for spec in specs])
    risk, bias, variance, L = _score(psi, m1, m2, b, f1_sq, tau_sq, errors)
    return [
        errors[i] if i in errors else
        TheoryRisk(risk=risk[i], bias=bias[i], variance=variance[i], L=L[i], nu=nu)
        for i, nu in enumerate(_nu_stars(b, residual, steps, errors))
    ]


def asymptotic_risk(spec: TheorySpec, cfg: SolverConfig | None = None) -> TheoryRisk:
    """Asymptotic excess risk of ``spec``: ``asymptotic_risk_stack`` for one
    spec, raising its failure.  ``nu`` of the result holds the solved scales."""
    (result,) = asymptotic_risk_stack([spec], cfg)
    if isinstance(result, Exception):
        raise result
    return result


def limit_risk_infinite_width(ls: LimitSpec) -> float:
    """Risk limit as every width grows in the fixed proportions ``ls.r``.

    The blocks enter only through lin = sum_c r_c mu_{c,1}^2 and
    nonlin = sum_c r_c mu_{c,2}^2.
    """
    # Only the direction of r matters.  Scaling it by a power of two that
    # brings its largest entry into [0.5, 1) is exact, and keeps lin, nonlin
    # and their product from overflowing or underflowing.
    _, e = math.frexp(max(ls.r))
    r = [math.ldexp(x, -e) for x in ls.r]
    lin = sum(x * m.mu1 * m.mu1 for x, m in zip(r, ls.moments))
    nonlin = sum(x * m.mu2_sq for x, m in zip(r, ls.moments))
    coupling = lin * nonlin
    if coupling <= 0.0:
        raise DegenerateMoments(
            "need sum_c r_c mu_{c,1}^2 > 0 and sum_c r_c mu_{c,2}^2 > 0 for the width limit"
        )
    a = (ls.psi_n - 1.0) * lin - nonlin
    chi1 = a + math.sqrt(a * a + 4.0 * ls.psi_n * coupling)
    chi0 = chi1 / (2.0 * nonlin)
    return (ls.F1 ** 2 * ls.psi_n + ls.tau ** 2 * chi0 * chi0) / (
        (chi0 + 1.0) ** 2 * ls.psi_n - chi0 * chi0
    )


def limit_risk_zero_width(spec: TheorySpec) -> float:
    """Risk limit as every width ratio shrinks to zero: F1^2."""
    return spec.F1 ** 2
