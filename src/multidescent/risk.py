"""Asymptotic excess risk from the converged scale system.

Everything is evaluated in real arithmetic: the scales are purely imaginary
(nu_j = i b_j), so every squared quantity entering the auxiliary matrices
gets the sign substitution nu_j^2 -> -b_j^2, and the matrices come out real.
The risk splits as

    risk = F1^2 * (1/MD^2 + L[3,4] + L[1,4])  +  tau^2 * (L[2,3] + L[1,2])

with L = V^T H^{-1} V (1-based indices above), evaluated for a whole stack
of points with one batched solve.  A closed-form K=2 route for
the same four L entries is kept alongside as an independent oracle, plus the
two width-limit formulas (infinitely wide, vanishingly narrow).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .activations import Moments
from .nu_system import NuStar, SolverConfig, TheorySpec, _solve_stack, _stack_coeffs, solve_nu_stack

__all__ = [
    "TheoryMatrices",
    "TheoryRisk",
    "LimitSpec",
    "DegenerateB",
    "WrongK",
    "DegenerateS",
    "DegenerateMoments",
    "IllConditionedWarning",
    "build_matrices",
    "asymptotic_risk",
    "asymptotic_risk_stack",
    "explicit_risk_k2",
    "limit_risk_infinite_width",
    "limit_risk_zero_width",
]

COND_WARN_THRESHOLD = 1e12


class DegenerateB(ValueError):
    """A scale b_j is zero, so the 1/b_j^2 matrix entries are undefined."""


class WrongK(ValueError):
    """Closed-form route only exists for exactly two components."""


class DegenerateS(ArithmeticError):
    """Closed-form denominator S vanished."""


class DegenerateMoments(ValueError):
    """Width-limit formula needs a nonzero linear-nonlinear moment coupling."""


class IllConditionedWarning(UserWarning):
    """H is numerically ill-conditioned; the risk value may lose digits."""


@dataclass
class TheoryMatrices:
    """Real forms of the auxiliary matrices.

    ``mN`` is sum_c mu_{c,1}^2 b_c (the full quantity is i*mN) and
    ``MD = -(b_n mN + 1) < 0``.  H is (K+1)x(K+1) symmetric, V is (K+1)x4.
    """

    mN: float
    MD: float
    H: np.ndarray
    V: np.ndarray


@dataclass
class TheoryRisk:
    risk: float
    bias: float
    variance: float
    L: np.ndarray
    nu: NuStar


@dataclass(frozen=True)
class LimitSpec:
    """Infinite-width limit instance: widths grow as psi_1/r1 = psi_2/r2 -> inf."""

    r1: float
    r2: float
    psi3: float
    moments: tuple[Moments, Moments]
    F1: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        if self.r1 <= 0.0 or self.r2 <= 0.0 or self.psi3 <= 0.0:
            raise ValueError("r1, r2 and psi3 must be > 0")
        if len(self.moments) != 2:
            raise ValueError("exactly two moment triples required")


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


def build_matrices(spec: TheorySpec, nu: NuStar) -> TheoryMatrices:
    """Assemble H and V at the converged scales, all-real arithmetic."""
    b = np.asarray(nu.b, dtype=np.float64)
    if np.any(b == 0.0):
        raise DegenerateB("all b_j must be nonzero")
    psi, m1, m2, _ = _stack_coeffs([spec])
    mN, MD, h, v = _matrices(psi, m1, m2, b[None])
    return TheoryMatrices(mN=float(mN[0]), MD=float(MD[0]), H=h[0], V=v[0])


def _risk_from_L(spec: TheorySpec, MD: float, L: np.ndarray, nu: NuStar) -> TheoryRisk:
    inv_md2 = 1.0 / (MD * MD)
    bias = spec.F1 ** 2 * (inv_md2 + L[2, 3] + L[0, 3])
    variance = spec.tau ** 2 * (L[1, 2] + L[0, 1])
    return TheoryRisk(risk=bias + variance, bias=bias, variance=variance, L=L, nu=nu)


def asymptotic_risk_stack(specs, cfg: SolverConfig | None = None, nus=None) -> list:
    """Asymptotic excess risk of G specs of one K via the matrix route.

    Solves the stacked scale system (unless the entries of ``nus`` are
    supplied), builds every H and V, and evaluates each L = V^T H^{-1} V
    with one batched linear solve.  Returns one entry per spec, in order:
    its ``TheoryRisk``, or the exception that failed that point alone
    (``NoConvergence``, ``DegenerateB``, or ``LinAlgError`` for a singular
    H).  Emits ``IllConditionedWarning`` for each point whose cond(H)
    exceeds 1e12.
    """
    specs = list(specs)
    outcome = solve_nu_stack(specs, cfg) if nus is None else list(nus)
    for i, nu in enumerate(outcome):
        if isinstance(nu, NuStar) and np.any(np.asarray(nu.b) == 0.0):
            outcome[i] = DegenerateB("all b_j must be nonzero")
    ok = [i for i, nu in enumerate(outcome) if isinstance(nu, NuStar)]
    if not ok:
        return outcome
    psi, m1, m2, _ = _stack_coeffs([specs[i] for i in ok])
    b = np.array([outcome[i].b for i in ok], dtype=np.float64)
    _, MD, h, v = _matrices(psi, m1, m2, b)
    for cond in np.linalg.cond(h):
        if not np.isfinite(cond) or cond > COND_WARN_THRESHOLD:
            warnings.warn(
                f"cond(H) = {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; "
                "risk may be inaccurate",
                IllConditionedWarning,
                stacklevel=2,
            )
    x, errors = _solve_stack(h, v)
    L = np.swapaxes(v, 1, 2) @ x
    for j, i in enumerate(ok):
        outcome[i] = errors[j] or _risk_from_L(specs[i], MD[j], L[j], outcome[i])
    return outcome


def asymptotic_risk(
    spec: TheorySpec,
    cfg: SolverConfig | None = None,
    nu: NuStar | None = None,
) -> TheoryRisk:
    """Asymptotic excess risk of ``spec``: ``asymptotic_risk_stack`` for one
    spec, raising its failure.  A converged ``nu`` skips the solve."""
    (result,) = asymptotic_risk_stack([spec], cfg, None if nu is None else [nu])
    if isinstance(result, Exception):
        raise result
    return result


def explicit_risk_k2(spec: TheorySpec, nu: NuStar) -> TheoryRisk:
    """Closed-form route for K=2; oracle for the matrix route.

    Evaluates the printed closed forms of S and of the four L entries under
    the purely-imaginary substitutions (squared scales pick up a minus sign)
    and assembles the same risk expression.  Only the four needed entries of
    L are populated (symmetrically); the rest stay zero.
    """
    if spec.K != 2:
        raise WrongK(f"closed form requires K=2, got K={spec.K}")
    b1, b2, b3 = (float(x) for x in nu.b)
    p1, p2, p3 = spec.psi[0], spec.psi[1], spec.psi_n
    m11, m21 = (m.mu1 * m.mu1 for m in spec.moments)
    m12, m22 = (m.mu2_sq for m in spec.moments)

    # Even-power substitutions: nu_j^2 -> -b_j^2, nu_3^4 -> b_3^4,
    # M_N^2 -> -mN^2, M_D and its even powers stay real.
    n1s, n2s, n3s = -b1 * b1, -b2 * b2, -b3 * b3
    n3q = b3 ** 4
    mN = m11 * b1 + m21 * b2
    MD = -(b3 * mN + 1.0)
    mNs = -mN * mN
    md2 = MD * MD
    md4 = md2 * md2
    cross = m12 * m21 - m11 * m22  # mu12^2 mu21^2 - mu11^2 mu22^2

    s = (
        n3q * (n2s * mNs * m21 * m21 * p1 + n1s * mNs * m11 * m11 * p2
               + n1s * n2s * md2 * cross * cross)
        - n3s * n2s * p1 * (2.0 * md2 * m21 * m22 + md4 * m22 * m22
                            + m21 * m21 * (1.0 + md2 * p3))
        - n3s * n1s * p2 * (2.0 * md2 * m11 * m12 + md4 * m12 * m12
                            + m11 * m11 * (1.0 + md2 * p3))
        - n3s * p1 * p2 * md2 * mNs
        + md4 * p1 * p2 * p3
    )
    if abs(s) < 1e-300:
        raise DegenerateS(f"closed-form denominator S = {s:.3e}")

    l14 = (n3s / s) * (
        -n3s * mNs * (n2s * m21 * m22 * p1 + n1s * m11 * m12 * p2)
        + n1s * m12 * p2 * (md2 * m12 + m11 * (1.0 + md2 * p3))
        + n2s * m22 * p1 * (md2 * m22 + m21 * (1.0 + md2 * p3))
    )
    l23 = (n3s / s) * (
        n2s * m21 * (m21 + md2 * m22) * p1 + n1s * m11 * (m11 + md2 * m12) * p2
        - n3s * mNs * (n2s * m21 * m21 * p1 + n1s * m11 * m11 * p2)
        + md2 * mNs * p1 * p2
    )
    l12 = (n3s / s) * md2 * (
        n2s * m22 * (m21 + md2 * m22) * p1 + n1s * m12 * (m11 + md2 * m12) * p2
        - n1s * n2s * n3s * cross * cross
    )
    l34 = (n3s / (md2 * s)) * (
        n3s * (n2s * mNs * m21 * (md2 * m22 - m21) * p1
               + n1s * mNs * m11 * (md2 * m12 - m11) * p2)
        + p1 * p2 * md2 * mNs
        - n1s * n2s * n3s * md2 * cross * cross
        + n2s * m21 * p1 * (md2 * m22 + m21 + md2 * m21 * p3)
        + n1s * m11 * p2 * (md2 * m12 + m11 + md2 * m11 * p3)
    )

    L = np.zeros((4, 4))
    L[0, 3] = L[3, 0] = l14
    L[1, 2] = L[2, 1] = l23
    L[0, 1] = L[1, 0] = l12
    L[2, 3] = L[3, 2] = l34
    return _risk_from_L(spec, MD, L, nu)


def limit_risk_infinite_width(ls: LimitSpec) -> float:
    """Risk limit as both widths grow with fixed ratio r1:r2."""
    r = (ls.r1, ls.r2)
    m1 = [m.mu1 * m.mu1 for m in ls.moments]
    m2 = [m.mu2_sq for m in ls.moments]
    lin = sum(ri * mi for ri, mi in zip(r, m1))
    nonlin = sum(ri * mi for ri, mi in zip(r, m2))
    coupling = sum(
        r[i] * r[j] * m1[i] * m2[j] for i in range(2) for j in range(2)
    )
    if coupling <= 0.0:
        raise DegenerateMoments(
            "need sum_ij r_i r_j mu_{i,1}^2 mu_{j,2}^2 > 0 for the width limit"
        )
    a = (ls.psi3 - 1.0) * lin - nonlin
    chi1 = a + math.sqrt(a * a + 4.0 * ls.psi3 * coupling)
    chi0 = lin * chi1 / (2.0 * coupling)
    return (ls.F1 ** 2 * ls.psi3 + ls.tau ** 2 * chi0 * chi0) / (
        (chi0 + 1.0) ** 2 * ls.psi3 - chi0 * chi0
    )


def limit_risk_zero_width(spec: TheorySpec) -> float:
    """Risk limit as every width ratio shrinks to zero: F1^2."""
    return spec.F1 ** 2
