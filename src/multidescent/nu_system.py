"""Self-consistent scale system behind the asymptotic risk.

At the evaluation point on the imaginary axis the coupled resolvent scales
are purely imaginary with positive imaginary parts b_1..b_{K+1}, so the
system is solved directly in those positive real variables:

    sqrt(lam) b_c   + m2_c b_c b_n + m1_c b_c b_n / (1 + T) = psi_c    (c <= K)
    sqrt(lam) b_n   + sum_c m2_c b_c b_n + T / (1 + T)      = psi_n

with b_n = b_{K+1}, T = b_n * sum_c m1_c b_c, m1_c = mu_{c,1}^2 and
m2_c = mu_{c,2}^2.  The solver is Newton's method in u = log b, which keeps
every iterate positive, on the relative residuals r_j / psi_j with their
analytic Jacobian; a backtracking line search makes each step reduce the
largest relative residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Moments

__all__ = [
    "TheorySpec",
    "NuStar",
    "SolverConfig",
    "InvalidSpec",
    "NonPositiveInput",
    "NoConvergence",
    "residual_vector",
    "solve_nu",
    "verify_complex",
]


class InvalidSpec(ValueError):
    """Problem instance violates a hard precondition (e.g. lambda <= 0)."""


class NonPositiveInput(ValueError):
    """A candidate solution vector has a nonpositive entry."""


class NoConvergence(RuntimeError):
    """Newton's method missed the tolerance within max_iter steps, or a step
    could no longer reduce the residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class TheorySpec:
    """Asymptotic problem instance.

    ``psi`` holds the K feature-width ratios N_c/d, ``psi_n`` the sample
    ratio n/d, ``moments`` one Gaussian moment triple per activation.
    ``F0`` only matters when an empirical run is derived from this
    instance; the asymptotic risk does not depend on it.
    """

    psi: tuple[float, ...]
    psi_n: float
    moments: tuple[Moments, ...]
    lam: float
    F1: float = 1.0
    tau: float = 0.0
    F0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(float(p) for p in self.psi))
        object.__setattr__(self, "moments", tuple(self.moments))
        if len(self.psi) == 0:
            raise InvalidSpec("need at least one feature component")
        if len(self.moments) != len(self.psi):
            raise InvalidSpec("psi and moments must have the same length")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise InvalidSpec("lambda must be > 0")
        if any(not (p > 0.0 and math.isfinite(p)) for p in self.psi):
            raise InvalidSpec("all psi entries must be > 0")
        if not (self.psi_n > 0.0 and math.isfinite(self.psi_n)):
            raise InvalidSpec("psi_n must be > 0")
        if self.F1 < 0.0 or self.tau < 0.0:
            raise InvalidSpec("F1 and tau must be >= 0")

    @property
    def K(self) -> int:
        return len(self.psi)

    @property
    def psi_full(self) -> tuple[float, ...]:
        """psi_1..psi_K followed by psi_n."""
        return self.psi + (self.psi_n,)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class NuStar:
    """Converged positive imaginary parts b_1..b_{K+1} plus solve diagnostics.

    ``iterations`` counts Newton steps; ``lambda_path`` is ``[lam]``, the one
    regularization every solve runs at.
    """

    b: np.ndarray
    residual: float
    iterations: int
    lambda_path: list[float] = field(default_factory=list)


# Largest change of any log b_j in one Newton step.
_MAX_LOG_STEP = 2.0


def _coeffs(spec: TheorySpec) -> tuple[np.ndarray, np.ndarray]:
    m1 = np.array([m.mu1 * m.mu1 for m in spec.moments])
    m2 = np.array([m.mu2_sq for m in spec.moments])
    return m1, m2


def _residuals(psi, m1, m2, sqrt_lam, b) -> np.ndarray:
    bc, bn = b[:-1], b[-1]
    s1 = m1 @ bc
    opt = 1.0 + bn * s1
    return np.append(
        bc * (sqrt_lam + bn * (m2 + m1 / opt)), bn * (sqrt_lam + m2 @ bc) + bn * s1 / opt
    ) - psi


def _jacobian(psi, m1, m2, sqrt_lam, b) -> np.ndarray:
    """d(r_i / psi_i) / d(log b_j) of the residuals above."""
    bc, bn = b[:-1], b[-1]
    s1 = m1 @ bc
    opt = 1.0 + bn * s1
    coupling = m2 + m1 / opt**2
    jac = np.empty((b.size, b.size))
    jac[:-1, :-1] = np.diag(sqrt_lam + bn * (m2 + m1 / opt)) - np.outer(m1 * bc, m1) * (bn / opt) ** 2
    jac[:-1, -1] = bc * coupling
    jac[-1, :-1] = bn * coupling
    jac[-1, -1] = sqrt_lam + m2 @ bc + s1 / opt**2
    return jac * b / psi[:, None]


def residual_vector(spec: TheorySpec, b) -> np.ndarray:
    """Residuals of the positive-variable system at candidate ``b``.

    ``b`` must have K+1 strictly positive entries; the residual is zero at
    the solution.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.size != spec.K + 1:
        raise NonPositiveInput(f"expected {spec.K + 1} entries, got {b.size}")
    if not np.all(b > 0.0):
        raise NonPositiveInput("all entries of b must be > 0")
    return _residuals(np.array(spec.psi_full), *_coeffs(spec), math.sqrt(spec.lam), b)


def solve_nu(spec: TheorySpec, cfg: SolverConfig | None = None, b0=None) -> NuStar:
    """Solve the positive-variable system at spec.lam by Newton's method in log b.

    The iteration starts from ``b0`` when it holds K+1 finite positive
    entries, and from b_j = psi_j / (sqrt(lam) + 1) otherwise.  Each step is
    capped at 2 in every log b_j and halved until the largest relative
    residual decreases; when even a step too small to move b cannot reduce
    it, the solve raises ``NoConvergence`` at once instead of stalling.
    """
    cfg = cfg or SolverConfig()
    psi = np.array(spec.psi_full)
    m1, m2 = _coeffs(spec)
    sqrt_lam = math.sqrt(spec.lam)

    b = psi / (sqrt_lam + 1.0)
    if b0 is not None:
        start = np.array(b0, dtype=float).ravel()
        if start.size == psi.size and np.all(np.isfinite(start) & (start > 0.0)):
            b = start
    u = np.log(b)
    rel_res = _residuals(psi, m1, m2, sqrt_lam, b) / psi
    rel = np.max(np.abs(rel_res))
    steps = 0
    while rel > cfg.tol:
        if steps == cfg.max_iter:
            raise NoConvergence(
                f"residual {rel:.3e} > tol {cfg.tol:.1e} after {steps} Newton steps at lambda={spec.lam:.3e}",
                residual=rel,
                iterations=steps,
            )
        step = np.linalg.solve(_jacobian(psi, m1, m2, sqrt_lam, b), rel_res)
        step *= min(1.0, _MAX_LOG_STEP / np.max(np.abs(step)))
        for _ in range(60):  # 60 halvings shrink a step of at most 2 below the spacing of b
            trial = np.exp(u - step)
            trial_res = _residuals(psi, m1, m2, sqrt_lam, trial) / psi
            trial_rel = np.max(np.abs(trial_res))
            if trial_rel < rel:
                break
            step /= 2.0
        else:
            raise NoConvergence(
                f"residual {rel:.3e} > tol {cfg.tol:.1e}: no Newton step reduces it at lambda={spec.lam:.3e}",
                residual=rel,
                iterations=steps,
            )
        u -= step
        b, rel_res, rel = trial, trial_res, trial_rel
        steps += 1
    return NuStar(b=b, residual=float(rel), iterations=steps, lambda_path=[spec.lam])


def verify_complex(spec: TheorySpec, nu: NuStar) -> float:
    """Max absolute residual of the complex system at nu_j = i b_j.

    Substitutes xi = sqrt(lam) i and the purely imaginary candidates into
    the system exactly as written in complex arithmetic, independently of
    the real-variable rearrangement used by the solver.
    """
    xi = complex(0.0, math.sqrt(spec.lam))
    nu_c = [complex(0.0, float(x)) for x in nu.b]
    k = spec.K
    m1, m2 = _coeffs(spec)
    denom = 1.0 - sum(m1[c] * nu_c[c] for c in range(k)) * nu_c[k]
    worst = 0.0
    for c in range(k):
        lhs = nu_c[c] * (-xi - m2[c] * nu_c[k] - m1[c] * nu_c[k] / denom)
        worst = max(worst, abs(lhs - spec.psi[c]))
    s1 = sum(m1[c] * nu_c[c] for c in range(k))
    s2 = sum(m2[c] * nu_c[c] for c in range(k))
    lhs = nu_c[k] * (-xi - s2 - s1 / denom)
    worst = max(worst, abs(lhs - spec.psi_n))
    return worst
