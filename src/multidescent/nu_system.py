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
largest relative residual.  A stack of systems that share K, such as the
points of a sweep grid, is solved at once with batched linear algebra;
each point keeps its own steps, line search and failure.
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
    "NoConvergence",
    "solve_nu",
    "solve_nu_stack",
]


class InvalidSpec(ValueError):
    """Problem instance violates a hard precondition (e.g. lambda <= 0)."""


class NoConvergence(RuntimeError):
    """Newton's method missed the tolerance within max_iter steps, or a step
    could no longer reduce the residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _check_blocks(name: str, widths, moments, psi_n, F1, tau) -> None:
    """Rules every asymptotic instance obeys; ``name`` labels the per-block
    widths: one finite entry > 0 and one moment triple per block, a finite
    psi_n > 0, and finite F1, tau >= 0."""
    if len(widths) == 0:
        raise InvalidSpec("need at least one feature component")
    if len(moments) != len(widths):
        raise InvalidSpec(f"{name} and moments must have the same length")
    if any(not (w > 0.0 and math.isfinite(w)) for w in widths):
        raise InvalidSpec(f"all {name} entries must be > 0")
    if not (psi_n > 0.0 and math.isfinite(psi_n)):
        raise InvalidSpec("psi_n must be > 0")
    if not (0.0 <= F1 < math.inf and 0.0 <= tau < math.inf):
        raise InvalidSpec("F1 and tau must be finite and >= 0")


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
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise InvalidSpec("lambda must be > 0")
        _check_blocks("psi", self.psi, self.moments, self.psi_n, self.F1, self.tau)

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

    ``iterations`` counts Newton steps, the polishing step after reaching
    the tolerance included; ``lambda_path`` is ``[lam]``, the one
    regularization every solve runs at.
    """

    b: np.ndarray
    residual: float
    iterations: int
    lambda_path: list[float] = field(default_factory=list)


# Largest change of any log b_j in one Newton step.
_MAX_LOG_STEP = 2.0


def _stack_coeffs(specs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """psi_full (G, K+1), m1 and m2 (G, K) and lam (G, 1) of G specs."""
    if not specs or len({spec.K for spec in specs}) != 1:
        raise InvalidSpec("a stack needs at least one spec, all with the same K")
    psi = np.array([spec.psi_full for spec in specs])
    m1 = np.array([[m.mu1 * m.mu1 for m in spec.moments] for spec in specs])
    m2 = np.array([[m.mu2_sq for m in spec.moments] for spec in specs])
    lam = np.array([[spec.lam] for spec in specs])
    return psi, m1, m2, lam


def _shared_coeffs(psi, psi_n: float, moments, lam: float):
    """The same arrays for G points that differ only in their widths ``psi`` (G, K)."""
    g = len(psi)
    m1 = np.tile([m.mu1 * m.mu1 for m in moments], (g, 1))
    m2 = np.tile([m.mu2_sq for m in moments], (g, 1))
    return np.column_stack((psi, np.full(g, psi_n))), m1, m2, np.full((g, 1), lam)


def _solve_stack(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, dict]:
    """``np.linalg.solve`` over a stack, where a singular matrix fails only its
    own entry: returns the solutions (NaN where singular) and the
    ``LinAlgError`` of each singular entry by index (empty when none is)."""
    try:
        return np.linalg.solve(a, rhs), {}
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan)
        errors = {}
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], rhs[i])
            except np.linalg.LinAlgError as err:
                errors[i] = err
        return x, errors


def _residuals(psi, m1, m2, sqrt_lam, b) -> np.ndarray:
    """Residuals of each row of ``b``; coefficients as from ``_stack_coeffs``.

    With w_c = b_n (m2_c + m1_c / (1 + T)), equation c reads
    b_c (sqrt(lam) + w_c) = psi_c and the last one
    b_n sqrt(lam) + sum_c b_c w_c = psi_n.
    """
    bc, bn = b[:, :-1], b[:, -1:]
    opt = 1.0 + bn * (m1 * bc).sum(axis=1, keepdims=True)
    bw = bc * (bn * (m2 + m1 / opt))
    res = b * sqrt_lam - psi
    res[:, :-1] += bw
    res[:, -1] += bw.sum(axis=1)
    return res


def _jacobian(psi, m1, m2, sqrt_lam, b) -> np.ndarray:
    """d(r_i / psi_i) / d(log b_j) of the residuals above, one matrix per row."""
    bc, bn = b[:, :-1], b[:, -1:]
    s1 = (m1 * bc).sum(axis=1, keepdims=True)
    opt = 1.0 + bn * s1
    coupling = m2 + m1 / opt**2
    jac = np.zeros((len(b), b.shape[1], b.shape[1]))
    jac[:, :-1, :-1] = (m1 * bc)[:, :, None] * (m1 * -(bn / opt) ** 2)[:, None, :]
    jac[:, :-1, -1] = bc * coupling
    jac[:, -1, :-1] = bn * coupling
    diag = np.einsum("gii->gi", jac)
    diag[:, :-1] += sqrt_lam + bn * (m2 + m1 / opt)
    diag[:, -1:] += sqrt_lam + (m2 * bc).sum(axis=1, keepdims=True) + s1 / opt**2
    return jac * (b[:, None, :] / psi[:, :, None])


def _newton(psi, m1, m2, lam, cfg: SolverConfig, b0=None):
    """Newton's method in log b on G stacked systems of one K; coefficients as
    from ``_stack_coeffs``.

    Returns b (G, K+1), the largest relative residual (G,) and the Newton
    steps (G,) of every point, and the exception that ended each failed
    point's solve by index (``NoConvergence``, or ``LinAlgError`` for a
    singular Jacobian); b is NaN on the failed points.  The rules of each
    point's iteration are those of ``solve_nu_stack``.
    """
    g = len(psi)
    sqrt_lam = np.sqrt(lam)
    b = psi / (sqrt_lam + 1.0)
    if b0 is not None:
        start = np.asarray(b0, dtype=float)
        usable = np.all(np.isfinite(start) & (start > 0.0), axis=1)
        b[usable] = start[usable]
    rel_res = _residuals(psi, m1, m2, sqrt_lam, b) / psi
    rel = np.abs(rel_res).max(axis=1)
    steps = np.zeros(g, dtype=int)
    # psi .. steps hold the points still iterating and ids maps them to the
    # stack; each point's results move to the outputs when it leaves.
    ids = np.arange(g)
    b_out, rel_out, steps_out = np.full(b.shape, np.nan), np.empty(g), np.empty(g, dtype=int)
    errors: dict = {}
    while True:
        step, singular = _solve_stack(_jacobian(psi, m1, m2, sqrt_lam, b), rel_res[:, :, None])
        step = step[:, :, 0]
        step *= _MAX_LOG_STEP / np.maximum(np.abs(step).max(axis=1), _MAX_LOG_STEP)[:, None]
        # A point already within tol takes its one polishing step: a single
        # trial, kept unless it raises the residual.  The others are pending
        # until a trial reduces their residual.
        polish = rel <= cfg.tol
        pending = ~polish
        if singular:
            bad = list(singular)
            step[bad] = 0.0
            pending[bad] = polish[bad] = False
        for _ in range(60):  # 60 halvings shrink a step of at most 2 below the spacing of b
            trial = b * np.exp(-step)
            trial_res = _residuals(psi, m1, m2, sqrt_lam, trial) / psi
            trial_rel = np.abs(trial_res).max(axis=1)
            # A polishing point past its trial has step 0, so "keeping" it is a no-op.
            kept = np.where(polish, trial_rel <= rel, pending & (trial_rel < rel))
            if kept.all():  # every point keeps its trial: no masked copies
                b, rel_res, rel = trial, trial_res, trial_rel
                pending[:] = False
                break
            b[kept], rel_res[kept], rel[kept] = trial[kept], trial_res[kept], trial_rel[kept]
            pending &= ~kept
            if not pending.any():
                break
            step *= np.where(pending, 0.5, 0.0)[:, None]
        # A point still pending is stalled: no step reduces its residual.
        steps[~pending] += 1
        done = pending | polish | ((rel > cfg.tol) & (steps == cfg.max_iter))
        if singular:
            done[bad] = True
        if not done.any():
            continue
        for j in np.flatnonzero(done & ~polish):
            i = int(ids[j])
            if j in singular:
                errors[i] = singular[j]
                continue
            why = ": no Newton step reduces it" if pending[j] else f" after {steps[j]} Newton steps"
            errors[i] = NoConvergence(
                f"residual {rel[j]:.3e} > tol {cfg.tol:.1e}{why} at lambda={lam[i, 0]:.3e}",
                residual=float(rel[j]),
                iterations=int(steps[j]),
            )
        finished = ids[done]
        rel_out[finished], steps_out[finished] = rel[done], steps[done]
        b_out[ids[polish]] = b[polish]
        if done.all():
            return b_out, rel_out, steps_out, errors
        keep = ~done
        ids, psi, m1, m2, sqrt_lam, b, rel_res, rel, steps = (
            x[keep] for x in (ids, psi, m1, m2, sqrt_lam, b, rel_res, rel, steps)
        )


def _nu_stars(specs, b, residual, steps, errors) -> list:
    """``_newton``'s arrays as one ``NuStar`` or exception per spec."""
    return [
        errors.get(i) or NuStar(b=b[i].copy(), residual=float(residual[i]),
                                iterations=int(steps[i]), lambda_path=[spec.lam])
        for i, spec in enumerate(specs)
    ]


def solve_nu_stack(specs, cfg: SolverConfig | None = None, b0=None) -> list:
    """Solve G systems of one K at once by Newton's method in log b.

    Returns one entry per spec, in order: its ``NuStar``, or the exception
    that ended its solve (``NoConvergence``, or ``LinAlgError`` for a
    singular Jacobian), so that one failing point leaves the others be.

    Row g of ``b0`` (shape (G, K+1)) starts point g when it is finite and
    positive; every other point starts from b_j = psi_j / (sqrt(lam) + 1).
    Each point takes its own steps, capped at 2 in every log b_j and halved
    until its largest relative residual decreases; when even a step too
    small to move b cannot reduce it, that point fails at once instead of
    stalling.  ``cfg.max_iter`` caps the steps of each point to reach
    ``cfg.tol``.  A point that reaches it takes one more Newton step, kept
    only if it does not raise the residual, so that the root does not
    depend on where the iteration started; ``iterations`` counts that step.
    """
    specs = list(specs)
    coeffs = _stack_coeffs(specs)
    return _nu_stars(specs, *_newton(*coeffs, cfg or SolverConfig(), b0))


def solve_nu(spec: TheorySpec, cfg: SolverConfig | None = None, b0=None) -> NuStar:
    """Solve the positive-variable system at spec.lam: ``solve_nu_stack`` for
    one spec, raising its failure.

    The iteration starts from ``b0`` when it holds K+1 finite positive
    entries, and from b_j = psi_j / (sqrt(lam) + 1) otherwise.
    """
    if b0 is not None:
        start = np.array(b0, dtype=float).ravel()
        b0 = start[None] if start.size == spec.K + 1 else None
    (result,) = solve_nu_stack([spec], cfg, b0)
    if isinstance(result, Exception):
        raise result
    return result
