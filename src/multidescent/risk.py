"""The asymptotic theory: the self-consistent scales and the excess risk.

At the evaluation point on the imaginary axis the coupled resolvent scales
are purely imaginary with positive imaginary parts b_1..b_{K+1}, so the
system is solved directly in those positive real variables:

    sqrt(lam) b_c   + m2_c b_c b_n + m1_c b_c b_n / (1 + T) = psi_c    (c <= K)
    sqrt(lam) b_n   + sum_c m2_c b_c b_n + T / (1 + T)      = psi_n

with b_n = b_{K+1}, T = b_n * sum_c m1_c b_c, m1_c = mu_{c,1}^2 and
m2_c = mu_{c,2}^2.  In u = log b the residuals r are the gradient of the
strictly convex potential

    Phi(u) = sqrt(lam) sum_j b_j + b_n sum_c m2_c b_c + log(1 + T) - sum_j psi_j u_j,

so the system has exactly one root, and the Newton matrix S = dr/du is the
Hessian of Phi.  The solver is Newton's method in u, which keeps every
iterate positive, on the relative residuals r_j / psi_j with their analytic
Jacobian; capping each step in u is its only safeguard.

The risk differentiates the same potential at its root.  It splits as

    risk = F1^2 * (1/MD^2 + L[3,4] + L[1,4])  +  tau^2 * (L[2,3] + L[1,2])

(1-based indices) with L = -G^T S^{-1} G, G = b * V and MD, V real forms of
the framework's auxiliary quantities (each squared scale nu_j^2 enters as
-b_j^2), so the matrix the risk solves is the one Newton already used.  One
model at a stack of block widths, such as the points of a sweep grid, is
solved and scored at once with batched linear algebra; each point keeps its
own steps and failure.  The two width limits (infinitely wide at
fixed block proportions, for any K, and vanishingly narrow) have closed
forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .activations import Moments

__all__ = [
    "TheorySpec",
    "InvalidSpec",
    "NoConvergence",
    "TheoryRisk",
    "LimitSpec",
    "DegenerateMoments",
    "IllConditionedWarning",
    "asymptotic_risk",
    "limit_risk_infinite_width",
    "limit_risk_zero_width",
]


class InvalidSpec(ValueError):
    """Problem instance violates a hard precondition (e.g. lambda <= 0)."""


class NoConvergence(RuntimeError):
    """Newton's method missed the tolerance within its step cap, or its
    residual stopped being finite."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _check_blocks(name: str, widths, moments, psi_n, F1, tau) -> None:
    """Rules every asymptotic instance obeys; ``name`` labels the per-block
    widths: one finite entry > 0 and one moment triple per block, a finite
    psi_n > 0, and F1, tau >= 0 whose squares are finite."""
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
    if not (math.isfinite(F1 * F1) and math.isfinite(tau * tau)):
        raise InvalidSpec("F1^2 and tau^2 must be finite")


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


class DegenerateMoments(ValueError):
    """Width-limit formula needs nonzero linear and nonlinear moment weights."""


class IllConditionedWarning(UserWarning):
    """The Newton matrix S that the risk solves is numerically ill-conditioned
    (cond(S) above ``COND_WARN_THRESHOLD``, or S not positive definite); the
    risk value may lose digits."""


@dataclass
class TheoryRisk:
    """The risk of one point and the solve behind it.

    ``b`` holds the solved scales b_1..b_{K+1}, ``residual`` the largest
    relative residual at them, and ``iterations`` the Newton steps, the
    polishing step after reaching the tolerance included.
    """

    risk: float
    bias: float
    variance: float
    L: np.ndarray
    b: np.ndarray
    residual: float
    iterations: int


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


# Largest relative residual a solve must reach, and the Newton steps it may
# take to reach it.
_TOL = 1e-12
_MAX_ITER = 100

# Largest change of any log b_j in one Newton step.
_MAX_LOG_STEP = 2.0

# cond(S) above which a risk warns.
COND_WARN_THRESHOLD = 1e12


def _coeffs(base: TheorySpec, psi) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """psi_full (G, K+1) of ``base``'s model at each row of the widths ``psi``
    (G, K), and the model's m1 and m2 (K,) and lam, which every point shares."""
    psi_full = np.column_stack((psi, np.full(len(psi), base.psi_n)))
    m1 = np.array([m.mu1 * m.mu1 for m in base.moments])
    m2 = np.array([m.mu2_sq for m in base.moments])
    return psi_full, m1, m2, base.lam


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
    """Residuals of each row of ``b``; coefficients as from ``_coeffs``.

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


# A width so small that its scale underflows to 0 overflows the b/psi scaling
# to inf and NaN, and a width near the float range overflows its residuals and
# trial steps.  Such a point fails loudly all the same: its Jacobian is
# singular, or its residual is not finite.
@np.errstate(over="ignore", invalid="ignore")
def _newton(psi, m1, m2, lam):
    """Newton's method in log b on the G systems of one model at G widths;
    coefficients as from ``_coeffs``.

    Returns b (G, K+1), the largest relative residual (G,) and the Newton
    steps (G,) of every point, and the exception that ended each failed
    point's solve by index (``NoConvergence``, or ``LinAlgError`` for a
    singular Jacobian); b is NaN on the failed points.  Each point iterates
    by the rules in ``asymptotic_risk``'s docstring.
    """
    g = len(psi)
    sqrt_lam = np.sqrt(lam)
    b = psi / (sqrt_lam + 1.0)
    rel_res = _residuals(psi, m1, m2, sqrt_lam, b) / psi
    rel = np.abs(rel_res).max(axis=1)
    steps = np.zeros(g, dtype=int)
    # psi .. steps hold the points still iterating and ids maps them to the
    # stack; each point's results move to the outputs when it leaves.
    ids = np.arange(g)
    b_out, rel_out, steps_out = np.full(b.shape, np.nan), np.empty(g), np.empty(g, dtype=int)
    errors: dict = {}
    while True:
        jac = _jacobian(psi, m1, m2, sqrt_lam, b)
        # A singular Jacobian's step is NaN, so its point leaves below with
        # a residual that is not finite.
        step, singular = _solve_stack(jac, rel_res[:, :, None])
        step = step[:, :, 0]
        step *= _MAX_LOG_STEP / np.maximum(np.abs(step).max(axis=1), _MAX_LOG_STEP)[:, None]
        # A point already within tol takes its last, polishing step; the
        # others take theirs whatever it does to the residual.
        polish = rel <= _TOL
        trial = b * np.exp(-step)
        trial_res = _residuals(psi, m1, m2, sqrt_lam, trial) / psi
        trial_rel = np.abs(trial_res).max(axis=1)
        # The polishing step is undone where it raises the residual.
        worse = polish & ~(trial_rel <= rel)
        trial[worse], trial_res[worse], trial_rel[worse] = b[worse], rel_res[worse], rel[worse]
        b, rel_res, rel = trial, trial_res, trial_rel
        steps += 1
        done = polish | ~np.isfinite(rel) | ((rel > _TOL) & (steps == _MAX_ITER))
        if not done.any():
            continue
        for j in np.flatnonzero(done & ~polish):
            i = int(ids[j])
            if j in singular:
                errors[i] = singular[j]
                continue
            errors[i] = NoConvergence(
                f"residual {rel[j]:.3e} > tol {_TOL:.1e} after {steps[j]} Newton steps "
                f"at lambda={lam:.3e}",
                residual=float(rel[j]),
                iterations=int(steps[j]),
            )
        finished = ids[done]
        rel_out[finished], steps_out[finished] = rel[done], steps[done]
        b_out[ids[polish]] = b[polish]
        if done.all():
            return b_out, rel_out, steps_out, errors
        keep = ~done
        ids, psi, b, rel_res, rel, steps = (
            x[keep] for x in (ids, psi, b, rel_res, rel, steps)
        )


def _matrices(m1, m2, b) -> tuple[np.ndarray, np.ndarray]:
    """MD (G,) and V (G, K+1, 4) of G points."""
    k = m1.shape[-1]
    bc, bn = b[:, :k], b[:, k]
    mN = (m1 * bc).sum(axis=1)
    MD = -(bn * mN + 1.0)
    md2 = MD * MD
    v = np.zeros((len(b), k + 1, 4))
    v[:, :k, 0] = m2
    v[:, k, 1] = 1.0
    v[:, :k, 2] = m1 / md2[:, None]
    v[:, k, 2] = -mN * mN / md2
    v[:, :k, 3] = -(bn * bn)[:, None] * m1 / md2[:, None]
    v[:, k, 3] = 1.0 / md2
    return MD, v


def _score(psi, m1, m2, lam, b, f1_sq, tau_sq, errors: dict):
    """Risk, bias and variance (G,) and L (G, 4, 4) of G solved points.

    Coefficients are as from ``_coeffs``, ``b`` holds the scales and
    ``f1_sq``, ``tau_sq`` hold the shared F1^2 and tau^2.  Each
    L = -G^T S^{-1} G, with G = b * V and S = dr/du the Newton matrix at b,
    comes from one batched solve.  ``errors`` maps the points that already
    failed to their exception; it gains ``LinAlgError`` for a singular S,
    and every failed point reads NaN.  Warns ``IllConditionedWarning`` for
    each scored point whose cond(S) exceeds ``COND_WARN_THRESHOLD`` or whose
    S is not positive definite, in order.
    """
    g = len(b)
    scored = np.ones(g, dtype=bool)
    scored[list(errors)] = False
    risk, bias, variance = np.full((3, g), np.nan)
    L = np.full((g, 4, 4), np.nan)
    rows = np.flatnonzero(scored)
    if rows.size == 0:
        return risk, bias, variance, L
    if rows.size < g:
        psi, b = psi[rows], b[rows]
    MD, v = _matrices(m1, m2, b)
    s = _jacobian(psi, m1, m2, np.sqrt(lam), b) * psi[:, :, None]
    # S is the Hessian of a strictly convex potential, positive definite at
    # a root, so its condition number is the ratio of its extreme eigenvalues.
    eig = np.linalg.eigvalsh(s)
    cond = np.full(len(b), np.inf)
    definite = eig[:, 0] > 0.0
    cond[definite] = eig[definite, -1] / eig[definite, 0]
    for c in cond[cond > COND_WARN_THRESHOLD]:
        warnings.warn(
            f"cond(S) = {c:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; risk may be inaccurate",
            IllConditionedWarning,
            stacklevel=4,  # _score <- _theory <- a public entry point <- its caller
        )
    gv = b[:, :, None] * v
    x, singular = _solve_stack(s, gv)
    for j, err in singular.items():
        errors[int(rows[j])] = err
    lr = -(np.swapaxes(gv, 1, 2) @ x)
    inv_md2 = 1.0 / (MD * MD)
    bias_r = f1_sq * (inv_md2 + lr[:, 2, 3] + lr[:, 0, 3])
    variance_r = tau_sq * (lr[:, 1, 2] + lr[:, 0, 1])
    risk[rows], bias[rows], variance[rows], L[rows] = bias_r + variance_r, bias_r, variance_r, lr
    return risk, bias, variance, L


def _theory(base: TheorySpec, psi):
    """The one core of the theory: ``base``'s model at each row of the block
    widths ``psi`` (G, K), solved by ``_newton`` and scored by ``_score``.

    Returns risk, bias, variance and L as from ``_score``, then b, the
    residuals and the steps as from ``_newton``, then the exception of every
    failed point by index.  Every public entry point calls it directly, so
    an ``IllConditionedWarning`` names the line that called the entry point.
    """
    coeffs = _coeffs(base, psi)
    b, residual, steps, errors = _newton(*coeffs)
    return (*_score(*coeffs, b, base.F1 ** 2, base.tau ** 2, errors), b, residual, steps, errors)


def asymptotic_risk(spec: TheorySpec) -> TheoryRisk:
    """Asymptotic excess risk of ``spec``: ``_theory`` at its one set of
    widths, raising its failure.

    The scales are found by Newton's method in log b, starting from
    b_j = psi_j / (sqrt(lam) + 1).  Each step is scaled down so that no
    log b_j moves by more than 2, and is taken whatever it does to the
    residual.  A solve fails as soon as its largest relative residual is not
    finite, or when it has not brought that residual to 1e-12 within 100
    steps.  A solve that reaches it takes one more Newton step, kept only if
    it does not raise the residual, so that the root carries the digits of a
    full step rather than stopping at the first iterate under the tolerance;
    ``iterations`` counts that step.
    Raises ``NoConvergence``, or ``LinAlgError`` for a singular Jacobian or S.
    """
    risk, bias, variance, L, b, residual, steps, errors = _theory(spec, np.array([spec.psi]))
    if errors:
        raise errors[0]
    return TheoryRisk(risk=risk[0], bias=bias[0], variance=variance[0], L=L[0], b=b[0],
                      residual=float(residual[0]), iterations=int(steps[0]))


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
