"""The asymptotic theory: the self-consistent scales and the excess risk.

At the evaluation point on the imaginary axis the coupled resolvent scales
are purely imaginary with positive imaginary parts b_1..b_{K+1}, so the
system is posed directly in those positive real variables:

    sqrt(lam) b_c   + m2_c b_c b_n + m1_c b_c b_n / (1 + T) = psi_c    (c <= K)
    sqrt(lam) b_n   + sum_c m2_c b_c b_n + T / (1 + T)      = psi_n

with b_n = b_{K+1}, T = b_n * sum_c m1_c b_c, m1_c = mu_{c,1}^2 and
m2_c = mu_{c,2}^2.  In u = log b the residuals r are the gradient of the
strictly convex potential

    Phi(u) = sqrt(lam) sum_j b_j + b_n sum_c m2_c b_c + log(1 + T) - sum_j psi_j u_j,

so the system has exactly one root, and S = dr/du is the Hessian of Phi.

The solver has two unknowns whatever K is.  As
log(1 + T) = min_s [s (1 + T) - 1 - log s], Phi is the minimum over
sigma = log s of a function jointly convex in (u, sigma).  Given b_n and s,
its minimum over the block scales is at b_c = psi_c / D_c with
D_c = sqrt(lam) + b_n (m2_c + m1_c s), which leaves the smooth convex

    F(u_n, sigma) = sqrt(lam) b_n + sum_c psi_c log D_c + s - sigma - psi_n u_n

in u_n = log b_n.  Its gradient (r_n at those b_c, s (1 + T) - 1) vanishes
exactly at the root, where s = 1 / (1 + T).  The solver is Newton's method
on F with its closed-form 2x2 Hessian, O(K) a step; capping each step in
(u_n, sigma) is its only safeguard, and a root is accepted on the relative
residuals r_j / psi_j of the full system, formed from the sums the step
takes.  Each point starts cold at s = 1/2 and a b_n of closed form: the
root of d F / d u_n = 0 with every block given one width-weighted moment,
which has b_n's own order as lam -> 0+ (b_n ~ 1/sqrt(lam) where
sum_c psi_c < psi_n, with b_n's exact limit, and b_n ~ sqrt(lam) where
sum_c psi_c > psi_n).

The risk differentiates Phi at its root.  It splits as

    risk = F1^2 * (1/MD^2 + L[3,4] + L[1,4])  +  tau^2 * (L[2,3] + L[1,2])

(1-based indices) with L = -G^T S^{-1} G, G = b * V and MD = -(1 + T), V
real forms of the framework's auxiliary quantities (each squared scale
nu_j^2 enters as -b_j^2).  L has a closed form, O(K) a point, no matrix
solve: with s = 1/(1 + T), S = A - s^2 w w^T for w = (m1_c b_n b_c | T) and
the arrowhead A with A_cc = b_c D_c, A_cn = a_c = b_n b_c (m2_c + m1_c s)
and A_nn = sqrt(lam) b_n + sum_c a_c.  G's columns and w lie in the span
of P = ((m2_c b_c | 0), e_n, (m1_c b_c | 0)), so L = -C^T (P^T S^{-1} P) C
with C holding V's coefficients; A's Schur complement on b_n's row,
sigma = sqrt(lam) (b_n + sum_c a_c / D_c), a sum of positive terms, gives
P^T A^{-1} P, and Sherman-Morrison adds the rank-one term.  One model at a
stack of block widths, such as the points of a sweep grid, is solved and
scored at once with batched arithmetic; each point keeps its own steps and
failure.  The two width limits (infinitely wide at fixed block proportions,
for any K, and vanishingly narrow) have closed forms.
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
    """Newton's method missed the tolerance within its step cap, its
    residual stopped being finite, or a block scale lies below the normal
    float range whatever the step."""

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
    """The matrix S = dr/du through which the risk is scored, the Hessian of
    Phi, is numerically ill-conditioned (cond(S) above
    ``COND_WARN_THRESHOLD``, or S not positive definite); the risk value may
    lose digits."""


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

# Largest change of log b_n or log s in one Newton step.
_MAX_LOG_STEP = 2.0

# The s = 1 / (1 + T) every solve starts from, and at which its start
# weighs the block moments.
_S0 = 0.5

# The smallest normal float: a block scale below it fails the residual test
# (see ``_step``).  As D_c >= sqrt(lam), b_c <= psi_c / sqrt(lam): a point
# where that bound lies below it fails before its first step.
_TINY = np.finfo(float).tiny

# cond(S) above which a risk warns.
COND_WARN_THRESHOLD = 1e12


def _coeffs(base: TheorySpec, psi) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """psi_full (G, K+1) of ``base``'s model at each row of the widths ``psi``
    (G, K), and the model's m1 and m2 (K,) and lam, which every point shares."""
    psi_full = np.column_stack((psi, np.full(len(psi), base.psi_n)))
    m1 = np.array([m.mu1 * m.mu1 for m in base.moments])
    m2 = np.array([m.mu2_sq for m in base.moments])
    return psi_full, m1, m2, base.lam


def _jacobian(psi, m1, m2, sqrt_lam, b) -> np.ndarray:
    """d(r_i / psi_i) / d(log b_j) of the residuals r of the module
    docstring's system at each row of ``b``, one matrix per row."""
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _start(psi, m1, m2, lam):
    """The cold start b_n (G,) of each of the G points of one model;
    coefficients as from ``_coeffs``.

    It is the positive root of a sqrt(lam) b^2 + (lam + (P - psi_n) a) b
    - psi_n sqrt(lam) = 0, with P = sum_c psi_c and a = sum_c psi_c
    (m2_c + m1_c s0) / P the width-weighted block moment at s0 = 1/2: the
    equation grad_n F = 0 with every block given the moment a.  As
    lam -> 0+ the root has b_n's own order on both sides of P = psi_n:
    where P < psi_n, sqrt(lam) b_n -> psi_n - P, b_n's exact limit; where
    P > psi_n, b_n / sqrt(lam) -> psi_n / ((P - psi_n) a); at P = psi_n it
    stays finite.  Each sign of the middle coefficient takes the form of
    the root free of cancellation; a = 0 gives psi_n / sqrt(lam).  The form
    not taken may divide by zero; it is discarded.
    """
    sqrt_lam, psi_n = math.sqrt(lam), psi[:, -1]
    total = psi[:, :-1].sum(axis=1)
    a = (psi[:, :-1] * (m2 + _S0 * m1)).sum(axis=1) / total
    mid = lam + (total - psi_n) * a
    h = np.hypot(mid, 2.0 * sqrt_lam * np.sqrt(a * psi_n))
    return np.where(mid >= 0.0, 2.0 * sqrt_lam * psi_n / (mid + h), (h - mid) / (2.0 * sqrt_lam * a))


def _step(psi_c, psi_n, m, sqrt_lam, u, sigma):
    """At the G points (u, sigma) = (log b_n, log s), each (G,): the block
    scales b_c (G, K) and b_n, the Newton step (du, dsigma) = H^-1 grad F,
    the determinant of F's Hessian H and the largest relative residual of
    the full K+1 system at (b_c, b_n).  ``psi_c`` (G, K) and ``psi_n`` (G,)
    are the widths and ``m`` (K, 3) holds each block's m1, m2 and m1 m2.

    Block c's scale is b_c = psi_c / D_c with D_c = sqrt(lam) + b_n (m1_c s + m2_c).
    With the sums S_x = sum_c b_c x_c and R_x = sum_c b_c x_c / D_c over
    x = m1, m2 or m1 m2, and T = b_n S_m1,
    grad F = (g_n, g_s) = (b_n (sqrt(lam) + s S_m1 + S_m2) - psi_n, s (1 + T) - 1)
    and H = [[P + C, C], [C, Q + C]] with P = sqrt(lam) b_n (1 + R_m2),
    C = sqrt(lam) b_n s R_m1 and Q = s (1 + b_n^2 R_m1m2).  The determinant
    PQ + C(P + Q) is a sum of terms >= 0, so it keeps its digits where H is
    nearly singular, as at a tiny ridge.

    As b_c D_c = psi_c, the residuals of the full system at (b_c, b_n) are
    r_c / psi_c = -b_n m1_c k / D_c and r_n = g_n - T k, with k = g_s / (1 + T).
    A block scale below the normal float range has lost the bits that
    b_c D_c = psi_c assumes: such a point reads a relative residual of 1,
    exact where the scale underflowed to 0 and its equation reads -psi_c.
    """
    bn, s = np.exp(u), np.exp(sigma)
    d = sqrt_lam + bn[:, None] * (np.multiply.outer(s, m[:, 0]) + m[:, 1])
    bc = psi_c / d
    s1, s2 = (bc @ m[:, :2]).T
    r1, r2, r12 = ((bc / d) @ m).T
    t = bn * s1
    opt = 1.0 + t
    g_n = bn * (sqrt_lam + s * s1 + s2) - psi_n
    g_s = s * opt - 1.0
    lb = sqrt_lam * bn
    p = lb * (1.0 + r2)
    c = lb * s * r1
    q = s * (1.0 + bn * bn * r12)
    det = p * q + c * (p + q)
    du = ((q + c) * g_n - c * g_s) / det
    dsigma = ((p + c) * g_s - c * g_n) / det
    k = g_s / opt
    rel = np.maximum(np.abs(g_n - t * k) / psi_n, bn * np.abs(k) * (m[:, 0] / d).max(axis=1))
    return bc, bn, du, dsigma, det, np.maximum(rel, (bc < _TINY).any(axis=1))


# A width near the float range overflows the scales, the residuals or the
# Newton matrix to inf and NaN, and a scale below the normal float range pins
# its block's relative residual at 1.  Such a point fails loudly all the same:
# at once, at the step cap, on a residual not finite or a determinant not > 0.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(psi, m1, m2, lam):
    """Newton's method on the reduced potential F(log b_n, log s) of the G
    systems of one model at G widths; coefficients as from ``_coeffs``.

    Returns b (G, K+1), the largest relative residual (G,) of the full
    system and the Newton steps (G,) of every point, and the exception that
    ended each failed point's solve by index (``NoConvergence``, or
    ``LinAlgError`` for a Newton matrix whose determinant is not positive);
    b is NaN on the failed points.  Each point iterates by the rules in
    ``asymptotic_risk``'s docstring.
    """
    g = len(psi)
    sqrt_lam = math.sqrt(lam)
    m = np.column_stack((m1, m2, m1 * m2))
    b_out, rel_out, steps_out = np.full(psi.shape, np.nan), np.ones(g), np.zeros(g, dtype=int)
    errors: dict = {}
    # The arrays compacted below hold the points still iterating and ids maps
    # them to the stack; each point's results move to the outputs when it
    # leaves.
    ids = np.arange(g)
    bound = psi[:, :-1] / sqrt_lam
    if bound.min() < _TINY:
        lost = (bound < _TINY).any(axis=1)
        for i in np.flatnonzero(lost):
            c = int(np.argmax(bound[i] < _TINY))
            errors[int(i)] = NoConvergence(
                f"block {c + 1} scale is at most psi_{c + 1}/sqrt(lambda) = {bound[i, c]:.3e}, "
                f"below the normal float range, at lambda={lam:.3e}", residual=1.0, iterations=0)
        ids, psi = ids[~lost], psi[~lost]
    psi_c, psi_n = psi[:, :-1], psi[:, -1]
    u, sigma = np.log(_start(psi, m1, m2, lam)), np.full(ids.size, math.log(_S0))
    bc, bn, du, dsigma, det, rel = _step(psi_c, psi_n, m, sqrt_lam, u, sigma)
    steps, polished = np.zeros(ids.size, dtype=int), np.zeros(ids.size, dtype=bool)
    while True:
        within = rel <= _TOL
        # A root is accepted on the residual of the full system.  A point
        # leaves once polished, or fails: on a residual that is not finite,
        # then on a determinant that is not positive, then at the step cap.
        failed = ~within & (~np.isfinite(rel) | ~(det > 0.0) | (steps >= _MAX_ITER))
        done = polished | failed
        if done.any():
            for j in np.flatnonzero(failed):
                i = int(ids[j])
                if np.isfinite(rel[j]) and not det[j] > 0.0:
                    errors[i] = np.linalg.LinAlgError(
                        f"Newton matrix determinant {det[j]:.3e} is not positive after "
                        f"{steps[j]} Newton steps at lambda={lam:.3e}")
                    continue
                errors[i] = NoConvergence(
                    f"residual {rel[j]:.3e} > tol {_TOL:.1e} after {steps[j]} Newton steps "
                    f"at lambda={lam:.3e}",
                    residual=float(rel[j]),
                    iterations=int(steps[j]),
                )
            finished = ids[done]
            rel_out[finished], steps_out[finished] = rel[done], steps[done]
            b_out[ids[polished], :-1], b_out[ids[polished], -1] = bc[polished], bn[polished]
            keep = ~done
            ids, psi_c, psi_n, u, sigma, bc, bn, du, dsigma, rel, steps, within = (
                x[keep] for x in (ids, psi_c, psi_n, u, sigma, bc, bn, du, dsigma, rel, steps, within)
            )
        if not ids.size:
            return b_out, rel_out, steps_out, errors
        scale = _MAX_LOG_STEP / np.maximum(np.maximum(np.abs(du), np.abs(dsigma)), _MAX_LOG_STEP)
        # A point already within tol takes its last, polishing step; the
        # others take theirs whatever it does to the residual.
        u = u - du * scale
        sigma = sigma - dsigma * scale
        trial_bc, trial_bn, du, dsigma, det, trial_rel = _step(psi_c, psi_n, m, sqrt_lam, u, sigma)
        # The polishing step is undone where it raises the residual.
        worse = within & ~(trial_rel <= rel)
        if worse.any():
            trial_bc[worse], trial_bn[worse], trial_rel[worse] = bc[worse], bn[worse], rel[worse]
        bc, bn, rel, polished = trial_bc, trial_bn, trial_rel, within
        steps += 1


def _score(psi, m1, m2, lam, b, f1_sq, tau_sq, errors: dict):
    """Risk, bias and variance (G,) and L (G, 4, 4) of G solved points by the
    module docstring's closed form; coefficients as from ``_coeffs``, ``b``
    the scales and ``f1_sq``, ``tau_sq`` the shared F1^2 and tau^2.
    ``errors`` maps the points that already failed to their exception; it
    gains ``LinAlgError`` where a pivot b_c D_c, sigma or the Sherman-Morrison
    denominator is not positive and finite (a singular S), and ``InvalidSpec``
    for a risk that is not finite; failed points read NaN.  Each point whose
    S is finite with cond(S) > ``COND_WARN_THRESHOLD`` or not definite warns
    ``IllConditionedWarning``, in order, unless its risk overflows.
    """
    g = len(b)
    rows = np.arange(g)
    if errors:
        rows = np.delete(rows, list(errors))
        psi, b = psi[rows], b[rows]
    sqrt_lam = math.sqrt(lam)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = _jacobian(psi, m1, m2, sqrt_lam, b) * psi[:, :, None]
        # S, the Hessian of a strictly convex potential, is positive definite at
        # a root: cond(S) is the ratio of its extreme eigenvalues, where S is finite.
        finite = np.isfinite(s).all(axis=(1, 2))
        eig = np.linalg.eigvalsh(s[finite])
        cond = np.zeros(len(b))
        cond[finite] = np.where(eig[:, 0] > 0.0, eig[:, -1] / eig[:, 0], np.inf)
        bc, bn = b[:, :-1], b[:, -1]
        mN = (m1 * bc).sum(axis=1)
        t = bn * mN
        md2 = (1.0 + t) ** 2
        bmix = bn[:, None] * (m2 + np.multiply.outer(1.0 / (1.0 + t), m1))
        d = sqrt_lam + bmix
        a_d = bmix * bc / d
        sigma = sqrt_lam * (bn + a_d.sum(axis=1))
        # M_A = P^T A^-1 P, then M by Sherman-Morrison with w = P (0, T, b_n).
        x = np.zeros((len(m1), 3))
        x[:, 0], x[:, 2] = m2, m1
        eps = -(a_d @ x)
        eps[:, 1] = 1.0
        ma = ((bc / d)[:, None, :] * x.T) @ x + eps[:, :, None] * (eps / sigma[:, None])[:, None, :]
        u = ma[:, :, 1] * t[:, None] + ma[:, :, 2] * bn[:, None]
        den = md2 - t * u[:, 1] - bn * u[:, 2]
        # G = P C, row by row, with MD^2 = (1 + T)^2.
        coef = np.zeros((len(b), 3, 4))
        coef[:, 0, 0], coef[:, 1, 1] = 1.0, bn
        coef[:, 1, 2], coef[:, 1, 3] = -mN * mN * bn / md2, bn / md2
        coef[:, 2, 2], coef[:, 2, 3] = 1.0 / md2, -bn * bn / md2
        lr = -(np.swapaxes(coef, 1, 2) @ (ma + u[:, :, None] * (u / den[:, None])[:, None, :]) @ coef)
        bias_r = f1_sq * (1.0 / md2 + lr[:, 2, 3] + lr[:, 0, 3])
        variance_r = tau_sq * (lr[:, 1, 2] + lr[:, 0, 1])
        risk_r = bias_r + variance_r
        pivots = np.concatenate((bc * d, sigma[:, None], den[:, None]), axis=1)
    valid = (pivots > 0.0) & (pivots < math.inf)
    singular = ~valid.all(axis=1)
    overflow = ~singular & ~np.isfinite(risk_r)
    # F1^2 and tau^2 are finite, yet the risk may overflow, as may the sums of
    # a root near the ends of the float range: such a point fails with
    # InvalidSpec and no warning for a risk it lacks; a singular S still warns.
    for c in cond[(cond > COND_WARN_THRESHOLD) & ~overflow]:
        warnings.warn(f"cond(S) = {c:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; risk may be inaccurate",
                      IllConditionedWarning, stacklevel=4)  # _score <- _theory <- entry point <- caller
    failed = singular | overflow
    for j in np.flatnonzero(failed):
        errors[int(rows[j])] = (
            np.linalg.LinAlgError(f"S is singular: pivot {pivots[j][~valid[j]][0]:.3e} is not positive and finite")
            if singular[j] else
            InvalidSpec(f"risk overflows: bias {bias_r[j]:.3e} + variance {variance_r[j]:.3e} is not finite"))
    risk_r[failed] = bias_r[failed] = variance_r[failed] = lr[failed] = np.nan
    risk, bias, variance = np.full((3, g), np.nan)
    L = np.full((g, 4, 4), np.nan)
    risk[rows], bias[rows], variance[rows], L[rows] = risk_r, bias_r, variance_r, lr
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

    The scales are found by Newton's method on the module docstring's
    F(log b_n, log s), starting from s = 1/2 and the closed-form b_n of
    ``_start``, which depends on the point's own widths, moments and lambda
    alone.  Each step is scaled down so that neither log b_n nor log s
    moves by more than 2, and is taken whatever it does to the residual,
    the largest relative residual of the full system at b_n and
    b_c = psi_c / D_c.  A solve fails as soon as that residual is not
    finite, then when the determinant of F's Hessian is not positive, or
    when it has not brought the residual to 1e-12 within 100 steps.  A solve
    that reaches it takes one more Newton step, kept only if it does not
    raise the residual, so that the root carries the digits of a full step
    rather than stopping at the first iterate under the tolerance;
    ``iterations`` counts that step.  A point where some psi_c / sqrt(lam),
    the largest b_c can be, lies below the normal float range fails before
    its first step.
    Raises ``NoConvergence``; ``LinAlgError`` for that determinant or a
    singular S; or ``InvalidSpec`` for a risk that is not finite.
    """
    risk, bias, variance, L, b, residual, steps, errors = _theory(spec, np.array([spec.psi]))
    if errors:
        raise errors[0]
    return TheoryRisk(risk=risk[0], bias=bias[0], variance=variance[0], L=L[0], b=b[0],
                      residual=float(residual[0]), iterations=int(steps[0]))


def limit_risk_infinite_width(ls: LimitSpec) -> float:
    """Risk limit as every width grows in the fixed proportions ``ls.r``.

    The blocks enter only through lin = sum_c r_c mu_{c,1}^2 and
    nonlin = sum_c r_c mu_{c,2}^2.  With chi the positive root of
    nonlin chi^2 - a chi - psi_n lin = 0, a = (psi_n - 1) lin - nonlin, and
    e = chi + 1, the risk is

        F1^2 (nonlin + lin/e) / (e D)  +  tau^2 (chi/e) (lin/D),
        D = nonlin e + lin/e,

    the printed formula (F1^2 psi_n + tau^2 chi^2) / (e^2 psi_n - chi^2)
    rewritten through the quadratic so that its denominator has no
    cancellation and no factor overflows before the risk would.  Raises
    ``InvalidSpec`` when chi or the risk is not finite in floating point.
    """
    # Only the direction of r matters.  Scaling it by a power of two that
    # brings its largest entry into [0.5, 1) is exact, and keeps lin, nonlin
    # and their product from overflowing or underflowing.
    _, e = math.frexp(max(ls.r))
    r = [math.ldexp(x, -e) for x in ls.r]
    lin = float(sum(x * m.mu1 * m.mu1 for x, m in zip(r, ls.moments)))
    nonlin = float(sum(x * m.mu2_sq for x, m in zip(r, ls.moments)))
    if lin * nonlin <= 0.0:
        raise DegenerateMoments(
            "need sum_c r_c mu_{c,1}^2 > 0 and sum_c r_c mu_{c,2}^2 > 0 for the width limit"
        )
    # In Python floats an overflow below gives inf, refused at the end,
    # rather than a numpy warning.
    psi_n = float(ls.psi_n)
    a = (psi_n - 1.0) * lin - nonlin
    # The root's two forms, each free of cancellation on its side of a = 0.
    h = math.hypot(a, 2.0 * math.sqrt(psi_n) * math.sqrt(lin * nonlin))
    chi = (a + h) / (2.0 * nonlin) if a >= 0.0 else 2.0 * psi_n * lin / (h - a)
    e = chi + 1.0
    d = nonlin * e + lin / e
    risk = ls.F1 ** 2 * ((nonlin + lin / e) / (e * d)) + ls.tau ** 2 * (chi / e * (lin / d))
    if not (math.isfinite(chi) and math.isfinite(risk)):
        raise InvalidSpec(f"the width limit overflows at psi_n={psi_n:.3e}")
    return risk


def limit_risk_zero_width(spec: TheorySpec) -> float:
    """Risk limit as every width ratio shrinks to zero: F1^2."""
    return spec.F1 ** 2
