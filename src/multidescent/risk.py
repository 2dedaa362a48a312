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
on F with its closed-form 2x2 Hessian, O(K) a step, damped by one step rule
that cuts a long step and lengthens it again while F falls, and lengthens
a full step that has entered a valley (see the comment on it in
``_newton``); a root is accepted on the relative residuals r_j / psi_j of
the full system, formed from the sums the step takes.  Each point starts
from a b_n of closed form: the root of d F / d u_n = 0 at s = 1/2 with
every block given one width-weighted moment, which has b_n's own order as
lam -> 0+ (b_n ~ 1/sqrt(lam) where sum_c psi_c < psi_n, with b_n's exact
limit, and b_n ~ sqrt(lam) where sum_c psi_c > psi_n).  Four rounds of
block Gauss-Seidel on F's two variables refine it, with the true moments:
a Newton step in log b_n on d F / d u_n = 0 at the current s, then
s = 1 / (1 + T) at the b_n reached.  Both variables then start near the
root, so that Newton's quadratic phase (Boyd & Vandenberghe, 9.5) begins
at the first step for the paper's curves.

The risk differentiates Phi at its root.  It splits as

    risk = F1^2 * (1/MD^2 + L[3,4] + L[1,4])  +  tau^2 * (L[2,3] + L[1,2])

(1-based indices) with L = -G^T S^{-1} G, G = b * V and MD = -(1 + T), V
real forms of the framework's auxiliary quantities (each squared scale
nu_j^2 enters as -b_j^2).  L has a closed form, O(K) a point, no matrix
solve: G's columns lie in the span of P = ((m2_c b_c | 0), e_n, (m1_c b_c | 0)),
so L = -C^T (P^T S^{-1} P) C with C holding V's coefficients, and eliminating
the diagonal block b_c D_c from the Hessian of the jointly convex function of
(u, sigma) above (Boyd & Vandenberghe, "Convex Optimization", A.5.5) leaves
F's 2x2 Hessian H: P^T S^{-1} P = X + Y H^{-1} Y^T, X = sum_c (b_c / D_c)
x_c x_c^T with x_c = (m2_c, 0, m1_c), and Y = (y_s + y_d, y_s) read off X's
rows, y_s = s b_n X e_3 and y_d = b_n X e_1 - e_2.  One model at a
stack of block widths, such as the points of a sweep grid, is solved and
scored at once with batched arithmetic: each stage takes the model's
``TheorySpec``, whose moments, psi_n, lam, F1 and tau every point shares
as scalars, and the widths as a (G, K) array.  Every point keeps its place in
every array from start to end, with its own steps and failure; a point that
has left the solve keeps its values while the others iterate.  The risk has a
closed-form limit as the widths grow at fixed block proportions, for any K,
and tends to F1^2 as they vanish.

How far a root can be off is estimated from F's 2x2 Hessian at it, the
matrix the solver steps with; a point warns where that estimate exceeds
1e-4 (``_score`` estimates it, ``_theory`` warns).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .activations import InvalidSpec, Moments

__all__ = [
    "TheorySpec",
    "SolveFailure",
    "TheoryRisk",
    "LimitSpec",
    "IllConditionedWarning",
    "asymptotic_risk",
    "limit_risk_infinite_width",
]


class SolveFailure(RuntimeError):
    """A failed solve, the one class of the CLI's exit status 3: Newton's
    method missed the tolerance within its step limit, its residual stopped
    being finite, or a block scale lies below the normal float range
    whatever the step; S is singular; or a Monte Carlo replication's ridge
    system could not be factorized or its excess risk is not finite.
    ``residual`` and ``iterations`` are those of the Newton solve that
    failed, None where the failure has none."""

    def __init__(self, message: str, residual: float | None = None, iterations: int | None = None):
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
        if not math.isfinite(self.F0):
            raise InvalidSpec("F0 must be finite")
        _check_blocks("psi", self.psi, self.moments, self.psi_n, self.F1, self.tau)


class IllConditionedWarning(UserWarning):
    """The estimated relative error of a point's solved scales exceeds
    ``_ERR_WARN`` (see ``_score``): the risk value may have lost digits.  A
    point that fails does not warn."""


@dataclass
class TheoryRisk:
    """The risk of one point and the solve behind it.

    ``b`` holds the solved scales b_1..b_{K+1}, ``residual`` the largest
    relative residual at them, and ``iterations`` the Newton steps, the
    polishing step after reaching the tolerance included; a solve that
    reaches the rounding floor takes no polishing step.
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

# The change of log b_n or log s a long Newton step tries first (``_newton``'s step rule).
_MAX_LOG_STEP = 2.0

# The s = 1 / (1 + T) at which every solve's closed-form start weighs the
# block moments, and the rounds in which ``_refine_start`` refines it (3 and
# 5 rounds were slower on the paper's curves).
_S0 = 0.5
_START_STEPS = 4

# The smallest normal float: a block scale below it fails the residual test
# (see ``_step``).  As D_c >= sqrt(lam), b_c <= psi_c / sqrt(lam): a point
# where that bound lies below it fails before its first step.
_TINY = np.finfo(float).tiny

# The rounding unit of the error estimate (``_score``).
_EPS = np.finfo(float).eps

# A residual at or below it (and under _TOL) lies at the rounding floor,
# where a solve stops without its polishing step (``_newton``).
_FLOOR = 4.0 * _EPS

# Estimated relative error of the scales above which a risk warns.
_ERR_WARN = 1e-4


@functools.lru_cache(maxsize=64)
def _moment_matrix(moments: tuple[Moments, ...]) -> np.ndarray:
    """The columns m1, m2 and m1 m2 (K, 3) of the blocks' ``moments``, with
    m1_c = mu_{c,1}^2 and m2_c = mu_{c,2}^2.  It is built once per moments
    tuple and shared by every call, so it is read-only."""
    m1 = np.array([m.mu1 * m.mu1 for m in moments])
    m2 = np.array([m.mu2_sq for m in moments])
    m = np.column_stack((m1, m2, m1 * m2))
    m.flags.writeable = False
    return m


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _start(base: TheorySpec, psi):
    """The closed-form start b_n (G,) of ``base``'s model at each row of
    the widths ``psi`` (G, K), which ``_refine_start`` refines; psi_n and
    lam are ``base``'s scalars.

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
    lam, psi_n, m = base.lam, base.psi_n, _moment_matrix(base.moments)
    sqrt_lam = math.sqrt(lam)
    total = psi.sum(axis=1)
    a = (psi * (m[:, 1] + _S0 * m[:, 0])).sum(axis=1) / total
    mid = lam + (total - psi_n) * a
    h = np.hypot(mid, 2.0 * sqrt_lam * np.sqrt(a * psi_n))
    return np.where(mid >= 0.0, 2.0 * sqrt_lam * psi_n / (mid + h), (h - mid) / (2.0 * sqrt_lam * a))


def _refine_start(psi_t, psi_n, m, sqrt_lam, u):
    """The (log b_n, log s) (G,) each solve starts from: ``_start``'s
    log b_n ``u`` and s = ``_S0`` after ``_START_STEPS`` rounds of block
    Gauss-Seidel on F's two variables, each a Newton step on
    g_n(b_n; s) = 0, cut to ``_MAX_LOG_STEP``, then s = 1 / (1 + T) at the
    b_n reached; the arguments are ``_step``'s.  At fixed s, with
    w_c = m2_c + m1_c s, g_n = b_n (sqrt(lam) + sum_c w_c b_c) - psi_n
    rises in u_n with slope P + C = sqrt(lam) b_n (1 + sum_c w_c b_c / D_c)
    (``_hessian``).  A step that is not finite is not taken.  The sums run
    over the rows of (K, G) arrays, so that a point's start does not depend
    on G."""
    s = _S0
    for _ in range(_START_STEPS):
        w = m[:, 1:2] + s * m[:, :1]
        bn = np.exp(u)
        d = sqrt_lam + bn * w
        wb = w * (psi_t / d)
        du = (bn * (sqrt_lam + wb.sum(axis=0)) - psi_n) / (sqrt_lam * bn * (1.0 + (wb / d).sum(axis=0)))
        u = np.where(np.isfinite(du), u - np.maximum(np.minimum(du, _MAX_LOG_STEP), -_MAX_LOG_STEP), u)
        bn = np.exp(u)
        t = bn * (m[:, :1] * psi_t / (sqrt_lam + bn * w)).sum(axis=0)
        s = 1.0 / (1.0 + t)
    return u, -np.log1p(t)


def _hessian(bc_d, bn, s, m, sqrt_lam):
    """P, C, Q and the determinant of F's Hessian H = [[P + C, C], [C, Q + C]]
    in (log b_n, log s) at G points, from b_c / D_c (K, G), b_n and s (G,).
    With R_x = sum_c b_c x_c / D_c over x = m1, m2, m1 m2 (the columns of
    ``m``, (K, 3)), P = sqrt(lam) b_n (1 + R_m2), C = sqrt(lam) b_n s R_m1
    and Q = s (1 + b_n^2 R_m1m2).  The determinant PQ + C(P + Q) is a sum of
    terms >= 0, so it keeps its digits where H is nearly singular."""
    r1, r2, r12 = m.T @ bc_d
    lb = sqrt_lam * bn
    p = lb * (1.0 + r2)
    c = lb * s * r1
    q = s * (1.0 + bn * bn * r12)
    return p, c, q, p * q + c * (p + q)


def _step(psi_t, psi_n, m, sqrt_lam, u, sigma):
    """At the G points (u, sigma) = (log b_n, log s), each (G,): the block
    scales b_c (K, G) and b_n, the Newton step (du, dsigma) = H^-1 grad F,
    the determinant of F's Hessian H (``_hessian``), the largest relative
    residual of the full K+1 system at (b_c, b_n) and grad F = (g_n, g_s);
    ``psi_t`` (K, G) holds the block widths, the scalar ``psi_n`` the sample
    ratio and ``m`` (K, 3) each block's m1, m2, m1 m2 (``_moment_matrix``).
    An array over blocks and points has a row per block, so that numpy's
    loops run along the points.

    Block c's scale is b_c = psi_c / D_c with D_c = sqrt(lam) + b_n (m1_c s + m2_c).
    With the sums S_x = sum_c b_c x_c and T = b_n S_m1,
    grad F = (g_n, g_s) = (b_n (sqrt(lam) + s S_m1 + S_m2) - psi_n, s (1 + T) - 1).

    As b_c D_c = psi_c, the residuals of the full system at (b_c, b_n) are
    r_c / psi_c = -b_n m1_c k / D_c and r_n = g_n - T k, with k = g_s / (1 + T).
    A block scale below the normal float range has lost the bits that
    b_c D_c = psi_c assumes: such a point reads a relative residual of 1,
    exact where the scale underflowed to 0 and its equation reads -psi_c.
    """
    bn, s = np.exp(u), np.exp(sigma)
    d = sqrt_lam + bn * (m[:, :1] * s + m[:, 1:2])
    bc = psi_t / d
    s1, s2 = m[:, :2].T @ bc
    t = bn * s1
    opt = 1.0 + t
    g_n = bn * (sqrt_lam + s * s1 + s2) - psi_n
    g_s = s * opt - 1.0
    p, c, q, det = _hessian(bc / d, bn, s, m, sqrt_lam)
    du = ((q + c) * g_n - c * g_s) / det
    dsigma = ((p + c) * g_s - c * g_n) / det
    k = g_s / opt
    rel = np.maximum(np.abs(g_n - t * k) / psi_n, bn * np.abs(k) * (m[:, :1] / d).max(axis=0))
    if bc.min() < _TINY:
        rel = np.maximum(rel, (bc < _TINY).any(axis=0))
    return bc, bn, du, dsigma, det, rel, g_n, g_s


# A width near the float range overflows the scales, the residuals or the
# Newton matrix to inf and NaN, and a scale below the normal float range pins
# its block's relative residual at 1.  Such a point fails loudly all the same:
# at once, at the step limit, on a residual not finite or a determinant not > 0.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(base: TheorySpec, psi):
    """Newton's method on the reduced potential F(log b_n, log s) of
    ``base``'s model at each row of the widths ``psi`` (G, K); psi_n and
    lam are ``base``'s scalars.

    Returns b (G, K+1), the largest relative residual (G,) of the full
    system and the Newton steps (G,) of every point, and the exception that
    ended each failed point's solve by index: ``SolveFailure``, or
    ``InvalidSpec`` for a Newton determinant that is not positive: as
    det(H) = PQ + C(P + Q) >= 0, that happens only where H has left the
    float range.  b is NaN on the failed points.  Each point starts from
    ``_refine_start``, iterates by the rules in ``asymptotic_risk``'s
    docstring and the loop's step rule, and keeps its place in every
    array; a point that has left keeps its scales, residual and steps
    while the others iterate.  Where every point agrees, the loop skips
    work that cannot change a bit: the failure classification when every
    determinant is > 0 and every residual finite, the cap and its growth
    search when no step is cut, and the per-point merge when every point
    takes its step.
    """
    lam, psi_n, m = base.lam, base.psi_n, _moment_matrix(base.moments)
    sqrt_lam = math.sqrt(lam)
    psi_t = np.ascontiguousarray(psi.T)
    step = functools.partial(_step, psi_t, psi_n, m, sqrt_lam)
    errors: dict = {}
    bound = psi / sqrt_lam
    lost = (bound < _TINY).any(axis=1)
    for i in np.flatnonzero(lost):
        c = int(np.argmax(bound[i] < _TINY))
        errors[int(i)] = SolveFailure(
            f"block {c + 1} scale is at most psi_{c + 1}/sqrt(lambda) = {bound[i, c]:.3e}, "
            f"below the normal float range, at lambda={lam:.3e}", residual=1.0, iterations=0)
    # The points still iterating, each after the same ``n`` steps; the others take no step.
    active = ~lost
    u, sigma = _refine_start(psi_t, psi_n, m, sqrt_lam, np.log(_start(base, psi)))
    bc, bn, du, dsigma, det, rel, g_n, g_s = step(u, sigma)
    rel[lost] = 1.0
    steps, polished, n = np.zeros(len(psi), dtype=int), np.zeros(len(psi), dtype=bool), 0
    floor = min(_TOL, _FLOOR)
    while True:
        within = rel <= _TOL
        # A root is accepted on the residual of the full system.  A point
        # leaves once polished or at the rounding floor, or fails: on a
        # residual that is not finite, then on a determinant that is not
        # positive, then at the step limit.  Where every determinant is > 0
        # and every residual finite, only the step limit can fail a point.
        if n >= _MAX_ITER or not (det.min() > 0.0 and math.isfinite(rel.sum())):
            failed = active & ~within
            if n < _MAX_ITER:
                failed &= ~(np.isfinite(rel) & (det > 0.0))
            where = f"after {n} Newton steps at lambda={lam:.3e}"
            for i in np.flatnonzero(failed):
                if not np.isfinite(rel[i]) or det[i] > 0.0:
                    errors[int(i)] = SolveFailure(f"residual {rel[i]:.3e} > tol {_TOL:.1e} {where}",
                                                  residual=float(rel[i]), iterations=n)
                else:
                    errors[int(i)] = InvalidSpec(f"Newton matrix leaves the float range: determinant "
                                                 f"{det[i]:.3e} {where}")
            active &= ~failed
        active &= ~(polished | (rel <= floor))
        if not active.any():
            b = np.vstack((bc, bn)).T.copy()  # C order: _score's sums depend on it
            b[list(errors)] = np.nan
            return b, rel, steps, errors
        # A point already within tol takes its last, polishing step, the others
        # theirs; a point that has left computes one too, which is discarded.
        # The step rule (damped Newton; Boyd & Vandenberghe, "Convex
        # Optimization", 9.5): a step moving log b_n or log s by more than
        # _MAX_LOG_STEP is cut to that, at t < 1 along the Newton step.  While
        # phi'(t) = -grad F . (du, dsigma), rising in t as F is convex, is <=
        # ratio * slope, a secant on phi' puts its zero at 4 t or beyond, and t
        # grows to min(4 t, 1): first with slope = phi'(0) and ratio 7/8 where
        # t > 1/8 (a secant zero at 8 t), else 3/4; then with slope = phi'(t/4)
        # and ratio 4/5.  A full step (t = 1) that leaves the residual above
        # tol, cut by less than 4x, with phi'(1) <= phi'(0) / 4 and a Newton
        # step at its end that is not cut, has entered a valley where F falls
        # like exp(-t) and each Newton step has unit length: from its end the
        # probes run along that point's own Newton step, whose cross-valley
        # part is already small, to 3, 15, 63, ... times it (4, 16, 64, ...
        # steps in all), on while residual and phi' still fall by less than 4x
        # per unit of step.  A probe is kept only where phi' < 0, F's Hessian
        # determinant > 0 and the residual finite; F's value is never read.
        if np.abs(du).max() <= _MAX_LOG_STEP and np.abs(dsigma).max() <= _MAX_LOG_STEP:
            t, grow = 1.0, None
            u_end, sigma_end = u - du, sigma - dsigma
        else:
            t = _MAX_LOG_STEP / np.maximum(np.maximum(np.abs(du), np.abs(dsigma)), _MAX_LOG_STEP)
            u_end, sigma_end = u - du * t, sigma - dsigma * t
            grow = active & (t < 1.0)
        trial = step(u_end, sigma_end)
        if grow is not None and grow.any():
            slope, at = -(g_n * du + g_s * dsigma), -(trial[6] * du + trial[7] * dsigma)
            ratio = np.where(t > 0.125, 0.875, 0.75)
            while (grow := grow & (t < 1.0) & (at <= ratio * slope)).any():
                t_next = np.minimum(4.0 * t, 1.0)
                probe = step(u - du * t_next, sigma - dsigma * t_next)
                at_next = -(probe[6] * du + probe[7] * dsigma)
                grow &= (at_next < 0.0) & (probe[4] > 0.0) & np.isfinite(probe[5])
                trial = tuple(np.where(grow, new, old) for new, old in zip(probe, trial))
                slope, at, t = (np.where(grow, a, b) for a, b in ((at, slope), (at_next, at), (t_next, t)))
                ratio = 0.8
            u_end, sigma_end = u - du * t, sigma - dsigma * t
        u, sigma = u_end, sigma_end
        far = trial[5] > np.maximum(0.25 * rel, _TOL)
        if far.any():
            slope, at = -(g_n * du + g_s * dsigma), -(trial[6] * du + trial[7] * dsigma)
            du_end, dsigma_end, last, reach = trial[2], trial[3], trial[5], 0.0
            far &= active & ~within & (t == 1.0) & (at <= 0.25 * slope)
            far &= np.maximum(np.abs(du_end), np.abs(dsigma_end)) <= _MAX_LOG_STEP
            slope = -(trial[6] * du_end + trial[7] * dsigma_end)
            while far.any():
                reach_next = 4.0 * reach + 3.0
                u_next, sigma_next = u_end - du_end * reach_next, sigma_end - dsigma_end * reach_next
                probe = step(u_next, sigma_next)
                at_next = -(probe[6] * du_end + probe[7] * dsigma_end)
                far &= (at_next < 0.0) & (probe[4] > 0.0) & np.isfinite(probe[5])
                trial = tuple(np.where(far, new, old) for new, old in zip(probe, trial))
                u, sigma = np.where(far, u_next, u), np.where(far, sigma_next, sigma)
                fall = 0.25 ** (reach_next - reach)
                far &= (probe[5] > fall * last) & (at_next <= fall * slope)
                last, slope, reach = np.where(far, probe[5], last), np.where(far, at_next, slope), reach_next
        trial_bc, trial_bn, du, dsigma, det, trial_rel, g_n, g_s = trial
        # A point still iterating takes its step, unless it is the polishing
        # step and raises the residual; a point that has left keeps its values.
        take = active & (~within | (trial_rel <= rel))
        if take.all():
            bc, bn, rel = trial_bc, trial_bn, trial_rel
        else:
            bc = np.where(take, trial_bc, bc)
            bn, rel = np.where(take, trial_bn, bn), np.where(take, trial_rel, rel)
        polished = within
        steps += active
        n += 1


def _score(base: TheorySpec, b, errors: dict):
    """Risk, bias and variance (G,), L (G, 4, 4) and the estimated relative
    error e (G,) of the scales of ``base``'s model at G solved points, by the
    module docstring's closed form; ``b`` (G, K+1) holds each point's
    scales, and psi_n, lam, F1 and tau are ``base``'s scalars.  Every array
    formed from ``b`` takes its dtype, so a complex ``b`` carries its
    imaginary part through to the risk (a complex-step derivative).
    ``errors`` maps the points that already failed to their exception; such
    a point comes with NaN scales, as from ``_newton``, and is not
    diagnosed again.  ``errors`` gains ``InvalidSpec`` where
    (1 + T)^2 overflows, else ``SolveFailure`` where a pivot of the
    elimination, b_c D_c or det(H), is not positive and finite (a singular
    S), and ``InvalidSpec`` for a risk that is not finite.  Every
    point keeps its row, and every failed point reads NaN, e included.

    e = eps ((Q + C) psi_n + C) / det(H) from F's Hessian H (``_hessian``)
    at ``b`` and s = 1 / (1 + T) is how far rounding errors of eps psi_n and
    eps in grad F move log b_n.  It is eps psi_n / s_n, with s_n the Schur
    complement of S on b_n's row, up to a factor in [1, 1 + 1/psi_n].  It
    covers the scales alone, not the rounding of the closed form;
    ``_theory`` warns on it.
    """
    sqrt_lam, m = math.sqrt(base.lam), _moment_matrix(base.moments)
    m1, m2 = m[:, 0], m[:, 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bc, bn = b[:, :-1], b[:, -1]
        mN = (m1 * bc).sum(axis=1)
        t = bn * mN
        md2 = (1.0 + t) ** 2
        s = 1.0 / (1.0 + t)
        d = sqrt_lam + bn[:, None] * (m2 + np.multiply.outer(s, m1))
        bc_d = bc / d
        p, c, q, det = _hessian(bc_d.T, bn, s, m, sqrt_lam)
        err = _EPS * ((q + c) * base.psi_n + c) / det
        # M = X + Y H^-1 Y^T (module docstring), X in xx.  As det(H) H^-1 = Q e1 e1^T + P e2 e2^T
        # + C (e1 - e2)(e1 - e2)^T, Y's columns y_s + y_d, y_s and y_d enter weighed by Q, P, C >= 0.
        x = np.zeros((len(m1), 3))
        x[:, 0], x[:, 2] = m2, m1
        xx = (bc_d[:, None, :] * x.T) @ x
        y_s, y_d = (s * bn)[:, None] * xx[:, 2], bn[:, None] * xx[:, 0]
        y_d[:, 1] = -1.0
        y = np.array((y_s + y_d, y_s, y_d)).transpose(1, 2, 0)
        w = (np.array((q, p, c)) / det).T
        ma = xx + (y * w[:, None, :]) @ np.swapaxes(y, 1, 2)
        # G = P C, row by row, with MD^2 = (1 + T)^2.
        coef = np.zeros((len(b), 3, 4), dtype=b.dtype)
        coef[:, 0, 0], coef[:, 1, 1] = 1.0, bn
        coef[:, 1, 2], coef[:, 1, 3] = -mN * mN * bn / md2, bn / md2
        coef[:, 2, 2], coef[:, 2, 3] = 1.0 / md2, -bn * bn / md2
        lr = -(np.swapaxes(coef, 1, 2) @ ma @ coef)
        bias = base.F1 ** 2 * (1.0 / md2 + lr[:, 2, 3] + lr[:, 0, 3])
        variance = base.tau ** 2 * (lr[:, 1, 2] + lr[:, 0, 1])
        risk = bias + variance
        pivots = np.concatenate((bc * d, det[:, None], md2[:, None]), axis=1)
    valid = (pivots > 0.0) & (pivots < math.inf)
    singular = ~valid.all(axis=1)
    # F1^2 and tau^2 are finite, yet the risk may overflow, as may the sums of
    # a root near the ends of the float range: such a point fails with
    # InvalidSpec.  A failed point reads NaN in e too, so that it gives no
    # warning for a risk it lacks.
    failed = singular | ~np.isfinite(risk)
    # A point that already failed reads NaN from its NaN scales and keeps
    # the exception it has.
    failed[list(errors)] = False
    if failed.any():
        # T past 1.3e154 overflows (1 + T)^2, a pivot so that the point fails, yet not a singular S.
        for j in np.flatnonzero(failed):
            errors[int(j)] = (
                InvalidSpec(f"(1 + T)^2 overflows at T = {t[j]:.3e}") if md2[j] == math.inf else
                SolveFailure(f"S is singular: pivot {pivots[j][~valid[j]][0]:.3e} is not positive and finite")
                if singular[j] else
                InvalidSpec(f"risk overflows: bias {bias[j]:.3e} + variance {variance[j]:.3e} is not finite"))
        risk[failed] = bias[failed] = variance[failed] = lr[failed] = err[failed] = np.nan
    return risk, bias, variance, lr, err


def _theory(base: TheorySpec, psi):
    """The one core of the theory: ``base``'s model at each row of the block
    widths ``psi`` (G, K), solved by ``_newton`` and scored by ``_score``.

    Returns risk, bias, variance and L as from ``_score``, then b, the
    residuals and the steps as from ``_newton``, then the exception of every
    failed point by index.  A lone row is solved as two equal rows, as
    numpy's one-row matrix products round differently, so that a point's
    bits do not depend on its stack.  Each point that does not fail warns
    ``IllConditionedWarning``, in order, where ``_score``'s error estimate
    exceeds ``_ERR_WARN``; every public entry point calls ``_theory``
    directly, so the warning names the line that called the entry point.
    """
    lone = len(psi) == 1
    b, residual, steps, errors = _newton(base, np.vstack((psi, psi)) if lone else psi)
    *scores, err = _score(base, b, errors)
    out = (*scores, b, residual, steps)
    if lone:
        out, err = tuple(a[:1] for a in out), err[:1]
        errors.pop(1, None)
    for e in err[err > _ERR_WARN]:
        warnings.warn(f"estimated relative error {e:.3e} of the scales exceeds {_ERR_WARN:.0e}; risk may "
                      "be inaccurate", IllConditionedWarning, stacklevel=3)  # _theory <- entry point <- caller
    return (*out, errors)


def asymptotic_risk(spec: TheorySpec) -> TheoryRisk:
    """Asymptotic excess risk of ``spec``: ``_theory`` at its one set of
    widths, raising its failure.

    The scales are found by Newton's method on the module docstring's
    F(log b_n, log s).  It starts from the closed-form b_n of ``_start``,
    and from s = 1/2, refined by four rounds of a Newton step in log b_n
    at the current s, then s = 1 / (1 + T) at the b_n reached
    (``_refine_start``); the start depends on the point's own widths,
    moments and lambda alone.  Each step is cut to
    a change of 2 in log b_n or log s and lengthened again while F still
    falls, and a full step that cuts the residual by less than 4x is
    lengthened along the valley it has entered (``_newton``'s step rule).
    A step is taken whatever it does to the residual, the largest relative
    residual of the full system at b_n and b_c = psi_c / D_c.  A solve
    fails as soon as that residual is not finite, then when the determinant
    of F's Hessian is not positive, or when it has not brought the residual
    to 1e-12 within 100 steps.  A solve that reaches it takes
    one more Newton step, kept only if it does not raise the residual, so
    that the root carries the digits of a full step rather than stopping at
    the first iterate under the tolerance; ``iterations`` counts that step.
    A solve whose residual already lies at the rounding floor,
    min(1e-12, 4 eps), stops without it, as it could add no digits there.
    A point where some psi_c / sqrt(lam), the largest b_c can be, lies below
    the normal float range fails before its first step.
    Raises ``SolveFailure`` for a failed solve or a singular S, or
    ``InvalidSpec`` for that determinant, a (1 + T)^2 or a risk that is not
    finite.
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
        raise InvalidSpec(
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
