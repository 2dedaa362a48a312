"""Reference implementations that only the tests use.

Each one re-derives a quantity the package computes, by a different route or
with bounds checks the package has no use for:

* ``explicit_risk_k2`` - the printed K=2 closed forms of the four L entries,
  an oracle for the matrix route of ``asymptotic_risk``;
* ``verify_complex`` - the scale system in its original complex form, an
  oracle for the real-variable Newton solve;
* ``residual_vector`` - the real residuals of the full K+1 system at a
  candidate b, equation by equation, an oracle for the residual the solver
  accepts a root on;
* ``potential`` - the convex potential Phi whose gradient in log b those
  residuals are, an oracle for the root being its minimum;
* ``build_matrices`` - the framework matrices H and V at one point by their
  printed formulas, an oracle for the Newton matrix S = -diag(b) H diag(b)
  through which the package scores the risk;
* ``expand_grid`` - a sweep's grid as one ``TheorySpec`` (and finite-size
  run) per point, an oracle for the sweep's array pass;
* ``scaled_moments`` - the moment triple of a rescaled activation;
* ``mp_risk`` - the risk by minimising Phi in mpmath at high precision and
  solving with H, the generator of the tests' high-precision constants;
* ``peak_spec`` and ``peak_risk`` - the figure model at its interpolation
  peak c = 1 and a vanishing ridge, and its ``mp_risk`` at 80 digits, the
  generator of the risk's accuracy references;
* ``mp_limit_risk`` - the infinite-width risk limit by its printed formula
  in mpmath, an oracle for the overflow-free form the package evaluates;
* ``box_spec`` - a seeded spec from a wide box of widths, ridges and
  moments, the solver's robustness battery;
* ``reference_replication`` - one Monte Carlo replication of a config run
  alone, drawn call by call and featurized with ``eval_activation``, an
  oracle for the simulator's shared draws and in-place feature map.

``tests/`` has no ``__init__.py``, so test modules import these as
``from oracles import ...``.
"""

import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from multidescent import (
    ActivationSpec,
    EmpiricalConfig,
    LimitSpec,
    eval_activation,
    replication_rng,
    Moments,
    SweepSpec,
    TheoryRisk,
    TheorySpec,
    compute_moments,
)
from multidescent.risk import _coeffs
from multidescent.sweep import _counts_at, _grid_psi


class WrongK(ValueError):
    """Closed-form route only exists for exactly two components."""


class DegenerateS(ArithmeticError):
    """Closed-form denominator S vanished."""


class NonPositiveInput(ValueError):
    """A candidate solution vector has a nonpositive entry."""


@dataclass
class TheoryMatrices:
    """Real forms of the auxiliary matrices.

    ``mN`` is sum_c mu_{c,1}^2 b_c (the full quantity is i*mN) and
    ``MD = -(b_n mN + 1) < 0``.  H is (K+1)x(K+1) symmetric, V is (K+1)x4,
    and L = V^T H^{-1} V.
    """

    mN: float
    MD: float
    H: np.ndarray
    V: np.ndarray


def scaled_moments(m: Moments, a: float) -> Moments:
    """Moment triple of x -> a * sigma(x) given the triple of sigma."""
    if not math.isfinite(a):
        raise ValueError("scale must be finite")
    return Moments(mu0=a * m.mu0, mu1=a * m.mu1, mu2_sq=a * a * m.mu2_sq)


def box_spec(rng, lam_exp=(-15.0, 3.0), k_max=5) -> TheorySpec:
    """A spec drawn from a wide box: K = 1..k_max blocks, lambda log-uniform
    over 10**lam_exp, psi_c and psi_n log-uniform over [1e-6, 1e6], mu1 in
    [0, 2] and mu2^2 in [0, 2], with one block in ten losing its linear or
    its nonlinear part (mu1 = 0 or mu2 = 0, never both)."""
    k = int(rng.integers(1, k_max + 1))
    moments = []
    for _ in range(k):
        mu1, mu2_sq = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0))
        if rng.uniform() < 0.1:
            if rng.uniform() < 0.5:
                mu1 = 0.0
            else:
                mu2_sq = 0.0
        moments.append(Moments(mu0=0.0, mu1=mu1, mu2_sq=mu2_sq))
    return TheorySpec(
        psi=tuple(float(10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(k)),
        psi_n=float(10.0 ** rng.uniform(-6.0, 6.0)),
        moments=tuple(moments),
        lam=float(10.0 ** rng.uniform(*lam_exp)),
    )


def mp_risk(psi, psi_n, m1, m2, lam, F1, tau, dps=60):
    """The risk in mpmath at ``dps`` digits, by a route the package does not take.

    ``m1`` and ``m2`` hold each block's mu1^2 and mu2^2; pass exact values
    (strings or mpf) to keep every digit.  The scales minimise the convex
    potential Phi (see ``potential``) by Newton's method in u = log b with a
    backtracking (Armijo) search on Phi itself, which converges from any
    start, until the gradient is below 10**-(dps - 20) of psi.  The risk is
    F1^2 (1/MD^2 + L[3,4] + L[1,4]) + tau^2 (L[2,3] + L[1,2]) with
    L = V^T H^{-1} V and H built from its printed formula, as in
    ``build_matrices``.
    """
    with mp.workdps(dps):
        psi = [mp.mpf(p) for p in psi] + [mp.mpf(psi_n)]
        m1, m2 = [mp.mpf(x) for x in m1], [mp.mpf(x) for x in m2]
        sl, k = mp.sqrt(mp.mpf(lam)), len(m1)

        def phi(u):
            b = [mp.exp(x) for x in u]
            t = b[k] * mp.fsum(a * x for a, x in zip(m1, b))
            return (sl * mp.fsum(b) + b[k] * mp.fsum(a * x for a, x in zip(m2, b))
                    + mp.log1p(t) - mp.fsum(p * x for p, x in zip(psi, u)))

        def grad_hess(u):
            b = [mp.exp(x) for x in u]
            bn = b[k]
            a = [m1[c] * b[c] for c in range(k)]
            p = [m2[c] * b[c] for c in range(k)]
            t = bn * mp.fsum(a)
            q = 1 / (1 + t)
            g = [sl * b[c] + bn * p[c] + bn * a[c] * q - psi[c] for c in range(k)]
            g.append(sl * bn + bn * mp.fsum(p) + t * q - psi[k])
            h = mp.matrix(k + 1, k + 1)
            for c in range(k):
                for d in range(k):
                    h[c, d] = -bn * a[c] * bn * a[d] * q * q
                h[c, c] += sl * b[c] + bn * p[c] + bn * a[c] * q
                h[c, k] = h[k, c] = bn * p[c] + bn * a[c] * q * q
            h[k, k] = sl * bn + bn * mp.fsum(p) + t * q * q
            return g, h

        u = [mp.log(p / (sl + 1)) for p in psi]
        f = phi(u)
        tol = mp.mpf(10) ** (20 - dps)
        for _ in range(500):
            g, h = grad_hess(u)
            if max(abs(x / p) for x, p in zip(g, psi)) < tol:
                break
            d = mp.lu_solve(h, mp.matrix(g))
            slope = -mp.fsum(x * y for x, y in zip(g, d))
            t = mp.mpf(1)
            while True:
                trial = [x - t * y for x, y in zip(u, d)]
                ft = phi(trial)
                if ft <= f + t * slope / 10**4:
                    break
                t /= 2
                if t < mp.mpf(10) ** -30:
                    raise ArithmeticError("Armijo search on Phi failed")
            u, f = trial, ft
        else:
            raise ArithmeticError("Newton on Phi did not converge")
        b = [mp.exp(x) for x in u]
        bc, bn = b[:k], b[k]
        mN = mp.fsum(a * x for a, x in zip(m1, bc))
        md2 = (bn * mN + 1) ** 2
        H, V = mp.matrix(k + 1, k + 1), mp.matrix(k + 1, 4)
        for i in range(k):
            for j in range(k):
                H[i, j] = bn * bn * m1[i] * m1[j] / md2
            H[i, i] -= psi[i] / bc[i] ** 2
            H[i, k] = H[k, i] = -m1[i] / md2 - m2[i]
            V[i, 0], V[i, 2], V[i, 3] = m2[i], m1[i] / md2, -bn * bn * m1[i] / md2
        H[k, k] = mN * mN / md2 - psi[k] / (bn * bn)
        V[k, 1], V[k, 2], V[k, 3] = 1, -mN * mN / md2, 1 / md2
        L = V.T * (mp.inverse(H) * V)
        F1, tau = mp.mpf(F1), mp.mpf(tau)
        return +(F1 ** 2 * (1 / md2 + L[2, 3] + L[0, 3]) + tau ** 2 * (L[1, 2] + L[0, 1]))


def peak_spec(lam: float) -> TheorySpec:
    """The paper's K = 2 figure model (elu at input scale 3, relu at 0.25) at
    its interpolation peak c = 1: psi = (5/3, 5/3), psi_n = 10/3, F1 = 1,
    tau = 0.1 and ridge ``lam``.  cond(S) grows as 1/lam there, so the
    risk's digits at a vanishing ridge measure how it is scored."""
    moments = tuple(compute_moments(ActivationSpec(kind=kind, in_scale=scale))
                    for kind, scale in (("elu", 3.0), ("relu", 0.25)))
    return TheorySpec(psi=(5 / 3, 5 / 3), psi_n=10 / 3, moments=moments, lam=lam, F1=1.0, tau=0.1)


def peak_risk(lam: float, dps=80):
    """``mp_risk`` of ``peak_spec(lam)`` at ``dps`` digits, from the float
    inputs the package reads: each m1_c is the rounded mu1_c * mu1_c."""
    spec = peak_spec(lam)
    return mp_risk(spec.psi, spec.psi_n, [m.mu1 * m.mu1 for m in spec.moments],
                   [m.mu2_sq for m in spec.moments], spec.lam, spec.F1, spec.tau, dps=dps)


def mp_limit_risk(ls: LimitSpec, dps=800):
    """The infinite-width risk limit of ``ls`` in mpmath at ``dps`` digits,
    by its printed formula: with lin = sum_c r_c mu_{c,1}^2,
    nonlin = sum_c r_c mu_{c,2}^2, a = (psi_n - 1) lin - nonlin,
    chi = (a + sqrt(a^2 + 4 psi_n lin nonlin)) / (2 nonlin), it is
    (F1^2 psi_n + tau^2 chi^2) / ((chi + 1)^2 psi_n - chi^2).  mpmath's
    exponent range has no overflow, and ``dps`` digits outlast the
    cancellation in chi down to psi_n = 1e-300."""
    with mp.workdps(dps):
        r = [mp.mpf(x) for x in ls.r]
        lin = mp.fsum(x * mp.mpf(m.mu1) ** 2 for x, m in zip(r, ls.moments))
        nonlin = mp.fsum(x * mp.mpf(m.mu2_sq) for x, m in zip(r, ls.moments))
        psi_n, f1, tau = mp.mpf(ls.psi_n), mp.mpf(ls.F1), mp.mpf(ls.tau)
        a = (psi_n - 1) * lin - nonlin
        chi = (a + mp.sqrt(a * a + 4 * psi_n * lin * nonlin)) / (2 * nonlin)
        return +((f1 ** 2 * psi_n + tau ** 2 * chi ** 2) / ((chi + 1) ** 2 * psi_n - chi ** 2))


def residual_vector(spec: TheorySpec, b) -> np.ndarray:
    """Residuals of the positive-variable system at candidate ``b``, each
    equation evaluated as printed in the ``risk`` module docstring.

    With w_c = b_n (m2_c + m1_c / (1 + T)), equation c reads
    b_c (sqrt(lam) + w_c) = psi_c and the last one
    b_n sqrt(lam) + sum_c b_c w_c = psi_n.  ``b`` must have K+1 strictly
    positive entries; the residual is zero at the solution.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.size != spec.K + 1:
        raise NonPositiveInput(f"expected {spec.K + 1} entries, got {b.size}")
    if not np.all(b > 0.0):
        raise NonPositiveInput("all entries of b must be > 0")
    (psi,), m1, m2, lam = _coeffs(spec, np.array([spec.psi]))
    bc, bn = b[:-1], b[-1]
    bw = bc * (bn * (m2 + m1 / (1.0 + bn * (m1 * bc).sum())))
    res = b * math.sqrt(lam) - psi
    res[:-1] += bw
    res[-1] += bw.sum()
    return res


def potential(spec: TheorySpec, u) -> float:
    """Phi(u) = sqrt(lam) sum_j b_j + b_n sum_c m2_c b_c + log(1 + b_n s1)
    - sum_j psi_j u_j at b = exp(u), with s1 = sum_c m1_c b_c.

    Its gradient in u is the residual vector of the scale system, and it is
    strictly convex, so the solved scales are its one minimum.
    """
    b = [math.exp(x) for x in u]
    k = spec.K
    bn = b[k]
    s1 = math.fsum(m.mu1 * m.mu1 * x for m, x in zip(spec.moments, b))
    s2 = math.fsum(m.mu2_sq * x for m, x in zip(spec.moments, b))
    return math.fsum([math.sqrt(spec.lam) * math.fsum(b), bn * s2, math.log1p(bn * s1)]
                     + [-p * x for p, x in zip(spec.psi_full, u)])


def verify_complex(spec: TheorySpec, b) -> float:
    """Max absolute residual of the complex system at nu_j = i b_j.

    Substitutes xi = sqrt(lam) i and the purely imaginary candidates into
    the system exactly as written in complex arithmetic, independently of
    the real-variable rearrangement used by the solver.
    """
    xi = complex(0.0, math.sqrt(spec.lam))
    nu_c = [complex(0.0, float(x)) for x in b]
    k = spec.K
    m1 = [m.mu1 * m.mu1 for m in spec.moments]
    m2 = [m.mu2_sq for m in spec.moments]
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


def build_matrices(spec: TheorySpec, b) -> TheoryMatrices:
    """Assemble H and V at the converged scales ``b``, all-real arithmetic.

    MD, H and V are built entry by entry from their printed formulas, which
    the package never evaluates: with mN = sum_c m1_c b_c and
    MD = -(b_n mN + 1), V's rows are (m2_c, 0, m1_c / MD^2,
    -b_n^2 m1_c / MD^2) for each block and (0, 1, -mN^2 / MD^2, 1 / MD^2)
    for the samples.
    """
    b = np.asarray(b, dtype=np.float64)
    if np.any(b == 0.0):
        raise ValueError("all b_j must be nonzero")
    (psi,), m1, m2, _ = _coeffs(spec, np.array([spec.psi]))
    k = spec.K
    bc, bn = b[:k], b[k]
    mN = (m1 * bc).sum()
    MD = -(bn * mN + 1.0)
    md2 = MD * MD
    h = np.empty((k + 1, k + 1))
    h[:k, :k] = bn * bn * np.outer(m1, m1) / md2
    h[range(k), range(k)] -= psi[:k] / (bc * bc)
    h[:k, k] = h[k, :k] = -m1 / md2 - m2
    h[k, k] = mN * mN / md2 - psi[k] / (bn * bn)
    v = np.zeros((k + 1, 4))
    v[:k, 0] = m2
    v[:k, 2] = m1 / md2
    v[:k, 3] = -bn * bn * m1 / md2
    v[k] = 0.0, 1.0, -mN * mN / md2, 1.0 / md2
    return TheoryMatrices(mN=float(mN), MD=float(MD), H=h, V=v)


@dataclass(frozen=True)
class GridPoint:
    """One expanded instance: exact asymptotic spec plus optional finite-size run."""

    c: float
    theory: TheorySpec
    empirical: EmpiricalConfig | None = None


def expand_grid(spec: SweepSpec) -> list[GridPoint]:
    """One instance per grid value; widths split as psi_c = ratio_c*c*psi_n/sum(ratios),
    feature counts as N_c = ratio_c*c*n/sum(ratios), rounded, at least 1, by the
    sweep's own helpers, so each point's widths equal its row's bit for bit."""
    points = []
    for c, psi in zip(spec.c_grid, _grid_psi(spec).tolist()):
        emp = None if spec.empirical is None else replace(spec.empirical, N=_counts_at(spec, c))
        points.append(GridPoint(c=c, theory=replace(spec.base, psi=psi), empirical=emp))
    return points


def explicit_risk_k2(spec: TheorySpec, b) -> TheoryRisk:
    """Closed-form route for K=2 at the scales ``b``; oracle for the matrix route.

    Evaluates the printed closed forms of S and of the four L entries under
    the purely-imaginary substitutions (squared scales pick up a minus sign)
    and assembles the same risk expression.  Only the four needed entries of
    L are populated (symmetrically); the rest stay zero.  The result carries
    ``b`` as given, with residual NaN and 0 iterations: nothing is solved.
    """
    if spec.K != 2:
        raise WrongK(f"closed form requires K=2, got K={spec.K}")
    b1, b2, b3 = (float(x) for x in b)
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
    bias = spec.F1 ** 2 * (1.0 / md2 + l34 + l14)
    variance = spec.tau ** 2 * (l23 + l12)
    return TheoryRisk(risk=bias + variance, bias=bias, variance=variance, L=L, b=b,
                      residual=math.nan, iterations=0)


def reference_replication(cfg: EmpiricalConfig, index: int) -> float:
    """Excess risk of replication ``index`` of ``cfg`` alone, by the original route.

    Draws, in order and one call each, from the replication's generator:
    the signal direction, the inputs, the label noise (if tau > 0), the
    feature directions and the test inputs.  Features come from
    ``eval_activation`` on the scaled projections, and the readout from the
    primal normal equations whatever the shape.
    """
    d = cfg.d
    rng = replication_rng(cfg.base_seed, index)

    def sphere(m):
        g = rng.standard_normal((m, d))
        return g * (math.sqrt(d) / np.linalg.norm(g, axis=1))[:, None]

    def features(inputs, theta):
        u = inputs @ theta.T / math.sqrt(d)
        cols = np.cumsum((0,) + cfg.N)
        return np.column_stack([eval_activation(act, u[:, lo:hi])
                                for act, lo, hi in zip(cfg.activations, cols, cols[1:])]) / math.sqrt(d)

    g = rng.standard_normal(d)
    beta1 = cfg.F1 * (g * (math.sqrt(d) / np.linalg.norm(g))) / math.sqrt(d)
    X = sphere(cfg.n)
    y = X @ beta1 + cfg.F0
    if cfg.tau > 0.0:
        y = y + rng.normal(0.0, cfg.tau, size=cfg.n)
    theta = sphere(sum(cfg.N))
    Z = features(X, theta)
    ahat = np.linalg.solve(Z.T @ Z + cfg.lam * np.eye(Z.shape[1]), Z.T @ y) / math.sqrt(d)
    X_test = sphere(cfg.n_test)
    gap = X_test @ beta1 + cfg.F0 - math.sqrt(d) * (features(X_test, theta) @ ahat)
    return float(np.mean(gap * gap))
