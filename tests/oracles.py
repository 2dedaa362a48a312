"""Reference implementations that only the tests use.

Each one re-derives a quantity the package computes, by a different route or
with bounds checks the package has no use for:

* ``explicit_risk_k2`` - the printed K=2 closed forms of the four L entries,
  an oracle for the matrix route of ``asymptotic_risk``;
* ``verify_complex`` - the scale system in its original complex form, an
  oracle for the real-variable Newton solve;
* ``residual_vector`` - the solver's own real residuals at a candidate b;
* ``potential`` - the convex potential Phi whose gradient in log b those
  residuals are, an oracle for the root being its minimum;
* ``build_matrices`` - the framework matrices H and V at one point, H by
  its printed formula, an oracle for the Newton matrix S = -diag(b) H diag(b)
  through which the package scores the risk;
* ``expand_grid`` - a sweep's grid as one ``TheorySpec`` (and finite-size
  run) per point, an oracle for the sweep's array pass;
* ``scaled_moments`` - the moment triple of a rescaled activation;
* ``reference_replication`` - one Monte Carlo replication of a config run
  alone, drawn call by call and featurized with ``eval_activation``, an
  oracle for the simulator's shared draws and in-place feature map.

``tests/`` has no ``__init__.py``, so test modules import these as
``from oracles import ...``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from multidescent import (
    DegenerateB,
    EmpiricalConfig,
    eval_activation,
    replication_rng,
    Moments,
    NuStar,
    SweepSpec,
    TheoryRisk,
    TheorySpec,
)
from multidescent.risk import _matrices, _residuals, _stack_coeffs
from multidescent.sweep import _empirical_at, _grid_psi


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
    psi, m1, m2, lam = _stack_coeffs([spec])
    return _residuals(psi, m1, m2, np.sqrt(lam), b[None])[0]


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


def verify_complex(spec: TheorySpec, nu: NuStar) -> float:
    """Max absolute residual of the complex system at nu_j = i b_j.

    Substitutes xi = sqrt(lam) i and the purely imaginary candidates into
    the system exactly as written in complex arithmetic, independently of
    the real-variable rearrangement used by the solver.
    """
    xi = complex(0.0, math.sqrt(spec.lam))
    nu_c = [complex(0.0, float(x)) for x in nu.b]
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


def build_matrices(spec: TheorySpec, nu: NuStar) -> TheoryMatrices:
    """Assemble H and V at the converged scales, all-real arithmetic.

    H is built entry by entry from its formula, which the package never
    evaluates; MD and V are the package's own.
    """
    b = np.asarray(nu.b, dtype=np.float64)
    if np.any(b == 0.0):
        raise DegenerateB("all b_j must be nonzero")
    psi, m1, m2, _ = _stack_coeffs([spec])
    MD, v = _matrices(m1, m2, b[None])
    k, psi, m1, m2, md2 = spec.K, psi[0], m1[0], m2[0], MD[0] * MD[0]
    bc, bn = b[:k], b[k]
    mN = (m1 * bc).sum()
    h = np.empty((k + 1, k + 1))
    h[:k, :k] = bn * bn * np.outer(m1, m1) / md2
    h[range(k), range(k)] -= psi[:k] / (bc * bc)
    h[:k, k] = h[k, :k] = -m1 / md2 - m2
    h[k, k] = mN * mN / md2 - psi[k] / (bn * bn)
    return TheoryMatrices(mN=float(mN), MD=float(MD[0]), H=h, V=v[0])


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
        emp = None if spec.empirical is None else _empirical_at(spec, c)
        points.append(GridPoint(c=c, theory=replace(spec.base, psi=psi), empirical=emp))
    return points


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
    bias = spec.F1 ** 2 * (1.0 / md2 + l34 + l14)
    variance = spec.tau ** 2 * (l23 + l12)
    return TheoryRisk(risk=bias + variance, bias=bias, variance=variance, L=L, nu=nu)


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
