"""Tests for the coupled self-consistent scale system.

Single-component instances collapse to a quadratic (purely nonlinear
features) or a cubic (purely linear features), both solvable in closed form;
those are the primary oracles.  Every solver output is additionally pushed
through ``verify_complex``, which re-evaluates the original complex-variable
system independently of the real residual the Newton iteration drives to zero.
"""

import math

import numpy as np
import pytest

from multidescent import (
    Moments,
    TheorySpec,
    asymptotic_risk,
    risk,
)
from oracles import box_spec, mp_risk, psi_full, residual_vector, verify_complex


def _pure_nonlinear_oracle(psi1: float, psi_n: float, m2: float, lam: float):
    """Closed-form b for K=1 with mu1 = 0 (quadratic in b_n).

    Subtracting the two equations pins b_1 - b_n = (psi_1 - psi_n)/sqrt(lam);
    substituting back leaves m2 b_n^2 + (sqrt(lam) + m2 delta) b_n - psi_n = 0.
    """
    s = math.sqrt(lam)
    delta = (psi1 - psi_n) / s
    p = s + m2 * delta
    bn = (-p + math.sqrt(p * p + 4.0 * m2 * psi_n)) / (2.0 * m2)
    return bn + delta, bn


def _pure_linear_roots(psi1: float, psi_n: float, lam: float):
    """Admissible (b_1, b_n) pairs for K=1 identity features (cubic in b_n)."""
    s = math.sqrt(lam)
    delta = (psi1 - psi_n) / s
    roots = np.roots([s, s * delta + 1.0 - psi_n, s + delta - psi_n * delta, -psi_n])
    out = []
    for r in roots:
        if abs(r.imag) < 1e-12 and r.real > 0.0 and r.real + delta > 0.0:
            out.append((r.real + delta, r.real))
    return out


def _cli_box_spec(rng) -> TheorySpec:
    """A spec from the box the CLI accepts: K=1..4, ratios in [1e-3, 1e3], lam in [1e-10, 1]."""
    k = int(rng.integers(1, 5))
    moments = tuple(
        Moments(
            mu0=0.0,
            mu1=float(rng.uniform(0.0, 2.0)) * (1.0 if rng.uniform() < 0.8 else 0.0),
            mu2_sq=float(rng.uniform(0.0, 2.0)) * (1.0 if rng.uniform() < 0.8 else 0.0),
        )
        for _ in range(k)
    )
    return TheorySpec(
        psi=tuple(float(10.0 ** rng.uniform(-3, 3)) for _ in range(k)),
        psi_n=float(10.0 ** rng.uniform(-3, 3)),
        moments=moments,
        lam=float(10.0 ** rng.uniform(-10, 0)),
    )


def _random_spec(rng, k=None) -> TheorySpec:
    k = k or int(rng.integers(1, 4))
    moments = tuple(
        Moments(
            mu0=float(rng.uniform(-0.5, 0.5)),
            mu1=float(rng.uniform(0.1, 2.0)) * (1.0 if rng.uniform() < 0.8 else 0.0),
            mu2_sq=float(rng.uniform(0.01, 2.0)),
        )
        for _ in range(k)
    )
    return TheorySpec(
        psi=tuple(float(rng.uniform(0.2, 5.0)) for _ in range(k)),
        psi_n=float(rng.uniform(0.2, 5.0)),
        moments=moments,
        lam=float(10.0 ** rng.uniform(-6, 0.5)),
    )


class TestClosedFormOracles:
    @pytest.mark.parametrize(
        "psi1,psi_n,m2,lam",
        [
            (0.5, 2.0, 0.7, 1e-2),
            (3.0, 1.5, 0.25, 1e-5),
            (2.0, 2.0, 1.3, 1e-4),
            (0.9, 0.4, 0.05, 1.0),
        ],
    )
    def test_pure_nonlinear_quadratic(self, psi1, psi_n, m2, lam):
        spec = TheorySpec(
            psi=(psi1,), psi_n=psi_n, moments=(Moments(0.0, 0.0, m2),), lam=lam
        )
        out = asymptotic_risk(spec)
        b1, bn = _pure_nonlinear_oracle(psi1, psi_n, m2, lam)
        np.testing.assert_allclose(out.b, [b1, bn], rtol=1e-10)

    @pytest.mark.parametrize(
        "psi1,psi_n,lam",
        [(0.5, 2.0, 1e-3), (3.0, 1.2, 1e-4), (1.0, 1.0, 1e-2), (2.5, 2.5, 1e-6)],
    )
    def test_pure_linear_cubic(self, psi1, psi_n, lam):
        spec = TheorySpec(
            psi=(psi1,), psi_n=psi_n, moments=(Moments(0.0, 1.0, 0.0),), lam=lam
        )
        out = asymptotic_risk(spec)
        candidates = _pure_linear_roots(psi1, psi_n, lam)
        assert candidates, "cubic oracle found no admissible root"
        err = min(
            max(abs(out.b[0] - b1) / b1, abs(out.b[1] - bn) / bn)
            for b1, bn in candidates
        )
        assert err < 1e-9, f"solver b={out.b} not among cubic roots {candidates}"


class TestSolutionProperties:
    def test_residual_battery(self):
        """Converged solutions satisfy both real and complex systems.

        Three boxes: the moderate one of ``_random_spec``, the box the CLI
        accepts down to lambda = 1e-10 and over six decades of ratios, and
        ``box_spec``'s down to lambda = 1e-15, over twelve decades and up to
        five blocks.
        """
        tol = risk._TOL
        for make_spec, count in ((_random_spec, 25), (_cli_box_spec, 60), (box_spec, 300)):
            rng = np.random.default_rng(41)
            for _ in range(count):
                spec = make_spec(rng)
                out = asymptotic_risk(spec)
                res = residual_vector(spec, out.b)
                assert np.max(np.abs(res) / np.array(psi_full(spec))) <= tol
                assert verify_complex(spec, out.b) / max(psi_full(spec)) <= 1e-11
                assert np.all(out.b > 0.0)

    def test_harsh_box_slice_converges(self):
        """Every spec of a seeded slice of the harsh box (lambda log-uniform
        over [1e-30, 1e-20], ratios over twelve decades, up to eight blocks)
        converges from the cold start, its root passes the full residual
        test and its risk is finite; the solves take a median of 6 Newton
        steps and at most 19 (the measured budget)."""
        steps = []
        for i in range(400):
            spec = box_spec(np.random.default_rng([21, i]), lam_exp=(-30.0, -20.0), k_max=8)
            out = asymptotic_risk(spec)
            res = residual_vector(spec, out.b)
            assert np.max(np.abs(res) / np.array(psi_full(spec))) <= risk._TOL, i
            assert np.all(out.b > 0.0) and math.isfinite(out.risk), i
            steps.append(out.iterations)
        assert np.median(steps) <= 6 and max(steps) <= 19

    @pytest.mark.parametrize("index", [2, 2129, 4492, 6887])
    def test_harsh_box_risk_matches_mpmath(self, index):
        """Specs of the seeded harsh box at lambda from 3.9e-33 to 3.0e-25
        and K = 8, 2, 6 and 3, whose scales lie 30 to 41 decades apart:
        the risk matches ``mp_risk`` at 120 digits."""
        spec = box_spec(np.random.default_rng([0, index]), lam_exp=(-33.0, 3.0), k_max=8)
        out = asymptotic_risk(spec)
        ref = mp_risk(spec.psi, spec.psi_n, [m.mu1 ** 2 for m in spec.moments],
                      [m.mu2_sq for m in spec.moments], spec.lam, spec.F1, spec.tau, dps=120)
        assert out.risk == pytest.approx(float(ref), rel=1e-10)

    def test_upper_bound(self):
        """All bracket terms are positive, so b_j <= psi_j / sqrt(lam)."""
        rng = np.random.default_rng(99)
        for _ in range(25):
            spec = _random_spec(rng)
            out = asymptotic_risk(spec)
            bound = np.array(psi_full(spec)) / math.sqrt(spec.lam)
            assert np.all(out.b <= bound * (1.0 + 1e-12))

    def test_permutation_equivariance(self):
        """Relabelling the feature components permutes b accordingly."""
        rng = np.random.default_rng(5)
        spec = _random_spec(rng, k=3)
        out = asymptotic_risk(spec)
        perm = [2, 0, 1]
        spec_p = TheorySpec(
            psi=tuple(spec.psi[i] for i in perm),
            psi_n=spec.psi_n,
            moments=tuple(spec.moments[i] for i in perm),
            lam=spec.lam,
        )
        out_p = asymptotic_risk(spec_p)
        expected = np.array([out.b[perm[0]], out.b[perm[1]], out.b[perm[2]], out.b[3]])
        np.testing.assert_allclose(out_p.b, expected, rtol=1e-9)

    def test_merge_identical_components(self):
        """Two components with equal moments behave as one with summed psi.

        Each equation forces b_c proportional to psi_c at fixed coupling
        terms, so splitting a width budget across identical activations
        leaves b_n unchanged and splits b additively.
        """
        m = Moments(0.3, 0.9, 0.6)
        split = TheorySpec(
            psi=(0.7, 1.8), psi_n=2.5, moments=(m, m), lam=1e-3
        )
        merged = TheorySpec(psi=(2.5,), psi_n=2.5, moments=(m,), lam=1e-3)
        out_s = asymptotic_risk(split)
        out_m = asymptotic_risk(merged)
        np.testing.assert_allclose(out_s.b[0] + out_s.b[1], out_m.b[0], rtol=1e-9)
        np.testing.assert_allclose(out_s.b[2], out_m.b[1], rtol=1e-9)
        np.testing.assert_allclose(out_s.b[0] / out_s.b[1], 0.7 / 1.8, rtol=1e-9)

    def test_determinism(self):
        spec = _random_spec(np.random.default_rng(123))
        b1 = asymptotic_risk(spec).b
        b2 = asymptotic_risk(spec).b
        assert np.array_equal(b1, b2)

