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
    ActivationSpec,
    InvalidSpec,
    Moments,
    NoConvergence,
    SolverConfig,
    TheorySpec,
    asymptotic_risk,
    compute_moments,
    solve_nu,
)
from oracles import NonPositiveInput, residual_vector, verify_complex


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
        nu = solve_nu(spec)
        b1, bn = _pure_nonlinear_oracle(psi1, psi_n, m2, lam)
        np.testing.assert_allclose(nu.b, [b1, bn], rtol=1e-10)

    @pytest.mark.parametrize(
        "psi1,psi_n,lam",
        [(0.5, 2.0, 1e-3), (3.0, 1.2, 1e-4), (1.0, 1.0, 1e-2), (2.5, 2.5, 1e-6)],
    )
    def test_pure_linear_cubic(self, psi1, psi_n, lam):
        spec = TheorySpec(
            psi=(psi1,), psi_n=psi_n, moments=(Moments(0.0, 1.0, 0.0),), lam=lam
        )
        nu = solve_nu(spec)
        candidates = _pure_linear_roots(psi1, psi_n, lam)
        assert candidates, "cubic oracle found no admissible root"
        err = min(
            max(abs(nu.b[0] - b1) / b1, abs(nu.b[1] - bn) / bn)
            for b1, bn in candidates
        )
        assert err < 1e-9, f"solver b={nu.b} not among cubic roots {candidates}"


class TestSolutionProperties:
    def test_residual_battery(self):
        """Converged solutions satisfy both real and complex systems.

        Two boxes: the moderate one of ``_random_spec`` and the whole box the
        CLI accepts, down to lambda = 1e-10 and over six decades of ratios.
        """
        tol = SolverConfig().tol
        for make_spec, count in ((_random_spec, 25), (_cli_box_spec, 60)):
            rng = np.random.default_rng(41)
            for _ in range(count):
                spec = make_spec(rng)
                nu = solve_nu(spec)
                res = residual_vector(spec, nu.b)
                assert np.max(np.abs(res) / np.array(spec.psi_full)) <= tol
                assert verify_complex(spec, nu) / max(spec.psi_full) <= 1e-11
                assert np.all(nu.b > 0.0)

    def test_upper_bound(self):
        """All bracket terms are positive, so b_j <= psi_j / sqrt(lam)."""
        rng = np.random.default_rng(99)
        for _ in range(25):
            spec = _random_spec(rng)
            nu = solve_nu(spec)
            bound = np.array(spec.psi_full) / math.sqrt(spec.lam)
            assert np.all(nu.b <= bound * (1.0 + 1e-12))

    def test_permutation_equivariance(self):
        """Relabelling the feature components permutes b accordingly."""
        rng = np.random.default_rng(5)
        spec = _random_spec(rng, k=3)
        nu = solve_nu(spec)
        perm = [2, 0, 1]
        spec_p = TheorySpec(
            psi=tuple(spec.psi[i] for i in perm),
            psi_n=spec.psi_n,
            moments=tuple(spec.moments[i] for i in perm),
            lam=spec.lam,
        )
        nu_p = solve_nu(spec_p)
        expected = np.array([nu.b[perm[0]], nu.b[perm[1]], nu.b[perm[2]], nu.b[3]])
        np.testing.assert_allclose(nu_p.b, expected, rtol=1e-9)

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
        nu_s = solve_nu(split)
        nu_m = solve_nu(merged)
        np.testing.assert_allclose(nu_s.b[0] + nu_s.b[1], nu_m.b[0], rtol=1e-9)
        np.testing.assert_allclose(nu_s.b[2], nu_m.b[1], rtol=1e-9)
        np.testing.assert_allclose(nu_s.b[0] / nu_s.b[1], 0.7 / 1.8, rtol=1e-9)

    def test_determinism(self):
        spec = _random_spec(np.random.default_rng(123))
        b1 = solve_nu(spec).b
        b2 = solve_nu(spec).b
        assert np.array_equal(b1, b2)


class TestContinuationAndWarmStart:
    def test_lambda_path_shape(self):
        """A small lambda is solved from the cold start to within tol."""
        spec = TheorySpec(
            psi=(1.0,), psi_n=2.0, moments=(Moments(0.0, 1.0, 0.5),), lam=1e-4
        )
        assert solve_nu(spec).residual <= SolverConfig().tol

    def test_tiny_lambda(self):
        """Newton in log b stays on the positive branch at 1e-10."""
        spec = TheorySpec(
            psi=(0.5,), psi_n=2.0, moments=(Moments(0.1, 0.4, 0.7),), lam=1e-10
        )
        nu = solve_nu(spec)
        assert nu.residual <= 1e-12
        assert verify_complex(spec, nu) < 1e-8

    def test_interpolation_peak_at_tiny_lambda(self):
        """The figure model at c=1, lam=1e-10 against a 50-digit mpmath solve."""
        moments = tuple(
            compute_moments(ActivationSpec(kind=kind, in_scale=scale))
            for kind, scale in (("elu", 3.0), ("relu", 0.25))
        )
        spec = TheorySpec(
            psi=(5 / 3, 5 / 3), psi_n=10 / 3, moments=moments, lam=1e-10, F1=1.0, tau=0.1
        )
        out = asymptotic_risk(spec)
        # bench/references.json, "peak-c1-lam1e-10"
        np.testing.assert_allclose(
            out.nu.b,
            [0.1078373860287470069454352, 15.17355339439964475959739, 15.28139078042839176654282],
            rtol=1e-10,
        )
        np.testing.assert_allclose(out.risk, 1162.634462666235186708418, rtol=1e-10)


class TestSpecValidation:
    def test_empty_psi(self):
        with pytest.raises(InvalidSpec):
            TheorySpec(psi=(), psi_n=1.0, moments=(), lam=1.0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidSpec):
            TheorySpec(
                psi=(1.0, 2.0), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0
            )

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_lambda(self, lam):
        with pytest.raises(InvalidSpec, match="lambda"):
            TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=lam)

    def test_bad_psi(self):
        with pytest.raises(InvalidSpec):
            TheorySpec(psi=(0.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0)
        with pytest.raises(InvalidSpec):
            TheorySpec(psi=(1.0,), psi_n=-2.0, moments=(Moments(0, 1, 0),), lam=1.0)

    def test_negative_signal_or_noise(self):
        with pytest.raises(InvalidSpec):
            TheorySpec(
                psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0, F1=-1.0
            )
        with pytest.raises(InvalidSpec):
            TheorySpec(
                psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0, tau=-0.1
            )
        for bad in ({"F1": math.nan}, {"F1": math.inf}, {"tau": math.nan}):
            with pytest.raises(InvalidSpec):
                TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0, **bad)

    def test_properties(self):
        spec = TheorySpec(
            psi=(1.0, 2.0),
            psi_n=3.0,
            moments=(Moments(0, 1, 0), Moments(0, 0, 1)),
            lam=1.0,
        )
        assert spec.K == 2
        assert spec.psi_full == (1.0, 2.0, 3.0)


class TestErrorPaths:
    def test_residual_vector_wrong_length(self):
        spec = TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0)
        with pytest.raises(NonPositiveInput, match="expected 2 entries"):
            residual_vector(spec, [1.0, 1.0, 1.0])

    def test_residual_vector_nonpositive(self):
        spec = TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0)
        with pytest.raises(NonPositiveInput, match="> 0"):
            residual_vector(spec, [1.0, 0.0])
        with pytest.raises(NonPositiveInput, match="> 0"):
            residual_vector(spec, [-1.0, 1.0])

    def test_no_convergence_carries_diagnostics(self):
        spec = TheorySpec(
            psi=(1.0,), psi_n=2.0, moments=(Moments(0.0, 1.0, 0.5),), lam=1e-6
        )
        with pytest.raises(NoConvergence) as exc:
            solve_nu(spec, cfg=SolverConfig(max_iter=2))
        assert exc.value.iterations == 2
        assert exc.value.residual > 1e-12

    def test_stall_fails_at_once(self):
        """A tolerance below roundoff fails at the first step that cannot
        reduce the residual, long before max_iter."""
        spec = TheorySpec(
            psi=(0.8, 1.4, 0.5), psi_n=2.0,
            moments=(Moments(0.0, 0.7, 0.3), Moments(0.0, 0.2, 0.9), Moments(0.0, 1.1, 0.4)),
            lam=1e-3,
        )
        with pytest.raises(NoConvergence, match="no Newton step reduces it") as exc:
            solve_nu(spec, cfg=SolverConfig(tol=1e-30))
        assert exc.value.iterations < 20
        assert exc.value.residual < 1e-14

    def test_solver_config_validation(self):
        """Besides the out-of-range values, an infinite tol would accept the
        start point after one step, a NaN tol would fail a converged solve,
        and a fractional max_iter would never be reached."""
        bad = ({"tol": 0.0}, {"tol": math.inf}, {"tol": math.nan},
               {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": 3.0})
        for fields in bad:
            with pytest.raises(ValueError):
                SolverConfig(**fields)
