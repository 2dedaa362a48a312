"""Tests for the finite-size Monte Carlo experiment.

The ridge solver is checked against hand-solvable systems and its own
first-order optimality condition; the full pipeline is checked against a
closed-form constant-feature fit and against the asymptotic theory at
matched moment parameters, where finite-size means must sit within a few
standard errors of the predicted risk.
"""

import math

import numpy as np
import pytest

from multidescent import (
    ActivationSpec,
    EmpiricalConfig,
    InvalidSpec,
    ShapeMismatch,
    SolveFailure,
    asymptotic_risk,
    compute_moments,
    excess_risk_on,
    feature_matrix,
    generate_dataset,
    replication_rng,
    ridge_fit,
    run_experiment,
    run_replication,
    sample_sphere,
    theory_spec_from_empirical,
)
from multidescent import simulator
from multidescent.simulator import _openblas_thread_calls, _sphere_rows


class TestSphereSampling:
    def test_norms(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 7, 100):
            x = sample_sphere(d, rng)
            assert x.shape == (d,)
            np.testing.assert_allclose(np.linalg.norm(x), math.sqrt(d), rtol=1e-12)
        rows = _sphere_rows(50, 13, rng)
        np.testing.assert_allclose(
            np.linalg.norm(rows, axis=1), math.sqrt(13), rtol=1e-12
        )

    def test_d1_is_sign(self):
        """In one dimension the draws are +-1 up to normalization roundoff."""
        rng = np.random.default_rng(1)
        vals = np.array([float(sample_sphere(1, rng)[0]) for _ in range(32)])
        np.testing.assert_allclose(np.abs(vals), 1.0, rtol=1e-15)
        assert np.any(vals > 0) and np.any(vals < 0)

    def test_isotropy(self):
        """Uniform on the sqrt(d)-sphere has zero mean and identity covariance."""
        rng = np.random.default_rng(2)
        m, d = 20000, 5
        x = _sphere_rows(m, d, rng)
        np.testing.assert_allclose(x.mean(axis=0), np.zeros(d), atol=0.03)
        cov = x.T @ x / m
        np.testing.assert_allclose(cov, np.eye(d), atol=0.05)

    def test_d_validation(self):
        with pytest.raises(ValueError):
            sample_sphere(0, np.random.default_rng(0))


class TestRidgeFit:
    def test_diagonal_oracle(self):
        """Z = diag(1, 2), lam = 1, y = (1, 5), d = 4 gives ahat = (1/4, 1)."""
        Z = np.array([[1.0, 0.0], [0.0, 2.0]])
        y = np.array([1.0, 5.0])
        ahat = ridge_fit(Z, y, lam=1.0, d=4)
        np.testing.assert_allclose(ahat, [0.25, 1.0], rtol=1e-14)

    def test_primal_dual_equivalence(self):
        """Both branches agree with a direct dense solve of the primal form."""
        rng = np.random.default_rng(3)
        for n, N in ((40, 25), (25, 40), (30, 30)):
            Z = rng.standard_normal((n, N)) / math.sqrt(n)
            y = rng.standard_normal(n)
            ahat = ridge_fit(Z, y, lam=0.05, d=9)
            direct = np.linalg.solve(
                Z.T @ Z + 0.05 * np.eye(N), Z.T @ y
            ) / math.sqrt(9)
            np.testing.assert_allclose(ahat, direct, rtol=1e-9, atol=1e-12)

    def test_first_order_optimality(self):
        """ahat zeroes the gradient of |y - sqrt(d) Z a|^2 + lam d |a|^2."""
        rng = np.random.default_rng(4)
        n, N, d, lam = 35, 50, 12, 0.3
        Z = rng.standard_normal((n, N)) / math.sqrt(n)
        y = rng.standard_normal(n)
        ahat = ridge_fit(Z, y, lam, d)
        grad = -2.0 * math.sqrt(d) * Z.T @ (y - math.sqrt(d) * Z @ ahat)
        grad += 2.0 * lam * d * ahat
        assert np.max(np.abs(grad)) <= 1e-8 * (1.0 + np.linalg.norm(y))

    def test_lambda_validation(self):
        Z = np.eye(2)
        with pytest.raises(ValueError, match="> 0"):
            ridge_fit(Z, np.ones(2), lam=0.0, d=1)

    def test_nonfinite_inputs(self):
        Z = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(SolveFailure, match="non-finite"):
            ridge_fit(Z, np.ones(2), lam=1.0, d=1)


class TestFeatureMatrix:
    def test_block_structure(self):
        """Each activation acts on its own slice of the projections."""
        X = np.array([[1.0, 2.0], [-3.0, 0.5]])
        Theta = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        acts = (ActivationSpec("relu"), ActivationSpec("identity"))
        d = 2
        Z = feature_matrix(X, Theta, acts, (2, 1))
        u = X @ Theta.T / math.sqrt(d)
        expected = np.column_stack(
            [np.maximum(u[:, 0], 0.0), np.maximum(u[:, 1], 0.0), u[:, 2]]
        ) / math.sqrt(d)
        np.testing.assert_allclose(Z, expected, rtol=1e-15)

    def test_shape_mismatch(self):
        X = np.zeros((4, 3))
        with pytest.raises(ShapeMismatch, match="disagree on d"):
            feature_matrix(X, np.zeros((5, 2)), (ActivationSpec("relu"),), (5,))
        with pytest.raises(ShapeMismatch, match="partition"):
            feature_matrix(X, np.zeros((5, 3)), (ActivationSpec("relu"),), (4,))


class TestClosedFormPipeline:
    def test_constant_feature_fit(self):
        """Constant features fitting a pure intercept have risk
        (F0 lam / (n N / d + lam))^2 -- here (F0 lam / (10 + lam))^2.

        With sigma = 1 the feature matrix is the all-1/sqrt(d) matrix, the
        regularized gram has the ones vector as eigenvector with eigenvalue
        n N / d + lam, and the fitted intercept is F0 (1 - lam/(n N/d + lam)).
        """
        d, n, N, F0, lam = 10, 20, 5, 0.2, 1e-3
        cfg = EmpiricalConfig(
            d=d, n=n, N=(N,), activations=(ActivationSpec("constant"),),
            lam=lam, F0=F0, F1=0.0, tau=0.0, n_test=6, replications=1,
        )
        rng = replication_rng(0, 0)
        data = generate_dataset(cfg, rng)
        np.testing.assert_allclose(data.y, F0)  # F1 = 0, tau = 0
        Theta = _sphere_rows(N, d, rng)
        Z = feature_matrix(data.X, Theta, cfg.activations, cfg.N)
        ahat = ridge_fit(Z, data.y, lam, d)
        X_test = _sphere_rows(cfg.n_test, d, rng)
        risk = excess_risk_on(
            ahat, Theta, cfg.activations, cfg.N, data.beta1, F0, X_test
        )
        expected = (F0 * lam / (n * N / d + lam)) ** 2  # shrinkage gap
        np.testing.assert_allclose(risk, expected, rtol=1e-6)

    def test_zero_readout_risk(self):
        """With ahat = 0 the excess risk is E[(x beta1 + F0)^2] = F1^2 + F0^2."""
        rng = np.random.default_rng(11)
        d, F1, F0 = 30, 1.3, 0.4
        beta1 = F1 * sample_sphere(d, rng) / math.sqrt(d)
        Theta = _sphere_rows(8, d, rng)
        X_test = _sphere_rows(40000, d, rng)
        risk = excess_risk_on(
            np.zeros(8), Theta, (ActivationSpec("relu"),), (8,), beta1, F0, X_test
        )
        np.testing.assert_allclose(risk, F1 ** 2 + F0 ** 2, rtol=0.03)


class TestDeterminism:
    def _cfg(self, **kw):
        base = dict(
            d=20, n=40, N=(15, 10),
            activations=(ActivationSpec("relu"), ActivationSpec("tanh")),
            lam=0.05, F0=0.0, F1=1.0, tau=0.2, n_test=50, replications=6,
            base_seed=42,
        )
        base.update(kw)
        return EmpiricalConfig(**base)

    def test_replication_is_pure(self):
        cfg = self._cfg()
        assert run_replication(cfg, 3) == run_replication(cfg, 3)
        assert run_replication(cfg, 3) != run_replication(cfg, 4)

    def test_worker_count_is_invisible(self):
        cfg = self._cfg()
        serial = run_experiment(cfg, workers=1)
        threaded = run_experiment(cfg, workers=4)
        assert np.array_equal(serial.per_replication, threaded.per_replication)
        assert serial.mean == threaded.mean
        assert serial.std_error == threaded.std_error

    def test_replications_run_single_threaded_blas(self, monkeypatch):
        """BLAS runs one thread inside replications and gets its count back after."""
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not link OpenBLAS")
        get, _ = calls
        before = get()
        seen = []

        def recording(cfg, index):
            seen.append(get())
            return run_replication(cfg, index)

        monkeypatch.setattr(simulator, "run_replication", recording)
        for workers in (1, 3):
            run_experiment(self._cfg(), workers=workers)
        assert seen == [1] * 12
        assert get() == before

    def test_rng_streams(self):
        a = replication_rng(7, 2).standard_normal(5)
        b = replication_rng(7, 2).standard_normal(5)
        c = replication_rng(7, 3).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sign_flip_invariance(self):
        """Flipping coordinate signs of inputs, directions and signal
        together changes nothing, bit for bit."""
        rng = np.random.default_rng(9)
        d, n, N = 12, 18, 14
        flip = np.where(rng.uniform(size=d) < 0.5, -1.0, 1.0)
        X = _sphere_rows(n, d, rng)
        Theta = _sphere_rows(N, d, rng)
        beta1 = sample_sphere(d, rng) / math.sqrt(d)
        y = X @ beta1
        acts = (ActivationSpec("elu", in_scale=2.0),)
        Z = feature_matrix(X, Theta, acts, (N,))
        Zf = feature_matrix(X * flip, Theta * flip, acts, (N,))
        assert np.array_equal(Z, Zf)
        X_test = _sphere_rows(25, d, rng)
        ahat = ridge_fit(Z, y, 0.1, d)
        r = excess_risk_on(ahat, Theta, acts, (N,), beta1, 0.0, X_test)
        rf = excess_risk_on(
            ridge_fit(Zf, X * flip @ (flip * beta1), 0.1, d),
            Theta * flip, acts, (N,), flip * beta1, 0.0, X_test * flip,
        )
        assert r == rf


class TestStatistics:
    def test_mean_and_se(self):
        cfg = EmpiricalConfig(
            d=15, n=30, N=(20,), activations=(ActivationSpec("relu"),),
            lam=0.1, tau=0.1, n_test=40, replications=8, base_seed=5,
        )
        out = run_experiment(cfg)
        assert out.per_replication.shape == (8,)
        np.testing.assert_allclose(out.mean, out.per_replication.mean(), rtol=1e-15)
        np.testing.assert_allclose(
            out.std_error,
            out.per_replication.std(ddof=1) / math.sqrt(8),
            rtol=1e-15,
        )

    def test_single_replication_has_zero_se(self):
        cfg = EmpiricalConfig(
            d=15, n=30, N=(20,), activations=(ActivationSpec("relu"),),
            lam=0.1, n_test=40, replications=1, base_seed=5,
        )
        assert run_experiment(cfg).std_error == 0.0


class TestMatchedMomentsAgreement:
    """Finite-size means must track the asymptotic prediction."""

    def test_growing_dimension_k1(self):
        errs, ses = [], []
        theory = None
        for d in (50, 100, 200, 400):
            cfg = EmpiricalConfig(
                d=d, n=3 * d, N=(2 * d,), activations=(ActivationSpec("relu"),),
                lam=0.1, F1=1.0, tau=0.3, n_test=800, replications=12, base_seed=7,
            )
            emp = run_experiment(cfg, workers=4)
            theory = asymptotic_risk(theory_spec_from_empirical(cfg)).risk
            errs.append(abs(emp.mean - theory))
            ses.append(emp.std_error)
        for err, se in zip(errs, ses):
            assert err <= 4.0 * se, (errs, ses)
        assert errs[-1] / theory < 0.05

    def test_two_component_agreement(self):
        cfg = EmpiricalConfig(
            d=200, n=400, N=(250, 150),
            activations=(ActivationSpec("elu"), ActivationSpec("sin")),
            lam=0.05, F1=1.0, tau=0.1, n_test=800, replications=10, base_seed=21,
        )
        emp = run_experiment(cfg, workers=4)
        theory = asymptotic_risk(theory_spec_from_empirical(cfg)).risk
        assert abs(emp.mean - theory) <= 4.0 * emp.std_error
        assert abs(emp.mean - theory) / theory < 0.1


class TestTheorySpecBridge:
    def test_field_mapping(self):
        cfg = EmpiricalConfig(
            d=100, n=250, N=(150, 50),
            activations=(ActivationSpec("relu"), ActivationSpec("tanh")),
            lam=0.2, F0=0.3, F1=1.1, tau=0.4,
        )
        spec = theory_spec_from_empirical(cfg)
        assert spec.psi == (1.5, 0.5)
        assert spec.psi_n == 2.5
        assert spec.lam == 0.2
        assert (spec.F0, spec.F1, spec.tau) == (0.3, 1.1, 0.4)
        assert spec.moments[0].mu1 == pytest.approx(0.5, rel=1e-12)

    def test_moments_computed_once_per_activation(self):
        """Theory matching and the intercept guard reuse cached moments."""
        act = ActivationSpec("relu", in_scale=0.7)
        compute_moments(act)
        misses = compute_moments.cache_info().misses
        cfg = EmpiricalConfig(
            d=10, n=20, N=(6,), activations=(act,),
            lam=0.1, F0=0.5, n_test=8, replications=1,
        )
        theory_spec_from_empirical(cfg)
        run_experiment(cfg)
        assert compute_moments.cache_info().misses == misses


class TestValidation:
    def test_config_errors(self):
        act = (ActivationSpec("relu"),)
        with pytest.raises(InvalidSpec):
            EmpiricalConfig(d=0, n=10, N=(5,), activations=act, lam=0.1)
        with pytest.raises(InvalidSpec):
            EmpiricalConfig(d=10, n=10, N=(), activations=(), lam=0.1)
        with pytest.raises(InvalidSpec):
            EmpiricalConfig(d=10, n=10, N=(5, 5), activations=act, lam=0.1)
        with pytest.raises(InvalidSpec):
            EmpiricalConfig(d=10, n=10, N=(0,), activations=act, lam=0.1)
        with pytest.raises(InvalidSpec):
            EmpiricalConfig(d=10, n=10, N=(5,), activations=act, lam=0.0)
        with pytest.raises(InvalidSpec):
            EmpiricalConfig(d=10, n=10, N=(5,), activations=act, lam=0.1, tau=-1.0)

    def test_intercept_needs_nonzero_mean(self):
        """tanh has zero Gaussian mean, so F0 != 0 cannot be represented."""
        cfg = EmpiricalConfig(
            d=10, n=20, N=(8,), activations=(ActivationSpec("tanh"),),
            lam=0.1, F0=0.5, replications=2,
        )
        with pytest.raises(InvalidSpec, match="nonzero Gaussian mean"):
            run_experiment(cfg)
