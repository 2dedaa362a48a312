"""Tests for the finite-size Monte Carlo experiment.

The ridge solver is checked against hand-solvable systems and its own
first-order optimality condition; the full pipeline is checked against a
closed-form constant-feature fit and against the asymptotic theory at
matched moment parameters, where finite-size means must sit within a few
standard errors of the predicted risk.
"""

import io
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import expand_grid, reference_replication

from multidescent import (
    ACTIVATION_KINDS,
    ActivationSpec,
    EmpiricalConfig,
    EmpiricalRisk,
    InvalidSpec,
    SolveFailure,
    SweepSpec,
    asymptotic_risk,
    compute_moments,
    eval_activation,
    feature_matrix,
    parse_config,
    ridge_fit,
    run_experiment,
    run_experiments,
    run_sweep,
    theory_spec_from_empirical,
)
from multidescent import simulator
from multidescent.cli import ExitStatus, dispatch
from multidescent.simulator import _openblas_thread_calls, _sphere_rows, excess_risk_on, replication_rng


class TestSphereSampling:
    def test_norms(self):
        rng = np.random.default_rng(0)
        for m, d in ((1, 1), (1, 2), (3, 7), (1, 100), (50, 13)):
            x = _sphere_rows(m, d, rng)
            assert x.shape == (m, d)
            np.testing.assert_allclose(np.linalg.norm(x, axis=1), math.sqrt(d), rtol=1e-12)

    def test_d1_is_sign(self):
        """In one dimension the draws are +-1 up to normalization roundoff."""
        rng = np.random.default_rng(1)
        vals = _sphere_rows(32, 1, rng)[:, 0]
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
        """The sphere's dimension is the config's d, refused below 1."""
        with pytest.raises(InvalidSpec, match="d, n, n_test and replications must be >= 1"):
            EmpiricalConfig(d=0, n=4, N=(2,), activations=(ActivationSpec("relu"),), lam=0.1)


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
        for lam in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidSpec, match="^lambda must be > 0$"):
                ridge_fit(Z, np.ones(2), lam=lam, d=1)

    def test_nonfinite_inputs(self):
        Z = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(SolveFailure, match="non-finite"):
            ridge_fit(Z, np.ones(2), lam=1.0, d=1)

    def test_singular_gram(self):
        """Identical feature columns and a lam below the rounding of the Gram's
        diagonal leave the system exactly singular: the primal and the dual
        route raise SolveFailure, which the CLI reports on one line, exit 3."""
        y = np.arange(20.0)
        for Z in (np.ones((20, 3)), np.ones((3, 20))):
            with pytest.raises(SolveFailure, match="^Singular matrix$"):
                ridge_fit(Z, y[:Z.shape[0]], lam=1e-20, d=4)
        config = {"activations": [{"kind": "constant"}], "model": {"d": 10, "n": 20, "N": [3], "lambda": 1e-20}}
        out, err = io.StringIO(), io.StringIO()
        assert dispatch("simulate", parse_config(json.dumps(config)), out, err) == ExitStatus.SOLVER
        assert out.getvalue() == "" and err.getvalue() == "SolveFailure: replication 0: Singular matrix\n"


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

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_every_kind_matches_the_formula(self, kind):
        """The in-place map equals eval_activation on the scaled projections,
        for negative and zero in_scale, out_scale != 1 and shift != 0.  The
        atol covers entries whose projection cancels, which the map and the
        formula round differently."""
        rng = np.random.default_rng(5)
        d = 9
        X = _sphere_rows(40, d, rng)
        Theta = _sphere_rows(12, d, rng)
        acts = tuple(ActivationSpec(kind, in_scale=a, out_scale=b, shift=c)
                     for a, b, c in ((2.5, 1.0, 0.0), (-1.7, 0.6, 0.0), (0.0, 1.0, 0.3),
                                     (0.8, -1.4, -0.2)))
        Z = feature_matrix(X, Theta, acts, (3, 3, 3, 3))
        u = X @ Theta.T / math.sqrt(d)
        expected = np.column_stack(
            [eval_activation(act, u[:, 3 * i:3 * i + 3]) for i, act in enumerate(acts)]
        ) / math.sqrt(d)
        np.testing.assert_allclose(Z, expected, rtol=1e-13, atol=1e-15)

    def test_allocates_little_beyond_its_output(self):
        """Peak allocation of the criterion-10 map at c = 3 (d = 200, n = 600,
        N = 1800) stays within 1.6 times the output it returns."""
        rng = np.random.default_rng(6)
        X = _sphere_rows(600, 200, rng)
        Theta = _sphere_rows(1800, 200, rng)
        acts = (ActivationSpec("elu", in_scale=3.0), ActivationSpec("relu", in_scale=0.25))
        tracemalloc.start()
        try:
            Z = feature_matrix(X, Theta, acts, (900, 900))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * Z.nbytes, peak / Z.nbytes

    def test_shape_mismatch(self):
        X = np.zeros((4, 3))
        with pytest.raises(InvalidSpec, match="disagree on d"):
            feature_matrix(X, np.zeros((5, 2)), (ActivationSpec("relu"),), (5,))
        with pytest.raises(InvalidSpec, match="partition"):
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
        risk = run_experiment(cfg).per_replication[0]  # F1 = 0, tau = 0: labels are F0
        expected = (F0 * lam / (n * N / d + lam)) ** 2  # shrinkage gap
        np.testing.assert_allclose(risk, expected, rtol=1e-6)

    def test_zero_readout_risk(self):
        """With ahat = 0 the excess risk is E[(x beta1 + F0)^2] = F1^2 + F0^2."""
        rng = np.random.default_rng(11)
        d, F1, F0 = 30, 1.3, 0.4
        beta1 = F1 * _sphere_rows(1, d, rng)[0] / math.sqrt(d)
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
        assert simulator._replicate(cfg, [cfg.N], 3) == simulator._replicate(cfg, [cfg.N], 3)
        assert simulator._replicate(cfg, [cfg.N], 3) != simulator._replicate(cfg, [cfg.N], 4)

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
        real = simulator._replicate

        def recording(cfg, counts, index):
            seen.append(get())
            return real(cfg, counts, index)

        monkeypatch.setattr(simulator, "_replicate", recording)
        for workers in (1, 3):
            run_experiment(self._cfg(), workers=workers)
        base = theory_spec_from_empirical(self._cfg())
        run_sweep(SweepSpec(base=base, c_grid=(0.5, 1.0), empirical=self._cfg()),
                  workers=2)
        assert seen == [1] * 18  # 6 + 6 jobs, then 6 carrying the sweep's two counts
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
        beta1 = _sphere_rows(1, d, rng)[0] / math.sqrt(d)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestFailureIsolation:
    """A call reports each count's own result or the error that failed it alone."""

    GOOD = EmpiricalConfig(
        d=15, n=30, N=(10, 8), activations=(ActivationSpec("relu"), ActivationSpec("tanh")),
        lam=0.1, tau=0.1, n_test=20, replications=4, base_seed=3,
    )
    # relu(1e308 x) overflows to inf on every input with x > 1.8
    BAD = replace(GOOD, activations=(ActivationSpec("relu", in_scale=1e308), ActivationSpec("tanh")))

    def test_failing_config_leaves_the_others(self, monkeypatch):
        """A ridge fit that fails at one count fails that count alone."""
        real = simulator.ridge_fit

        def failing_at_18_features(Z, y, lam, d):
            if Z.shape[1] == 18:
                raise SolveFailure("non-finite entries in ridge inputs")
            return real(Z, y, lam, d)

        monkeypatch.setattr(simulator, "ridge_fit", failing_at_18_features)
        good, bad = run_experiments(self.GOOD, [(4, 3), (10, 8)], workers=2)
        assert isinstance(bad, SolveFailure)
        assert str(bad) == "replication 0: non-finite entries in ridge inputs"
        alone = run_experiment(replace(self.GOOD, N=(4, 3)))
        assert np.array_equal(good.per_replication, alone.per_replication)
        assert (good.mean, good.std_error) == (alone.mean, alone.std_error)

    def test_single_config_raises(self):
        with pytest.raises(SolveFailure, match="replication 0: non-finite"):
            run_experiment(self.BAD, workers=2)

    def test_intercept_guard_fails_its_config_alone(self, monkeypatch):
        """The guard fails every count of its config, before anything is drawn."""
        no_mean = replace(self.GOOD, activations=(ActivationSpec("tanh"),) * 2, F0=0.5)

        def no_draws(*args):
            raise AssertionError("drew sphere rows")

        monkeypatch.setattr(simulator, "_sphere_rows", no_draws)
        guarded = run_experiments(no_mean, [(10, 8), (3, 2)])
        assert len(guarded) == 2
        assert all(isinstance(g, InvalidSpec) for g in guarded)

    def test_lowest_failing_index_is_reported(self, monkeypatch):
        real = simulator._replicate

        def flaky(cfg, counts, index):
            if index >= 2:
                return [SolveFailure(f"replication {index}: injected") for _ in counts]
            return real(cfg, counts, index)

        monkeypatch.setattr(simulator, "_replicate", flaky)
        (outcome,) = run_experiments(self.GOOD, [self.GOOD.N], workers=3)
        assert str(outcome) == "replication 2: injected"


class TestSharedDraws:
    """The counts of one call share each replication's draws, and no count's
    result depends on the other counts it runs with."""

    BASE = EmpiricalConfig(
        d=12, n=30, N=(8, 6), activations=(ActivationSpec("elu", in_scale=2.0),
                                          ActivationSpec("sigmoid", shift=-0.3)),
        lam=0.05, F0=0.2, F1=1.1, tau=0.3, n_test=25, replications=4, base_seed=8,
    )
    # sum(N) = 14, below n = 30 (primal ridge), and 45, above it (dual ridge)
    COUNTS = ((8, 6), (25, 20), (1, 2))

    @staticmethod
    def _same(a, b):
        assert np.array_equal(a.per_replication, b.per_replication)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    def test_draws_are_those_of_the_reference_replication(self):
        """Every count sees its own original draws, primal and dual."""
        for N, out in zip(self.COUNTS, run_experiments(self.BASE, self.COUNTS, workers=2)):
            cfg = replace(self.BASE, N=N)
            expected = [reference_replication(cfg, r) for r in range(cfg.replications)]
            np.testing.assert_allclose(out.per_replication, expected, rtol=1e-10)

    def test_a_group_batch_is_invisible(self):
        for N, out in zip(self.COUNTS, run_experiments(self.BASE, self.COUNTS, workers=2)):
            self._same(out, run_experiment(replace(self.BASE, N=N)))

    def test_one_job_per_group_and_replication(self, monkeypatch):
        """One job per replication, carrying every count."""
        real = simulator._replicate
        jobs = []

        def counting(cfg, counts, index):
            jobs.append((index, tuple(counts)))
            return real(cfg, counts, index)

        monkeypatch.setattr(simulator, "_replicate", counting)
        run_experiments(self.BASE, self.COUNTS)
        assert sorted(jobs) == [(r, self.COUNTS) for r in range(4)]

    def test_sweep_rows_equal_their_configs_alone(self):
        spec = SweepSpec(base=replace(theory_spec_from_empirical(self.BASE), psi=(1.0, 2.0)),
                         c_grid=(0.4, 1.0, 1.6), empirical=self.BASE)
        result = run_sweep(spec, workers=2)
        for i, point in enumerate(expand_grid(spec)):
            alone = run_experiment(point.empirical)
            assert (result.emp_mean[i], result.emp_se[i]) == (alone.mean, alone.std_error)


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
        assert spec.moments[0].mu1 == pytest.approx(0.5, rel=1e-12, abs=0.0)

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
        with pytest.raises(InvalidSpec):
            EmpiricalConfig(d=10, n=10, N=(5,), activations=act, lam=math.inf)
        for bad in ({"F0": math.nan}, {"F1": math.nan}, {"tau": math.nan}, {"tau": math.inf}):
            with pytest.raises(InvalidSpec):
                EmpiricalConfig(d=10, n=10, N=(5,), activations=act, lam=0.1, **bad)
        for bad in ({"F1": 1e300}, {"tau": 1e160}):
            with pytest.raises(InvalidSpec, match=r"^F1\^2 and tau\^2 must be finite$"):
                EmpiricalConfig(d=10, n=10, N=(5,), activations=act, lam=0.1, **bad)

    def test_counts_are_checked_before_any_draw(self, monkeypatch):
        """Each count runs as ``replace(cfg, N=count)`` and is checked as
        that config before anything is drawn."""
        cfg = EmpiricalConfig(d=10, n=20, N=(5,), activations=(ActivationSpec("relu"),),
                              lam=0.1, n_test=10, replications=2)

        def no_draws(*args):
            raise AssertionError("drew sphere rows")

        monkeypatch.setattr(simulator, "_sphere_rows", no_draws)
        for bad, message in ((((5,), (0,)), "feature counts must be >= 1"),
                             (((5,), (5, 5)), "same nonzero length"),
                             (((5,), (2**26,)), "float64 entries")):
            with pytest.raises(InvalidSpec, match=message):
                run_experiments(cfg, bad)

    def test_counts_must_be_integers(self):
        """A fractional count is rejected, not truncated or passed on to
        numpy; numpy integers are counts like any other."""
        act = (ActivationSpec("relu"),)
        base = dict(d=10, n=20, N=(5,), activations=act, lam=0.1, n_test=30, replications=2)
        for bad in ({"N": (10.7,)}, {"N": (5.0,)}, {"d": 20.5}, {"n": 20.0},
                    {"n_test": 30.5}, {"replications": 2.5}):
            with pytest.raises(InvalidSpec, match="must be integers"):
                EmpiricalConfig(**{**base, **bad})
        cfg = EmpiricalConfig(**{**base, "d": np.int64(10), "N": (np.int32(5),),
                                 "replications": np.int64(2)})
        assert cfg.N == (5,) and type(cfg.N[0]) is int
        assert run_experiment(cfg).per_replication.shape == (2,)

    def test_replication_size_is_capped(self, monkeypatch):
        """(n + n_test + sum(N))*d + (n + n_test)*sum(N) float64 entries, what
        one replication's arrays hold, may reach 2**27 and not exceed it; a
        larger run fails in ``run_experiment``, through the library and the
        CLI (exit 2), before anything is drawn."""
        def no_draws(*args):
            raise AssertionError("drew sphere rows")

        monkeypatch.setattr(simulator, "_sphere_rows", no_draws)
        act = (ActivationSpec("relu"),)
        at_cap = EmpiricalConfig(d=14336, n=3596, n_test=500, N=(4096,), activations=act, lam=0.1,
                                 replications=1)
        with pytest.raises(AssertionError, match="^drew sphere rows$"):
            run_experiment(at_cap)
        with pytest.raises(InvalidSpec, match=r"^a replication needs 134236160 float64 entries, "
                                              r".*; the cap is 134217728$"):
            run_experiment(replace(at_cap, N=(4097,)))
        cfg = {"activations": [{"kind": "relu"}],
               "model": {"d": 30, "n": 100, "N": [10**12], "lambda": 1e-3},
               "empirical": {"replications": 2}}
        out, err = io.StringIO(), io.StringIO()
        assert dispatch("simulate", parse_config(json.dumps(cfg)), out, err) == ExitStatus.CONFIG
        assert out.getvalue() == ""
        assert re.fullmatch(r"InvalidSpec: a replication needs \d+ float64 entries, .*; "
                            r"the cap is 134217728\n", err.getvalue())

    def test_intercept_needs_nonzero_mean(self):
        """tanh has zero Gaussian mean, so F0 != 0 cannot be represented."""
        cfg = EmpiricalConfig(
            d=10, n=20, N=(8,), activations=(ActivationSpec("tanh"),),
            lam=0.1, F0=0.5, replications=2,
        )
        with pytest.raises(InvalidSpec, match="nonzero Gaussian mean"):
            run_experiment(cfg)

    def test_intercept_guard_ignores_scale(self):
        """A tiny relu keeps its mean, and a huge tanh has none: the guard
        weighs each mean against its block's own scale."""
        def run(act):
            cfg = EmpiricalConfig(d=10, n=20, N=(8,), activations=(act,), lam=0.1, F0=0.5,
                                  n_test=10, replications=1)
            return run_experiments(cfg, [cfg.N])[0]

        assert isinstance(run(ActivationSpec("relu", out_scale=1e-12)), EmpiricalRisk)
        assert isinstance(run(ActivationSpec("tanh", out_scale=1e12)), InvalidSpec)
