"""Tests for Gaussian activation moments.

Every quadrature-computed moment is checked against an independent oracle:
closed forms in terms of erf/erfc for the piecewise-linear and trigonometric
families, Stein's identity E[G sigma(G)] = E[sigma'(G)] for the smooth
sigmoidal ones, and an adaptive QUADPACK integral as a cross-method check.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from multidescent import (
    ACTIVATION_KINDS,
    ActivationSpec,
    InvalidSpec,
    Moments,
    compute_moments,
    eval_activation,
)
from multidescent.activations import _PANEL_BOUNDS, _normal_rule, represents_intercept
from oracles import scaled_moments

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc (stable far in the tail)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT_2PI


def _relu_oracle(a: float) -> tuple[float, float, float]:
    """Closed-form moments of max(a x, 0) for a > 0."""
    mu0 = a / SQRT_2PI
    mu1 = a / 2.0
    raw2 = a * a / 2.0
    return mu0, mu1, raw2 - mu0 * mu0 - mu1 * mu1


def _step_oracle() -> tuple[float, float, float]:
    """Closed-form moments of the indicator of x > 0."""
    mu0 = 0.5
    mu1 = 1.0 / SQRT_2PI
    raw2 = 0.5
    return mu0, mu1, raw2 - mu0 * mu0 - mu1 * mu1


def _sin_oracle(a: float) -> tuple[float, float, float]:
    """Closed-form moments of sin(a x): odd, so the mean vanishes."""
    mu0 = 0.0
    mu1 = a * math.exp(-0.5 * a * a)
    raw2 = 0.5 * (1.0 - math.exp(-2.0 * a * a))
    return mu0, mu1, raw2 - mu1 * mu1


def _cos_oracle(a: float) -> tuple[float, float, float]:
    """Closed-form moments of cos(a x): even, so the linear part vanishes."""
    mu0 = math.exp(-0.5 * a * a)
    mu1 = 0.0
    raw2 = 0.5 * (1.0 + math.exp(-2.0 * a * a))
    return mu0, mu1, raw2 - mu0 * mu0


def _elu_oracle(a: float) -> tuple[float, float, float]:
    """Closed-form moments of ELU(a x) for a > 0.

    Built from E[e^{aG} 1{G<0}] = e^{a^2/2} Phi(-a) and Stein's identity,
    which gives mu1 = a (1/2 + e^{a^2/2} Phi(-a)).
    """
    ea = math.exp(0.5 * a * a) * _norm_cdf(-a)
    e2a = math.exp(2.0 * a * a) * _norm_cdf(-2.0 * a)
    mu0 = a / SQRT_2PI + ea - 0.5
    mu1 = a * (0.5 + ea)
    raw2 = 0.5 * a * a + e2a - 2.0 * ea + 0.5
    return mu0, mu1, raw2 - mu0 * mu0 - mu1 * mu1


class TestClosedFormOracles:
    """Quadrature must reproduce hand-derived Gaussian integrals."""

    @pytest.mark.parametrize("a", [0.25, 1.0, 3.0])
    def test_relu(self, a):
        m = compute_moments(ActivationSpec("relu", in_scale=a))
        mu0, mu1, mu2_sq = _relu_oracle(a)
        np.testing.assert_allclose([m.mu0, m.mu1, m.mu2_sq], [mu0, mu1, mu2_sq], rtol=1e-12)

    def test_step(self):
        m = compute_moments(ActivationSpec("step"))
        mu0, mu1, mu2_sq = _step_oracle()
        np.testing.assert_allclose([m.mu0, m.mu1, m.mu2_sq], [mu0, mu1, mu2_sq], rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_sin(self, a):
        m = compute_moments(ActivationSpec("sin", in_scale=a))
        mu0, mu1, mu2_sq = _sin_oracle(a)
        assert abs(m.mu0 - mu0) < 1e-13
        np.testing.assert_allclose([m.mu1, m.mu2_sq], [mu1, mu2_sq], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_cos(self, a):
        m = compute_moments(ActivationSpec("cos", in_scale=a))
        mu0, mu1, mu2_sq = _cos_oracle(a)
        assert abs(m.mu1 - mu1) < 1e-13
        np.testing.assert_allclose([m.mu0, m.mu2_sq], [mu0, mu2_sq], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("a", [0.25, 1.0, 3.0])
    def test_elu(self, a):
        m = compute_moments(ActivationSpec("elu", in_scale=a))
        mu0, mu1, mu2_sq = _elu_oracle(a)
        np.testing.assert_allclose([m.mu0, m.mu1, m.mu2_sq], [mu0, mu1, mu2_sq], rtol=1e-11)

    def test_identity(self):
        m = compute_moments(ActivationSpec("identity"))
        assert abs(m.mu0) < 1e-15
        np.testing.assert_allclose(m.mu1, 1.0, rtol=1e-13)
        assert m.mu2_sq == 0.0

    def test_constant(self):
        m = compute_moments(ActivationSpec("constant"))
        np.testing.assert_allclose(m.mu0, 1.0, rtol=1e-13)
        assert abs(m.mu1) < 1e-15
        assert m.mu2_sq == 0.0


class TestSteinIdentity:
    """For differentiable sigma, E[G sigma(G)] = E[sigma'(G)].

    For tanh this reduces to mu1 = 1 - E[tanh^2], and for the logistic
    sigmoid to mu1 = mu0 - E[sigma^2]; both sides come out of the same
    moment triple, so the check is internal but nontrivial.
    """

    def test_tanh(self):
        m = compute_moments(ActivationSpec("tanh"))
        raw2 = m.mu2_sq + m.mu0 * m.mu0 + m.mu1 * m.mu1
        assert abs(m.mu0) < 1e-14  # odd function
        np.testing.assert_allclose(m.mu1, 1.0 - raw2, rtol=1e-12)

    def test_sigmoid(self):
        m = compute_moments(ActivationSpec("sigmoid"))
        raw2 = m.mu2_sq + m.mu0 * m.mu0 + m.mu1 * m.mu1
        np.testing.assert_allclose(m.mu0, 0.5, rtol=1e-13)  # sigma(x)+sigma(-x)=1
        np.testing.assert_allclose(m.mu1, m.mu0 - raw2, rtol=1e-12)


class TestQuadpackCrossCheck:
    """Compare the panel rule against adaptive QUADPACK on every kind."""

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_all_kinds(self, kind):
        act = ActivationSpec(kind, in_scale=1.3, out_scale=0.7, shift=0.2)
        m = compute_moments(act)

        def gauss_integral(f):
            val, _ = integrate.quad(
                f, -12.0, 12.0, points=[0.0], limit=200, epsabs=1e-12, epsrel=1e-12
            )
            return val

        def dens(x):
            return math.exp(-0.5 * x * x) / SQRT_2PI

        mu0 = gauss_integral(lambda x: eval_activation(act, x) * dens(x))
        mu1 = gauss_integral(lambda x: x * eval_activation(act, x) * dens(x))
        raw2 = gauss_integral(lambda x: eval_activation(act, x) ** 2 * dens(x))
        np.testing.assert_allclose(m.mu0, mu0, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(m.mu1, mu1, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(
            m.mu2_sq, raw2 - mu0 * mu0 - mu1 * mu1, rtol=1e-8, atol=1e-10
        )


class TestScalingLaws:
    """Affine output maps act on the triple as (s mu0 + t, s mu1, s^2 mu2_sq)."""

    def test_output_affine_battery(self):
        rng = np.random.default_rng(7)
        kinds = ("relu", "elu", "tanh", "sigmoid", "sin", "cos")
        for _ in range(20):
            kind = kinds[rng.integers(len(kinds))]
            a = float(rng.uniform(0.2, 3.0))
            s = float(rng.uniform(-2.0, 2.0)) or 1.0
            t = float(rng.uniform(-1.0, 1.0))
            base = compute_moments(ActivationSpec(kind, in_scale=a))
            full = compute_moments(ActivationSpec(kind, in_scale=a, out_scale=s, shift=t))
            np.testing.assert_allclose(full.mu0, s * base.mu0 + t, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(full.mu1, s * base.mu1, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(full.mu2_sq, s * s * base.mu2_sq, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1e-8, 1e5])
    @pytest.mark.parametrize("kind", ["relu", "identity", "elu", "tanh"])
    def test_output_scale_of_any_size_is_resolved(self, kind, a):
        """The node-doubling check is relative to the activation's scale, so
        out_scale = a gives a mu0, a mu1 and a^2 mu2_sq, and does not raise
        however small or large a is; an activation that is zero everywhere
        has no drift."""
        base = compute_moments(ActivationSpec(kind, in_scale=1.3))
        m = compute_moments(ActivationSpec(kind, in_scale=1.3, out_scale=a))
        np.testing.assert_allclose([m.mu0, m.mu1], [a * base.mu0, a * base.mu1], rtol=1e-12, atol=1e-15 * a)
        np.testing.assert_allclose(m.mu2_sq, a * a * base.mu2_sq, rtol=1e-12, atol=1e-15 * a * a)

    def test_scaled_moments_matches_direct(self):
        base = compute_moments(ActivationSpec("elu", in_scale=3.0))
        scaled = scaled_moments(base, 0.5)
        direct = compute_moments(ActivationSpec("elu", in_scale=3.0, out_scale=0.5))
        np.testing.assert_allclose(
            [scaled.mu0, scaled.mu1, scaled.mu2_sq],
            [direct.mu0, direct.mu1, direct.mu2_sq],
            rtol=1e-12,
        )

    def test_positive_homogeneity_of_relu(self):
        """relu(a x) = a relu(x) for a > 0, so all moments scale accordingly."""
        base = compute_moments(ActivationSpec("relu"))
        for a in (0.25, 2.0, 9.0):
            m = compute_moments(ActivationSpec("relu", in_scale=a))
            np.testing.assert_allclose(m.mu0, a * base.mu0, rtol=1e-12)
            np.testing.assert_allclose(m.mu1, a * base.mu1, rtol=1e-12)
            np.testing.assert_allclose(m.mu2_sq, a * a * base.mu2_sq, rtol=1e-12)

    def test_step_input_scale_invariance(self):
        """The indicator of x > 0 ignores positive input scaling."""
        base = compute_moments(ActivationSpec("step"))
        m = compute_moments(ActivationSpec("step", in_scale=17.0))
        np.testing.assert_allclose(
            [m.mu0, m.mu1, m.mu2_sq], [base.mu0, base.mu1, base.mu2_sq], rtol=1e-12
        )


class TestRefinementStability:
    """The fixed panel rule is resolved: it matches adaptive QUADPACK over the
    whole real line, split at the kink, to near double precision."""

    @pytest.mark.parametrize("kind", ["relu", "elu", "tanh", "sin"])
    def test_refined_rule_agrees(self, kind):
        act = ActivationSpec(kind, in_scale=1.7)
        m = compute_moments(act)

        def gauss_integral(f):
            halves = (
                integrate.quad(
                    lambda x: f(x) * _norm_pdf(x), lo, hi, limit=200, epsabs=1e-15, epsrel=1e-13
                )[0]
                for lo, hi in ((-np.inf, 0.0), (0.0, np.inf))
            )
            return sum(halves)

        mu0 = gauss_integral(lambda x: eval_activation(act, x))
        mu1 = gauss_integral(lambda x: x * eval_activation(act, x))
        raw2 = gauss_integral(lambda x: eval_activation(act, x) ** 2)
        np.testing.assert_allclose(
            [m.mu0, m.mu1, m.mu2_sq],
            [mu0, mu1, raw2 - mu0 * mu0 - mu1 * mu1],
            rtol=1e-10,
            atol=1e-12,
        )


class TestLegendreRule:
    def test_the_kink_is_a_panel_boundary(self):
        """relu, step and elu are smooth on every panel only because 0 is a
        boundary of the grid (an even panel count)."""
        assert 0.0 in _PANEL_BOUNDS
        assert _PANEL_BOUNDS[0] == -12.0 and _PANEL_BOUNDS[-1] == 12.0


    def test_rule_is_computed_once_and_read_only(self):
        """Every activation shares one cached rule per node count: numpy's
        Gauss-Legendre nodes on each panel, with weights that integrate
        polynomials against the N(0,1) density; it cannot be modified
        through the cache."""
        x, w = _normal_rule(64)
        assert _normal_rule(64)[0] is x and _normal_rule(64)[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        ref_x, _ = np.polynomial.legendre.leggauss(64)
        lo, hi = _PANEL_BOUNDS[:-1, None], _PANEL_BOUNDS[1:, None]
        assert np.array_equal(x, (0.5 * (hi + lo) + 0.5 * (hi - lo) * ref_x).ravel())
        for power, moment in ((0, 1.0), (1, 0.0), (2, 1.0), (4, 3.0), (6, 15.0)):
            assert abs(np.dot(w, x ** power) - moment) <= 1e-14 * max(moment, 1.0)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


# Scalar formulas written with the math module, independent of the in-place
# kernels that eval_activation and the feature map share.
_SCALAR_FORMULAS = {
    "relu": lambda u: max(u, 0.0),
    "step": lambda u: 1.0 if u > 0.0 else 0.0,
    "elu": lambda u: u if u >= 0.0 else math.expm1(u),
    "sigmoid": lambda u: (1.0 / (1.0 + math.exp(-u)) if u >= 0.0
                          else math.exp(u) / (1.0 + math.exp(u))),
    "tanh": math.tanh,
    "sin": math.sin,
    "cos": math.cos,
    "identity": lambda u: u,
    "constant": lambda u: 1.0,
}


class TestEvaluation:
    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_every_kind_matches_a_scalar_formula(self, kind):
        act = ActivationSpec(kind, in_scale=-1.3, out_scale=0.7, shift=0.2)
        xs = np.linspace(-5.0, 5.0, 41)
        expected = [0.7 * _SCALAR_FORMULAS[kind](-1.3 * float(x)) + 0.2 for x in xs]
        np.testing.assert_allclose(eval_activation(act, xs), expected, rtol=1e-15, atol=1e-15)

    def test_scalar_and_array_agree(self):
        act = ActivationSpec("elu", in_scale=2.0, out_scale=-1.5, shift=0.3)
        xs = np.linspace(-3, 3, 11)
        arr = eval_activation(act, xs)
        scalars = [eval_activation(act, float(x)) for x in xs]
        np.testing.assert_allclose(arr, scalars, rtol=0, atol=0)
        assert isinstance(eval_activation(act, 0.5), float)

    def test_input_is_left_unchanged(self):
        xs = np.linspace(-3, 3, 7)
        before = xs.copy()
        for kind in ACTIVATION_KINDS:
            out = eval_activation(ActivationSpec(kind, in_scale=2.0, out_scale=3.0, shift=1.0), xs)
            assert out is not xs
            np.testing.assert_array_equal(xs, before)

    def test_zero_dimensional_input_gives_a_float(self):
        for x in (0.5, np.float64(0.5), np.array(0.5), 2):
            assert type(eval_activation(ActivationSpec("tanh"), x)) is float

    def test_sigmoid_saturates_without_warnings(self):
        act = ActivationSpec("sigmoid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = eval_activation(act, np.array([-1000.0, -720.0, 720.0, 1000.0]))
            scalars = [eval_activation(act, x) for x in (-1000.0, -720.0, 720.0, 1000.0)]
        assert np.all((out >= 0.0) & (out <= 1.0))
        np.testing.assert_array_equal(out, scalars)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0], rtol=0, atol=1e-300)

    def test_in_scale_scales_the_input(self):
        act = ActivationSpec("relu", in_scale=4.0)
        assert eval_activation(act, 2.0) == 8.0
        assert eval_activation(act, -2.0) == 0.0

    def test_elu_is_continuous_at_zero(self):
        act = ActivationSpec("elu")
        eps = 1e-9
        assert abs(eval_activation(act, eps) - eval_activation(act, -eps)) < 1e-8
        assert eval_activation(act, 0.0) == 0.0

    def test_step_at_zero_is_zero(self):
        assert eval_activation(ActivationSpec("step"), 0.0) == 0.0
        assert eval_activation(ActivationSpec("step"), 1e-12) == 1.0


class TestErrorPaths:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec, match="unknown activation kind"):
            ActivationSpec("swish")

    def test_nonfinite_scale(self):
        with pytest.raises(InvalidSpec, match="^in_scale must be finite$"):
            ActivationSpec("relu", in_scale=float("inf"))

    def test_negative_mu2_sq_rejected(self):
        with pytest.raises(InvalidSpec, match="nonnegative"):
            Moments(mu0=0.0, mu1=1.0, mu2_sq=-0.1)

    def test_oscillatory_integrand_diverges(self):
        """A wildly oscillatory activation fails the node-doubling check."""
        with pytest.raises(InvalidSpec):
            compute_moments(ActivationSpec("sin", in_scale=300.0))

    @pytest.mark.parametrize("a", [1e-8, 1e5])
    def test_oscillatory_integrand_diverges_at_any_scale(self, a):
        """Scaling the output scales the drift with it: no scale resolves sin(300 x)."""
        with pytest.raises(InvalidSpec, match="more than 1e-8 of their scale"):
            compute_moments(ActivationSpec("sin", in_scale=300.0, out_scale=a))

    @pytest.mark.parametrize(
        "act",
        [ActivationSpec("relu", out_scale=1e200), ActivationSpec("identity", out_scale=1e307),
         ActivationSpec("sin", in_scale=1e308)],
        ids=["square-overflows", "product-overflows", "nan"],
    )
    def test_nonfinite_integral_diverges(self, act):
        """An integral that overflows or turns NaN in double precision fails
        the quadrature without a numpy warning, which pytest makes an error."""
        with pytest.raises(InvalidSpec, match="not finite"):
            compute_moments(act)

    @pytest.mark.parametrize("bad", [{"mu0": math.nan}, {"mu1": math.inf}, {"mu2_sq": math.nan},
                                     {"mu2_sq": math.inf}],
                             ids=["mu0-nan", "mu1-inf", "mu2_sq-nan", "mu2_sq-inf"])
    def test_nonfinite_moments_rejected(self, bad):
        with pytest.raises(InvalidSpec, match="^moments must be finite$"):
            Moments(**{"mu0": 0.0, "mu1": 1.0, "mu2_sq": 0.5, **bad})

    def test_scaled_moments_nonfinite(self):
        m = Moments(mu0=0.0, mu1=1.0, mu2_sq=0.5)
        with pytest.raises(ValueError, match="finite"):
            scaled_moments(m, float("nan"))


class TestRepresentsIntercept:
    """The intercept guard weighs each block's mean against that block's own
    rms, so scaling an activation's input or output never flips its verdict."""

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    @pytest.mark.parametrize("which", ["in_scale", "out_scale"])
    def test_relu_at_any_scale(self, which, scale):
        assert represents_intercept([compute_moments(ActivationSpec("relu", **{which: scale}))])

    @pytest.mark.parametrize("which, scale",
                             [("in_scale", 1.0), ("in_scale", 1e-12), ("out_scale", 1e-12), ("out_scale", 1e12)])
    @pytest.mark.parametrize("kind", ["tanh", "sin", "identity"])
    def test_odd_kinds_at_any_scale(self, kind, which, scale):
        m = compute_moments(ActivationSpec(kind, **{which: scale}))
        assert m.mu0 != 0.0  # quadrature roundoff, not an exact zero
        assert not represents_intercept([m])

    def test_any_block_suffices(self):
        odd, even = Moments(0.0, 1.0, 0.5), Moments(1e-200, 0.0, 0.0)
        assert represents_intercept([odd, even])
        assert not represents_intercept([odd, Moments(0.0, 0.0, 0.0)])
