"""Tests for the Newton solve of the self-consistent scales (``risk._newton``).

The roots are checked against the full K+1 system of the ``risk`` module
docstring, evaluated by ``oracles.residual_vector`` rather than by the
solver's own reduced residual.
"""

import hashlib
import io
import json
import re
import warnings

import numpy as np
import pytest

from multidescent import (
    ActivationSpec,
    InvalidSpec,
    Moments,
    NoConvergence,
    TheorySpec,
    asymptotic_risk,
    compute_moments,
    parse_config,
    risk,
)
from multidescent.cli import ExitStatus, dispatch
from multidescent.risk import _newton, _theory
from oracles import NonPositiveInput, box_spec, psi_full, residual_vector, verify_complex

# A nonlinear block next to a purely linear one (mu2 = 0) at psi_n = 2.
WIDE_LINEAR_MOMENTS = (Moments(0.0, 0.8, 0.5), Moments(0.0, 1.0, 0.0))


class TestWideLinearBlock:
    @pytest.mark.parametrize("lam,top", [(1e-24, 280), (1e-8, 300), (1e-2, 300)])
    def test_every_width_converges(self, lam, top):
        """Widths (1, w), w = 1e10 ... 1e280 (1e300 where psi / sqrt(lam)
        stays finite): F's valley runs along log b_n + log s = const, and
        its Newton steps there run to 1e90 units and more.  A step cut to 2
        and then lengthened while F falls reaches every root within 34
        steps (the measured budget), where cutting alone failed at the
        100-step limit from w = 1e70, 1e80 and 1e90 on at these lambdas.
        Only the residual is checked: at lam = 1e-24 the roots are
        ill-conditioned."""
        widths = [10.0 ** e for e in range(10, top + 1, 10)]
        base = TheorySpec(psi=(1.0, 1.0), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=lam)
        b, residual, steps, errors = _newton(base, np.array([(1.0, w) for w in widths]))
        assert errors == {} and max(steps) <= 34
        for i, w in enumerate(widths):
            spec = TheorySpec(psi=(1.0, w), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=lam)
            assert np.max(np.abs(residual_vector(spec, b[i])) / psi_full(spec)) <= risk._TOL, w
            assert residual[i] <= risk._TOL

    def test_root_past_the_square_range_fails_as_overflow(self):
        """At lam = 1e-24 the roots of w = 1e150 ... 1e280 are found, but
        T = b_n sum_c m1_c b_c lies past 1e154, where (1 + T)^2 overflows:
        each point fails with ``InvalidSpec`` naming (1 + T)^2 and T, not as
        a singular S, while w = 1e10 ... 1e140 keep a finite risk."""
        widths = [10.0 ** e for e in range(10, 290, 10)]
        base = TheorySpec(psi=(1.0, 1.0), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=1e-24)
        with pytest.warns(risk.IllConditionedWarning):
            risks, _, _, _, _, residual, _, errors = _theory(base, np.array([(1.0, w) for w in widths]))
        assert np.all(residual <= risk._TOL)
        for i, w in enumerate(widths):
            if w < 1e150:
                assert i not in errors and np.isfinite(risks[i]), w
            else:
                t = re.fullmatch(r"\(1 \+ T\)\^2 overflows at T = (\S+)", str(errors[i]))
                assert isinstance(errors[i], InvalidSpec) and float(t[1]) > 1e154, w
                assert np.isnan(risks[i])

    def test_theory_command_reports_the_square_overflow(self):
        """The ``theory`` command at such a root exits with the configuration
        status and the overflow message, not the solver status."""
        cfg = {"activations": [{"kind": "relu"}, {"kind": "identity"}],
               "model": {"psi": [1.0, 1e200], "psi_n": 2.0, "lambda": 1e-8}}
        out, err = io.StringIO(), io.StringIO()
        status = dispatch("theory", parse_config(json.dumps(cfg)), out, err)
        assert status == ExitStatus.CONFIG and out.getvalue() == ""
        assert re.fullmatch(r"InvalidSpec: \(1 \+ T\)\^2 overflows at T = 3\.317e\+204\n", err.getvalue())

    @pytest.mark.parametrize("w", [1e285, 1e290, 1e295])
    def test_newton_matrix_past_the_float_range_fails_as_overflow(self, w):
        """At lam = 1e-24, w = 1e285 ... 1e295 keeps psi / sqrt(lam) and the
        first residual finite, but the Newton determinant overflows to NaN:
        the solve fails with ``InvalidSpec`` before its first step, not as a
        determinant that is not positive."""
        spec = TheorySpec(psi=(1.0, w), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=1e-24)
        with pytest.raises(InvalidSpec, match=r"^Newton matrix overflows: determinant nan after 0 Newton "
                                              r"steps at lambda=1\.000e-24$"):
            asymptotic_risk(spec)

    def test_theory_command_reports_the_newton_overflow(self):
        """The ``theory`` command there exits with the configuration status."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 0.8, "mu2_sq": 0.5}, {"mu0": 0, "mu1": 1, "mu2_sq": 0}],
               "model": {"psi": [1.0, 1e290], "psi_n": 2.0, "lambda": 1e-24}}
        out, err = io.StringIO(), io.StringIO()
        status = dispatch("theory", parse_config(json.dumps(cfg)), out, err)
        assert status == ExitStatus.CONFIG and out.getvalue() == ""
        assert err.getvalue() == ("InvalidSpec: Newton matrix overflows: determinant nan after 0 Newton steps "
                                  "at lambda=1.000e-24\n")

    def test_width_past_the_float_range_fails_at_once(self):
        """At lam = 1e-24, w = 1e300 puts psi / sqrt(lam) past the float
        range: the solve fails loudly before its first step."""
        spec = TheorySpec(psi=(1.0, 1e300), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=1e-24)
        with pytest.raises(NoConvergence, match="after 0 Newton steps") as exc:
            asymptotic_risk(spec)
        assert exc.value.iterations == 0


class TestVanishingRidge:
    def test_lambda_path_shape(self):
        """A small lambda is solved from the cold start to within tol."""
        spec = TheorySpec(
            psi=(1.0,), psi_n=2.0, moments=(Moments(0.0, 1.0, 0.5),), lam=1e-4
        )
        assert asymptotic_risk(spec).residual <= risk._TOL

    def test_tiny_lambda(self):
        """Newton in log b stays on the positive branch at 1e-10."""
        spec = TheorySpec(
            psi=(0.5,), psi_n=2.0, moments=(Moments(0.1, 0.4, 0.7),), lam=1e-10
        )
        out = asymptotic_risk(spec)
        assert out.residual <= 1e-12
        assert verify_complex(spec, out.b) < 1e-8

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
            out.b,
            [0.1078373860287470069454352, 15.17355339439964475959739, 15.28139078042839176654282],
            rtol=1e-10,
        )
        np.testing.assert_allclose(out.risk, 1162.634462666235186708418, rtol=1e-10)

    @pytest.mark.parametrize("c,ridgeless", [(0.5, 0.466592137232), (2.0, 0.534890232573)])
    def test_figure_model_at_lambda_1e_34(self, c, ridgeless):
        """Off the peak the figure model's risk has reached its ridgeless
        value (the lambda = 1e-30 risk) long before lambda = 1e-34, where the
        scales lie 33 to 35 decades apart; the solve still converges to it."""
        moments = tuple(
            compute_moments(ActivationSpec(kind=kind, in_scale=scale))
            for kind, scale in (("elu", 3.0), ("relu", 0.25))
        )
        psi = c * (10 / 3) / 2
        spec = TheorySpec(psi=(psi, psi), psi_n=10 / 3, moments=moments, lam=1e-34, tau=0.1)
        out = asymptotic_risk(spec)
        assert out.residual <= risk._TOL
        assert out.risk == pytest.approx(ridgeless, rel=1e-10)


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

    def test_no_convergence_carries_diagnostics(self, monkeypatch):
        spec = TheorySpec(
            psi=(1.0,), psi_n=2.0, moments=(Moments(0.0, 1.0, 0.5),), lam=1e-6
        )
        monkeypatch.setattr(risk, "_MAX_ITER", 0)
        with pytest.raises(NoConvergence) as exc:
            asymptotic_risk(spec)
        assert exc.value.iterations == 0
        assert exc.value.residual > 1e-12

    def test_tolerance_below_roundoff_fails_at_the_cap(self, monkeypatch):
        """With a tolerance below zero every step is taken and none meets it
        (the residual, formed from the reduced gradient, can read exactly 0):
        the solve fails loudly at the step cap, its residual at roundoff."""
        spec = TheorySpec(
            psi=(0.8, 1.4, 0.5), psi_n=2.0,
            moments=(Moments(0.0, 0.7, 0.3), Moments(0.0, 0.2, 0.9), Moments(0.0, 1.1, 0.4)),
            lam=1e-3,
        )
        monkeypatch.setattr(risk, "_TOL", -1.0)
        monkeypatch.setattr(risk, "_MAX_ITER", 30)
        with pytest.raises(NoConvergence, match="after 30 Newton steps") as exc:
            asymptotic_risk(spec)
        assert exc.value.iterations == 30
        assert exc.value.residual < 1e-14


# SHA-256 over ``_theory``'s outputs on the harsh box, recorded with numpy 2.4
# and OpenBLAS 0.3.31.  A change that moves the theory core's bits on purpose
# records it again and says so.
THEORY_BITS = "50243a001eac074934c0832313c317378e64aeb5b1ac83ea42485fe0d40c575f"


def test_theory_bits_are_pinned():
    """Risk, bias, variance, L, b, residuals, steps and error texts, bit for
    bit, of the first 300 harsh-box specs solved one at a time and of 40
    specs each stacked over widths scaled by 10**linspace(-8, 8, 60)."""
    box = dict(lam_exp=(-33.0, 3.0), k_max=8)
    calls = [(spec, np.array([spec.psi]))
             for spec in (box_spec(np.random.default_rng([0, i]), **box) for i in range(300))]
    scale = 10.0 ** np.linspace(-8.0, 8.0, 60)[:, None]
    calls += [(spec, np.array(spec.psi) * scale)
              for spec in (box_spec(np.random.default_rng([7, j]), **box) for j in range(40))]
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", risk.IllConditionedWarning)
        for base, psi in calls:
            *arrays, errors = _theory(base, psi)
            for array in arrays:
                digest.update(np.ascontiguousarray(array).tobytes())
            digest.update(repr(sorted((i, type(e).__name__, str(e)) for i, e in errors.items())).encode())
    assert digest.hexdigest() == THEORY_BITS
