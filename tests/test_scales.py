"""Tests for the Newton solve of the self-consistent scales (``risk._newton``).

The roots are checked against the full K+1 system of the ``risk`` module
docstring, evaluated by ``oracles.residual_vector`` rather than by the
solver's own reduced residual.
"""

import numpy as np
import pytest

from multidescent import Moments, NoConvergence, TheorySpec, asymptotic_risk, risk
from multidescent.risk import _newton
from oracles import NonPositiveInput, psi_full, residual_vector

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

    def test_width_past_the_float_range_fails_at_once(self):
        """At lam = 1e-24, w = 1e300 puts psi / sqrt(lam) past the float
        range: the solve fails loudly before its first step."""
        spec = TheorySpec(psi=(1.0, 1e300), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=1e-24)
        with pytest.raises(NoConvergence, match="after 0 Newton steps") as exc:
            asymptotic_risk(spec)
        assert exc.value.iterations == 0


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
