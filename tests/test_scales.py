"""Tests for the Newton solve of the self-consistent scales (``risk._newton``).

The roots are checked against the full K+1 system of the ``risk`` module
docstring, evaluated by ``oracles.residual_vector`` rather than by the
solver's own reduced residual.  Single-component instances collapse to a
quadratic (purely nonlinear features) or a cubic (purely linear features),
both solvable in closed form; those check the roots themselves.
``TestSolutionProperties`` pushes every root through ``verify_complex``,
which re-evaluates the original complex-variable system independently of
the real residual the Newton iteration drives to zero, and checks bounds,
symmetries and determinism.
"""

import hashlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from multidescent import (
    ActivationSpec,
    InvalidSpec,
    Moments,
    SolveFailure,
    TheorySpec,
    asymptotic_risk,
    compute_moments,
    parse_config,
    risk,
)
from multidescent.cli import ExitStatus, dispatch
from multidescent.risk import _newton, _theory
from oracles import NonPositiveInput, box_spec, mp_risk, psi_full, residual_vector, verify_complex

# A nonlinear block next to a purely linear one (mu2 = 0) at psi_n = 2.
WIDE_LINEAR_MOMENTS = (Moments(0.0, 0.8, 0.5), Moments(0.0, 1.0, 0.0))


# Each wide family's lambda, its largest width exponent, the most Newton steps
# one of its widths may take and its batched ``_step`` calls, probes included
# (all measured).
WIDE_FAMILIES = [(1e-24, 280, 16, 71), (1e-8, 300, 16, 63), (1e-2, 300, 16, 50), (1e-16, 290, 18, 69),
                 (1e-28, 280, 13, 64)]


class TestWideLinearBlock:
    @pytest.mark.parametrize("lam,top,budget,calls", WIDE_FAMILIES,
                             ids=[f"{lam}-{top}" for lam, top, _, _ in WIDE_FAMILIES])
    def test_every_width_converges(self, lam, top, budget, calls, monkeypatch):
        """Widths (1, w), w = 1e10 ... 1e280 (1e290 at lam = 1e-16 and 1e300
        at 1e-8 and 1e-2; a wider w fails as the Newton determinant or the
        first residual overflows): F's valley runs along
        log b_n + log s = const, and its Newton steps there run to 1e90 units
        and more.  A step cut to 2 and then lengthened while F's slope along
        it keeps 4/5 of its start's, and a full step lengthened along the
        valley floor while F falls, reach every root within 16 steps (18 at
        lam = 1e-16, 13 at 1e-28; 34 before the valley rule, whose unit steps
        crawled), where cutting alone failed at the 100-step limit from
        w = 1e70, 1e80 and 1e90 on at lam = 1e-24, 1e-8 and 1e-2.  The
        batched ``_step`` calls are pinned too, as a search rule can trade
        steps for probes.  Only the residual is checked: at lam = 1e-24 the
        roots are ill-conditioned."""
        widths = [10.0 ** e for e in range(10, top + 1, 10)]
        base = TheorySpec(psi=(1.0, 1.0), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=lam)
        calls_made, step = [], risk._step

        def counted(*args):
            calls_made.append(args)
            return step(*args)

        monkeypatch.setattr(risk, "_step", counted)
        b, residual, steps, errors = _newton(base, np.array([(1.0, w) for w in widths]))
        assert errors == {} and max(steps) <= budget and len(calls_made) == calls
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
        the solve fails with ``InvalidSpec`` before its first step."""
        spec = TheorySpec(psi=(1.0, w), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=1e-24)
        with pytest.raises(InvalidSpec, match=r"^Newton matrix leaves the float range: determinant nan after 0 "
                                              r"Newton steps at lambda=1\.000e-24$"):
            asymptotic_risk(spec)

    def test_theory_command_reports_the_newton_overflow(self):
        """The ``theory`` command there exits with the configuration status."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 0.8, "mu2_sq": 0.5}, {"mu0": 0, "mu1": 1, "mu2_sq": 0}],
               "model": {"psi": [1.0, 1e290], "psi_n": 2.0, "lambda": 1e-24}}
        out, err = io.StringIO(), io.StringIO()
        status = dispatch("theory", parse_config(json.dumps(cfg)), out, err)
        assert status == ExitStatus.CONFIG and out.getvalue() == ""
        assert err.getvalue() == ("InvalidSpec: Newton matrix leaves the float range: determinant nan after 0 "
                                  "Newton steps at lambda=1.000e-24\n")

    def test_width_past_the_float_range_fails_at_once(self):
        """At lam = 1e-24, w = 1e300 puts psi / sqrt(lam) past the float
        range: the solve fails loudly before its first step."""
        spec = TheorySpec(psi=(1.0, 1e300), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=1e-24)
        with pytest.raises(SolveFailure, match="after 0 Newton steps") as exc:
            asymptotic_risk(spec)
        assert exc.value.iterations == 0


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
        assert out.risk == pytest.approx(ridgeless, rel=1e-10, abs=0.0)


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
        with pytest.raises(SolveFailure) as exc:
            asymptotic_risk(spec)
        assert exc.value.iterations == 0
        assert exc.value.residual > 1e-12

    def test_theory_command_reports_an_underflowed_newton_matrix(self):
        """At psi = 1e200 against psi_n = 1e-100 and lam = 1e-33 the Newton
        determinant, a sum of terms >= 0, underflows to 0 at the start: the
        ``theory`` command fails with the configuration status, as for one
        that overflows."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": 1}],
               "model": {"psi": [1e200], "psi_n": 1e-100, "lambda": 1e-33}}
        out, err = io.StringIO(), io.StringIO()
        status = dispatch("theory", parse_config(json.dumps(cfg)), out, err)
        assert status == ExitStatus.CONFIG and out.getvalue() == ""
        assert err.getvalue() == ("InvalidSpec: Newton matrix leaves the float range: determinant 0.000e+00 "
                                  "after 0 Newton steps at lambda=1.000e-33\n")

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
        with pytest.raises(SolveFailure, match="after 30 Newton steps") as exc:
            asymptotic_risk(spec)
        assert exc.value.iterations == 30
        assert exc.value.residual < 1e-14


def _harsh_box(rng_key: int, count: int) -> list:
    """The first ``count`` harsh-box specs of stream ``rng_key``."""
    return [box_spec(np.random.default_rng([rng_key, i]), lam_exp=(-33.0, 3.0), k_max=8) for i in range(count)]


def test_harsh_box_step_budget():
    """The 300 one-point specs of ``test_theory_bits_are_pinned`` all
    converge, within 635 Newton steps in all and 12 each (the measured
    budget).  Solves from a start that leaves s at 1/2 took 1,533 steps
    and up to 14; with unit steps along a valley as well, 2,300 and up to
    17."""
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", risk.IllConditionedWarning)
        for spec in _harsh_box(0, 300):
            _, _, n, errors = _newton(spec, np.array([spec.psi]))
            assert errors == {}
            steps.append(int(n[0]))
    assert sum(steps) <= 635 and max(steps) <= 12


class TestRoundingFloor:
    def test_a_solve_at_the_floor_takes_no_polishing_step(self, monkeypatch):
        """On the first 300 harsh-box specs, each solve takes the steps of a
        solve that always polishes (a floor no residual reaches), or one
        step less where it stopped with its residual at the rounding floor,
        min(_TOL, 4 eps): 110 of them do."""
        specs = _harsh_box(0, 300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", risk.IllConditionedWarning)
            stopped = [_newton(spec, np.array([spec.psi])) for spec in specs]
            monkeypatch.setattr(risk, "_FLOOR", -1.0)
            polished = [_newton(spec, np.array([spec.psi])) for spec in specs]
        skipped = 0
        for (_, residual, steps, errors), (_, _, polished_steps, _) in zip(stopped, polished):
            assert errors == {}
            if steps[0] != polished_steps[0]:
                assert steps[0] == polished_steps[0] - 1 and residual[0] <= 4.0 * np.finfo(float).eps
                skipped += 1
        assert skipped == 110

    def test_stopping_at_the_floor_keeps_the_risk_digits(self):
        """The 25 of the first 2,000 harsh-box risks that moved most when the
        start came to refine s and a solve to stop at the floor (1e-15 to
        1.3e-14 relative) lie no farther from ``mp_risk`` at 150 digits than
        before: the worst error was 8.66e-15 (spec 744) and is 6.22e-15."""
        worst = max(_harsh_box_risk_error(index)
                    for index in (44, 146, 238, 322, 407, 472, 561, 574, 693, 744, 1012, 1019, 1050, 1063,
                                  1109, 1159, 1312, 1415, 1487, 1549, 1705, 1711, 1842, 1850, 1939))
        assert worst <= 8.66e-15


def _harsh_box_risk_error(index: int) -> float:
    """The relative error of harsh-box spec ``index``'s ``asymptotic_risk``
    against ``mp_risk`` at 150 digits."""
    spec = box_spec(np.random.default_rng([0, index]), lam_exp=(-33.0, 3.0), k_max=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", risk.IllConditionedWarning)
        value = asymptotic_risk(spec).risk
    ref = mp_risk(spec.psi, spec.psi_n, [m.mu1 ** 2 for m in spec.moments],
                  [m.mu2_sq for m in spec.moments], spec.lam, spec.F1, spec.tau, dps=150)
    return abs(value / float(ref) - 1.0)


def test_search_roots_keep_their_digits():
    """The only 4 of the 9,000 harsh-box roots that moved when the step
    searches lost four rules (a valley stop on the residual's fall, an
    uncut step at the valley's entry, a 7/8 and 3/4 growth ratio, a slope
    updated while growing) lie within 2e-14 of ``mp_risk`` at 150 digits.
    Before, they erred by 4.2e-15, 5.3e-15, 4.8e-14 and 7.9e-15; now by
    1.7e-14, 8.9e-16, 5.1e-15 and 1.2e-14."""
    assert max(_harsh_box_risk_error(index) for index in (564, 3394, 3883, 5707)) <= 2e-14


# SHA-256 over ``_theory``'s outputs on the harsh box, recorded with numpy 2.4
# and OpenBLAS 0.3.31.  A change that moves the theory core's bits on purpose
# records it again and says so.
THEORY_BITS = "10e5f7182d2c47c383cc6eb1d93c7c50068885d759a5365fb84f646ceb55d08a"


def test_theory_bits_are_pinned():
    """Risk, bias, variance, L, b, residuals, steps and error texts, bit for
    bit, of the first 300 harsh-box specs solved one at a time and of 40
    specs each stacked over widths scaled by 10**linspace(-8, 8, 60)."""
    calls = [(spec, np.array([spec.psi])) for spec in _harsh_box(0, 300)]
    scale = 10.0 ** np.linspace(-8.0, 8.0, 60)[:, None]
    calls += [(spec, np.array(spec.psi) * scale) for spec in _harsh_box(7, 40)]
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", risk.IllConditionedWarning)
        for base, psi in calls:
            *arrays, errors = _theory(base, psi)
            for array in arrays:
                digest.update(np.ascontiguousarray(array).tobytes())
            digest.update(repr(sorted((i, type(e).__name__, str(e)) for i, e in errors.items())).encode())
    assert digest.hexdigest() == THEORY_BITS


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
        assert out.risk == pytest.approx(float(ref), rel=1e-10, abs=0.0)

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

