"""Tests for the asymptotic risk evaluation.

The two-component closed-form route (``explicit_risk_k2`` in
``oracles.py``) and the general matrix route share no code beyond the solved scales, so agreement between
them is the core oracle.  General K is then tied back to K=2 through the
exact block-merge identity (identical activations split across components
leave the risk unchanged), and the width limits are pinned by hand-derived
closed-form values.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import (
    DegenerateB,
    DegenerateMoments,
    IllConditionedWarning,
    InvalidSpec,
    LimitSpec,
    Moments,
    NuStar,
    TheorySpec,
    asymptotic_risk,
    asymptotic_risk_stack,
    limit_risk_infinite_width,
    limit_risk_zero_width,
    solve_nu,
)
from multidescent.nu_system import _stack_coeffs
from multidescent.risk import _score
from oracles import DegenerateS, WrongK, build_matrices, explicit_risk_k2


def _random_k2_spec(rng) -> TheorySpec:
    def triple():
        mu1 = float(rng.uniform(0.05, 2.0)) * (1.0 if rng.uniform() < 0.85 else 0.0)
        return Moments(
            mu0=float(rng.uniform(-0.5, 0.5)),
            mu1=mu1,
            mu2_sq=float(rng.uniform(0.01, 2.0)),
        )

    return TheorySpec(
        psi=(float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0))),
        psi_n=float(rng.uniform(0.3, 4.0)),
        moments=(triple(), triple()),
        lam=float(10.0 ** rng.uniform(-5, 0.0)),
        F1=float(rng.uniform(0.5, 2.0)),
        tau=float(rng.uniform(0.0, 1.0)),
    )


@st.composite
def _box_specs(draw) -> TheorySpec:
    """A spec from the box of ``test_nu_system._random_spec``, with a noise
    level tau in [0, 1]."""
    k = draw(st.integers(1, 3))
    moments = tuple(
        Moments(
            mu0=draw(st.floats(-0.5, 0.5)),
            mu1=draw(st.just(0.0) | st.floats(0.1, 2.0)),
            mu2_sq=draw(st.floats(0.01, 2.0)),
        )
        for _ in range(k)
    )
    return TheorySpec(
        psi=tuple(draw(st.floats(0.2, 5.0)) for _ in range(k)),
        psi_n=draw(st.floats(0.2, 5.0)),
        moments=moments,
        lam=10.0 ** draw(st.floats(-6.0, 0.5)),
        tau=draw(st.floats(0.0, 1.0)),
    )


# Reproducible, with no example database, and a few hundred ms in all.
_battery = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def _stack_risks(specs) -> list:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        return [out.risk for out in asymptotic_risk_stack(specs)]


class TestRiskProperties:
    """Property battery, each example evaluated as one stack."""

    @_battery
    @given(spec=_box_specs(), data=st.data())
    def test_block_permutation_invariance(self, spec, data):
        perm = data.draw(st.permutations(range(spec.K)))
        permuted = TheorySpec(
            psi=tuple(spec.psi[i] for i in perm), psi_n=spec.psi_n,
            moments=tuple(spec.moments[i] for i in perm), lam=spec.lam, tau=spec.tau,
        )
        risk, risk_p = _stack_risks([spec, permuted])
        np.testing.assert_allclose(risk_p, risk, rtol=1e-10)

    @_battery
    @given(spec=_box_specs())
    def test_risk_nonnegative(self, spec):
        (risk,) = _stack_risks([spec])
        assert risk >= 0.0

    @_battery
    @given(spec=_box_specs(), extra=st.floats(0.0, 1.0))
    def test_risk_nondecreasing_in_tau(self, spec, extra):
        louder = TheorySpec(psi=spec.psi, psi_n=spec.psi_n, moments=spec.moments,
                            lam=spec.lam, tau=spec.tau + extra)
        risk, risk_louder = _stack_risks([spec, louder])
        assert risk_louder >= risk * (1.0 - 1e-12)


class TestMatrixAssembly:
    def test_hand_built_k1(self):
        """Elementwise H and V for K=1 with hand-picked scales."""
        m = Moments(mu0=0.2, mu1=0.8, mu2_sq=0.5)
        spec = TheorySpec(psi=(1.5,), psi_n=2.0, moments=(m,), lam=0.04)
        b1, bn = 0.7, 1.1
        nu = NuStar(b=np.array([b1, bn]), residual=0.0, iterations=0)
        mats = build_matrices(spec, nu)

        m1 = 0.8 * 0.8
        mN = m1 * b1
        MD = -(bn * mN + 1.0)
        md2 = MD * MD
        np.testing.assert_allclose(mats.mN, mN, rtol=1e-15)
        np.testing.assert_allclose(mats.MD, MD, rtol=1e-15)
        H = np.array(
            [
                [bn * bn * m1 * m1 / md2 - 1.5 / (b1 * b1), -m1 / md2 - 0.5],
                [-m1 / md2 - 0.5, mN * mN / md2 - 2.0 / (bn * bn)],
            ]
        )
        V = np.array(
            [
                [0.5, 0.0, m1 / md2, -bn * bn * m1 / md2],
                [0.0, 1.0, -mN * mN / md2, 1.0 / md2],
            ]
        )
        np.testing.assert_allclose(mats.H, H, rtol=1e-14)
        np.testing.assert_allclose(mats.V, V, rtol=1e-14)

    def test_hand_built_k2_offdiagonal(self):
        """The K x K block couples components through b_n^2 m1_i m1_j / MD^2."""
        ma = Moments(0.0, 0.6, 0.3)
        mb = Moments(0.0, 1.2, 0.9)
        spec = TheorySpec(psi=(1.0, 2.0), psi_n=1.5, moments=(ma, mb), lam=0.1)
        b = np.array([0.5, 0.8, 1.3])
        nu = NuStar(b=b, residual=0.0, iterations=0)
        mats = build_matrices(spec, nu)
        m1a, m1b = 0.36, 1.44
        mN = m1a * b[0] + m1b * b[1]
        md2 = (b[2] * mN + 1.0) ** 2
        np.testing.assert_allclose(
            mats.H[0, 1], b[2] * b[2] * m1a * m1b / md2, rtol=1e-14
        )
        assert mats.H[0, 1] == mats.H[1, 0]
        np.testing.assert_allclose(mats.H[0, 2], -m1a / md2 - 0.3, rtol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        spec = _random_k2_spec(rng)
        nu = solve_nu(spec)
        mats = build_matrices(spec, nu)
        np.testing.assert_allclose(mats.H, mats.H.T, rtol=0, atol=0)

    def test_constant_features_structure(self):
        """With mu1 = mu2 = 0 the features are constants: V couples only
        through the sample row and the risk collapses to F1^2."""
        m = Moments(mu0=0.7, mu1=0.0, mu2_sq=0.0)
        spec = TheorySpec(
            psi=(1.0, 2.0), psi_n=1.5, moments=(m, m), lam=0.1, F1=1.3, tau=0.5
        )
        out = asymptotic_risk(spec)
        np.testing.assert_allclose(out.nu.b, np.array(spec.psi_full) / math.sqrt(0.1))
        mats = build_matrices(spec, out.nu)
        assert mats.MD == -1.0
        expected_v = np.zeros((3, 4))
        expected_v[2, 1] = 1.0
        expected_v[2, 3] = 1.0
        np.testing.assert_allclose(mats.V, expected_v, rtol=0, atol=0)
        np.testing.assert_allclose(out.risk, 1.3 ** 2, rtol=1e-12)
        np.testing.assert_allclose(out.variance, 0.0, atol=1e-15)


class TestClosedFormAgreement:
    def test_battery(self):
        """Matrix route equals the printed K=2 closed forms."""
        rng = np.random.default_rng(77)
        for _ in range(40):
            spec = _random_k2_spec(rng)
            via_matrix = asymptotic_risk(spec)
            via_forms = explicit_risk_k2(spec, via_matrix.nu)
            np.testing.assert_allclose(via_forms.risk, via_matrix.risk, rtol=1e-9)
            np.testing.assert_allclose(via_forms.bias, via_matrix.bias, rtol=1e-9)
            np.testing.assert_allclose(
                via_forms.variance, via_matrix.variance, rtol=1e-9, atol=1e-12
            )
            for idx in ((0, 3), (1, 2), (0, 1), (2, 3)):
                np.testing.assert_allclose(
                    via_forms.L[idx], via_matrix.L[idx], rtol=1e-8, atol=1e-12
                )

    def test_L_symmetric(self):
        spec = _random_k2_spec(np.random.default_rng(8))
        out = asymptotic_risk(spec)
        np.testing.assert_allclose(out.L, out.L.T, rtol=1e-10, atol=1e-13)


class TestBlockMerge:
    """Splitting one activation across components must not change the risk."""

    def test_k3_equals_k2(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            base = _random_k2_spec(rng)
            w = float(rng.uniform(0.2, 0.8))
            split = TheorySpec(
                psi=(base.psi[0] * w, base.psi[0] * (1.0 - w), base.psi[1]),
                psi_n=base.psi_n,
                moments=(base.moments[0], base.moments[0], base.moments[1]),
                lam=base.lam,
                F1=base.F1,
                tau=base.tau,
            )
            r2 = asymptotic_risk(base)
            r3 = asymptotic_risk(split)
            np.testing.assert_allclose(r3.risk, r2.risk, rtol=1e-8)
            np.testing.assert_allclose(r3.bias, r2.bias, rtol=1e-8)
            np.testing.assert_allclose(r3.variance, r2.variance, rtol=1e-8, atol=1e-12)

    def test_k1_equals_k2(self):
        m = Moments(0.1, 0.9, 0.4)
        merged = TheorySpec(
            psi=(2.4,), psi_n=1.7, moments=(m,), lam=1e-3, F1=1.0, tau=0.3
        )
        split = TheorySpec(
            psi=(0.9, 1.5), psi_n=1.7, moments=(m, m), lam=1e-3, F1=1.0, tau=0.3
        )
        np.testing.assert_allclose(
            asymptotic_risk(merged).risk, asymptotic_risk(split).risk, rtol=1e-9
        )
        # and the split case is itself pinned by the closed form
        nu = solve_nu(split)
        np.testing.assert_allclose(
            explicit_risk_k2(split, nu).risk, asymptotic_risk(merged).risk, rtol=1e-9
        )


class TestRiskStructure:
    def test_bilinear_in_signal_and_noise(self):
        """risk(F1, tau) = F1^2 risk(1, 0) + tau^2 risk(0->bias-free, 1)."""
        rng = np.random.default_rng(13)
        base = _random_k2_spec(rng)
        pure_bias = TheorySpec(
            psi=base.psi, psi_n=base.psi_n, moments=base.moments,
            lam=base.lam, F1=1.0, tau=0.0,
        )
        pure_var = TheorySpec(
            psi=base.psi, psi_n=base.psi_n, moments=base.moments,
            lam=base.lam, F1=0.0, tau=1.0,
        )
        rb = asymptotic_risk(pure_bias)
        rv = asymptotic_risk(pure_var)
        full = asymptotic_risk(base)
        np.testing.assert_allclose(
            full.risk,
            base.F1 ** 2 * rb.risk + base.tau ** 2 * rv.risk,
            rtol=1e-10,
        )
        np.testing.assert_allclose(full.bias, base.F1 ** 2 * rb.risk, rtol=1e-10)
        np.testing.assert_allclose(full.variance, base.tau ** 2 * rv.risk, rtol=1e-10)

    def test_positive_and_finite_battery(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            spec = _random_k2_spec(rng)
            out = asymptotic_risk(spec)
            assert math.isfinite(out.risk)
            assert out.bias >= -1e-12
            assert out.variance >= -1e-12
            assert out.risk > 0.0

    def test_supplied_nu_matches_internal_solve(self):
        """The scales a risk carries are solve_nu's, bit for bit."""
        spec = _random_k2_spec(np.random.default_rng(55))
        nu, carried = solve_nu(spec), asymptotic_risk(spec).nu
        assert np.array_equal(carried.b, nu.b)
        assert (carried.residual, carried.iterations) == (nu.residual, nu.iterations)


class TestWidthLimits:
    def test_infinite_width_golden(self):
        """Unit moments, equal ratios, psi_n = 2 collapse to (sqrt(2)-1)/2.

        By hand: the quadratic gives chi1 = 4 sqrt(2), chi0 = sqrt(2), and
        the ratio (1 * 2) / ((sqrt(2)+1)^2 * 2 - 2) = (sqrt(2)-1)/2.
        """
        ms = (Moments(0.0, 1.0, 1.0), Moments(0.0, 1.0, 1.0))
        ls = LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms, F1=1.0, tau=0.0)
        np.testing.assert_allclose(
            limit_risk_infinite_width(ls), (math.sqrt(2.0) - 1.0) / 2.0, rtol=1e-14
        )

    def test_ratio_scale_invariance(self):
        """Only the direction of r matters in the limit."""
        ms = (Moments(0.1, 0.7, 0.3), Moments(0.0, 0.4, 1.1))
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = rng.uniform(0.2, 3.0, size=2)
            t = float(rng.uniform(0.1, 10.0))
            a = limit_risk_infinite_width(
                LimitSpec(r=r, psi_n=2.5, moments=ms, F1=1.2, tau=0.4)
            )
            b = limit_risk_infinite_width(
                LimitSpec(r=t * r, psi_n=2.5, moments=ms, F1=1.2, tau=0.4)
            )
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_power_of_two_weights_give_identical_limit(self):
        """r, r*2^1000 and r*2^-1000 give the same limit bit for bit, so
        extreme weights neither overflow to NaN nor underflow to a false
        DegenerateMoments."""
        ms = (Moments(0.1, 0.7, 0.3), Moments(0.0, 0.4, 1.1))
        risks = [
            limit_risk_infinite_width(LimitSpec(
                r=(math.ldexp(1.0, e), math.ldexp(3.0, e)), psi_n=2.5, moments=ms, F1=1.2, tau=0.4))
            for e in (0, 1000, -1000)
        ]
        assert math.isfinite(risks[0])
        assert risks[1] == risks[0] and risks[2] == risks[0]
        huge = limit_risk_infinite_width(LimitSpec(r=(1e308, 1e308), psi_n=2.5, moments=ms))
        unit = limit_risk_infinite_width(LimitSpec(r=(1.0, 1.0), psi_n=2.5, moments=ms))
        np.testing.assert_allclose(huge, unit, rtol=1e-14)

    def test_split_block_leaves_limit_unchanged(self):
        """A block split into two identical blocks of weights w r and (1-w) r
        is the same model, so its limit is the same."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            ms = tuple(
                Moments(0.0, float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.1, 1.5)))
                for _ in range(k)
            )
            r = tuple(float(x) for x in rng.uniform(0.2, 3.0, size=k))
            dup, w = int(rng.integers(k)), float(rng.uniform(0.1, 0.9))
            common = {"psi_n": float(rng.uniform(0.3, 4.0)), "F1": 1.1, "tau": 0.3}
            merged = limit_risk_infinite_width(LimitSpec(r=r, moments=ms, **common))
            split_r = r[:dup] + (w * r[dup], (1.0 - w) * r[dup]) + r[dup + 1:]
            split_ms = ms[:dup] + (ms[dup], ms[dup]) + ms[dup + 1:]
            split = limit_risk_infinite_width(LimitSpec(r=split_r, moments=split_ms, **common))
            np.testing.assert_allclose(split, merged, rtol=1e-14)

    def test_finite_psi_converges_to_limit(self):
        """The K=2 risk at huge equal widths approaches the limit value.

        Extreme widths make H genuinely ill-conditioned; the conditioning
        warning is expected and the solve still carries the digits needed
        for the asserted tolerance.
        """
        ms = (Moments(0.0, 0.8, 0.5), Moments(0.0, 0.3, 1.2))
        ls = LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms, F1=1.0, tau=0.5)
        lim = limit_risk_infinite_width(ls)
        errs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            for psi in (1e2, 1e4):
                spec = TheorySpec(
                    psi=(psi, psi), psi_n=2.0, moments=ms, lam=1e-2, F1=1.0, tau=0.5
                )
                errs.append(abs(asymptotic_risk(spec).risk - lim) / lim)
        assert errs[1] < errs[0] < 1e-1
        assert errs[1] < 1e-3

    def test_finite_psi_converges_to_limit_k3(self):
        """A K=3 risk at widths t r_c approaches the limit as t grows."""
        ms = (Moments(0.0, 0.8, 0.5), Moments(0.0, 0.3, 1.2), Moments(0.2, 1.1, 0.1))
        r = (1.0, 0.5, 2.0)
        lim = limit_risk_infinite_width(LimitSpec(r=r, psi_n=2.0, moments=ms, F1=1.0, tau=0.5))
        errs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            for t in (1e2, 1e4):
                spec = TheorySpec(
                    psi=tuple(t * x for x in r), psi_n=2.0, moments=ms, lam=1e-2, F1=1.0, tau=0.5
                )
                errs.append(abs(asymptotic_risk(spec).risk - lim) / lim)
        assert errs[1] < errs[0] < 1e-1
        assert errs[1] < 1e-3

    def test_zero_width(self):
        spec = TheorySpec(
            psi=(1.0,), psi_n=2.0, moments=(Moments(0, 1, 0.5),), lam=0.1, F1=1.7
        )
        np.testing.assert_allclose(limit_risk_zero_width(spec), 1.7 ** 2, rtol=0)

    def test_tiny_widths_approach_zero_width_limit(self):
        ms = (Moments(0.0, 0.8, 0.5), Moments(0.0, 0.3, 1.2))
        spec = TheorySpec(
            psi=(1e-9, 1e-9), psi_n=2.0, moments=ms, lam=1e-2, F1=1.4, tau=0.3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            risk = asymptotic_risk(spec).risk
        np.testing.assert_allclose(risk, limit_risk_zero_width(spec), rtol=1e-6)


class TestErrorPaths:
    def test_degenerate_b(self):
        """A zero scale fails its point with ``DegenerateB`` in the oracle and
        in the risk core; no solve returns one, so the core is driven directly."""
        spec = TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0.5),), lam=1.0)
        b = np.array([[0.0, 1.0]])
        with pytest.raises(DegenerateB):
            build_matrices(spec, NuStar(b=b[0], residual=0.0, iterations=0))
        errors = {}
        risk, _, _, L = _score(*_stack_coeffs([spec])[:3], b, np.ones(1), np.zeros(1), errors)
        assert list(errors) == [0] and isinstance(errors[0], DegenerateB)
        assert np.isnan(risk[0]) and np.isnan(L[0]).all()

    def test_wrong_k(self):
        spec = TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0.5),), lam=1.0)
        nu = solve_nu(spec)
        with pytest.raises(WrongK, match="K=2"):
            explicit_risk_k2(spec, nu)

    def test_degenerate_s_is_arithmetic_error(self):
        # S > 0 whenever the scales solve the system with positive psi, so
        # the guard is unreachable from valid solver output; the class
        # contract is what other layers rely on.
        assert issubclass(DegenerateS, ArithmeticError)

    def test_ill_conditioned_warning(self):
        spec = TheorySpec(
            psi=(1.0, 1.0),
            psi_n=2.0,
            moments=(Moments(0, 1e4, 1e8), Moments(0, 1e-4, 1e-8)),
            lam=1e-6,
        )
        with pytest.warns(IllConditionedWarning):
            asymptotic_risk(spec)

    def test_stack_isolates_a_singular_h(self):
        """One exactly singular H in a stack fails its own point alone; the
        other points equal their single-point evaluations."""
        good = TheorySpec(
            psi=(1.0, 2.0), psi_n=1.5, moments=(Moments(0, 0.8, 0.5), Moments(0, 0.3, 1.2)),
            lam=1e-3, tau=0.2,
        )
        # Zero moments make H diagonal, and at b_c = 1e154 its entries
        # psi_c / b_c^2 underflow to zero.  No solve returns such scales,
        # so the risk core is driven directly with the solved good ones.
        flat = TheorySpec(psi=(1e-20, 1e-20), psi_n=1.5, moments=(Moments(0, 0, 0),) * 2, lam=1e-3)
        degenerate = np.array([1e154, 1e154, 1.0])
        direct = asymptotic_risk(good)
        specs = [good, flat, good]
        errors = {}
        with pytest.warns(IllConditionedWarning, match="cond\\(H\\) = inf"):
            risk, bias, variance, _ = _score(
                *_stack_coeffs(specs)[:3], np.array([direct.nu.b, degenerate, direct.nu.b]),
                np.array([s.F1 ** 2 for s in specs]), np.array([s.tau ** 2 for s in specs]), errors,
            )
        assert list(errors) == [1] and isinstance(errors[1], np.linalg.LinAlgError)
        for i in (0, 2):
            assert (risk[i], bias[i], variance[i]) == (direct.risk, direct.bias, direct.variance)
        errors = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            _score(*_stack_coeffs([flat])[:3], degenerate[None], np.ones(1), np.zeros(1), errors)
        assert isinstance(errors[0], np.linalg.LinAlgError)

    def test_limit_needs_coupling(self):
        ms = (Moments(0.0, 1.0, 0.0), Moments(0.0, 1.0, 0.0))
        with pytest.raises(DegenerateMoments):
            limit_risk_infinite_width(LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms))

    def test_limit_spec_validation(self):
        ms = (Moments(0, 1, 1), Moments(0, 1, 1))
        with pytest.raises(ValueError):
            LimitSpec(r=(0.0, 1.0), psi_n=2.0, moments=ms)
        with pytest.raises(ValueError):
            LimitSpec(r=(1.0, 1.0), psi_n=-1.0, moments=ms)
        with pytest.raises(ValueError):
            LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=(Moments(0, 1, 1),))
        with pytest.raises(InvalidSpec, match="at least one"):
            LimitSpec(r=(), psi_n=2.0, moments=())
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidSpec, match="r entries"):
                LimitSpec(r=(1.0, bad), psi_n=2.0, moments=ms)
            with pytest.raises(InvalidSpec, match="psi_n"):
                LimitSpec(r=(1.0, 1.0), psi_n=bad, moments=ms)
            with pytest.raises(InvalidSpec, match="F1 and tau"):
                LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms, F1=bad)
            with pytest.raises(InvalidSpec, match="F1 and tau"):
                LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms, tau=bad)
        with pytest.raises(InvalidSpec, match="F1 and tau"):
            LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms, F1=-1.0)
        with pytest.raises(InvalidSpec, match="F1 and tau"):
            LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms, tau=-0.5)
