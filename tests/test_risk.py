"""Tests for the asymptotic risk evaluation.

The two-component closed-form route (``explicit_risk_k2`` in
``oracles.py``) and the general matrix route share no code beyond the solved scales, so agreement between
them is the core oracle.  General K is then tied back to K=2 through the
exact block-merge identity (identical activations split across components
leave the risk unchanged), and the width limits are pinned by hand-derived
closed-form values.  The risk is scored through the Newton matrix S, the
Hessian of a convex potential; the framework matrix H (``build_matrices``
in ``oracles.py``) ties it to the printed formulas.
"""

import inspect
import math
import re
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import (
    IllConditionedWarning,
    InvalidSpec,
    LimitSpec,
    Moments,
    SolveFailure,
    SweepSpec,
    TheorySpec,
    asymptotic_risk,
    limit_risk_infinite_width,
    run_sweep,
)
from multidescent.risk import _score, _start, _theory
from oracles import (
    K,
    DegenerateS,
    WrongK,
    box_spec,
    build_matrices,
    explicit_risk_k2,
    mp_limit_risk,
    mp_risk,
    peak_risk,
    peak_spec,
    potential,
    psi_full,
)


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


def _risks(specs) -> list:
    return [asymptotic_risk(spec).risk for spec in specs]


# A spec whose framework matrix H has cond(H) = 2.1e28 while the Newton
# matrix S has cond(S) = 6.4 and its scales' estimated error is 4.5e-16; its
# risk to 30 digits, from a 60-digit mpmath solve and H-route evaluation
# (checked against the K=2 closed form).
STIFF_H = TheorySpec(
    psi=(1.0, 1.0),
    psi_n=2.0,
    moments=(Moments(0, 1e4, 1e8), Moments(0, 1e-4, 1e-8)),
    lam=1e-6,
)
STIFF_H_RISK = 1.21941395322410571871728146676

# The figure model at its interpolation peak (``oracles.peak_spec``): its risk
# to 30 digits at each ridge, from ``oracles.peak_risk`` (80 digits), and the
# relative error the package must stay within there.  The scales' estimated
# error is 2.4e-9 at lambda = 1e-16 and grows as 1/lambda.
PEAK_RISKS = {
    1e-16: ("1162528.82538488814881273367755", 1e-14),
    1e-20: ("116252872.070508753721112398146", 1e-12),
    1e-24: ("11625287196.5828960129609918899", 1e-8),
    1e-28: ("1162528719647.82159418936140597", 1e-4),
}

# The same model just past its peak, at c = 1.01, where the risk errs to first
# order in its scales: its risk to 30 digits at two ridges, from
# ``oracles.peak_risk`` (80 digits).
FIRST_ORDER_RISKS = {
    1e-20: "10.7653694725606668383824227860",
    1e-28: "10.7653694725607117177723572460",
}


def _estimate(caught) -> float:
    """The estimated relative error e that one ``IllConditionedWarning`` reads."""
    return float(re.match(r"^estimated relative error (\S+) of the scales", str(caught.message))[1])


class TestRiskProperties:
    """Property battery over the box of ``_box_specs``."""

    @_battery
    @given(spec=_box_specs(), data=st.data())
    def test_block_permutation_invariance(self, spec, data):
        perm = data.draw(st.permutations(range(K(spec))))
        permuted = TheorySpec(
            psi=tuple(spec.psi[i] for i in perm), psi_n=spec.psi_n,
            moments=tuple(spec.moments[i] for i in perm), lam=spec.lam, tau=spec.tau,
        )
        risk, risk_p = _risks([spec, permuted])
        np.testing.assert_allclose(risk_p, risk, rtol=1e-10)

    @_battery
    @given(spec=_box_specs())
    def test_risk_nonnegative(self, spec):
        (risk,) = _risks([spec])
        assert risk >= 0.0

    @_battery
    @given(spec=_box_specs(), extra=st.floats(0.0, 1.0))
    def test_risk_nondecreasing_in_tau(self, spec, extra):
        louder = TheorySpec(psi=spec.psi, psi_n=spec.psi_n, moments=spec.moments,
                            lam=spec.lam, tau=spec.tau + extra)
        risk, risk_louder = _risks([spec, louder])
        assert risk_louder >= risk * (1.0 - 1e-12)

    @_battery
    @given(spec=_box_specs())
    def test_L_negative_semidefinite(self, spec):
        """L is the Hessian, in four linear tilts of the potential, of its
        minimum, so it is negative semidefinite."""
        out = asymptotic_risk(spec)
        eig = np.linalg.eigvalsh((out.L + out.L.T) / 2.0)
        assert eig[-1] <= 1e-12 * np.abs(eig).max()

    @_battery
    @given(spec=_box_specs(), seed=st.integers(0, 2**32 - 1))
    def test_root_minimises_the_potential(self, spec, seed):
        """No small random move of log b away from the solved root lowers Phi."""
        u = np.log(asymptotic_risk(spec).b)
        phi = potential(spec, u)
        rng = np.random.default_rng(seed)
        for scale in (1e-2, 1e-3):
            for _ in range(5):
                assert potential(spec, u + scale * rng.standard_normal(len(u))) > phi


class TestMatrixAssembly:
    def test_hand_built_k1(self):
        """Elementwise H and V for K=1 with hand-picked scales."""
        m = Moments(mu0=0.2, mu1=0.8, mu2_sq=0.5)
        spec = TheorySpec(psi=(1.5,), psi_n=2.0, moments=(m,), lam=0.04)
        b1, bn = 0.7, 1.1
        mats = build_matrices(spec, np.array([b1, bn]))

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
        mats = build_matrices(spec, b)
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
        mats = build_matrices(spec, asymptotic_risk(spec).b)
        np.testing.assert_allclose(mats.H, mats.H.T, rtol=0, atol=0)

    def test_constant_features_structure(self):
        """With mu1 = mu2 = 0 the features are constants: V couples only
        through the sample row and the risk collapses to F1^2."""
        m = Moments(mu0=0.7, mu1=0.0, mu2_sq=0.0)
        spec = TheorySpec(
            psi=(1.0, 2.0), psi_n=1.5, moments=(m, m), lam=0.1, F1=1.3, tau=0.5
        )
        out = asymptotic_risk(spec)
        np.testing.assert_allclose(out.b, np.array(psi_full(spec)) / math.sqrt(0.1))
        mats = build_matrices(spec, out.b)
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
            via_forms = explicit_risk_k2(spec, via_matrix.b)
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
        b = asymptotic_risk(split).b
        np.testing.assert_allclose(
            explicit_risk_k2(split, b).risk, asymptotic_risk(merged).risk, rtol=1e-9
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
        degenerate-moments InvalidSpec."""
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
        """The K=2 risk at huge equal widths approaches the limit value."""
        ms = (Moments(0.0, 0.8, 0.5), Moments(0.0, 0.3, 1.2))
        ls = LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms, F1=1.0, tau=0.5)
        lim = limit_risk_infinite_width(ls)
        errs = []
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
        for t in (1e2, 1e4):
            spec = TheorySpec(
                psi=tuple(t * x for x in r), psi_n=2.0, moments=ms, lam=1e-2, F1=1.0, tau=0.5
            )
            errs.append(abs(asymptotic_risk(spec).risk - lim) / lim)
        assert errs[1] < errs[0] < 1e-1
        assert errs[1] < 1e-3

    @pytest.mark.parametrize("psi_n", [1e-300, 1e-12, 0.5, 2.0, 1e12, 1e300, 1.7e308])
    def test_extreme_sample_ratios_match_mpmath(self, psi_n):
        """From psi_n = 1e-300 to the float range, the limit is finite, raises
        no numpy warning and matches its printed formula evaluated in mpmath,
        where the float form of that formula overflows or cancels."""
        ms = (Moments(0.3, 0.9, 0.5), Moments(0.1, 0.4, 1.1))
        for F1, tau in ((1.2, 0.4), (0.0, 1.0)):
            ls = LimitSpec(r=(1.0, 2.0), psi_n=psi_n, moments=ms, F1=F1, tau=tau)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                risk = limit_risk_infinite_width(ls)
            assert risk == pytest.approx(float(mp_limit_risk(ls)), rel=1e-14, abs=0.0)

    def test_tiny_widths_approach_zero_width_limit(self):
        ms = (Moments(0.0, 0.8, 0.5), Moments(0.0, 0.3, 1.2))
        spec = TheorySpec(
            psi=(1e-9, 1e-9), psi_n=2.0, moments=ms, lam=1e-2, F1=1.4, tau=0.3
        )
        risk = asymptotic_risk(spec).risk
        np.testing.assert_allclose(risk, spec.F1 ** 2, rtol=1e-6)


class TestPeakAccuracy:
    @pytest.mark.parametrize("lam", list(PEAK_RISKS))
    def test_risk_at_a_vanishing_ridge(self, lam):
        """At the peak the risk keeps its digits as the ridge vanishes, to the
        bound of each ridge; only lambda = 1e-28, where the scales' estimated
        error is 2.4e-3, warns."""
        reference, bound = PEAK_RISKS[lam]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            risk = asymptotic_risk(peak_spec(lam)).risk
        assert abs(risk / float(reference) - 1.0) <= bound
        messages = [f"{w.category.__name__}: {w.message}" for w in caught]
        if lam == 1e-28:
            assert len(messages) == 1
            assert re.match(r"^IllConditionedWarning: estimated relative error 2\.4\d\de-03 of the scales "
                            r"exceeds 1e-04; risk may be inaccurate$", messages[0])
        else:
            assert messages == []

    @pytest.mark.parametrize("lam", list(FIRST_ORDER_RISKS))
    def test_first_order_error_within_the_estimate(self, lam, monkeypatch):
        """Past the peak the risk errs by at most twice its scales' estimated
        error e, which is far below the threshold: no warning."""
        spec = peak_spec(lam, c=1.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk = asymptotic_risk(spec).risk
        monkeypatch.setattr("multidescent.risk._ERR_WARN", 0.0)
        with pytest.warns(IllConditionedWarning) as caught:
            asymptotic_risk(spec)
        assert abs(risk / float(FIRST_ORDER_RISKS[lam]) - 1.0) <= 2.0 * _estimate(caught[0])

    @pytest.mark.parametrize("index", [413, 1601, 1714])
    def test_risk_near_zero_keeps_its_digits(self, index):
        """Specs of ``box_spec(..., lam_exp=(-30, 0), k_max=4)`` at lambda from
        8.2e-28 to 8.1e-25 whose risk is 1e-61 to 1e-69 of F1^2: the closed
        form weighs its outer products by P, C, Q >= 0, so the risk keeps its
        digits against ``mp_risk`` at 90 digits rather than reading negative."""
        spec = box_spec(np.random.default_rng([0, index]), lam_exp=(-30.0, 0.0), k_max=4)
        ref = mp_risk(spec.psi, spec.psi_n, [m.mu1 ** 2 for m in spec.moments],
                      [m.mu2_sq for m in spec.moments], spec.lam, spec.F1, spec.tau, dps=90)
        assert asymptotic_risk(spec).risk == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    def test_references_generator(self):
        """``oracles.peak_risk`` reproduces PEAK_RISKS and FIRST_ORDER_RISKS
        to their 30 digits, and converges at 90 digits where the decrease of
        the potential near its root falls below its resolution.  Each ratio
        is formed at more digits than it is checked to."""
        with mp.workdps(40):
            for lam, (reference, _) in PEAK_RISKS.items():
                assert abs(peak_risk(lam) / mp.mpf(reference) - 1) < mp.mpf(10) ** -28
            for lam, reference in FIRST_ORDER_RISKS.items():
                assert abs(peak_risk(lam, c=1.01) / mp.mpf(reference) - 1) < mp.mpf(10) ** -28
        with mp.workdps(90):
            for lam, c in ((1e-16, 0.9), (1e-28, 1.1)):
                assert abs(peak_risk(lam, c, dps=90) / peak_risk(lam, c) - 1) < mp.mpf(10) ** -75


class TestColdStart:
    """The closed-form start b_n of ``_start``."""

    def test_finite_and_positive_over_the_box(self):
        """Across the harsh box, and with every block's moments set to zero
        (a = 0, where the start is psi_n / sqrt(lam)), the start is finite
        and > 0."""
        for i in range(1000):
            spec = box_spec(np.random.default_rng([22, i]), lam_exp=(-33.0, 3.0), k_max=8)
            bare = replace(spec, moments=(Moments(0.0, 0.0, 0.0),) * K(spec))
            for s in (spec, bare):
                (bn,) = _start(s, np.array([s.psi]))
                assert math.isfinite(bn) and bn > 0.0, i
            assert bn == pytest.approx(spec.psi_n / math.sqrt(spec.lam), rel=1e-15, abs=0.0), i

    @pytest.mark.parametrize("c", [0.5, 0.9, 1.0, 1.2, 2.0, 5.0])
    def test_ridgeless_limits(self, c):
        """At lambda = 1e-30 the start meets the lambda -> 0+ limits, with
        P = sum_c psi_c: sqrt(lam) b_n -> psi_n - P for c < 1, which the
        solved b_n meets as well; b_n / sqrt(lam) -> psi_n / ((P - psi_n) a)
        for c > 1, a = sum_c psi_c (m2_c + m1_c / 2) / P; and at c = 1 it
        is finite and > 0."""
        moments = (Moments(0.0, 0.9, 0.5), Moments(0.0, 0.4, 1.1))
        spec = TheorySpec(psi=(c, 3.0 * c), psi_n=4.0, moments=moments, lam=1e-30)
        (bn,) = _start(spec, np.array([spec.psi]))
        total, root = sum(spec.psi), math.sqrt(spec.lam)
        if c < 1.0:
            assert root * bn == pytest.approx(spec.psi_n - total, rel=1e-12, abs=0.0)
            assert root * asymptotic_risk(spec).b[-1] == pytest.approx(spec.psi_n - total, rel=1e-12, abs=0.0)
        elif c > 1.0:
            a = sum(p * (m.mu2_sq + 0.5 * m.mu1 ** 2) for p, m in zip(spec.psi, moments)) / total
            assert bn / root == pytest.approx(spec.psi_n / ((total - spec.psi_n) * a), rel=1e-12, abs=0.0)
        else:
            assert math.isfinite(bn) and bn > 0.0


class TestErrorPaths:
    # A well-posed K = 2 point that the risk core is driven at directly.
    GOOD = TheorySpec(psi=(1.0, 2.0), psi_n=1.5, moments=(Moments(0, 0.8, 0.5), Moments(0, 0.3, 1.2)),
                      lam=1e-3, tau=0.2)

    def test_degenerate_b(self):
        """A zero scale zeroes its row and column of S, so the risk core fails
        its point with ``SolveFailure`` and NaN, and no warning, and the oracle
        refuses it; no solve returns one, so the core is driven directly."""
        spec = TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0.5),), lam=1.0)
        b = np.array([[0.0, 1.0]])
        with pytest.raises(ValueError, match="nonzero"):
            build_matrices(spec, b[0])
        errors = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk, _, _, L, _ = _score(spec, b, errors)
        assert list(errors) == [0] and isinstance(errors[0], SolveFailure)
        assert np.isnan(risk[0]) and np.isnan(L[0]).all()

    def test_wrong_k(self):
        spec = TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0.5),), lam=1.0)
        with pytest.raises(WrongK, match="K=2"):
            explicit_risk_k2(spec, asymptotic_risk(spec).b)

    def test_degenerate_s_is_arithmetic_error(self):
        # S > 0 whenever the scales solve the system with positive psi, so
        # the guard is unreachable from valid solver output; the class
        # contract is what other layers rely on.
        assert issubclass(DegenerateS, ArithmeticError)

    def test_ill_conditioned_warning(self, monkeypatch):
        """The warning reads the scales' estimated error, not cond(H): the
        stiff-H spec scores without a warning and matches its 60-digit risk,
        and it warns once the threshold drops below its estimate."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedWarning)
            out = asymptotic_risk(STIFF_H)
        np.testing.assert_allclose(out.risk, STIFF_H_RISK, rtol=1e-14)
        assert np.linalg.cond(build_matrices(STIFF_H, out.b).H) > 1e28
        monkeypatch.setattr("multidescent.risk._ERR_WARN", 4e-16)
        with pytest.warns(IllConditionedWarning, match=r"^estimated relative error 4\.4\d\de-16 of the scales "
                                                       r"exceeds 4e-16; risk may be inaccurate$"):
            asymptotic_risk(STIFF_H)
        monkeypatch.setattr("multidescent.risk._ERR_WARN", 5e-16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedWarning)
            asymptotic_risk(STIFF_H)

    def test_warning_names_the_callers_line(self, monkeypatch):
        """Each public entry point warns at the line that called it."""
        monkeypatch.setattr("multidescent.risk._ERR_WARN", 0.0)
        sweep = SweepSpec(base=STIFF_H, c_grid=(0.5, 0.6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno
            asymptotic_risk(STIFF_H)
            run_sweep(sweep)
        assert all(w.category is IllConditionedWarning for w in caught)
        assert [(w.filename, w.lineno) for w in caught] == [
            (__file__, line + n) for n in (1, 2, 2)]

    def test_stack_isolates_a_singular_s(self):
        """One exactly singular S in a stack fails its own point alone, with
        no warning; the other points equal their single-point evaluations."""
        # Each pivot of S carries a factor b_j, so at scales b_j = 5e-324
        # every pivot underflows to zero.  No solve returns such scales, so
        # the risk core is driven directly, with the solved scales of
        # ``self.GOOD`` at the other points.
        degenerate = np.full(3, 5e-324)
        direct = asymptotic_risk(self.GOOD)
        errors = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk, bias, variance, *_ = _score(self.GOOD, np.array([direct.b, degenerate, direct.b]), errors)
        assert list(errors) == [1] and isinstance(errors[1], SolveFailure)
        for i in (0, 2):
            assert (risk[i], bias[i], variance[i]) == (direct.risk, direct.bias, direct.variance)
        errors = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _score(self.GOOD, degenerate[None], errors)
        assert isinstance(errors[0], SolveFailure)

    def test_score_leaves_known_failures_alone(self):
        """A point that failed in the solve reaches the risk core with NaN
        scales and its exception: it reads NaN and is neither diagnosed again
        nor warned about, while a singular point in the same stack still
        fails and a self.GOOD one equals its single-point evaluation."""
        direct = asymptotic_risk(self.GOOD)
        known = SolveFailure("residual nan > tol 1.0e-12 after 0 Newton steps", residual=math.nan,
                             iterations=0)
        errors = {0: known}
        b = np.array([np.full(3, np.nan), np.full(3, 5e-324), direct.b])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk, bias, variance, L, _ = _score(self.GOOD, b, errors)
        assert list(errors) == [0, 1] and errors[0] is known
        assert str(known) == "residual nan > tol 1.0e-12 after 0 Newton steps" and known.iterations == 0
        assert isinstance(errors[1], SolveFailure)
        for i in (0, 1):
            assert np.isnan([risk[i], bias[i], variance[i]]).all() and np.isnan(L[i]).all()
        assert (risk[2], bias[2], variance[2]) == (direct.risk, direct.bias, direct.variance)
        np.testing.assert_array_equal(L[2], direct.L)

    def test_score_carries_a_complex_step(self):
        """A complex ``b`` keeps its imaginary part through the risk core:
        the complex-step dR/d log b_j (step 1e-30) at ``GOOD``'s root
        matches a central difference to 1e-7 relative for every j, with no
        ``ComplexWarning``."""
        b = asymptotic_risk(self.GOOD).b
        for j in range(len(b)):
            unit = np.eye(len(b))[j]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                derivative = _score(self.GOOD, (b * np.exp(1e-30j * unit))[None], {})[0][0].imag / 1e-30
            up, down = (_score(self.GOOD, (b * np.exp(h * unit))[None], {})[0][0] for h in (1e-5, -1e-5))
            assert derivative == pytest.approx((up - down) / 2e-5, rel=1e-7, abs=0.0)

    def test_one_point_solves_equal_their_stack_row(self):
        """At every K up to 8, a point solved alone equals its row of a
        nine-point stack in every output and error text: 300 specs of the
        box down to lambda = 1e-30, each stacked over its widths scaled by
        10**linspace(-2, 2, 9), whose middle row is its own widths."""
        scale = 10.0 ** np.linspace(-2.0, 2.0, 9)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            for i in range(300):
                spec = box_spec(np.random.default_rng([5, i]), lam_exp=(-30.0, 0.0), k_max=8)
                *stack, errors = _theory(spec, np.array(spec.psi) * scale)
                *alone, alone_errors = _theory(spec, np.array([spec.psi]))
                for a, b in zip(stack, alone):
                    np.testing.assert_array_equal(a[4], b[0])
                assert [(type(e), str(e)) for e in alone_errors.values()] == (
                    [(type(errors[4]), str(errors[4]))] if 4 in errors else [])

    def test_stack_rows_equal_single_point_solves(self, monkeypatch):
        """Every row of a stack equals its widths solved alone, in every
        output: fast points far from the peak, slower ones near c = 1 at a
        tiny lambda, one whose block scale lies below the float range (it
        fails before its first step), one whose residual is not finite, one
        whose Newton determinant overflows, one whose risk overflows, a wide
        linear block whose capped steps are lengthened and whose full steps
        cross a valley (it converges, with an ill-conditioned root), and a
        wider linear block beside a narrow one, (0.01, 1e44), which needs 11
        steps and so hits a step cap of 10.  A point that has left the solve
        keeps its values while the others iterate."""
        base = TheorySpec(psi=(1.0, 1.0), psi_n=2.0, moments=(Moments(0, 0.8, 0.5), Moments(0, 1.0, 0.0)),
                          lam=1e-24)
        psi = np.array([(1e-3, 1e-3), (0.3, 0.3), (0.999, 0.999), (1e-320, 1.0), (1.0, 1.0), (3.0, 3.0),
                        (1e150, 1e150), (1e300, 1e300), (1e290, 1e290), (1.0, 1e40), (0.01, 1e44)])
        monkeypatch.setattr("multidescent.risk._MAX_ITER", 10)
        with pytest.warns(IllConditionedWarning) as caught:
            *stack, errors = _theory(base, psi)
        assert len(caught) == 1 and 1e-4 < _estimate(caught[0]) < 1e-3
        steps = stack[6]
        assert max(steps[[0, 1, 5]]) < steps[2] < 10 and steps[10] == 10 and steps[[3, 7, 8]].max() == 0
        assert steps[4] < 10 and steps[9] < 10
        assert {i: type(e) for i, e in errors.items()} == {
            3: SolveFailure, 6: InvalidSpec, 7: SolveFailure, 8: InvalidSpec, 10: SolveFailure}
        for i in range(len(psi)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                *alone, alone_errors = _theory(base, psi[i:i + 1])
            for a, b in zip(stack, alone):
                np.testing.assert_array_equal(a[i], b[0])
            assert [(type(e), str(e)) for e in alone_errors.values()] == (
                [(type(errors[i]), str(errors[i]))] if i in errors else [])

    def test_limit_needs_coupling(self):
        ms = (Moments(0.0, 1.0, 0.0), Moments(0.0, 1.0, 0.0))
        with pytest.raises(InvalidSpec, match=r"^need sum_c r_c mu_\{c,1\}\^2 > 0 and .* for the width limit$"):
            limit_risk_infinite_width(LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=ms))

    def test_squares_of_F1_and_tau_must_be_finite(self):
        """The risk weighs F1^2 and tau^2, so a finite F1 or tau whose square
        overflows is refused by name, not left to overflow mid-formula."""
        ms = (Moments(0, 1, 1),)
        for bad in ({"F1": 1e300}, {"tau": 1e160}):
            with pytest.raises(InvalidSpec, match=r"^F1\^2 and tau\^2 must be finite$"):
                TheorySpec(psi=(1.0,), psi_n=2.0, moments=ms, lam=0.1, **bad)
            with pytest.raises(InvalidSpec, match=r"^F1\^2 and tau\^2 must be finite$"):
                LimitSpec(r=(1.0,), psi_n=2.0, moments=ms, **bad)
        big = TheorySpec(psi=(1.0,), psi_n=2.0, moments=ms, lam=0.1, F1=1e150, tau=1e150)
        assert math.isfinite(asymptotic_risk(big).risk)

    def test_root_whose_matrices_overflow_fails_quietly(self):
        """Widths of 1e307 at psi_n = 2 and lambda = 1 have a root, with b_n
        near the smallest normal float, whose score overflows (mN^2 in V):
        the point fails with ``InvalidSpec`` and no warning at all, not even
        an ``IllConditionedWarning`` for a risk it does not return."""
        spec = TheorySpec(psi=(1e307, 1e307), psi_n=2.0, lam=1.0,
                          moments=(Moments(0.0, 0.9, 0.5), Moments(0.0, 0.4, 1.1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpec, match="^risk overflows: "):
                asymptotic_risk(spec)

    def test_limit_whose_root_overflows_is_refused(self):
        """A root chi beyond the float range is refused by name rather than
        read as a risk of 0."""
        ls = LimitSpec(r=(1.0,), psi_n=1e300, moments=(Moments(0.0, 1e150, 1e-150),), tau=1.0)
        with pytest.raises(InvalidSpec, match=r"^the width limit overflows at psi_n=1\.000e\+300$"):
            limit_risk_infinite_width(ls)

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
        for bad in ({"F1": math.nan}, {"F1": math.inf}, {"tau": math.nan}, {"F0": math.nan}, {"F0": -math.inf}):
            with pytest.raises(InvalidSpec):
                TheorySpec(psi=(1.0,), psi_n=1.0, moments=(Moments(0, 1, 0),), lam=1.0, **bad)

    def test_properties(self):
        spec = TheorySpec(
            psi=(1.0, 2.0),
            psi_n=3.0,
            moments=(Moments(0, 1, 0), Moments(0, 0, 1)),
            lam=1.0,
        )
        assert K(spec) == 2
        assert psi_full(spec) == (1.0, 2.0, 3.0)

