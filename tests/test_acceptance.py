"""Acceptance gate: twelve numbered end-to-end criteria.

Each test prints (and registers with the ``acceptance_report`` fixture) one
``criterion NN [PASS|FAIL]`` line before asserting, so a full run always
shows the complete scorecard in the terminal summary.  All oracle values are
closed forms derived independently of the library: Gaussian moment integrals
in elementary functions, golden polynomial roots of the K=1 self-consistent
system, the equal-ratio width limit (sqrt(2)-1)/2, and direct normal-equation
solves for the ridge checks.
"""

import io
import json
import math

import numpy as np
import pytest
import scipy.linalg

from multidescent import (
    ActivationSpec,
    EmpiricalConfig,
    LimitSpec,
    Moments,
    SweepSpec,
    TheorySpec,
    asymptotic_risk,
    compute_moments,
    limit_risk_infinite_width,
    parse_config,
    ridge_fit,
    run_experiment,
    run_sweep,
    theory_spec_from_empirical,
)
from multidescent.cli import ExitStatus, dispatch
from oracles import explicit_risk_k2, verify_complex

GOLDEN_QUADRATIC = (math.sqrt(5.0) - 1.0) / 2.0  # root of b^2 + b - 1
GOLDEN_CUBIC = 0.6823278038280195  # real root of b^3 + b - 1
GOLDEN_LIMIT = (math.sqrt(2.0) - 1.0) / 2.0

ELU3 = ActivationSpec("elu", in_scale=3.0)
RELU_QUARTER = ActivationSpec("relu", in_scale=0.25)


def _verdict(report, num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    report.append(line)
    print(line)
    assert ok, line


def _figure_moments():
    return compute_moments(ELU3), compute_moments(RELU_QUARTER)


def _c_grid(start, stop, step=0.05):
    count = int(round((stop - start) / step)) + 1
    return tuple(start + step * i for i in range(count))


def _theory_curve(moments, ratios, c_grid, lam, psi_n=10.0 / 3.0):
    base = TheorySpec(psi=ratios, psi_n=psi_n, moments=moments, lam=lam, F1=1.0, tau=0.1)
    result = run_sweep(SweepSpec(base=base, c_grid=c_grid))
    risks = result.theory_risk
    assert np.all(np.isfinite(risks))
    return np.asarray(c_grid), risks


def _interior_maxima(c, risks):
    hits = [
        i
        for i in range(1, len(risks) - 1)
        if risks[i] > risks[i - 1] and risks[i] > risks[i + 1]
    ]
    return [float(c[i]) for i in hits]


def _risk_at(c, risks, value):
    return float(risks[int(np.argmin(np.abs(c - value)))])


def test_criterion_01_moment_goldens(acceptance_report):
    mu0 = 1.0 / math.sqrt(2.0 * math.pi)
    mu2_sq = 0.25 - 1.0 / (2.0 * math.pi)
    relu = compute_moments(ActivationSpec("relu"))
    step = compute_moments(ActivationSpec("step"))
    errs = [
        abs(relu.mu0 - mu0),
        abs(relu.mu1 - 0.5),
        abs(relu.mu2_sq - mu2_sq),
        abs(step.mu0 - 0.5),
        abs(step.mu1 - mu0),
        abs(step.mu2_sq - mu2_sq),
    ]
    _verdict(
        acceptance_report, 1, "relu/step moment golden values",
        max(errs) < 1e-10, f"max abs error {max(errs):.2e} (tol 1e-10)",
    )


def test_criterion_02_solver_golden_roots(acceptance_report):
    quad_spec = TheorySpec(
        psi=(1.0,), psi_n=1.0, moments=(Moments(0.0, 0.0, 1.0),), lam=1.0
    )
    cubic_spec = TheorySpec(
        psi=(1.0,), psi_n=1.0, moments=(Moments(0.0, 1.0, 0.0),), lam=1.0
    )
    quad = asymptotic_risk(quad_spec)
    cubic = asymptotic_risk(cubic_spec)
    root_err = max(
        float(np.max(np.abs(quad.b - GOLDEN_QUADRATIC))),
        float(np.max(np.abs(cubic.b - GOLDEN_CUBIC))),
    )
    complex_res = max(verify_complex(quad_spec, quad.b), verify_complex(cubic_spec, cubic.b))
    _verdict(
        acceptance_report, 2, "scale-system golden roots",
        root_err < 1e-10 and complex_res < 1e-10,
        f"root error {root_err:.2e}, complex residual {complex_res:.2e} (tol 1e-10)",
    )


def test_criterion_03_k2_oracle_equivalence(acceptance_report):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(120):
        moments = tuple(
            Moments(0.0, math.sqrt(rng.uniform(0.0, 2.0)), rng.uniform(0.0, 2.0))
            for _ in range(2)
        )
        spec = TheorySpec(
            psi=tuple(rng.uniform(0.1, 5.0, 2)),
            psi_n=rng.uniform(0.1, 5.0),
            moments=moments,
            lam=10.0 ** rng.uniform(-4.0, 0.0),
            F1=1.0,
            tau=0.3,
        )
        matrix = asymptotic_risk(spec)
        closed = explicit_risk_k2(spec, matrix.b)
        worst = max(worst, abs(matrix.risk - closed.risk) / abs(closed.risk))
    _verdict(
        acceptance_report, 3, "matrix vs closed-form risk, 120 random K=2 specs",
        worst < 1e-8, f"worst relative gap {worst:.2e} (tol 1e-8)",
    )


def test_criterion_04_merge_invariance(acceptance_report):
    rng = np.random.default_rng(54321)
    worst = 0.0
    for trial in range(60):
        base_k = 1 + trial % 3  # merged model has K in {1,2,3} -> split has {2,3,4}
        moments = [
            Moments(0.0, rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5))
            for _ in range(base_k)
        ]
        psi = rng.uniform(0.3, 4.0, base_k)
        dup = int(rng.integers(base_k))
        share = rng.uniform(0.2, 0.8)
        split_psi = list(psi)
        split_psi[dup] *= share
        split_psi.append(float(psi[dup]) * (1.0 - share))
        split_moments = moments + [moments[dup]]
        common = {"psi_n": float(rng.uniform(0.5, 4.0)),
                  "lam": float(10.0 ** rng.uniform(-3.0, 0.0)), "F1": 1.0, "tau": 0.2}
        merged = asymptotic_risk(
            TheorySpec(psi=tuple(psi), moments=tuple(moments), **common)
        )
        split = asymptotic_risk(
            TheorySpec(psi=tuple(split_psi), moments=tuple(split_moments), **common)
        )
        worst = max(worst, abs(split.risk - merged.risk) / abs(merged.risk))
    _verdict(
        acceptance_report, 4, "duplicate-component merge invariance, 60 specs",
        worst < 1e-8, f"worst relative gap {worst:.2e} (tol 1e-8)",
    )


def test_criterion_05_infinite_width_limit(acceptance_report):
    unit = Moments(0.0, 1.0, 1.0)
    limit = limit_risk_infinite_width(
        LimitSpec(r=(1.0, 1.0), psi_n=2.0, moments=(unit, unit))
    )
    spec = TheorySpec(
        psi=(1e6, 1e6), psi_n=2.0, moments=(unit, unit), lam=1e-2, F1=1.0, tau=0.0
    )
    finite = asymptotic_risk(spec).risk
    closed_err = abs(limit - GOLDEN_LIMIT)
    rel = abs(finite - limit) / limit
    _verdict(
        acceptance_report, 5, "equal-ratio width limit (sqrt(2)-1)/2",
        closed_err < 1e-10 and rel < 1e-3,
        f"closed-form error {closed_err:.2e}, finite-width relative gap {rel:.2e} (tol 1e-3)",
    )


def test_criterion_06_zero_width_limit(acceptance_report):
    moments = _figure_moments()
    spec = TheorySpec(
        psi=(1e-8, 1e-8), psi_n=10.0 / 3.0, moments=moments, lam=1e-2, F1=1.0, tau=0.0
    )
    risk = asymptotic_risk(spec).risk
    err = abs(risk - 1.0)
    _verdict(
        acceptance_report, 6, "vanishing-width risk equals F1^2",
        err < 1e-4, f"absolute gap {err:.2e} (tol 1e-4)",
    )


def test_criterion_07_triple_descent_shape(acceptance_report):
    c, risks = _theory_curve(_figure_moments(), (1.0, 1.0), _c_grid(0.2, 3.2), lam=1e-5)
    maxima = _interior_maxima(c, risks)
    near_1 = any(abs(m - 1.0) <= 0.1 + 1e-6 for m in maxima)
    near_2 = any(abs(m - 2.0) <= 0.1 + 1e-6 for m in maxima)
    bumps = (
        _risk_at(c, risks, 1.0) > _risk_at(c, risks, 0.6)
        and _risk_at(c, risks, 2.0) > _risk_at(c, risks, 1.5)
    )
    _verdict(
        acceptance_report, 7, "equal-width triple descent peaks near c=1 and c=2",
        near_1 and near_2 and bumps,
        f"interior maxima at {[round(m, 2) for m in maxima]} (tol +-0.1)",
    )


def test_criterion_08_peak_location_vs_ratio(acceptance_report):
    moments = _figure_moments()
    details = []
    ok = True
    for ratios, stop, expected in (((1.0, 2.0), 3.6, 3.0), ((2.0, 1.0), 3.2, 1.5)):
        c, risks = _theory_curve(moments, ratios, _c_grid(0.2, stop), lam=1e-5)
        maxima = _interior_maxima(c, risks)
        second = maxima[1] if len(maxima) >= 2 else math.nan
        ok = ok and abs(second - expected) <= 0.1 + 1e-6
        details.append(
            f"N1/N2={ratios[0] / ratios[1]:g}: second max at c={second:.2f} (expected {expected:g})"
        )
    _verdict(
        acceptance_report, 8, "second peak tracks 1 + N2/N1",
        ok, "; ".join(details) + " (tol +-0.1)",
    )


def test_criterion_09_multiple_descent_k3(acceptance_report):
    moments = tuple(
        compute_moments(ActivationSpec("relu", in_scale=s)) for s in (9.0, 1.0, 0.1)
    )
    c, risks = _theory_curve(moments, (1.0, 1.0, 3.0), _c_grid(0.2, 6.0), lam=1e-4)
    maxima = _interior_maxima(c, risks)
    expected = (1.0, 2.5, 5.0)
    ok = len(maxima) == 3 and all(
        abs(m - e) <= 0.15 + 1e-6 for m, e in zip(maxima, expected)
    )
    _verdict(
        acceptance_report, 9, "three-scale relu cascade peaks near c=1, 2.5, 5",
        ok,
        f"interior maxima at {[round(m, 2) for m in maxima]}, expected {list(expected)} (tol +-0.15)",
    )


def test_criterion_10_empirical_matches_theory(acceptance_report):
    d, n = 200, 600
    details = []
    ok = True
    for c in (0.5, 1.5, 3.0):
        width = int(round(c * n / 2.0))
        cfg = EmpiricalConfig(
            d=d, n=n, N=(width, width), activations=(ELU3, RELU_QUARTER),
            lam=1e-3, F0=0.2, F1=1.0, tau=0.1,
            n_test=500, replications=20, base_seed=2026,
        )
        result = run_experiment(cfg, workers=4)
        theory = asymptotic_risk(theory_spec_from_empirical(cfg)).risk
        gap = abs(result.mean - theory)
        tol = max(3.0 * result.std_error, 0.05 * theory)
        ok = ok and gap <= tol
        details.append(
            f"c={c:g}: theory {theory:.4f}, empirical {result.mean:.4f}"
            f"+-{result.std_error:.4f} (gap {gap:.4f} <= {tol:.4f})"
        )
    _verdict(
        acceptance_report, 10,
        "finite-size runs match theory at d=200 (3 std errors or 5%)",
        ok, "; ".join(details),
    )


def test_criterion_11_determinism(acceptance_report, tmp_path):
    def _sweep_cfg(workers, csv_name):
        return {
            "activations": [
                {"kind": "elu", "in_scale": 3.0},
                {"kind": "relu", "in_scale": 0.25},
            ],
            "model": {"d": 30, "n": 60, "N": [24, 36], "lambda": 0.01,
                      "F0": 0.2, "tau": 0.1},
            "empirical": {"replications": 3, "n_test": 32, "base_seed": 11,
                          "workers": workers},
            "sweep": {"c_grid": [0.5, 1.0, 1.5]},
            "output": {"csv_path": str(tmp_path / csv_name)},
        }

    def _run(cfg_dict):
        out, err = io.StringIO(), io.StringIO()
        status = dispatch("sweep", parse_config(json.dumps(cfg_dict)), out, err)
        assert status == ExitStatus.OK
        return out.getvalue()

    first = _run(_sweep_cfg(1, "a.csv"))
    second = _run(_sweep_cfg(1, "b.csv"))
    threaded = _run(_sweep_cfg(4, "c.csv"))
    files = [(tmp_path / name).read_bytes() for name in ("a.csv", "b.csv", "c.csv")]
    ok = first == second == threaded and files[0] == files[1] == files[2]
    _verdict(
        acceptance_report, 11,
        "sweep reruns byte-identical on stdout and CSV across worker counts",
        ok,
        f"stdout identical: {first == second == threaded}, "
        f"csv identical: {files[0] == files[1] == files[2]}",
    )


def test_criterion_12_ridge_correctness(acceptance_report):
    rng = np.random.default_rng(777)
    worst_grad, worst_gap = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(5, 41))
        N = int(rng.integers(1, 61))
        d = int(rng.integers(2, 31))
        lam = float(10.0 ** rng.uniform(-2.0, 1.0))
        Z = rng.normal(size=(n, N))
        y = rng.normal(size=n)
        scaled = math.sqrt(d) * ridge_fit(Z, y, lam, d)
        grad = Z.T @ (Z @ scaled) + lam * scaled - Z.T @ y
        primal = scipy.linalg.solve(Z.T @ Z + lam * np.eye(N), Z.T @ y, assume_a="pos")
        dual = Z.T @ scipy.linalg.solve(Z @ Z.T + lam * np.eye(n), y, assume_a="pos")
        worst_grad = max(worst_grad, float(np.max(np.abs(grad))))
        worst_gap = max(
            worst_gap,
            float(np.max(np.abs(primal - dual))),
            float(np.max(np.abs(scaled - primal))),
        )
    _verdict(
        acceptance_report, 12, "ridge optimality and primal/dual agreement, 50 instances",
        worst_grad <= 1e-8 and worst_gap <= 1e-10,
        f"worst gradient {worst_grad:.2e} (tol 1e-8), worst route gap {worst_gap:.2e} (tol 1e-10)",
    )
