"""Tests for the complexity-sweep engine and its CSV/SVG artifacts.

Grid expansion is pinned by hand-computed width splits, the theory columns
are checked against direct single-point evaluation (so warm starting is
purely an accelerator), and the emitted artifacts are re-parsed with the
standard csv and xml libraries rather than string-matched.
"""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import multidescent
from multidescent import (
    EmpiricalTemplate,
    EmptyGrid,
    ActivationSpec,
    InvalidSpec,
    Moments,
    SolverConfig,
    SweepSpec,
    TheorySpec,
    asymptotic_risk,
    csv_header,
    csv_text,
    expand_grid,
    format_number,
    render_svg,
    run_sweep,
    write_csv,
)

MOMENTS_K2 = (Moments(0.3, 0.9, 0.5), Moments(0.1, 0.4, 1.1))


def _base(psi=(1.0, 1.0), **kw) -> TheorySpec:
    args = dict(psi=psi, psi_n=10.0 / 3.0, moments=MOMENTS_K2, lam=1e-3, F1=1.0, tau=0.1)
    args.update(kw)
    return TheorySpec(**args)


class TestExpandGrid:
    def test_equal_ratio_widths(self):
        """psi_c = ratio_c * c * psi_n / sum(ratios), here just c*psi_n/2."""
        spec = SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(0.6, 1.0, 2.0))
        points = expand_grid(spec)
        assert [p.c for p in points] == [0.6, 1.0, 2.0]
        np.testing.assert_allclose(points[0].theory.psi, (1.0, 1.0), rtol=1e-15)
        np.testing.assert_allclose(points[1].theory.psi, (5.0 / 3.0, 5.0 / 3.0), rtol=1e-15)
        np.testing.assert_allclose(points[2].theory.psi, (10.0 / 3.0, 10.0 / 3.0), rtol=1e-15)
        for p in points:
            assert p.theory.psi_n == spec.base.psi_n
            assert p.theory.lam == spec.base.lam
            assert p.theory.moments == spec.base.moments
            assert p.empirical is None and not p.n_clamped

    def test_feature_counts(self):
        """Counts split the budget c*n by the ratios and round to integers."""
        tpl = EmpiricalTemplate(
            activations=(ActivationSpec("elu"), ActivationSpec("relu")),
            d=300,
            n=1000,
        )
        spec = SweepSpec(
            base=_base(), ratios=(1.0, 2.0), c_grid=(1.5,), empirical=tpl
        )
        (point,) = expand_grid(spec)
        assert point.empirical.N == (500, 1000)
        assert point.empirical.d == 300 and point.empirical.n == 1000
        assert point.empirical.lam == spec.base.lam
        assert (point.empirical.F0, point.empirical.F1, point.empirical.tau) == (
            spec.base.F0,
            spec.base.F1,
            spec.base.tau,
        )

    def test_count_clamping(self):
        tpl = EmpiricalTemplate(
            activations=(ActivationSpec("elu"), ActivationSpec("relu")),
            d=50,
            n=100,
        )
        spec = SweepSpec(
            base=_base(), ratios=(1.0, 1.0), c_grid=(0.001, 1.0), empirical=tpl
        )
        tiny, normal = expand_grid(spec)
        assert tiny.empirical.N == (1, 1) and tiny.n_clamped
        assert normal.empirical.N == (50, 50) and not normal.n_clamped
        # the asymptotic instance keeps the exact (unclamped) widths
        np.testing.assert_allclose(tiny.theory.psi, (0.001 * 10 / 6,) * 2, rtol=1e-15)

    def test_empty_grid(self):
        spec = SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=())
        with pytest.raises(EmptyGrid):
            expand_grid(spec)

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec, match="ratios"):
            SweepSpec(base=_base(), ratios=(1.0,), c_grid=(1.0,))
        with pytest.raises(InvalidSpec, match="> 0"):
            SweepSpec(base=_base(), ratios=(1.0, 0.0), c_grid=(1.0,))
        with pytest.raises(InvalidSpec, match="increasing"):
            SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(2.0, 1.0))
        with pytest.raises(InvalidSpec, match="> 0"):
            SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(0.0, 1.0))
        with pytest.raises(InvalidSpec, match="one activation per component"):
            SweepSpec(
                base=_base(),
                ratios=(1.0, 1.0),
                c_grid=(1.0,),
                empirical=EmpiricalTemplate(
                    activations=(ActivationSpec("relu"),), d=10, n=20
                ),
            )


class TestTheoryPass:
    def test_rows_match_single_point_evaluation(self):
        """Warm starting the grid walk must not change any value."""
        spec = SweepSpec(
            base=_base(lam=1e-4), ratios=(1.0, 2.0), c_grid=tuple(np.arange(0.2, 3.0, 0.2))
        )
        result = run_sweep(spec)
        points = expand_grid(spec)
        assert len(result.rows) == len(points)
        for row, point in zip(result.rows, points):
            direct = asymptotic_risk(point.theory)
            np.testing.assert_allclose(row.theory_risk, direct.risk, rtol=1e-10)
            np.testing.assert_allclose(row.theory_bias, direct.bias, rtol=1e-10)
            np.testing.assert_allclose(
                row.theory_variance, direct.variance, rtol=1e-10, atol=1e-15
            )
            assert row.error is None
            assert row.solver_iterations >= 1
            assert row.psi == point.theory.psi

    def test_constant_variance_features_flat_curve(self):
        """Zero linear and nonlinear moments leave the risk at F1^2 everywhere."""
        base = TheorySpec(
            psi=(1.0, 1.0),
            psi_n=2.0,
            moments=(Moments(0.5, 0.0, 0.0), Moments(0.2, 0.0, 0.0)),
            lam=1e-2,
            F1=1.3,
            tau=0.4,
        )
        spec = SweepSpec(base=base, ratios=(1.0, 3.0), c_grid=(0.5, 1.0, 2.0, 4.0))
        result = run_sweep(spec)
        for row in result.rows:
            np.testing.assert_allclose(row.theory_risk, 1.3 ** 2, rtol=1e-10)
            np.testing.assert_allclose(row.theory_variance, 0.0, atol=1e-12)

    def test_failed_points_record_error(self):
        """A starved solver leaves NaN theory values and an error note."""
        spec = SweepSpec(base=_base(lam=1e-6), ratios=(1.0, 1.0), c_grid=(0.5, 1.0))
        result = run_sweep(spec, solver=SolverConfig(max_iter=2))
        for row in result.rows:
            assert math.isnan(row.theory_risk)
            assert row.solver_iterations is None
            assert "NoConvergence" in row.error

    def test_metadata(self):
        spec = SweepSpec(base=_base(), ratios=(1.0, 2.0), c_grid=(0.5, 1.0))
        meta = run_sweep(spec).metadata
        assert meta["ratios"] == [1.0, 2.0]
        assert meta["c_grid"] == [0.5, 1.0]
        assert meta["base"]["psi_n"] == spec.base.psi_n
        assert meta["base"]["moments"] == [[0.3, 0.9, 0.5], [0.1, 0.4, 1.1]]
        assert meta["tool_version"] == multidescent.__version__


def _small_empirical_sweep(workers=None):
    tpl = EmpiricalTemplate(
        activations=(ActivationSpec("relu"), ActivationSpec("tanh")),
        d=15,
        n=30,
        n_test=40,
        replications=3,
        base_seed=11,
    )
    spec = SweepSpec(
        base=_base(lam=1e-2), ratios=(1.0, 1.0), c_grid=(0.5, 1.0, 1.5), empirical=tpl
    )
    return run_sweep(spec, workers=workers)


class TestEmpiricalPass:
    def test_empirical_columns_filled(self):
        result = _small_empirical_sweep()
        for row in result.rows:
            assert row.emp_mean is not None and math.isfinite(row.emp_mean)
            assert row.emp_se is not None and row.emp_se >= 0.0
            assert row.replications == 3

    def test_worker_count_is_invisible(self):
        serial = _small_empirical_sweep(workers=1)
        threaded = _small_empirical_sweep(workers=4)
        for a, b in zip(serial.rows, threaded.rows):
            assert a.emp_mean == b.emp_mean
            assert a.emp_se == b.emp_se


class TestCsv:
    def test_header(self):
        assert csv_header(2) == (
            "c,psi_1,psi_2,psi_n,lambda,theory_risk,theory_bias,theory_variance,"
            "emp_mean,emp_se,replications,solver_iterations"
        )
        assert csv_header(1).startswith("c,psi_1,psi_n,")

    def test_round_trip(self):
        spec = SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(0.5, 1.0, 2.0))
        result = run_sweep(spec)
        text = csv_text(result)
        assert text.endswith("\n") and "\r" not in text
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 3
        for rec, row in zip(parsed, result.rows):
            assert rec["c"] == format_number(row.c)
            assert rec["psi_1"] == format_number(row.psi[0])
            assert rec["lambda"] == format_number(row.lam)
            np.testing.assert_allclose(float(rec["theory_risk"]), row.theory_risk, rtol=1e-11)
            assert rec["emp_mean"] == "" and rec["emp_se"] == "" and rec["replications"] == ""
            assert int(rec["solver_iterations"]) == row.solver_iterations

    def test_empirical_cells(self):
        result = _small_empirical_sweep()
        parsed = list(csv.DictReader(io.StringIO(csv_text(result))))
        for rec, row in zip(parsed, result.rows):
            np.testing.assert_allclose(float(rec["emp_mean"]), row.emp_mean, rtol=1e-11)
            assert rec["replications"] == "3"

    def test_failed_rows_leave_empty_cells(self):
        spec = SweepSpec(base=_base(lam=1e-6), ratios=(1.0, 1.0), c_grid=(0.5, 1.0))
        result = run_sweep(spec, solver=SolverConfig(max_iter=2))
        parsed = list(csv.DictReader(io.StringIO(csv_text(result))))
        for rec in parsed:
            assert rec["theory_risk"] == ""
            assert rec["solver_iterations"] == ""
            assert rec["c"] != ""

    def test_write_csv_matches_text(self, tmp_path):
        spec = SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(0.5, 1.0))
        result = run_sweep(spec)
        out = tmp_path / "sweep.csv"
        write_csv(result, out)
        assert out.read_bytes().decode("utf-8") == csv_text(result)

    def test_empty_result_raises(self):
        from multidescent.sweep import SweepResult

        with pytest.raises(EmptyGrid):
            csv_text(SweepResult(rows=[]))


def _svg_root(path):
    return ET.parse(path).getroot()


def _by_class(root, cls):
    return [
        el
        for el in root.iter()
        if el.get("class") == cls
    ]


class TestSvg:
    def test_structure(self, tmp_path):
        result = _small_empirical_sweep()
        out = tmp_path / "curve.svg"
        render_svg(result, out)
        root = _svg_root(out)
        assert root.tag.endswith("svg")
        polylines = _by_class(root, "theory")
        assert len(polylines) == 1
        pts = polylines[0].get("points").split()
        assert len(pts) == 3  # one vertex per finite theory point
        assert len(_by_class(root, "empirical")) == 3
        assert len(_by_class(root, "whisker")) == 3
        assert len(_by_class(root, "clipped")) == 0
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "c" in texts and "excess risk" in texts

    def test_metadata_block(self, tmp_path):
        result = _small_empirical_sweep()
        out = tmp_path / "curve.svg"
        render_svg(result, out)
        root = _svg_root(out)
        meta_el = next(el for el in root.iter() if el.tag.endswith("metadata"))
        payload = json.loads(meta_el.text)
        assert payload["c"] == [0.5, 1.0, 1.5]
        np.testing.assert_allclose(
            payload["theory_risk"], [r.theory_risk for r in result.rows], rtol=1e-11
        )
        assert payload["log_y"] is False and payload["y_cap"] is None
        assert "created" not in payload["metadata"]
        assert payload["metadata"]["ratios"] == [1.0, 1.0]

    def test_y_cap_marks_clipped_points(self, tmp_path):
        spec = SweepSpec(
            base=_base(lam=1e-4), ratios=(1.0, 1.0), c_grid=(0.6, 1.0, 1.4)
        )
        result = run_sweep(spec)
        cap = min(r.theory_risk for r in result.rows) * 1.01
        out = tmp_path / "capped.svg"
        render_svg(result, out, y_cap=cap)
        root = _svg_root(out)
        assert len(_by_class(root, "clipped")) == 2
        # every drawn ordinate respects the cap
        (poly,) = _by_class(root, "theory")
        ys = [float(p.split(",")[1]) for p in poly.get("points").split()]
        cap_pixel = min(ys)  # svg y axis points down
        assert all(y >= cap_pixel - 1e-6 for y in ys)

    def test_log_y(self, tmp_path):
        result = _small_empirical_sweep()
        out = tmp_path / "log.svg"
        render_svg(result, out, log_y=True)
        payload = json.loads(
            next(el for el in _svg_root(out).iter() if el.tag.endswith("metadata")).text
        )
        assert payload["log_y"] is True

    def test_gap_splits_polyline(self, tmp_path):
        """A NaN theory point interrupts the curve instead of bridging it."""
        spec = SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(0.5, 1.0, 1.5, 2.0))
        result = run_sweep(spec)
        result.rows[1].theory_risk = math.nan
        out = tmp_path / "gap.svg"
        render_svg(result, out)
        polylines = _by_class(_svg_root(out), "theory")
        assert len(polylines) == 1  # single-point head segment is dropped
        assert len(polylines[0].get("points").split()) == 2

    def test_all_nan_raises(self, tmp_path):
        spec = SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(0.5, 1.0))
        result = run_sweep(spec)
        for row in result.rows:
            row.theory_risk = math.nan
        with pytest.raises(EmptyGrid):
            render_svg(result, tmp_path / "never.svg")

    def test_single_point_grid(self, tmp_path):
        spec = SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(1.0,))
        result = run_sweep(spec)
        render_svg(result, tmp_path / "one.svg")  # degenerate ranges must not crash
        assert (tmp_path / "one.svg").exists()
