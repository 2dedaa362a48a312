"""Tests for the complexity-sweep engine and its CSV/SVG artifacts.

Grid expansion is pinned by hand-computed width splits, the theory columns
are checked against direct single-point evaluation (a row depends on its
own c alone, not on its neighbours in the grid), and the emitted artifacts
are re-parsed with the standard csv and xml libraries rather than
string-matched.
"""

import csv
import io
import json
import math
import re
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
    SweepResult,
    SweepRow,
    SweepSpec,
    TheorySpec,
    asymptotic_risk,
    asymptotic_risk_stack,
    build_sweep_spec,
    csv_header,
    csv_text,
    format_number,
    parse_config,
    render_svg,
    run_sweep,
    write_csv,
)
from multidescent.cli import ExitStatus, dispatch
from oracles import expand_grid

MOMENTS_K2 = (Moments(0.3, 0.9, 0.5), Moments(0.1, 0.4, 1.1))
# The paper's figure model (criteria 07 and 08) and its three-scale cascade
# (criterion 09), on the grid c = 0.2, 0.25, ... of their sweeps.
FIGURE_ACTS = [{"kind": "elu", "in_scale": 3.0}, {"kind": "relu", "in_scale": 0.25}]
CASCADE_ACTS = [{"kind": "relu", "in_scale": s} for s in (9.0, 1.0, 0.1)]
FIGURE_GRID = tuple(0.2 + i * 0.05 for i in range(61))


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
            assert p.empirical is None

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
        assert tiny.empirical.N == (1, 1)
        assert normal.empirical.N == (50, 50)
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


def _sweep_config(acts, ratios, lam, **sweep) -> dict:
    return {
        "activations": acts,
        "model": {"psi": [1.0] * len(acts), "psi_n": 10.0 / 3.0, "lambda": lam, "F1": 1.0, "tau": 0.1},
        "sweep": dict(sweep, ratios=ratios),
    }


def _figure_sweep(c_grid, lam=1e-5) -> SweepSpec:
    return build_sweep_spec(parse_config(json.dumps(_sweep_config(FIGURE_ACTS, [1, 1], lam, c_grid=c_grid))))


def _stdout(command: str, cfg: dict) -> str:
    out, err = io.StringIO(), io.StringIO()
    assert dispatch(command, parse_config(json.dumps(cfg)), out, err) == ExitStatus.OK, err.getvalue()
    return out.getvalue()


class TestTheoryPass:
    def test_rows_match_single_point_evaluation(self):
        """Each row is exactly the direct evaluation at its own c."""
        spec = SweepSpec(
            base=_base(lam=1e-4), ratios=(1.0, 2.0), c_grid=tuple(np.arange(0.2, 3.0, 0.2))
        )
        result = run_sweep(spec)
        points = expand_grid(spec)
        assert len(result.rows) == len(points)
        for row, point in zip(result.rows, points):
            direct = asymptotic_risk(point.theory)
            assert row.theory_risk == direct.risk
            assert row.theory_bias == direct.bias
            assert row.theory_variance == direct.variance
            assert row.solver_iterations == direct.nu.iterations
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

    def test_row_prints_theory_command_digits(self):
        """Through the CLI, every row of the criterion-07 sweep prints the
        numbers the ``theory`` command prints at that row's widths."""
        cfg = _sweep_config(FIGURE_ACTS, [1, 1], 1e-5, c_range={"start": 0.2, "stop": 3.2, "step": 0.05})
        rows = list(csv.DictReader(io.StringIO(_stdout("sweep", cfg))))
        points = expand_grid(build_sweep_spec(parse_config(json.dumps(cfg))))
        assert len(rows) == len(points) == 61
        for row, point in zip(rows, points):
            theory = _stdout("theory", dict(cfg, model=dict(cfg["model"], psi=list(point.theory.psi))))
            for column, key in (("theory_risk", "risk"), ("theory_bias", "bias"),
                                ("theory_variance", "variance")):
                printed = re.search(rf'"{key}": ([^,\n]+)', theory).group(1)
                assert row[column] == printed, f"c={row['c']} {column}"

    def test_shared_c_gives_identical_cells(self):
        """Two grids that share c values print byte-identical rows there."""
        full = csv_text(run_sweep(_figure_sweep(FIGURE_GRID))).splitlines()
        shared = [FIGURE_GRID[i] for i in (16, 17, 40)]
        part = csv_text(run_sweep(_figure_sweep([0.33, *shared, 5.0]))).splitlines()
        by_c = {line.split(",")[0]: line for line in full[1:]}
        common = [line for line in part[1:] if line.split(",")[0] in by_c]
        assert len(common) == 3
        for line in common:
            assert line == by_c[line.split(",")[0]]

    def test_mixed_failures_leave_converged_rows_unchanged(self):
        """Under a step cap some points converge and some fail; the converged
        rows equal those of an uncapped run, the others carry the error."""
        spec = _figure_sweep(FIGURE_GRID)
        free = run_sweep(spec)
        capped = run_sweep(spec, solver=SolverConfig(max_iter=7))
        failed = [row for row in capped.rows if row.error is not None]
        assert 0 < len(failed) < len(capped.rows)
        for a, b in zip(free.rows, capped.rows):
            if b.error is None:
                assert (b.theory_risk, b.theory_bias, b.theory_variance, b.solver_iterations) == (
                    a.theory_risk, a.theory_bias, a.theory_variance, a.solver_iterations)
            else:
                assert re.fullmatch(r"NoConvergence: residual \S+ > tol 1\.0e-12 after 7 Newton steps "
                                    r"at lambda=1\.000e-05", b.error)
                assert math.isnan(b.theory_risk) and math.isnan(b.theory_bias)
                assert math.isnan(b.theory_variance) and b.solver_iterations is None
                assert a.solver_iterations > 7

    @pytest.mark.parametrize(
        "acts,ratios,stop,lam",
        [(FIGURE_ACTS, [1, 1], 3.2, 1e-5), (CASCADE_ACTS, [1, 1, 3], 6.0, 1e-4)],
        ids=["criterion-07", "criterion-09"],
    )
    def test_newton_step_budget(self, acts, ratios, stop, lam):
        """Every point of the paper's sweeps converges from the cold start in
        at most 11 Newton steps, the polishing step included."""
        cfg = _sweep_config(acts, ratios, lam, c_range={"start": 0.2, "stop": stop, "step": 0.05})
        rows = run_sweep(build_sweep_spec(parse_config(json.dumps(cfg)))).rows
        assert all(row.error is None for row in rows)
        assert max(row.solver_iterations for row in rows) <= 11

    @pytest.mark.parametrize(
        "acts,ratios,stop,lam,max_iter",
        [
            (FIGURE_ACTS, [1, 1], 3.2, 1e-5, 100),
            (FIGURE_ACTS, [1, 2], 3.6, 1e-5, 100),
            (FIGURE_ACTS, [2, 1], 3.2, 1e-5, 100),
            (CASCADE_ACTS, [1, 1, 3], 6.0, 1e-4, 100),
            (FIGURE_ACTS, [1, 1], 3.2, 1e-5, 7),
        ],
        ids=["criterion-07", "criterion-08-1to2", "criterion-08-2to1", "criterion-09",
             "criterion-07-max-iter-7"],
    )
    def test_rows_equal_public_stack_api(self, acts, ratios, stop, lam, max_iter):
        """The sweep's array pass gives, bit for bit, what the public stack API
        gives on the expanded grid, failed points and their errors included."""
        cfg = _sweep_config(acts, ratios, lam, c_range={"start": 0.2, "stop": stop, "step": 0.05})
        spec = build_sweep_spec(parse_config(json.dumps(cfg)))
        solver = SolverConfig(max_iter=max_iter)
        rows = run_sweep(spec, solver).rows
        points = expand_grid(spec)
        outcomes = asymptotic_risk_stack([p.theory for p in points], solver)
        assert len(rows) == len(points) == len(outcomes)
        for row, point, out in zip(rows, points, outcomes):
            assert (row.c, row.psi) == (point.c, point.theory.psi)
            if isinstance(out, Exception):
                assert row.error == f"{type(out).__name__}: {out}"
                assert row.solver_iterations is None
                assert all(map(math.isnan, (row.theory_risk, row.theory_bias, row.theory_variance)))
            else:
                assert row.error is None
                assert (row.theory_risk, row.theory_bias, row.theory_variance, row.solver_iterations) == (
                    out.risk, out.bias, out.variance, out.nu.iterations)
        failed = sum(row.error is not None for row in rows)
        assert (failed > 0) == (max_iter == 7)

    def test_metadata(self):
        spec = SweepSpec(base=_base(), ratios=(1.0, 2.0), c_grid=(0.5, 1.0))
        meta = run_sweep(spec).metadata
        assert meta["ratios"] == [1.0, 2.0]
        assert meta["c_grid"] == [0.5, 1.0]
        assert meta["base"]["psi_n"] == spec.base.psi_n
        assert meta["base"]["moments"] == [[0.3, 0.9, 0.5], [0.1, 0.4, 1.1]]
        assert meta["tool_version"] == multidescent.__version__


def _small_empirical_sweep(workers=None, first=ActivationSpec("relu")):
    tpl = EmpiricalTemplate(
        activations=(first, ActivationSpec("tanh")),
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_failed_replications_keep_theory_columns(self):
        """Features that overflow fail every point's Monte Carlo, not the sweep."""
        result = _small_empirical_sweep(workers=2, first=ActivationSpec("relu", in_scale=1e308))
        for row in result.rows:
            assert row.error == "SolveFailure: replication 0: non-finite entries in ridge inputs"
            assert (row.emp_mean, row.emp_se, row.replications) == (None, None, None)
            assert all(map(math.isfinite, (row.theory_risk, row.theory_bias, row.theory_variance)))


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

    def test_bytes_are_pinned(self):
        """None, int, NaN, inf, signed zero and both sides of each fixed/scientific
        boundary, as format_number writes them."""
        nan, inf = float("nan"), float("inf")
        rows = [
            SweepRow(c=0.5, psi=(0.25, 1e-7), psi_n=3.0, lam=1e-5, theory_risk=1.25,
                     theory_bias=0.0, theory_variance=-0.0, solver_iterations=9),
            SweepRow(c=1.0, psi=(0.1, 2e15), psi_n=3.0, lam=1e-5, theory_risk=nan,
                     theory_bias=inf, theory_variance=-inf, error="NoConvergence: x"),
            SweepRow(c=1.5, psi=(0.09999999999999999, 123.456), psi_n=3.0, lam=1e-5,
                     theory_risk=-0.3, theory_bias=1e15, theory_variance=999999999999999.9,
                     emp_mean=0.31, emp_se=0.0, replications=20, solver_iterations=11),
        ]
        assert csv_text(SweepResult(rows=rows)) == (
            "c,psi_1,psi_2,psi_n,lambda,theory_risk,theory_bias,theory_variance,"
            "emp_mean,emp_se,replications,solver_iterations\n"
            "0.500000000000,0.250000000000,1.000000000000e-07,3.000000000000,"
            "1.000000000000e-05,1.250000000000,0.000000000000,0.000000000000,,,,9\n"
            "1.000000000000,0.100000000000,2.000000000000e+15,3.000000000000,"
            "1.000000000000e-05,,,,,,,\n"
            "1.500000000000,1.000000000000e-01,123.456000000000,3.000000000000,"
            "1.000000000000e-05,-0.300000000000,1.000000000000e+15,"
            "999999999999999.875000000000,0.310000000000,0.000000000000,20,11\n"
        )

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
