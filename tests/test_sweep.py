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
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidescent
from multidescent import (
    EmpiricalConfig,
    EmptyGrid,
    ActivationSpec,
    InvalidSpec,
    Moments,
    NoConvergence,
    SweepResult,
    SweepRow,
    SweepSpec,
    TheorySpec,
    asymptotic_risk,
    build_sweep_spec,
    csv_header,
    csv_text,
    format_number,
    parse_config,
    render_svg,
    run_sweep,
    simulator,
    theory_spec_from_empirical,
    write_csv,
)
from multidescent.cli import ExitStatus, dispatch
from multidescent.sweep import _BOTTOM, _HEIGHT, _TOP
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


def _run(**kw) -> EmpiricalConfig:
    """A finite-size run of elu and relu features; ``_matched`` gives its theory."""
    args = dict(d=30, n=100, N=(30, 30), activations=(ActivationSpec("elu"), ActivationSpec("relu")),
                lam=1e-3, F1=1.0, tau=0.1)
    args.update(kw)
    return EmpiricalConfig(**args)


def _matched(run: EmpiricalConfig, ratios=(1.0, 1.0), c_grid=(1.0,)) -> SweepSpec:
    """The sweep of ``run``'s own model, simulated by ``run``."""
    return SweepSpec(base=theory_spec_from_empirical(run), ratios=ratios, c_grid=c_grid, empirical=run)


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
        """Counts split the budget c*n by the ratios and round to integers;
        everything else is the sweep's run as given."""
        run = _run(d=300, n=1000, F0=0.2, n_test=40, replications=3, base_seed=5)
        spec = _matched(run, ratios=(1.0, 2.0), c_grid=(1.5,))
        (point,) = expand_grid(spec)
        assert point.empirical == replace(run, N=(500, 1000))
        assert theory_spec_from_empirical(point.empirical) == point.theory

    def test_count_clamping(self):
        spec = _matched(_run(), c_grid=(0.001, 1.0))
        assert spec.base.psi_n == 10.0 / 3.0
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
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidSpec, match="ratios must be > 0"):
                SweepSpec(base=_base(), ratios=(1.0, bad), c_grid=(1.0,))
            with pytest.raises(InvalidSpec, match="c grid values must be > 0"):
                SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(bad, 1.0))
        with pytest.raises(InvalidSpec, match="increasing"):
            SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(2.0, 1.0))
        with pytest.raises(InvalidSpec, match="^empirical runs a different model from base: moments differ$"):
            SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(1.0,),
                      empirical=_run(N=(5,), activations=(ActivationSpec("relu"),)))

    def test_empirical_runs_the_base_model(self):
        """The run may differ from the base in its widths alone; any other
        difference, each of the theory's inputs in turn, is named."""
        run = _run(F0=0.2)
        base = theory_spec_from_empirical(run)
        SweepSpec(base=replace(base, psi=(0.5, 2.0)), ratios=(1.0, 1.0), c_grid=(1.0,), empirical=run)
        other = (ActivationSpec("elu"), ActivationSpec("tanh"))
        for edit, differ in (({"activations": other}, "moments"), ({"n": 60}, "psi_n"),
                             ({"d": 60, "N": (60, 60)}, "psi_n"), ({"lam": 1e-2}, "lam"),
                             ({"F0": 0.0}, "F0"), ({"F1": 2.0}, "F1"), ({"tau": 0.0}, "tau"),
                             ({"lam": 1e-2, "tau": 0.0}, "lam, tau")):
            with pytest.raises(InvalidSpec, match=f"^empirical runs a different model from base: "
                                                  f"{differ} differ$"):
                SweepSpec(base=base, ratios=(1.0, 1.0), c_grid=(1.0,), empirical=replace(run, **edit))
        with pytest.raises(InvalidSpec, match=": moments, F0 differ$"):
            SweepSpec(base=_base(), ratios=(1.0, 1.0), c_grid=(1.0,), empirical=run)

    def test_huge_ratios_give_the_widths_of_their_proportions(self):
        """Ratios whose sum overflows say "equal widths" like (1, 1) do, in
        widths and in feature counts; in-range ratios keep every bit of the
        unscaled formula."""
        huge, unit = (_matched(_run(), ratios=r, c_grid=(1e-10, 0.5, 1.0, 3.0))
                      for r in ((1e308, 1e308), (1.0, 1.0)))
        for a, b in zip(expand_grid(huge), expand_grid(unit)):
            np.testing.assert_allclose(a.theory.psi, b.theory.psi, rtol=1e-15)
            assert a.empirical.N == b.empirical.N
        spec = _matched(_run(), ratios=(1.0, 3.0), c_grid=(0.3, 0.7, 1.9))
        for c, point in zip(spec.c_grid, expand_grid(spec)):
            assert point.theory.psi == tuple(r * c * spec.base.psi_n / 4.0 for r in spec.ratios)
            assert point.empirical.N == tuple(max(1, round(r * c * 100 / 4.0)) for r in spec.ratios)


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
            assert row.solver_iterations == direct.iterations
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

    def test_failed_points_record_error(self, monkeypatch):
        """A starved solver leaves NaN theory values and an error note."""
        spec = SweepSpec(base=_base(lam=1e-6), ratios=(1.0, 1.0), c_grid=(0.5, 1.0))
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 2)
        result = run_sweep(spec)
        for row in result.rows:
            assert math.isnan(row.theory_risk)
            assert row.solver_iterations is None
            assert "NoConvergence" in row.error

    def test_overflowing_widths_name_the_overflow(self):
        """Finite c values and ratios whose widths overflow fail, with no numpy
        warning and before any finite-size config is built, by a message
        that names the overflow; widths that underflow to 0 keep theirs."""
        run = _run()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ratios, c, empirical in (((3e300, 1e300), 1.5e308, None), ((3.0, 1.0), 1.5e308, run)):
                spec = SweepSpec(base=theory_spec_from_empirical(run), ratios=ratios, c_grid=(0.5, c),
                                 empirical=empirical)
                with pytest.raises(InvalidSpec, match="^psi entries overflow"):
                    run_sweep(spec)
            spec = SweepSpec(base=_base(), ratios=(1.0, 1e-10), c_grid=(5e-324,))
            with pytest.raises(InvalidSpec, match="^all psi entries must be > 0$"):
                run_sweep(spec)

    @pytest.mark.parametrize("acts", [[{"kind": "elu"}, {"kind": "relu"}], FIGURE_ACTS])
    def test_overflowing_newton_step_fails_its_point_quietly(self, acts):
        """Widths near the float range overflow the first residual or a trial
        step; that point fails with ``NoConvergence`` and no numpy warning,
        and the other point keeps its row."""
        spec = build_sweep_spec(parse_config(json.dumps(
            _sweep_config(acts, [1, 1], 1e-3, c_grid=[1.0, 1e307]))))
        ok, failed = run_sweep(spec).rows
        assert ok.error is None and math.isfinite(ok.theory_risk)
        assert failed.error.startswith("NoConvergence: residual ")
        assert math.isnan(failed.theory_risk)

    def test_overflowing_risk_fails_its_point(self):
        """F1 = tau = 1e154 have finite squares, but at c = 0.5 the risk they
        weigh overflows: that row fails with ``InvalidSpec`` and no numpy
        warning, and the row at c = 0.001, whose risk is finite, equals
        ``asymptotic_risk`` at its widths."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": 1}],
               "model": {"psi": [1.0], "psi_n": 2.0, "lambda": 0.1, "F1": 1e154, "tau": 1e154},
               "sweep": {"c_grid": [0.001, 0.5]}}
        spec = build_sweep_spec(parse_config(json.dumps(cfg)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, failed = run_sweep(spec).rows
        direct = asymptotic_risk(replace(spec.base, psi=ok.psi))
        assert ok.error is None and (ok.theory_risk, ok.solver_iterations) == (direct.risk, direct.iterations)
        assert failed.error == ("InvalidSpec: risk overflows: bias 1.119e+308 + variance 8.079e+307 "
                                "is not finite")
        assert math.isnan(failed.theory_risk) and math.isnan(failed.theory_bias)
        assert failed.solver_iterations is None

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

    def test_mixed_failures_leave_converged_rows_unchanged(self, monkeypatch):
        """Under a step cap some points converge and some fail; the converged
        rows equal those of an uncapped run, the others carry the error."""
        spec = _figure_sweep(FIGURE_GRID)
        free = run_sweep(spec)
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 5)
        capped = run_sweep(spec)
        failed = [row for row in capped.rows if row.error is not None]
        assert 0 < len(failed) < len(capped.rows)
        for a, b in zip(free.rows, capped.rows):
            if b.error is None:
                assert (b.theory_risk, b.theory_bias, b.theory_variance, b.solver_iterations) == (
                    a.theory_risk, a.theory_bias, a.theory_variance, a.solver_iterations)
            else:
                assert re.fullmatch(r"NoConvergence: residual \S+ > tol 1\.0e-12 after 5 Newton steps "
                                    r"at lambda=1\.000e-05", b.error)
                assert math.isnan(b.theory_risk) and math.isnan(b.theory_bias)
                assert math.isnan(b.theory_variance) and b.solver_iterations is None
                assert a.solver_iterations > 5

    @pytest.mark.parametrize(
        "acts,ratios,stop,lam",
        [(FIGURE_ACTS, [1, 1], 3.2, 1e-5), (FIGURE_ACTS, [1, 2], 3.6, 1e-5),
         (FIGURE_ACTS, [2, 1], 3.2, 1e-5), (CASCADE_ACTS, [1, 1, 3], 6.0, 1e-4)],
        ids=["criterion-07", "criterion-08-1to2", "criterion-08-2to1", "criterion-09"],
    )
    def test_newton_step_budget(self, acts, ratios, stop, lam):
        """Every point of the paper's sweeps converges from the cold start in
        at most 8 Newton steps, the polishing step included."""
        cfg = _sweep_config(acts, ratios, lam, c_range={"start": 0.2, "stop": stop, "step": 0.05})
        rows = run_sweep(build_sweep_spec(parse_config(json.dumps(cfg)))).rows
        assert all(row.error is None for row in rows)
        assert max(row.solver_iterations for row in rows) <= 8

    @pytest.mark.parametrize(
        "acts,ratios,stop,lam,max_iter",
        [
            (FIGURE_ACTS, [1, 1], 3.2, 1e-5, 100),
            (FIGURE_ACTS, [1, 2], 3.6, 1e-5, 100),
            (FIGURE_ACTS, [2, 1], 3.2, 1e-5, 100),
            (CASCADE_ACTS, [1, 1, 3], 6.0, 1e-4, 100),
            (FIGURE_ACTS, [1, 1], 3.2, 1e-5, 5),
        ],
        ids=["criterion-07", "criterion-08-1to2", "criterion-08-2to1", "criterion-09",
             "criterion-07-max-iter-5"],
    )
    def test_rows_equal_public_stack_api(self, acts, ratios, stop, lam, max_iter, monkeypatch):
        """The sweep's array pass gives, bit for bit, what ``asymptotic_risk``
        gives at each point of the expanded grid, failed points and their
        errors included."""
        cfg = _sweep_config(acts, ratios, lam, c_range={"start": 0.2, "stop": stop, "step": 0.05})
        spec = build_sweep_spec(parse_config(json.dumps(cfg)))
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", max_iter)
        rows = run_sweep(spec).rows
        points = expand_grid(spec)

        def outcome(theory):
            try:
                return asymptotic_risk(theory)
            except NoConvergence as err:
                return err

        outcomes = [outcome(p.theory) for p in points]
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
                    out.risk, out.bias, out.variance, out.iterations)
        failed = sum(row.error is not None for row in rows)
        assert (failed > 0) == (max_iter == 5)

    def test_singular_jacobian_fails_its_point_alone(self):
        """At c = 1e-323 the bound psi_1/sqrt(lambda) of the scale b_1 lies
        below the normal float range, so that point fails with
        ``NoConvergence`` before its first step, naming the block, and no
        numpy warning, and the other rows equal ``asymptotic_risk`` at their
        widths bit for bit, through the library and the CLI."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": 1}],
               "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 9.0},
               "sweep": {"c_grid": [1e-323, 0.5, 1.0]}}
        spec = build_sweep_spec(parse_config(json.dumps(cfg)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_sweep(spec).rows
        reason = ("NoConvergence: block 1 scale is at most psi_1/sqrt(lambda) = 4.941e-324, "
                  "below the normal float range, at lambda=9.000e+00")
        assert rows[0].error == reason
        assert math.isnan(rows[0].theory_risk) and rows[0].solver_iterations is None
        for row in rows[1:]:
            direct = asymptotic_risk(replace(spec.base, psi=row.psi))
            assert row.error is None
            assert (row.theory_risk, row.theory_bias, row.theory_variance, row.solver_iterations) == (
                direct.risk, direct.bias, direct.variance, direct.iterations)
        out, err = io.StringIO(), io.StringIO()
        assert dispatch("sweep", parse_config(json.dumps(cfg)), out, err) == ExitStatus.OK
        assert err.getvalue() == f"sweep: 1 of 3 grid points failed (first: {reason})\n"

    def test_metadata(self):
        spec = SweepSpec(base=_base(), ratios=(1.0, 2.0), c_grid=(0.5, 1.0))
        meta = run_sweep(spec).metadata
        assert meta["ratios"] == [1.0, 2.0]
        assert meta["c_grid"] == [0.5, 1.0]
        assert meta["base"]["psi_n"] == spec.base.psi_n
        assert meta["base"]["moments"] == [[0.3, 0.9, 0.5], [0.1, 0.4, 1.1]]
        assert meta["tool_version"] == multidescent.__version__


def _small_empirical_sweep(workers=None):
    run = _run(d=15, n=30, activations=(ActivationSpec("relu"), ActivationSpec("tanh")), lam=1e-2,
               n_test=40, replications=3, base_seed=11)
    return run_sweep(_matched(run, c_grid=(0.5, 1.0, 1.5)), workers=workers)


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

    def test_failed_replications_keep_theory_columns(self, monkeypatch):
        """A ridge fit that fails every point's Monte Carlo fails no theory column."""

        def failing(*args):
            raise simulator.SolveFailure("non-finite entries in ridge inputs")

        monkeypatch.setattr(simulator, "ridge_fit", failing)
        result = _small_empirical_sweep(workers=2)
        for row in result.rows:
            assert row.error == "SolveFailure: replication 0: non-finite entries in ridge inputs"
            assert (row.emp_mean, row.emp_se, row.replications) == (None, None, None)
            assert all(map(math.isfinite, (row.theory_risk, row.theory_bias, row.theory_variance)))

    def test_oversized_runs_fail_before_any_draw(self, monkeypatch):
        """A grid value whose finite-size run would need more memory than the
        replication cap, or whose feature counts overflow, fails the whole
        sweep with ``InvalidSpec`` saying so, through the library and the CLI
        (exit 2), before anything is drawn."""

        def no_draws(*args):
            raise AssertionError("drew sphere rows")

        monkeypatch.setattr(simulator, "_sphere_rows", no_draws)
        with pytest.raises(InvalidSpec, match=r"float64 entries, .*; the cap is 134217728$"):
            run_sweep(_matched(_run(), c_grid=(1.0, 1e10)))
        # Widths 1.7e307 are finite, counts 5e308 are not.
        with pytest.raises(InvalidSpec, match=r"^feature counts overflow"):
            run_sweep(_matched(_run(), c_grid=(1.0, 1e307)))
        cfg = {"activations": [{"kind": "elu"}, {"kind": "relu"}],
               "model": {"d": 30, "n": 100, "N": [30, 30], "lambda": 1e-3},
               "empirical": {"replications": 2},
               "sweep": {"c_grid": [1.0, 1e10]}}
        out, err = io.StringIO(), io.StringIO()
        assert dispatch("sweep", parse_config(json.dumps(cfg)), out, err) == ExitStatus.CONFIG
        assert out.getvalue() == ""
        assert re.fullmatch(r"InvalidSpec: a replication needs \d+ float64 entries, .*; "
                            r"the cap is 134217728\n", err.getvalue())


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

    def test_failed_rows_leave_empty_cells(self, monkeypatch):
        spec = SweepSpec(base=_base(lam=1e-6), ratios=(1.0, 1.0), c_grid=(0.5, 1.0))
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 2)
        result = run_sweep(spec)
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

    @pytest.mark.parametrize("empirical", [False, True], ids=["theory-only", "empirical"])
    def test_cells_equal_format_number(self, empirical, monkeypatch):
        """The column-wise CSV writes, cell by cell, what ``format_number``
        writes for each finite number ("" for NaN and None) and ``str`` for
        each count, on K = 3 grids with a failed point: one whose last width
        overflows the solve, and one with empirical columns whose theory is
        starved of steps at every c but the first."""
        if empirical:
            run = _run(d=15, n=30, N=(10, 10, 10), n_test=40, replications=3, base_seed=11,
                       activations=(ActivationSpec("relu"), ActivationSpec("tanh"), ActivationSpec("elu")))
            spec = _matched(run, ratios=(1.0, 1.0, 3.0), c_grid=(0.5, 1.0, 1.5, 3.0))
            monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 4)
        else:
            spec = build_sweep_spec(parse_config(json.dumps(
                _sweep_config(CASCADE_ACTS, [1, 1, 3], 1e-4, c_grid=[0.5, 1.0, 2.5, 1e307]))))
        result = run_sweep(spec)
        assert 0 < sum(row.error is not None for row in result.rows) < len(result.rows)
        assert all((row.emp_mean is not None) == empirical for row in result.rows)

        def cell(v):
            if isinstance(v, int) or v is None:
                return "" if v is None else str(v)
            return format_number(v) if math.isfinite(v) else ""

        expected = [csv_header(3)] + [
            ",".join(map(cell, (row.c, *row.psi, row.psi_n, row.lam, row.theory_risk, row.theory_bias,
                                row.theory_variance, row.emp_mean, row.emp_se, row.replications,
                                row.solver_iterations)))
            for row in result.rows]
        assert csv_text(result) == "\n".join(expected) + "\n"

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


# Quarters from -2 to 10 and the non-finite values: distinct drawable values are
# far apart on either axis scale, so they never share a pixel row.
_SVG_VALUES = st.one_of(st.integers(-8, 40).map(lambda k: k / 4), st.sampled_from([math.nan, math.inf, -math.inf]))


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
        head, tail = (p.get("points").split() for p in _by_class(_svg_root(out), "theory"))
        assert len(tail) == 2
        # the lone head point is a 6 px horizontal dash
        (x0, y0), (x1, y1) = (map(float, p.split(",")) for p in head)
        assert y0 == y1 and x1 - x0 == pytest.approx(6.0)

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

    def test_clipped_dot_has_marker_and_no_whisker(self, tmp_path):
        result = _drawn([(0.6, 0.5, 0.1), (0.7, 3.0, 0.1), (0.9, 0.8, 0.05)])
        render_svg(result, tmp_path / "cap.svg", y_cap=2.0)
        root = _svg_root(tmp_path / "cap.svg")
        dots = _by_class(root, "empirical")
        (marker,) = _by_class(root, "clipped")
        assert len(dots) == 3 and len(_by_class(root, "whisker")) == 2
        # the marker sits on the clipped dot, the second one
        assert marker.get("d").split()[1:3] == [f"{float(dots[1].get('cx')) - 5:.2f}", dots[1].get("cy")]
        assert {w.get("x1") for w in _by_class(root, "whisker")} == {dots[0].get("cx"), dots[2].get("cx")}

    def test_log_y_drops_a_whisker_that_reaches_zero(self, tmp_path):
        result = _drawn([(0.6, 0.5, 0.3), (0.7, 0.4, 0.1), (0.9, 0.8, 0.05)])
        render_svg(result, tmp_path / "log.svg", log_y=True)
        root = _svg_root(tmp_path / "log.svg")
        dots = _by_class(root, "empirical")
        assert len(dots) == 3  # the dot whose lower end 0.5 - 2*0.3 is below 0 stays
        assert [w.get("x1") for w in _by_class(root, "whisker")] == [dots[1].get("cx"), dots[2].get("cx")]

    def test_equal_values_span_one_unit_each_way(self, tmp_path):
        result = _drawn([(0.7, None, None)] * 3)
        render_svg(result, tmp_path / "flat.svg")
        root = _svg_root(tmp_path / "flat.svg")
        assert _y_labels(root) == ["-0.3", "0.2", "0.7", "1.2", "1.7"]
        (poly,) = _by_class(root, "theory")
        assert {p.split(",")[1] for p in poly.get("points").split()} == {f"{_HALF_HEIGHT:.2f}"}


    @pytest.mark.parametrize("risks, expected", [
        ((1.0, math.nan, 2.0, math.nan, 3.0, 4.0),
         ["69.00,424.00 75.00,424.00", "318.60,290.67 324.60,290.67", "571.20,157.33 696.00,24.00"]),
        ((1.0, 2.0, math.nan, 3.0), ["72.00,424.00 280.00,224.00", "693.00,24.00 699.00,24.00"]),
    ], ids=["between-gaps", "grid-end"])
    def test_lone_theory_point_is_a_dash(self, tmp_path, risks, expected):
        render_svg(_drawn([(r, None, None) for r in risks]), tmp_path / "lone.svg")
        assert [p.get("points") for p in _by_class(_svg_root(tmp_path / "lone.svg"), "theory")] == expected

    def test_undrawn_whisker_leaves_the_log_range(self, tmp_path):
        """The lower end 0.5 - 2*0.3 is not > 0, so the whisker is not drawn and its
        upper end 1.1 does not widen the axis."""
        render_svg(_drawn([(0.4, 0.5, 0.3), (0.45, None, None)]), tmp_path / "log.svg", log_y=True)
        root = _svg_root(tmp_path / "log.svg")
        assert not _by_class(root, "whisker")
        assert _y_labels(root) == ["0.4", "0.423", "0.447", "0.473", "0.5"]

    def test_capped_dot_whisker_leaves_the_range(self, tmp_path):
        render_svg(_drawn([(0.5, 3.0, 1.4), (0.6, None, None)]), tmp_path / "cap.svg", y_cap=2.0)
        root = _svg_root(tmp_path / "cap.svg")
        assert not _by_class(root, "whisker")
        assert _y_labels(root) == ["0.5", "0.875", "1.25", "1.62", "2"]  # not down to 3.0 - 2*1.4

    def test_undrawable_rows_leave_the_x_range(self, tmp_path):
        """On the log axis the risks at c = 1 and 4 are not drawn, so c spans 2 to 3."""
        render_svg(_drawn([(-1.0, None, None), (2.0, 2.5, 0.1), (3.0, None, None), (-0.5, None, None)]),
                   tmp_path / "x.svg", log_y=True)
        root = _svg_root(tmp_path / "x.svg")
        labels = [el.text for el in root.iter() if el.tag.endswith("text") and el.get("text-anchor") == "middle"]
        assert labels[:5] == ["2", "2.25", "2.5", "2.75", "3"]

    @pytest.mark.parametrize("log_y", [False, True])
    def test_non_finite_se_draws_no_whisker(self, tmp_path, log_y):
        render_svg(_drawn([(0.5, 0.6, math.nan), (0.6, 0.7, math.inf), (0.7, 0.8, 0.05)]),
                   tmp_path / "se.svg", log_y=log_y)
        text = (tmp_path / "se.svg").read_text()
        root = _svg_root(tmp_path / "se.svg")
        dots = _by_class(root, "empirical")
        assert [w.get("x1") for w in _by_class(root, "whisker")] == [dots[2].get("cx")]
        assert "nan" not in text and "inf" not in text
        assert _y_labels(root) == (["0.5", "0.579", "0.671", "0.777", "0.9"] if log_y
                                   else ["0.5", "0.6", "0.7", "0.8", "0.9"])

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(rows=st.lists(st.tuples(_SVG_VALUES, st.one_of(st.none(), _SVG_VALUES),
                                   st.sampled_from([None, 0.0, 0.25, 1.0, 3.0, math.nan, math.inf])),
                         min_size=1, max_size=8),
           log_y=st.booleans(), y_cap=st.sampled_from([None, 0.5, 2.0, 5.0]))
    def test_drawn_marks_span_the_plot_height(self, tmp_path_factory, rows, log_y, y_cap):
        """The drawn pixel rows reach the top and bottom of the plot area exactly,
        or all sit halfway up when every drawn value is the same."""
        out = tmp_path_factory.mktemp("svg") / "prop.svg"
        drawable = [v for r, m, _ in rows for v in (r, m)
                    if v is not None and math.isfinite(v) and (v > 0.0 or not log_y)]
        if not drawable:
            with pytest.raises(EmptyGrid):
                render_svg(_drawn(rows), out, log_y=log_y, y_cap=y_cap)
            return
        render_svg(_drawn(rows), out, log_y=log_y, y_cap=y_cap)
        assert "nan" not in out.read_text()
        root = _svg_root(out)
        ys = [float(p.split(",")[1]) for el in _by_class(root, "theory") for p in el.get("points").split()]
        ys += [float(el.get("cy")) for el in _by_class(root, "empirical")]
        ys += [float(el.get(k)) for el in _by_class(root, "whisker") for k in ("y1", "y2")]
        if len(set(ys)) == 1:
            assert ys[0] == _HALF_HEIGHT
        else:
            assert (min(ys), max(ys)) == (_TOP, _HEIGHT - _BOTTOM)


# The pixel row halfway up the plot area of render_svg's 720x480 canvas.
_HALF_HEIGHT = 480 - 56 - 0.5 * (480 - 24 - 56)


def _y_labels(root) -> list[str]:
    return [el.text for el in root.iter() if el.tag.endswith("text") and el.get("text-anchor") == "end"]


def _drawn(points) -> SweepResult:
    """A result to draw at c = 1, 2, ...: (theory risk, emp mean, emp se) per row."""
    return SweepResult(rows=[
        SweepRow(c=float(i + 1), psi=(0.5, 0.5), psi_n=1.0, lam=1e-3, theory_risk=risk,
                 theory_bias=0.0, theory_variance=0.0, emp_mean=mean, emp_se=se)
        for i, (risk, mean, se) in enumerate(points)
    ])
