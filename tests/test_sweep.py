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
    ActivationSpec,
    InvalidSpec,
    Moments,
    SolveFailure,
    SweepResult,
    SweepRow,
    SweepSpec,
    TheorySpec,
    asymptotic_risk,
    build_sweep_spec,
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
    """The sweep of ``run``'s own model in block proportions ``ratios``, simulated by ``run``."""
    return SweepSpec(base=replace(theory_spec_from_empirical(run), psi=ratios), c_grid=c_grid, empirical=run)


class TestExpandGrid:
    def test_equal_ratio_widths(self):
        """psi_c = r_c * c * psi_n / sum(r), r the base widths, here just c*psi_n/2."""
        spec = SweepSpec(base=_base(), c_grid=(0.6, 1.0, 2.0))
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
        """Counts split the budget c*n in the base proportions and round to integers;
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
        with pytest.raises(InvalidSpec, match="^c grid is empty$"):
            SweepSpec(base=_base(), c_grid=())

    def test_spec_validation(self):
        """The proportions are the base widths, which the base checks."""
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidSpec, match="^all psi entries must be > 0$"):
                _base((1.0, bad))
            with pytest.raises(InvalidSpec, match="c grid values must be > 0"):
                SweepSpec(base=_base(), c_grid=(bad, 1.0))
        with pytest.raises(InvalidSpec, match="increasing"):
            SweepSpec(base=_base(), c_grid=(2.0, 1.0))
        with pytest.raises(InvalidSpec, match="^empirical runs a different model from base: moments differ$"):
            SweepSpec(base=_base(), c_grid=(1.0,),
                      empirical=_run(N=(5,), activations=(ActivationSpec("relu"),)))

    def test_empirical_runs_the_base_model(self):
        """The run may differ from the base in its widths alone; any other
        difference, each of the theory's inputs in turn, is named."""
        run = _run(F0=0.2)
        base = theory_spec_from_empirical(run)
        SweepSpec(base=replace(base, psi=(0.5, 2.0)), c_grid=(1.0,), empirical=run)
        other = (ActivationSpec("elu"), ActivationSpec("tanh"))
        for edit, differ in (({"activations": other}, "moments"), ({"n": 60}, "psi_n"),
                             ({"d": 60, "N": (60, 60)}, "psi_n"), ({"lam": 1e-2}, "lam"),
                             ({"F0": 0.0}, "F0"), ({"F1": 2.0}, "F1"), ({"tau": 0.0}, "tau"),
                             ({"lam": 1e-2, "tau": 0.0}, "lam, tau")):
            with pytest.raises(InvalidSpec, match=f"^empirical runs a different model from base: "
                                                  f"{differ} differ$"):
                SweepSpec(base=base, c_grid=(1.0,), empirical=replace(run, **edit))
        with pytest.raises(InvalidSpec, match=": moments, F0 differ$"):
            SweepSpec(base=_base(), c_grid=(1.0,), empirical=run)

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
            assert point.theory.psi == tuple(r * c * spec.base.psi_n / 4.0 for r in spec.base.psi)
            assert point.empirical.N == tuple(max(1, round(r * c * 100 / 4.0)) for r in spec.base.psi)


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
        spec = SweepSpec(base=_base((1.0, 2.0), lam=1e-4), c_grid=tuple(np.arange(0.2, 3.0, 0.2)))
        result = run_sweep(spec)
        points = expand_grid(spec)
        direct = [asymptotic_risk(point.theory) for point in points]
        assert result.theory_risk.tolist() == [out.risk for out in direct]
        assert result.theory_bias.tolist() == [out.bias for out in direct]
        assert result.theory_variance.tolist() == [out.variance for out in direct]
        assert result.solver_iterations == [out.iterations for out in direct]
        assert result.error == [None] * len(points)
        assert min(result.solver_iterations) >= 1
        assert result.psi.tolist() == [list(point.theory.psi) for point in points]

    def test_constant_variance_features_flat_curve(self):
        """Zero linear and nonlinear moments leave the risk at F1^2 everywhere."""
        base = TheorySpec(
            psi=(1.0, 3.0),
            psi_n=2.0,
            moments=(Moments(0.5, 0.0, 0.0), Moments(0.2, 0.0, 0.0)),
            lam=1e-2,
            F1=1.3,
            tau=0.4,
        )
        spec = SweepSpec(base=base, c_grid=(0.5, 1.0, 2.0, 4.0))
        result = run_sweep(spec)
        np.testing.assert_allclose(result.theory_risk, 1.3 ** 2, rtol=1e-10)
        np.testing.assert_allclose(result.theory_variance, 0.0, atol=1e-12)

    def test_failed_points_record_error(self, monkeypatch):
        """A starved solver leaves NaN theory values and an error note."""
        spec = SweepSpec(base=_base(lam=1e-6), c_grid=(0.5, 1.0))
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 1)
        result = run_sweep(spec)
        assert np.isnan(result.theory_risk).all()
        assert result.solver_iterations == [None, None]
        assert all("SolveFailure" in error for error in result.error)

    def test_overflowing_widths_name_the_overflow(self):
        """Finite c values and ratios whose widths overflow fail, with no numpy
        warning and before any finite-size config is built, by a message
        that names the overflow; widths that underflow to 0 keep theirs."""
        run = _run()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ratios, c, empirical in (((3e300, 1e300), 1.5e308, None), ((3.0, 1.0), 1.5e308, run)):
                spec = SweepSpec(base=replace(theory_spec_from_empirical(run), psi=ratios), c_grid=(0.5, c),
                                 empirical=empirical)
                with pytest.raises(InvalidSpec, match="^psi entries overflow"):
                    run_sweep(spec)
            spec = SweepSpec(base=_base((1.0, 1e-10)), c_grid=(5e-324,))
            with pytest.raises(InvalidSpec, match="^all psi entries must be > 0$"):
                run_sweep(spec)

    def test_overflow_messages_name_the_base_widths(self):
        """An overflowing width, and an overflowing feature count of the
        finite-size run, are named in terms of the base widths r, which a
        ``SweepSpec`` holds, with no numpy warning."""
        run = _run()
        cases = (((3e300, 1e300), 1.5e308, None, "psi entries overflow: r_c*c*psi_n/sum(r)"),
                 ((3.0, 1.0), 1e307, run, "feature counts overflow: r_c*c*n/sum(r)"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for widths, c, empirical, head in cases:
                spec = SweepSpec(base=replace(theory_spec_from_empirical(run), psi=widths), c_grid=(0.5, c),
                                 empirical=empirical)
                with pytest.raises(InvalidSpec) as exc:
                    run_sweep(spec)
                assert str(exc.value) == f"{head} must be finite, with r the base widths"

    @pytest.mark.parametrize("acts", [[{"kind": "elu"}, {"kind": "relu"}], FIGURE_ACTS])
    def test_overflowing_newton_step_fails_its_point_quietly(self, acts):
        """Widths near the float range overflow the first residual or a trial
        step; that point fails with ``SolveFailure`` and no numpy warning,
        and the other point keeps its row."""
        spec = build_sweep_spec(parse_config(json.dumps(
            _sweep_config(acts, [1, 1], 1e-3, c_grid=[1.0, 1e307]))))
        result = run_sweep(spec)
        assert result.error[0] is None and math.isfinite(result.theory_risk[0])
        assert result.error[1].startswith("SolveFailure: residual ")
        assert math.isnan(result.theory_risk[1])

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
            result = run_sweep(spec)
        direct = asymptotic_risk(replace(spec.base, psi=result.psi[0]))
        assert result.error[0] is None
        assert (result.theory_risk[0], result.solver_iterations[0]) == (direct.risk, direct.iterations)
        assert result.error[1] == ("InvalidSpec: risk overflows: bias 1.119e+308 + variance 8.079e+307 "
                                   "is not finite")
        assert math.isnan(result.theory_risk[1]) and math.isnan(result.theory_bias[1])
        assert result.solver_iterations[1] is None

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
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 2)
        capped = run_sweep(spec)
        assert 0 < sum(error is not None for error in capped.error) < len(capped.error)
        for i, error in enumerate(capped.error):
            if error is None:
                assert _theory_cells(capped, i) == _theory_cells(free, i)
            else:
                assert re.fullmatch(r"SolveFailure: residual \S+ > tol 1\.0e-12 after 2 Newton steps "
                                    r"at lambda=1\.000e-05", error)
                assert all(map(math.isnan, _theory_cells(capped, i)[:3]))
                assert capped.solver_iterations[i] is None and free.solver_iterations[i] > 2

    @pytest.mark.parametrize(
        "acts,ratios,stop,lam",
        [(FIGURE_ACTS, [1, 1], 3.2, 1e-5), (FIGURE_ACTS, [1, 2], 3.6, 1e-5),
         (FIGURE_ACTS, [2, 1], 3.2, 1e-5), (CASCADE_ACTS, [1, 1, 3], 6.0, 1e-4)],
        ids=["criterion-07", "criterion-08-1to2", "criterion-08-2to1", "criterion-09"],
    )
    def test_newton_step_budget(self, acts, ratios, stop, lam):
        """Every point of the paper's sweeps converges from the refined start
        in at most 4 Newton steps, the polishing step included."""
        cfg = _sweep_config(acts, ratios, lam, c_range={"start": 0.2, "stop": stop, "step": 0.05})
        result = run_sweep(build_sweep_spec(parse_config(json.dumps(cfg))))
        assert all(error is None for error in result.error)
        assert max(result.solver_iterations) <= 4

    @pytest.mark.parametrize(
        "acts,ratios,stop,lam,max_iter",
        [
            (FIGURE_ACTS, [1, 1], 3.2, 1e-5, 100),
            (FIGURE_ACTS, [1, 2], 3.6, 1e-5, 100),
            (FIGURE_ACTS, [2, 1], 3.2, 1e-5, 100),
            (CASCADE_ACTS, [1, 1, 3], 6.0, 1e-4, 100),
            (FIGURE_ACTS, [1, 1], 3.2, 1e-5, 2),
        ],
        ids=["criterion-07", "criterion-08-1to2", "criterion-08-2to1", "criterion-09",
             "criterion-07-max-iter-2"],
    )
    def test_rows_equal_public_stack_api(self, acts, ratios, stop, lam, max_iter, monkeypatch):
        """The sweep's array pass gives, bit for bit, what ``asymptotic_risk``
        gives at each point of the expanded grid, failed points and their
        errors included."""
        cfg = _sweep_config(acts, ratios, lam, c_range={"start": 0.2, "stop": stop, "step": 0.05})
        spec = build_sweep_spec(parse_config(json.dumps(cfg)))
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", max_iter)
        result = run_sweep(spec)
        points = expand_grid(spec)

        def outcome(theory):
            try:
                return asymptotic_risk(theory)
            except SolveFailure as err:
                return err

        outcomes = [outcome(p.theory) for p in points]
        assert result.c.tolist() == [point.c for point in points]
        assert result.psi.tolist() == [list(point.theory.psi) for point in points]
        for i, out in enumerate(outcomes):
            if isinstance(out, Exception):
                assert result.error[i] == f"{type(out).__name__}: {out}"
                assert result.solver_iterations[i] is None
                assert all(map(math.isnan, _theory_cells(result, i)[:3]))
            else:
                assert result.error[i] is None
                assert _theory_cells(result, i) == (out.risk, out.bias, out.variance, out.iterations)
        failed = sum(error is not None for error in result.error)
        assert (failed > 0) == (max_iter == 2)

    def test_singular_jacobian_fails_its_point_alone(self):
        """At c = 1e-323 the bound psi_1/sqrt(lambda) of the scale b_1 lies
        below the normal float range, so that point fails with
        ``SolveFailure`` before its first step, naming the block, and no
        numpy warning, and the other rows equal ``asymptotic_risk`` at their
        widths bit for bit, through the library and the CLI."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": 1}],
               "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 9.0},
               "sweep": {"c_grid": [1e-323, 0.5, 1.0]}}
        spec = build_sweep_spec(parse_config(json.dumps(cfg)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        reason = ("SolveFailure: block 1 scale is at most psi_1/sqrt(lambda) = 4.941e-324, "
                  "below the normal float range, at lambda=9.000e+00")
        assert result.error[0] == reason
        assert math.isnan(result.theory_risk[0]) and result.solver_iterations[0] is None
        for i in (1, 2):
            direct = asymptotic_risk(replace(spec.base, psi=result.psi[i]))
            assert result.error[i] is None
            assert _theory_cells(result, i) == (direct.risk, direct.bias, direct.variance, direct.iterations)
        out, err = io.StringIO(), io.StringIO()
        assert dispatch("sweep", parse_config(json.dumps(cfg)), out, err) == ExitStatus.OK
        assert err.getvalue() == f"sweep: 1 of 3 grid points failed (first: {reason})\n"

    def test_metadata(self):
        spec = SweepSpec(base=_base((1.0, 2.0)), c_grid=(0.5, 1.0))
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


class TestBaseWidths:
    """The sweep moves its base model along c; only the direction of the
    base widths matters, and a config's sweep.ratios gives it."""

    def test_widths_in_equal_proportions_give_equal_csv(self):
        a, b = (csv_text(run_sweep(SweepSpec(base=_base(psi), c_grid=(0.5, 1.0, 2.0))))
                for psi in ((1.0, 2.0), (2.0, 4.0)))
        assert a == b

    def test_theory_sweep_needs_no_model_widths(self):
        """Model widths, which a theory-only sweep never reads, may be left
        out (in either model form) and do not change its CSV."""
        model = {"lambda": 1e-5, "F1": 1.0, "tau": 0.1}
        cfg = {"activations": FIGURE_ACTS, "sweep": {"c_grid": [0.5, 1.0, 2.0], "ratios": [1, 2]}}
        outs = {_stdout("sweep", dict(cfg, model=dict(model, **size)))
                for size in ({"psi_n": 10.0 / 3.0}, {"psi_n": 10.0 / 3.0, "psi": [1, 1]},
                             {"psi_n": 10.0 / 3.0, "psi": [123, 5]}, {"d": 3, "n": 10})}
        assert len(outs) == 1


class TestEmpiricalPass:
    def test_empirical_columns_filled(self):
        result = _small_empirical_sweep()
        assert all(mean is not None and math.isfinite(mean) for mean in result.emp_mean)
        assert all(se is not None and se >= 0.0 for se in result.emp_se)
        assert result.replications == [3, 3, 3]

    def test_worker_count_is_invisible(self):
        serial = _small_empirical_sweep(workers=1)
        threaded = _small_empirical_sweep(workers=4)
        assert (serial.emp_mean, serial.emp_se) == (threaded.emp_mean, threaded.emp_se)

    def test_failed_replications_keep_theory_columns(self, monkeypatch):
        """A ridge fit that fails every point's Monte Carlo fails no theory column."""

        def failing(*args):
            raise SolveFailure("non-finite entries in ridge inputs")

        monkeypatch.setattr(simulator, "ridge_fit", failing)
        result = _small_empirical_sweep(workers=2)
        assert result.error == ["SolveFailure: replication 0: non-finite entries in ridge inputs"] * 3
        assert result.emp_mean == result.emp_se == result.replications == [None] * 3
        assert np.isfinite([result.theory_risk, result.theory_bias, result.theory_variance]).all()

    def test_rows_are_the_columns_by_point(self):
        """``rows``, which the benchmark's tracer reads, holds every column at
        each point."""
        result = _small_empirical_sweep()
        rows = result.rows
        assert len(rows) == len(result.c)
        for i, row in enumerate(rows):
            assert row == SweepRow(c=result.c[i], psi=tuple(result.psi[i]), psi_n=result.psi_n, lam=result.lam,
                                   theory_risk=result.theory_risk[i], theory_bias=result.theory_bias[i],
                                   theory_variance=result.theory_variance[i], emp_mean=result.emp_mean[i],
                                   emp_se=result.emp_se[i], replications=result.replications[i],
                                   solver_iterations=result.solver_iterations[i], error=result.error[i])

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


    def test_unused_model_counts_are_not_capped(self):
        """The replication cap applies to the counts that a run uses, not to
        model.N, which an empirical sweep never runs."""
        cfg = {"activations": FIGURE_ACTS,
               "model": {"d": 200, "n": 600, "N": [1000000, 1], "lambda": 1e-3},
               "empirical": {"replications": 2, "n_test": 50},
               "sweep": {"c_grid": [0.5]}}
        small = dict(cfg, model=dict(cfg["model"], N=[1, 1]))
        assert _stdout("sweep", cfg) == _stdout("sweep", small)


class TestCsv:
    def test_header(self):
        for psi, widths in (((1.0, 1.0), "psi_1,psi_2"), ((1.0,), "psi_1")):
            header = csv_text(_result(c=[1.0], psi=[psi])).split("\n")[0]
            assert header == (f"c,{widths},psi_n,lambda,theory_risk,theory_bias,theory_variance,"
                              "emp_mean,emp_se,replications,solver_iterations")

    def test_round_trip(self):
        spec = SweepSpec(base=_base(), c_grid=(0.5, 1.0, 2.0))
        result = run_sweep(spec)
        text = csv_text(result)
        assert text.endswith("\n") and "\r" not in text
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 3
        for i, rec in enumerate(parsed):
            assert rec["c"] == format_number(result.c[i])
            assert rec["psi_1"] == format_number(result.psi[i, 0])
            assert rec["lambda"] == format_number(result.lam)
            np.testing.assert_allclose(float(rec["theory_risk"]), result.theory_risk[i], rtol=1e-11)
            assert rec["emp_mean"] == "" and rec["emp_se"] == "" and rec["replications"] == ""
            assert int(rec["solver_iterations"]) == result.solver_iterations[i]

    def test_empirical_cells(self):
        result = _small_empirical_sweep()
        parsed = list(csv.DictReader(io.StringIO(csv_text(result))))
        np.testing.assert_allclose([float(rec["emp_mean"]) for rec in parsed], result.emp_mean, rtol=1e-11)
        assert [rec["replications"] for rec in parsed] == ["3"] * 3

    def test_failed_rows_leave_empty_cells(self, monkeypatch):
        spec = SweepSpec(base=_base(lam=1e-6), c_grid=(0.5, 1.0))
        monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 1)
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
        result = _result(
            c=[0.5, 1.0, 1.5], psi=[(0.25, 1e-7), (0.1, 2e15), (0.09999999999999999, 123.456)],
            theory_risk=[1.25, nan, -0.3], theory_bias=[0.0, inf, 1e15],
            theory_variance=[-0.0, -inf, 999999999999999.9], emp_mean=[None, None, 0.31],
            emp_se=[None, None, 0.0], replications=[None, None, 20], solver_iterations=[9, None, 11],
            error=[None, "SolveFailure: x", None])
        assert csv_text(result) == (
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
            spec = _matched(run, ratios=(1.0, 1.0, 3.0), c_grid=(0.3, 1.0, 1.5, 3.0))
            monkeypatch.setattr(multidescent.risk, "_MAX_ITER", 2)
        else:
            spec = build_sweep_spec(parse_config(json.dumps(
                _sweep_config(CASCADE_ACTS, [1, 1, 3], 1e-4, c_grid=[0.5, 1.0, 2.5, 1e307]))))
        result = run_sweep(spec)
        assert 0 < sum(error is not None for error in result.error) < len(result.error)
        assert all((mean is not None) == empirical for mean in result.emp_mean)

        def cell(v):
            if isinstance(v, int) or v is None:
                return "" if v is None else str(v)
            return format_number(v) if math.isfinite(v) else ""

        g = len(result.c)
        columns = (result.c.tolist(), *result.psi.T.tolist(), [result.psi_n] * g, [result.lam] * g,
                   result.theory_risk.tolist(), result.theory_bias.tolist(), result.theory_variance.tolist(),
                   result.emp_mean, result.emp_se, result.replications, result.solver_iterations)
        expected = [("c,psi_1,psi_2,psi_3,psi_n,lambda,theory_risk,theory_bias,theory_variance,"
                     "emp_mean,emp_se,replications,solver_iterations")]
        expected += [",".join(map(cell, point)) for point in zip(*columns)]
        assert csv_text(result) == "\n".join(expected) + "\n"

    def test_write_csv_matches_text(self, tmp_path):
        spec = SweepSpec(base=_base(), c_grid=(0.5, 1.0))
        result = run_sweep(spec)
        out = tmp_path / "sweep.csv"
        write_csv(result, out)
        assert out.read_bytes().decode("utf-8") == csv_text(result)

    def test_empty_result_raises(self):
        with pytest.raises(InvalidSpec, match="^no rows to write$"):
            csv_text(_result(c=[], psi=np.zeros((0, 2))))


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
        np.testing.assert_allclose(payload["theory_risk"], result.theory_risk, rtol=1e-11)
        assert payload["log_y"] is False and payload["y_cap"] is None
        assert "created" not in payload["metadata"]
        assert payload["metadata"]["ratios"] == [1.0, 1.0]

    def test_y_cap_marks_clipped_points(self, tmp_path):
        spec = SweepSpec(base=_base(lam=1e-4), c_grid=(0.6, 1.0, 1.4))
        result = run_sweep(spec)
        cap = float(result.theory_risk.min()) * 1.01
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
        spec = SweepSpec(base=_base(), c_grid=(0.5, 1.0, 1.5, 2.0))
        result = run_sweep(spec)
        result.theory_risk[1] = math.nan
        out = tmp_path / "gap.svg"
        render_svg(result, out)
        head, tail = (p.get("points").split() for p in _by_class(_svg_root(out), "theory"))
        assert len(tail) == 2
        # the lone head point is a 6 px horizontal dash
        (x0, y0), (x1, y1) = (map(float, p.split(",")) for p in head)
        assert y0 == y1 and x1 - x0 == pytest.approx(6.0)

    def test_all_nan_raises(self, tmp_path):
        spec = SweepSpec(base=_base(), c_grid=(0.5, 1.0))
        result = run_sweep(spec)
        result.theory_risk[:] = math.nan
        with pytest.raises(InvalidSpec, match="^no drawable values on this axis scale$"):
            render_svg(result, tmp_path / "never.svg")

    def test_single_point_grid(self, tmp_path):
        spec = SweepSpec(base=_base(), c_grid=(1.0,))
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
            with pytest.raises(InvalidSpec, match="^no drawable values on this axis scale$"):
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


def _result(c, psi, **columns) -> SweepResult:
    """The result of the columns ``c``, ``psi`` (G, K) and any others given
    by name, at psi_n = 3 and lambda = 1e-5; a theory column not given is
    NaN at every point, and any other None."""
    g = len(c)
    theory = {name: np.array(columns.pop(name, [math.nan] * g), dtype=float)
              for name in ("theory_risk", "theory_bias", "theory_variance")}
    lists = {name: columns.pop(name, [None] * g)
             for name in ("emp_mean", "emp_se", "replications", "solver_iterations", "error")}
    assert not columns, columns
    return SweepResult(c=np.array(c, dtype=float), psi=np.array(psi, dtype=float), psi_n=3.0, lam=1e-5,
                       **theory, **lists)


def _drawn(points) -> SweepResult:
    """A result to draw at c = 1, 2, ...: (theory risk, emp mean, emp se) per point."""
    risk, mean, se = (list(column) for column in zip(*points))
    return _result(c=range(1, len(points) + 1), psi=[(0.5, 0.5)] * len(points), theory_risk=risk,
                   emp_mean=mean, emp_se=se)


def _theory_cells(result: SweepResult, i: int) -> tuple:
    """Point ``i``'s theory risk, bias and variance and its Newton steps."""
    return (result.theory_risk[i], result.theory_bias[i], result.theory_variance[i], result.solver_iterations[i])
