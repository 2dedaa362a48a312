"""Tests for JSON configuration handling, number formatting and the CLI.

The CLI is exercised through ``dispatch`` (with in-memory streams) and
``main`` (with capsys), never by spawning processes, so exit codes, stdout
payloads and diagnostic lines are asserted directly.  Golden stdout values
come from closed forms: 1/sqrt(2*pi) for the relu mean, F1^2 for the
constant-feature risk, and (sqrt(2)-1)/2 for the equal-ratio width limit.
"""

import io
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from multidescent import (
    ConfigError,
    QuadratureDiverged,
    build_empirical_config,
    build_limit_spec,
    build_sweep_spec,
    build_theory_spec,
    format_number,
    parse_config,
    solve_nu,
    to_json,
)
from multidescent import config as config_module
from multidescent.cli import ExitStatus, dispatch, main
from multidescent.config import apply_overrides, load_raw, validate_config
from multidescent.formatting import _float_cells

README = Path(__file__).resolve().parents[1] / "README.md"


def _inline(cfg: dict) -> str:
    return json.dumps(cfg)


def _minimal(**model_extra) -> dict:
    model = {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0}
    model.update(model_extra)
    return {"activations": [{"kind": "relu"}], "model": model}


def _k2_counts_config(**extra) -> dict:
    cfg = {
        "activations": [
            {"kind": "elu", "in_scale": 3.0},
            {"kind": "relu", "in_scale": 0.25},
        ],
        "model": {"d": 100, "n": 250, "N": [120, 80], "lambda": 0.01, "tau": 0.1},
    }
    cfg.update(extra)
    return cfg


class TestFormatNumber:
    def test_fixed_point_goldens(self):
        assert format_number(0.0) == "0.000000000000"
        assert format_number(1.0) == "1.000000000000"
        assert format_number(1.0 / math.sqrt(2.0 * math.pi)) == "0.398942280401"
        assert format_number(-0.5) == "-0.500000000000"
        assert format_number(0.1) == "0.100000000000"

    def test_scientific_goldens(self):
        assert format_number(1e-5) == "1.000000000000e-05"
        assert format_number(0.05) == "5.000000000000e-02"
        assert format_number(1e15) == "1.000000000000e+15"
        assert format_number(-3.5e20) == "-3.500000000000e+20"

    def test_one_rule_for_json_and_csv(self):
        """format_number and the CSV cells write the same bytes at every
        edge of the fixed/scientific rule."""
        goldens = [
            (0.0, "0.000000000000"),
            (-0.0, "0.000000000000"),
            (0.1, "0.100000000000"),
            (-0.1, "-0.100000000000"),
            (math.nextafter(0.1, 0.0), "1.000000000000e-01"),
            (1e15, "1.000000000000e+15"),
            (-1e300, "-1.000000000000e+300"),
            (5e-324, "4.940656458412e-324"),
        ]
        for v, text in goldens:
            assert format_number(v) == text
            assert _float_cells([v]) == [text]

    def test_nonfinite(self):
        assert format_number(float("nan")) == "nan"
        assert format_number(float("inf")) == "inf"
        assert format_number(float("-inf")) == "-inf"

    def test_round_trip(self):
        # Twelve significant digits bound the relative error by half an ulp
        # in the last digit, i.e. 5e-12.
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 14))
            assert abs(float(format_number(x)) - x) <= 5e-12 * abs(x)


class TestToJson:
    def test_golden_layout(self):
        payload = {"a": 1, "b": [0.5, True, None], "c": {"d": "x"}}
        assert to_json(payload) == (
            '{\n  "a": 1,\n  "b": [\n    0.500000000000,\n    true,\n    null\n  ],'
            '\n  "c": {\n    "d": "x"\n  }\n}'
        )

    def test_nonfinite_floats_become_null(self):
        out = to_json({"x": float("nan"), "y": float("inf")})
        assert json.loads(out) == {"x": None, "y": None}

    def test_numpy_types(self):
        out = to_json(
            {"arr": np.array([1.0, 2.0]), "i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)}
        )
        assert json.loads(out) == {"arr": [1.0, 2.0], "i": 3, "f": 0.25, "b": True}

    def test_parseable_and_stable(self):
        payload = {"values": [1e-7, 0.3, 12345.678], "empty": {}, "none": []}
        a, b = to_json(payload), to_json(payload)
        assert a == b
        assert json.loads(a)["values"][0] == pytest.approx(1e-7, rel=1e-12)

    def test_unserializable(self):
        with pytest.raises(TypeError):
            to_json({"x": object()})


class TestConfigValidation:
    def test_minimal_parses(self):
        cfg = parse_config(_inline(_minimal()))
        assert cfg.model.psi == (1.0,)
        assert cfg.model.psi_n == 1.0
        assert cfg.model.lam == 1.0
        assert cfg.moments[0].mu1 == pytest.approx(0.5, rel=1e-12)
        assert cfg.sweep is None and cfg.empirical is None and cfg.limit is None
        assert cfg.output.csv_path is None

    def test_lambda_zero(self):
        with pytest.raises(ConfigError, match="lambda must be > 0"):
            parse_config(_inline(_minimal(**{"lambda": 0.0})))

    def test_lambda_missing(self):
        """Validation accepts a config without lambda; the theory builder,
        which reads it, rejects it."""
        bad = _minimal()
        del bad["model"]["lambda"]
        cfg = parse_config(_inline(bad))
        with pytest.raises(ConfigError, match="missing required key 'lambda'"):
            build_theory_spec(cfg)

    def test_lambda_nonfinite(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config('{"activations": [{"kind": "relu"}], '
                         '"model": {"psi": [1.0], "psi_n": 1.0, "lambda": NaN}}')

    def test_intercept_needs_nonzero_mean(self):
        cfg = {
            "activations": [{"kind": "identity"}, {"kind": "sin"}],
            "model": {"psi": [1.0, 1.0], "psi_n": 1.0, "lambda": 1.0, "F0": 0.2},
        }
        with pytest.raises(ConfigError, match="nonzero Gaussian mean") as exc:
            parse_config(_inline(cfg))
        assert exc.value.pointer == "/model/F0"

    def test_unknown_keys_carry_pointer(self):
        bad = _minimal()
        bad["bogus"] = 1
        with pytest.raises(ConfigError, match="/bogus: unknown key"):
            parse_config(_inline(bad))
        bad = _minimal()
        bad["model"]["extra"] = 1
        with pytest.raises(ConfigError, match="/model/extra: unknown key"):
            parse_config(_inline(bad))

    def test_activations_moments_exclusive(self):
        both = _minimal()
        both["moments_override"] = [{"mu0": 0, "mu1": 1, "mu2_sq": 0}]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(_inline(both))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(_inline({"model": _minimal()["model"]}))

    def test_psi_counts_exclusive(self):
        bad = _minimal()
        bad["model"]["d"] = 100
        with pytest.raises(ConfigError, match="not both"):
            parse_config(_inline(bad))

    def test_count_form_derives_ratios(self):
        cfg = parse_config(_inline(_k2_counts_config()))
        assert cfg.model.psi_eff == (1.2, 0.8)
        assert cfg.model.psi_n_eff == 2.5
        assert cfg.model.K == 2
        spec = build_theory_spec(cfg)
        assert spec.psi == (1.2, 0.8) and spec.psi_n == 2.5

    def test_component_count_mismatch(self):
        bad = _minimal()
        bad["activations"].append({"kind": "tanh"})
        with pytest.raises(ConfigError, match="1 components but 2"):
            parse_config(_inline(bad))

    def test_moments_override(self):
        cfg = parse_config(
            _inline(
                {
                    "moments_override": [{"mu0": 0.1, "mu1": 0.9, "mu2_sq": 0.4}],
                    "model": {"psi": [1.0], "psi_n": 2.0, "lambda": 0.5},
                }
            )
        )
        assert cfg.activations is None
        assert cfg.moments[0].mu1 == 0.9

    def test_negative_mu2_sq(self):
        with pytest.raises(ConfigError, match="/moments_override/0/mu2_sq"):
            parse_config(
                _inline(
                    {
                        "moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": -0.5}],
                        "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0},
                    }
                )
            )

    def test_unknown_activation_kind(self):
        bad = _minimal()
        bad["activations"][0]["kind"] = "swish"
        with pytest.raises(ConfigError, match="/activations/0/kind"):
            parse_config(_inline(bad))

    def test_sweep_range_expansion(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_range": {"start": 0.2, "stop": 3.0, "step": 0.05}}
        parsed = parse_config(_inline(cfg))
        grid = parsed.sweep.c_grid
        assert len(grid) == 57
        assert grid[0] == pytest.approx(0.2, abs=1e-12)
        assert grid[-1] == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(np.diff(grid), 0.05, rtol=1e-9)

    def test_sweep_range_default_step(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_range": {"start": 0.5, "stop": 0.7}}
        assert len(parse_config(_inline(cfg)).sweep.c_grid) == 5

    def test_sweep_range_count_overflow(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_range": {"start": 0.1, "stop": 1e300, "step": 1e-300}}
        with pytest.raises(ConfigError) as exc:
            parse_config(_inline(cfg))
        assert exc.value.pointer == "/sweep/c_range"
        assert str(exc.value) == "/sweep/c_range: (stop - start) / step must be finite"

    def test_sweep_grid_xor_range(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_grid": [1.0], "c_range": {"start": 1.0, "stop": 2.0}}
        with pytest.raises(ConfigError, match="exactly one of c_grid or c_range"):
            parse_config(_inline(cfg))
        cfg["sweep"] = {}
        with pytest.raises(ConfigError, match="exactly one of c_grid or c_range"):
            parse_config(_inline(cfg))

    def test_sweep_ratio_count(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_grid": [1.0], "ratios": [1.0, 2.0]}
        with pytest.raises(ConfigError, match="/sweep/ratios"):
            parse_config(_inline(cfg))

    def test_empirical_conflicts_with_model(self):
        cfg = _k2_counts_config()
        cfg["empirical"] = {"d": 50}
        with pytest.raises(ConfigError, match="/empirical/d: conflicts"):
            parse_config(_inline(cfg))

    def test_solver_section(self):
        cfg = _minimal()
        cfg["solver"] = {"tol": 1e-10, "max_iter": 500}
        parsed = parse_config(_inline(cfg))
        assert parsed.solver.tol == 1e-10
        assert parsed.solver.max_iter == 500
        cfg["solver"] = {"tol": -1.0}
        with pytest.raises(ConfigError, match="/solver/tol"):
            parse_config(_inline(cfg))

    def test_limit_section(self):
        cfg = _minimal()
        cfg["limit"] = {"r": [1.0, 2.0, 3.0]}
        with pytest.raises(ConfigError, match="/limit/r"):
            parse_config(_inline(cfg))

    def test_file_loading(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(_inline(_minimal()), encoding="utf-8")
        assert parse_config(str(path)).model.lam == 1.0
        with pytest.raises(ConfigError, match="not found"):
            load_raw(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_raw(str(bad))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected an object"):
            load_raw(str(path))


class TestOverrides:
    def test_json_values(self):
        raw = _minimal()
        apply_overrides(raw, ["model.lambda=0.001"])
        assert raw["model"]["lambda"] == 0.001

    def test_string_fallback(self):
        raw = _minimal()
        apply_overrides(raw, ["output.csv_path=curve.csv"])
        assert raw["output"]["csv_path"] == "curve.csv"

    def test_creates_missing_sections(self):
        raw = _minimal()
        apply_overrides(raw, ["solver.tol=1e-9"])
        assert raw["solver"]["tol"] == 1e-9

    def test_array_indexing(self):
        raw = _minimal()
        apply_overrides(raw, ["activations.0.in_scale=2.0"])
        cfg = validate_config(raw)
        assert cfg.activations[0].in_scale == 2.0
        assert cfg.moments[0].mu1 == pytest.approx(1.0, rel=1e-12)

    def test_malformed(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(_minimal(), ["justtext"])
        with pytest.raises(ConfigError, match="empty path segment"):
            apply_overrides(_minimal(), [".x=1"])
        with pytest.raises(ConfigError, match="bad array index"):
            apply_overrides(_minimal(), ["activations.5=1"])

    def test_override_still_validated(self):
        with pytest.raises(ConfigError, match="lambda must be > 0"):
            parse_config(_inline(_minimal()), ["model.lambda=0"])


class TestBuilders:
    def test_empirical_requires_counts(self):
        cfg = parse_config(_inline(_minimal()))
        with pytest.raises(ConfigError, match="explicit feature counts"):
            build_empirical_config(cfg)

    def test_empirical_requires_activations(self):
        cfg = parse_config(
            _inline(
                {
                    "moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": 0.5}],
                    "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0},
                }
            )
        )
        with pytest.raises(ConfigError, match="/activations"):
            build_empirical_config(cfg)

    def test_empirical_mapping(self):
        cfg = parse_config(
            _inline(_k2_counts_config(empirical={"n_test": 64, "replications": 4, "base_seed": 9}))
        )
        ecfg = build_empirical_config(cfg)
        assert (ecfg.d, ecfg.n, ecfg.N) == (100, 250, (120, 80))
        assert (ecfg.n_test, ecfg.replications, ecfg.base_seed) == (64, 4, 9)
        assert ecfg.lam == 0.01 and ecfg.tau == 0.1

    def test_empirical_defaults(self):
        cfg = parse_config(_inline(_k2_counts_config(empirical={})))
        ecfg = build_empirical_config(cfg)
        assert (ecfg.n_test, ecfg.replications, ecfg.base_seed) == (500, 30, 0)

    def test_sweep_defaults(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_grid": [0.5, 1.0]}
        spec = build_sweep_spec(parse_config(_inline(cfg)))
        assert spec.ratios == (1.0,)
        assert spec.c_grid == (0.5, 1.0)
        assert spec.empirical is None

    def test_sweep_missing_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            build_sweep_spec(parse_config(_inline(_minimal())))

    def test_sweep_with_template(self):
        cfg = _k2_counts_config(empirical={"replications": 2, "n_test": 32})
        cfg["sweep"] = {"c_grid": [0.5, 1.0], "ratios": [1.0, 1.0]}
        spec = build_sweep_spec(parse_config(_inline(cfg)))
        assert spec.empirical is not None
        assert spec.empirical.d == 100 and spec.empirical.n == 250
        assert spec.empirical.replications == 2

    def test_limit_takes_any_k(self):
        ls = build_limit_spec(parse_config(_inline(_minimal())))
        assert ls.r == (1.0,)
        cfg = _minimal()
        cfg["limit"] = {"r": [2.5]}
        assert build_limit_spec(parse_config(_inline(cfg))).r == (2.5,)

    def test_limit_mapping(self):
        cfg = {
            "moments_override": [
                {"mu0": 0, "mu1": 1.0, "mu2_sq": 1.0},
                {"mu0": 0, "mu1": 1.0, "mu2_sq": 1.0},
            ],
            "model": {"psi": [1.0, 1.0], "psi_n": 2.0, "lambda": 1.0},
            "limit": {"r": [2.0, 3.0]},
        }
        ls = build_limit_spec(parse_config(_inline(cfg)))
        assert ls.r == (2.0, 3.0)
        assert ls.psi_n == 2.0


def _run(command: str, cfg_dict: dict):
    out, err = io.StringIO(), io.StringIO()
    status = dispatch(command, parse_config(_inline(cfg_dict)), out, err)
    return status, out.getvalue(), err.getvalue()


class TestDispatch:
    def test_moments_golden(self):
        status, out, err = _run("moments", _minimal())
        assert status == ExitStatus.OK
        assert "0.398942280401" in out  # relu mean 1/sqrt(2 pi)
        assert "0.500000000000" in out  # relu linear moment 1/2
        payload = json.loads(out)
        assert payload["moments"][0]["mu1"] == 0.5

    def test_theory_flat_model_golden(self):
        cfg = {
            "moments_override": [
                {"mu0": 0.5, "mu1": 0.0, "mu2_sq": 0.0},
                {"mu0": 0.2, "mu1": 0.0, "mu2_sq": 0.0},
            ],
            "model": {"psi": [1.0, 1.0], "psi_n": 2.0, "lambda": 0.1, "F1": 1.0},
        }
        status, out, err = _run("theory", cfg)
        assert status == ExitStatus.OK
        assert "1.000000000000" in out  # constant features leave risk at F1^2
        payload = json.loads(out)
        assert payload["risk"] == pytest.approx(1.0, rel=1e-10)
        # The solver line and b come from the risk's own solve, which is solve_nu's.
        nu = solve_nu(build_theory_spec(parse_config(_inline(cfg))))
        assert err.splitlines()[0] == f"solver: {nu.iterations} iterations, residual {nu.residual:.3e}"
        assert payload["b"] == json.loads(to_json([float(x) for x in nu.b]))

    def test_theory_solver_failure(self):
        cfg = _minimal(**{"lambda": 1e-6})
        cfg["solver"] = {"max_iter": 2}
        status, out, err = _run("theory", cfg)
        assert status == ExitStatus.SOLVER
        assert out == ""
        lines = [l for l in err.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("NoConvergence:")

    def test_simulate(self):
        cfg = _k2_counts_config(empirical={"replications": 3, "n_test": 32})
        status, out, err = _run("simulate", cfg)
        assert status == ExitStatus.OK
        payload = json.loads(out)
        assert payload["replications"] == 3
        assert len(payload["per_replication"]) == 3
        assert payload["mean"] == pytest.approx(
            float(np.mean(payload["per_replication"])), rel=1e-10
        )

    def test_sweep_stdout_and_files(self, tmp_path):
        cfg = _k2_counts_config()
        cfg["sweep"] = {"c_grid": [0.5, 1.0, 1.5]}
        cfg["output"] = {
            "csv_path": str(tmp_path / "curve.csv"),
            "svg_path": str(tmp_path / "curve.svg"),
            "json_path": str(tmp_path / "curve.json"),
        }
        status, out, err = _run("sweep", cfg)
        assert status == ExitStatus.OK
        header, *rows = out.strip().split("\n")
        assert header == (
            "c,psi_1,psi_2,psi_n,lambda,theory_risk,theory_bias,theory_variance,"
            "emp_mean,emp_se,replications,solver_iterations"
        )
        assert len(rows) == 3
        csv_file = (tmp_path / "curve.csv").read_text(encoding="utf-8")
        assert csv_file == out  # file and stdout carry the same table
        sidecar = json.loads((tmp_path / "curve.json").read_text(encoding="utf-8"))
        assert len(sidecar["rows"]) == 3
        assert "created" not in sidecar["metadata"]
        root = ET.parse(tmp_path / "curve.svg").getroot()
        assert root.tag.endswith("svg")

    def test_sweep_sidecar_row_keys(self, tmp_path):
        cfg = _minimal()
        cfg["sweep"] = {"c_grid": [0.5, 1.0]}
        cfg["output"] = {"json_path": str(tmp_path / "curve.json")}
        status, out, err = _run("sweep", cfg)
        assert status == ExitStatus.OK
        sidecar = json.loads((tmp_path / "curve.json").read_text(encoding="utf-8"))
        assert len(sidecar["rows"]) == 2
        for row in sidecar["rows"]:
            assert list(row) == [
                "c", "psi", "psi_n", "lambda", "theory_risk", "theory_bias", "theory_variance",
                "emp_mean", "emp_se", "replications", "solver_iterations", "error",
            ]

    def test_limit_golden(self):
        cfg = {
            "moments_override": [
                {"mu0": 0, "mu1": 1.0, "mu2_sq": 1.0},
                {"mu0": 0, "mu1": 1.0, "mu2_sq": 1.0},
            ],
            "model": {"psi": [1.0, 1.0], "psi_n": 2.0, "lambda": 1.0},
        }
        status, out, err = _run("limit", cfg)
        assert status == ExitStatus.OK
        assert "0.207106781187" in out  # (sqrt(2)-1)/2
        payload = json.loads(out)
        assert payload["risk"] == pytest.approx((math.sqrt(2) - 1) / 2, rel=1e-12)
        assert payload["psi_n"] == 2.0

    @pytest.mark.parametrize("model", [{"psi_n": 2.0}, {"d": 10, "n": 20}])
    def test_limit_reads_neither_lambda_nor_widths(self, model):
        """limit needs psi_n (or d and n) alone and prints the same bytes."""
        full = {
            "moments_override": [{"mu0": 0, "mu1": 1.0, "mu2_sq": 1.0}] * 2,
            "model": {"psi": [1.0, 1.0], "psi_n": 2.0, "lambda": 1.0},
        }
        bare = dict(full, model=model)
        assert _run("limit", bare) == _run("limit", full)
        assert "0.207106781187" in _run("limit", bare)[1]

    def test_theory_still_needs_lambda(self):
        cfg = _minimal()
        del cfg["model"]["lambda"]
        assert _run("theory", cfg) == (
            ExitStatus.CONFIG, "", "ConfigError: /model: missing required key 'lambda'\n")

    @pytest.mark.parametrize("r", [[1.0], [1.0, 2.0, 3.0]])
    def test_limit_any_k(self, r):
        """Unit moments give (sqrt(2)-1)/2 at psi_n = 2 for any K and weights."""
        cfg = {
            "moments_override": [{"mu0": 0, "mu1": 1.0, "mu2_sq": 1.0}] * len(r),
            "model": {"psi": [1.0] * len(r), "psi_n": 2.0, "lambda": 1.0},
            "limit": {"r": r},
        }
        status, out, err = _run("limit", cfg)
        assert status == ExitStatus.OK and err == ""
        assert "0.207106781187" in out
        assert json.loads(out)["r"] == r

    def test_io_error(self, tmp_path):
        cfg = _minimal()
        cfg["sweep"] = {"c_grid": [1.0]}
        cfg["output"] = {"csv_path": str(tmp_path / "no" / "such" / "dir" / "x.csv")}
        status, out, err = _run("sweep", cfg)
        assert status == ExitStatus.IO
        lines = [l for l in err.splitlines() if l]
        assert len(lines) == 1
        assert "FileNotFoundError" in lines[0]

    def test_warnings_go_to_stderr(self, monkeypatch):
        # Every cond(S) exceeds a threshold of 1, so this theory run warns.
        monkeypatch.setattr("multidescent.risk.COND_WARN_THRESHOLD", 1.0)
        cfg = {
            "moments_override": [
                {"mu0": 0, "mu1": 1e4, "mu2_sq": 1e8},
                {"mu0": 0, "mu1": 1e-4, "mu2_sq": 1e-8},
            ],
            "model": {"psi": [1.0, 1.0], "psi_n": 2.0, "lambda": 1e-6},
        }
        status, out, err = _run("theory", cfg)
        assert status == ExitStatus.OK
        assert "IllConditionedWarning" in err
        json.loads(out)  # stdout stays pure JSON


class TestMain:
    def test_ok_exit(self, capsys):
        assert main(["moments", "--config", _inline(_minimal())]) == 0
        assert "0.398942280401" in capsys.readouterr().out

    def test_missing_file_is_config_error(self, capsys):
        assert main(["theory", "--config", "/nonexistent/run.json"]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "not found" in err

    def test_invalid_json(self, capsys):
        assert main(["theory", "--config", "{broken"]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_quadrature_failure_is_config_error(self, capsys):
        cfg = _minimal()
        cfg["activations"] = [{"kind": "sin", "in_scale": 300.0}]
        assert main(["moments", "--config", _inline(cfg)]) == 2
        assert "QuadratureDiverged" in capsys.readouterr().err

    def test_set_overrides(self, capsys):
        argv = ["theory", "--config", _inline(_minimal())]
        assert main(argv) == 0
        base = json.loads(capsys.readouterr().out)["risk"]
        assert main(argv + ["--set", "model.lambda=1e-4"]) == 0
        changed = json.loads(capsys.readouterr().out)["risk"]
        assert base != changed

    def test_set_non_integer_index_mid_path(self, capsys):
        argv = ["theory", "--config", _inline(_minimal()), "--set", "activations.x.kind=tanh"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ConfigError: /activations/x: bad array index: "
            "invalid literal for int() with base 10: 'x'\n"
        )

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        cfg = _k2_counts_config(empirical={"replications": 2, "n_test": 32})
        cfg["sweep"] = {"c_grid": [0.5, 1.0]}
        cfg["output"] = {"csv_path": str(tmp_path / "a.csv")}
        argv = ["sweep", "--config", _inline(cfg)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        first_bytes = (tmp_path / "a.csv").read_bytes()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "a.csv").read_bytes() == first_bytes

    def test_thread_cap_invisible_in_output(self, capsys):
        """The worker count changes how replications run, never what is printed."""
        cfg = _k2_counts_config(empirical={"replications": 3, "n_test": 32, "workers": 8})
        argv = ["simulate", "--config", _inline(cfg)]
        assert main(argv) == 0
        eight = capsys.readouterr().out
        assert main(argv + ["--set", "empirical.workers=1"]) == 0
        assert capsys.readouterr().out == eight

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "multidescent" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "{}"])
        assert exc.value.code == 2


class TestReadme:
    """The README's config example and key reference follow the parser."""

    def test_config_example_validates(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        cfg = validate_config(json.loads(blocks[0]))
        assert cfg.empirical is not None and cfg.sweep is not None
        assert cfg.output.csv_path == "curve.csv"

    def test_reference_lists_every_key(self):
        tables = {
            "activations[]": config_module._ACTIVATION,
            "moments_override[]": config_module._MOMENTS,
            "model": config_module._MODEL,
            "solver": config_module._SOLVER,
            "empirical": config_module._EMPIRICAL,
            "sweep": config_module._SWEEP,
            "sweep.c_range": config_module._C_RANGE,
            "limit": config_module._LIMIT,
            "output": config_module._OUTPUT,
        }
        assert {name.split(".")[0].removesuffix("[]") for name in tables} == set(config_module._ROOT)
        expected = {f"{name}.{key}" for name, table in tables.items() for key in table}
        expected.discard("sweep.c_range")  # documented through its own keys
        text = README.read_text(encoding="utf-8")
        assert set(re.findall(r"^\| `([\w.\[\]]+)` \|", text, re.M)) == expected
