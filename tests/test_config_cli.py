"""Tests for JSON configuration handling, number formatting and the CLI.

The CLI is exercised through ``dispatch`` (with in-memory streams) and
``main`` (with capsys), never by spawning processes, so exit codes, stdout
payloads and diagnostic lines are asserted directly.  Golden stdout values
come from closed forms: 1/sqrt(2*pi) for the relu mean, F1^2 for the
constant-feature risk, and (sqrt(2)-1)/2 for the equal-ratio width limit.
"""

import ast
import builtins
import copy
import importlib
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import multidescent
from multidescent import (
    ActivationSpec,
    ConfigError,
    EmpiricalConfig,
    InvalidSpec,
    SolveFailure,
    SweepSpec,
    asymptotic_risk,
    build_empirical_config,
    build_limit_spec,
    build_sweep_spec,
    build_theory_spec,
    format_number,
    parse_config,
    theory_spec_from_empirical,
    to_json,
)
from multidescent import config as config_module
from multidescent.cli import _CONFIG_ERRORS, _SOLVER_ERRORS, _STATUSES, ExitStatus, dispatch, main
from multidescent.config import apply_overrides, validate_config
from multidescent.formatting import _float_cells
from oracles import mp_limit_risk, mp_risk

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
        payload = {"a": 1, "b": [0.5, True, None, {}, []], "c": {"d": "x", "e": {}},
                   "t": (2, "y"), "n": np.array([[0.25], [3.0]])}
        assert to_json(payload) == (
            '{\n  "a": 1,\n  "b": [\n    0.500000000000,\n    true,\n    null,\n    {},\n    []\n  ],'
            '\n  "c": {\n    "d": "x",\n    "e": {}\n  },'
            '\n  "t": [\n    2,\n    "y"\n  ],'
            '\n  "n": [\n    [\n      0.250000000000\n    ],\n    [\n      3.000000000000\n    ]\n  ]\n}'
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
        assert json.loads(a)["values"][0] == pytest.approx(1e-7, rel=1e-12, abs=0.0)

    def test_unserializable(self):
        with pytest.raises(TypeError):
            to_json({"x": object()})


class TestConfigValidation:
    def test_minimal_parses(self):
        cfg = parse_config(_inline(_minimal()))
        assert set(cfg) == {"activations", "model", "moments", "output"}
        assert cfg["model"] == {"psi": (1.0,), "psi_n": 1.0, "lambda": 1.0}
        assert cfg["moments"][0].mu1 == pytest.approx(0.5, rel=1e-12, abs=0.0)
        assert cfg["output"] == {}

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

    @pytest.mark.parametrize("which", ["in_scale", "out_scale"])
    def test_intercept_guard_ignores_scale(self, which):
        """relu's mean is nonzero at any scale; tanh's is zero at any scale."""
        for scale in (1e-12, 1e12):
            cfg = {"activations": [{"kind": "relu", which: scale}],
                   "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0, "F0": 0.5}}
            assert build_theory_spec(parse_config(_inline(cfg))).F0 == 0.5
            cfg["activations"][0]["kind"] = "tanh"
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
        assert cfg["model"]["N"] == (120, 80) and "psi" not in cfg["model"]
        spec = build_theory_spec(cfg)
        assert spec.psi == (1.2, 0.8) and spec.psi_n == 2.5
        assert len(spec.moments) == 2
        assert build_limit_spec(cfg).psi_n == 2.5

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
        assert "activations" not in cfg and "moments_override" not in cfg
        assert cfg["moments"][0].mu1 == 0.9

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
        assert "c_range" not in parsed["sweep"]
        grid = parsed["sweep"]["c_grid"]
        assert len(grid) == 57
        assert grid[0] == pytest.approx(0.2, abs=1e-12)
        assert grid[-1] == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(np.diff(grid), 0.05, rtol=1e-9)

    def test_sweep_range_default_step(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_range": {"start": 0.5, "stop": 0.7}}
        assert len(parse_config(_inline(cfg))["sweep"]["c_grid"]) == 5

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
        """d and n are stated once, in the model: the empirical section
        cannot restate them, agreeing or not."""
        for key, value in (("d", 50), ("d", 100), ("n", 250)):
            cfg = _k2_counts_config(empirical={key: value})
            with pytest.raises(ConfigError, match=f"^/empirical/{key}: unknown key$"):
                parse_config(_inline(cfg))

    def test_limit_section(self):
        cfg = _minimal()
        cfg["limit"] = {"r": [1.0, 2.0, 3.0]}
        with pytest.raises(ConfigError, match="/limit/r"):
            parse_config(_inline(cfg))

    def test_file_loading(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(_inline(_minimal()), encoding="utf-8")
        assert parse_config(str(path))["model"]["lambda"] == 1.0
        with pytest.raises(ConfigError, match="^config file not found: .*missing.json$"):
            parse_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError, match="^invalid JSON: "):
            parse_config(str(bad))
        with pytest.raises(ConfigError, match="^invalid JSON: "):
            parse_config("{oops")

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="^expected an object, got list$"):
            parse_config(str(path), ["model.lambda=1"])


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
        # The solver takes no settings: validation rejects the section itself.
        with pytest.raises(ConfigError, match="^/solver: unknown key$"):
            validate_config(raw)

    def test_array_indexing(self):
        raw = _minimal()
        apply_overrides(raw, ["activations.0.in_scale=2.0"])
        cfg = validate_config(raw)
        assert cfg["activations"][0].in_scale == 2.0
        assert cfg["moments"][0].mu1 == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_malformed(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(_minimal(), ["justtext"])
        with pytest.raises(ConfigError, match="empty path segment"):
            apply_overrides(_minimal(), [".x=1"])
        with pytest.raises(ConfigError, match="bad array index"):
            apply_overrides(_minimal(), ["activations.5=1"])
        with pytest.raises(ConfigError, match="^/activations/5: override path runs off the document$"):
            apply_overrides(_minimal(), ["activations.5.kind=relu"])

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
        """An empty section, or none, gives EmpiricalConfig's own defaults."""
        expected = EmpiricalConfig(
            d=100, n=250, N=(120, 80),
            activations=(ActivationSpec("elu", in_scale=3.0), ActivationSpec("relu", in_scale=0.25)),
            lam=0.01, tau=0.1,
        )
        for extra in ({"empirical": {}}, {}):
            assert build_empirical_config(parse_config(_inline(_k2_counts_config(**extra)))) == expected
        assert (expected.n_test, expected.replications, expected.base_seed) == (500, 30, 0)

    def test_sweep_defaults(self):
        cfg = _minimal()
        cfg["sweep"] = {"c_grid": [0.5, 1.0]}
        spec = build_sweep_spec(parse_config(_inline(cfg)))
        assert spec.base.psi == (1.0,)
        assert spec.c_grid == (0.5, 1.0)
        assert spec.empirical is None

    def test_sweep_missing_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            build_sweep_spec(parse_config(_inline(_minimal())))

    def test_sweep_with_template(self):
        cfg = _k2_counts_config(empirical={"replications": 2, "n_test": 32})
        cfg["sweep"] = {"c_grid": [0.5, 1.0], "ratios": [1.0, 1.0]}
        parsed = parse_config(_inline(cfg))
        spec = build_sweep_spec(parsed)
        assert spec.empirical == build_empirical_config(parsed)
        assert replace(theory_spec_from_empirical(spec.empirical), psi=(1.0, 1.0)) == spec.base
        assert spec.empirical.replications == 2

    def test_builders_leave_the_document_unchanged(self):
        """One parsed document serves any number of builds."""
        cfg = parse_config(_inline(_k2_counts_config(empirical={}, sweep={"c_grid": [0.5, 1.0]})))
        before = copy.deepcopy(cfg)
        for build in (build_theory_spec, build_empirical_config, build_sweep_spec, build_limit_spec):
            build(cfg)
        assert cfg == before

    def test_sweep_runs_no_model_counts(self, capsys):
        """An empirical sweep runs its own counts at each c: it prints the same
        bytes whatever model.N is, or without it, while simulate needs N."""
        cfg = {"activations": [{"kind": "relu"}, {"kind": "tanh"}], "model": {"d": 40, "n": 120, "lambda": 0.01},
               "empirical": {"replications": 3}, "sweep": {"ratios": [1, 1], "c_grid": [0.5, 1.5]}}
        outputs = []
        for extra in ({}, {"N": [90, 90]}, {"N": [1, 1000]}, {"N": [7, 3]}):
            assert main(["sweep", "--config", _inline(dict(cfg, model=dict(cfg["model"], **extra)))]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].count("\n") == 3 and outputs == outputs[:1] * 4
        assert main(["simulate", "--config", _inline(cfg)]) == ExitStatus.CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == "ConfigError: /model: finite-size runs need explicit feature counts N\n"

    def test_sweep_simulates_its_own_model(self, capsys):
        """A sweep cannot print the theory of one model beside simulations of
        another: a psi-mode model has no d and n to simulate (exit 2), and a
        library spec whose run differs from its base raises InvalidSpec."""
        psi_mode = {"activations": [{"kind": "relu"}], "model": {"psi": [1], "psi_n": 3, "lambda": 0.01},
                    "sweep": {"c_grid": [1]}}
        for empirical, message in (({"d": 20, "n": 20}, "/empirical/d: unknown key"),
                                   ({}, "/model: finite-size sweeps need d and n")):
            argv = ["sweep", "--config", _inline(dict(psi_mode, empirical=empirical))]
            assert main(argv) == ExitStatus.CONFIG
            out, err = capsys.readouterr()
            assert out == "" and message in err
        spec = build_sweep_spec(parse_config(_inline(_k2_counts_config(sweep={"c_grid": [1.0]}))))
        run = build_empirical_config(parse_config(_inline(_k2_counts_config(model=dict(
            _k2_counts_config()["model"], n=400)))))
        with pytest.raises(InvalidSpec, match="^empirical runs a different model from base: psi_n differ$"):
            SweepSpec(base=spec.base, c_grid=spec.c_grid, empirical=run)

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


# Its risk to 50 digits, from ``oracles.mp_risk`` at 60 digits.
FAR_APART = {"activations": [{"kind": "identity"}, {"kind": "relu"}],
             "model": {"psi": [100, 0.01], "psi_n": 100, "lambda": 1e-12, "tau": 0.1}}
FAR_APART_RISK = "1.0203050813213431068369087224786244377257050527889e-4"


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
        assert payload["risk"] == pytest.approx(1.0, rel=1e-10, abs=0.0)
        # The solver line and b are the fields of the risk's own result.
        direct = asymptotic_risk(build_theory_spec(parse_config(_inline(cfg))))
        assert err.splitlines()[0] == (
            f"solver: {direct.iterations} iterations, residual {direct.residual:.3e}")
        assert payload["b"] == json.loads(to_json([float(x) for x in direct.b]))

    def test_theory_far_apart_scales(self):
        """Identity and relu blocks whose scales lie 17 decades apart at a
        small ridge: the solve converges and its risk is the high-precision
        one."""
        status, out, err = _run("theory", FAR_APART)
        assert status == ExitStatus.OK
        assert json.loads(out)["risk"] == pytest.approx(float(FAR_APART_RISK), rel=1e-12, abs=0.0)

    def test_far_apart_risk_generator(self):
        """``oracles.mp_risk`` reproduces FAR_APART_RISK from the closed-form
        moments: identity (mu1, mu2^2) = (1, 0), relu (1/2, 1/4 - 1/(2 pi))."""
        with mp.workdps(60):
            relu_mu2_sq = mp.mpf(1) / 4 - 1 / (2 * mp.pi)
            risk = mp_risk([100, "0.01"], 100, [1, "0.25"], [0, relu_mu2_sq], "1e-12", 1, "0.1")
            assert abs(risk / mp.mpf(FAR_APART_RISK) - 1) < mp.mpf(10) ** -45

    def test_theory_risk_overflow_is_config_error(self):
        """F1 = tau = 1e154 have finite squares, but the risk they weigh
        overflows: exit 2 with one line naming it, and no numpy warning."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": 1}],
               "model": {"psi": [1.0], "psi_n": 2.0, "lambda": 0.1, "F1": 1e154, "tau": 1e154}}
        assert _run("theory", cfg) == (
            ExitStatus.CONFIG, "",
            "InvalidSpec: risk overflows: bias 1.119e+308 + variance 8.079e+307 is not finite\n")

    def test_limit_at_huge_sample_ratio(self):
        """psi_n = 1e300 gives the finite limit of the mpmath evaluation,
        with nothing on stderr."""
        cfg = {"activations": [{"kind": "elu", "in_scale": 3.0}, {"kind": "relu", "in_scale": 0.25}],
               "model": {"psi_n": 1e300, "tau": 0.1}}
        status, out, err = _run("limit", cfg)
        assert (status, err) == (ExitStatus.OK, "")
        expected = float(mp_limit_risk(build_limit_spec(parse_config(_inline(cfg)))))
        assert json.loads(out)["risk"] == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_theory_wide_linear_block(self):
        """A purely linear block 1e80 times as wide as a nonlinear one, at
        lambda = 1e-8: its Newton steps are far longer than the first trial
        length of 2, and lengthened while F falls they reach the root
        (cutting them alone failed at the 100-step limit)."""
        cfg = {"moments_override": [{"mu0": 0, "mu1": 0.894427190999916, "mu2_sq": 0.5},
                                    {"mu0": 0, "mu1": 1, "mu2_sq": 0}],
               "model": {"psi": [1, 1e80], "psi_n": 2, "lambda": 1e-8}}
        status, out, err = _run("theory", cfg)
        assert status == ExitStatus.OK
        assert math.isfinite(json.loads(out)["risk"])
        iterations, residual = re.match(r"^solver: (\d+) iterations, residual (\S+)$", err.splitlines()[0]).groups()
        assert int(iterations) < 100 and float(residual) <= 1e-12

    def test_theory_solver_failure(self, monkeypatch):
        cfg = _minimal(**{"lambda": 1e-6})
        monkeypatch.setattr("multidescent.risk._MAX_ITER", 1)
        status, out, err = _run("theory", cfg)
        assert status == ExitStatus.SOLVER
        assert out == ""
        assert err == "SolveFailure: residual 1.033e-07 > tol 1.0e-12 after 1 Newton steps at lambda=1.000e-06\n"

    def test_theory_singular_s_is_solver_failure(self, monkeypatch):
        """Scales at which every pivot of S underflows to zero fail the theory
        command with the solver status.  No solve returns such scales, so the
        Newton solve is made to."""
        newton = multidescent.risk._newton

        def degenerate(base, psi):
            b, residual, steps, errors = newton(base, psi)
            b[:] = 5e-324
            return b, residual, steps, errors

        monkeypatch.setattr("multidescent.risk._newton", degenerate)
        status, out, err = _run("theory", _minimal(**{"lambda": 1e-6}))
        assert (status, out) == (ExitStatus.SOLVER, "")
        assert err == "SolveFailure: S is singular: pivot 0.000e+00 is not positive and finite\n"

    def test_simulate(self):
        cfg = _k2_counts_config(empirical={"replications": 3, "n_test": 32})
        status, out, err = _run("simulate", cfg)
        assert status == ExitStatus.OK
        payload = json.loads(out)
        assert payload["replications"] == 3
        assert len(payload["per_replication"]) == 3
        assert payload["mean"] == pytest.approx(
            float(np.mean(payload["per_replication"])), rel=1e-10, abs=0.0
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

    def test_sweep_log_y_ticks(self, tmp_path):
        """``sweep.log_y: true`` reaches the SVG: its y ticks are spaced
        evenly in log10 between the smallest and the largest theory risk, so
        the middle one is their geometric mean."""
        cfg = _minimal()
        cfg["sweep"] = {"c_grid": [0.5, 2.0, 8.0], "log_y": True}
        cfg["output"] = {"svg_path": str(tmp_path / "curve.svg")}
        status, out, err = _run("sweep", cfg)
        assert status == ExitStatus.OK and err == ""
        risks = [float(row.split(",")[5]) for row in out.strip().split("\n")[1:]]
        root = ET.parse(tmp_path / "curve.svg").getroot()
        ticks = [float(t.text) for t in root.iter() if t.tag.endswith("text") and t.get("text-anchor") == "end"]
        lo, hi = min(risks), max(risks)
        assert hi / lo > 1.5 and len(ticks) == 5  # the geometric mean lies 5 % below the arithmetic one
        assert ticks[0] == pytest.approx(lo, rel=5e-3, abs=0.0) and ticks[-1] == pytest.approx(hi, rel=5e-3, abs=0.0)
        assert ticks[2] == pytest.approx(math.sqrt(lo * hi), rel=5e-3, abs=0.0)
        assert '"log_y":true' in ET.tostring(root, encoding="unicode").replace(" ", "")

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
        assert payload["risk"] == pytest.approx((math.sqrt(2) - 1) / 2, rel=0.0, abs=5e-13)
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

    def test_sweep_width_overflow_is_config_error(self):
        """A finite c and ratio whose width overflows exit 2 with one line
        that names the overflow; here c*psi_n = 2e308."""
        cfg = _minimal(psi_n=2.0)
        cfg["sweep"] = {"c_grid": [1e308], "ratios": [1e10]}
        assert _run("sweep", cfg) == (
            ExitStatus.CONFIG, "",
            "InvalidSpec: psi entries overflow: r_c*c*psi_n/sum(r) must be finite, with r the base widths\n")

    def test_warnings_go_to_stderr(self, monkeypatch):
        # Every estimated error exceeds a threshold of 0, so this theory run warns.
        monkeypatch.setattr("multidescent.risk._ERR_WARN", 0.0)
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

    def test_moments_needs_no_model(self, capsys):
        """``moments`` reads the activations alone."""
        assert main(["moments", "--config", _inline({"activations": [{"kind": "relu"}]})]) == 0
        assert main(["moments", "--config", _inline(_minimal())]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[: len(out) // 2] == out[len(out) // 2:]

    def test_missing_file_is_config_error(self, capsys):
        assert main(["theory", "--config", "/nonexistent/run.json"]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "not found" in err

    def test_invalid_json(self, capsys):
        assert main(["theory", "--config", "{broken"]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_quadrature_failure_is_config_error(self, capsys):
        for command, in_scale, drift, second in (("moments", 300.0, "7.641e-02", "4.993e-01"),
                                                  ("theory", 1e8, "1.114e-01", "4.990e-01")):
            cfg = _minimal()
            cfg["activations"] = [{"kind": "sin", "in_scale": in_scale}]
            assert main([command, "--config", _inline(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"InvalidSpec: moment integrals moved by {drift} under node doubling, more "
                                    f"than 1e-8 of their scale (E sigma^2 = {second}, kind='sin')\n")

    @pytest.mark.parametrize("command", ["moments", "theory"])
    def test_overflowing_moments_are_config_error(self, command, capsys):
        """A moment integral that overflows stops the run before anything is
        solved, with one diagnostic line and no numpy warning."""
        cfg = _minimal()
        cfg["activations"] = [{"kind": "relu", "out_scale": 1e200}]
        assert main([command, "--config", _inline(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"InvalidSpec: moment integrals are not finite .*\n", captured.err)

    def test_set_overrides(self, capsys):
        argv = ["theory", "--config", _inline(_minimal())]
        assert main(argv) == 0
        base = json.loads(capsys.readouterr().out)["risk"]
        assert main(argv + ["--set", "model.lambda=1e-4"]) == 0
        changed = json.loads(capsys.readouterr().out)["risk"]
        assert base != changed

    def test_set_solver_is_config_error(self, capsys):
        argv = ["theory", "--config", _inline(_minimal()), "--set", "solver.tol=1e-9"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "ConfigError: /solver: unknown key\n")

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


FIGURE = [{"kind": "elu", "in_scale": 3.0}, {"kind": "relu", "in_scale": 0.25}]


def _figure(**model) -> dict:
    return {"activations": FIGURE,
            "model": {"psi": [1.0, 1.0], "psi_n": 10.0 / 3.0, "lambda": 1e-3, **model}}


def _figure_counts(**model) -> dict:
    return {"activations": FIGURE,
            "model": {"d": 20, "n": 40, "N": [10, 10], "lambda": 1e-3, **model},
            "empirical": {"replications": 2, "n_test": 10}}


def _swept(cfg: dict, c_grid) -> dict:
    return {**cfg, "sweep": {"c_grid": c_grid}}


# Lines the CLI writes to stderr start with one of these: an error or
# warning class it diagnoses, or the theory and sweep summaries.
_DIAGNOSTICS = tuple(f"{name}: " for name in (
    "solver", "sweep", "IllConditionedWarning",
    *(err.__name__ for err in _CONFIG_ERRORS + _SOLVER_ERRORS)))


class TestCliContract:
    """Extreme but valid configs end in a status the CLI documents, with
    nothing on stderr but the package's own diagnostic lines: no traceback
    and no numpy warning."""

    def test_every_public_error_has_one_exit_status(self):
        """Each exception the package exports (warnings aside) maps to exactly
        one status, so none reaches the user as a traceback; the tables name
        no other class but OSError."""
        public = {getattr(multidescent, name) for name in multidescent.__all__}
        errors = {kind for kind in public if isinstance(kind, type) and issubclass(kind, Exception)
                  and not issubclass(kind, Warning)}
        for kind in errors:
            assert sum(issubclass(kind, kinds) for kinds, _ in _STATUSES) == 1, kind
        named = {kind for kinds, _ in _STATUSES for kind in kinds}
        assert named - errors == {OSError}

    def test_src_constructs_only_the_status_classes(self):
        """Every exception the package makes, raised at once or stored and
        raised later, is of a class the status tables sort, or the TypeError
        of an object ``to_json`` cannot serialize: each call or bare raise
        whose callee resolves, in its module's namespace (numpy included), to
        an Exception subclass names one of those classes."""
        allowed = {InvalidSpec, ConfigError, SolveFailure, TypeError}

        def resolve(node, namespace):
            if isinstance(node, ast.Name):
                return namespace.get(node.id, getattr(builtins, node.id, None))
            if isinstance(node, ast.Attribute):
                return getattr(resolve(node.value, namespace), node.attr, None)
            return None

        made = []
        for path in sorted(Path(multidescent.__file__).parent.glob("*.py")):
            module = multidescent if path.stem == "__init__" else importlib.import_module(
                f"multidescent.{path.stem}")
            for node in ast.walk(ast.parse(path.read_text())):
                callee = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
                kind = resolve(callee, vars(module))
                if isinstance(kind, type) and issubclass(kind, Exception):
                    made.append((path.name, node.lineno, kind))
        assert [(name, line, kind.__name__) for name, line, kind in made if kind not in allowed] == []
        assert {kind for _, _, kind in made} == allowed

    @pytest.mark.parametrize("command, cfg", [
        pytest.param("theory", _figure(F1=1e300), id="theory-F1-square-overflows"),
        pytest.param("theory", _figure(tau=1e160), id="theory-tau-square-overflows"),
        pytest.param("limit", _figure(F1=1e300), id="limit-F1-square-overflows"),
        pytest.param("sweep", _swept(_figure(tau=1e160), [1.0]), id="sweep-tau-square-overflows"),
        pytest.param("simulate", _figure_counts(F1=1e300), id="simulate-F1-square-overflows"),
        pytest.param("sweep", _swept({**_figure(), "activations": [{"kind": "elu"}, {"kind": "relu"}]},
                                     [1.0, 1e307]), id="sweep-newton-step-overflows"),
        pytest.param("sweep", _swept(_figure(), [1.0, 1e307]), id="sweep-first-residual-overflows"),
        pytest.param("sweep", _swept(_figure(), [1e-300, 1.0]), id="sweep-tiny-c"),
        pytest.param("theory", {"activations": [{"kind": "relu", "out_scale": 1e200}],
                                "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0}},
                     id="theory-relu-out-scale-1e200"),
        pytest.param("moments", {"activations": [{"kind": "elu", "in_scale": 1e300}],
                                 "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0}},
                     id="moments-elu-in-scale-1e300"),
        pytest.param("theory", _figure(**{"lambda": 1e-34}), id="theory-lambda-1e-34"),
        pytest.param("theory", _figure(**{"lambda": 1e300}), id="theory-lambda-1e300"),
        pytest.param("theory", _figure(psi=[1e-300, 1e300]), id="theory-psi-far-apart"),
        pytest.param("theory", _figure(psi_n=1e-300), id="theory-psi-n-1e-300"),
        pytest.param("theory", _figure(psi_n=1e300), id="theory-psi-n-1e300"),
        pytest.param("theory", _figure(F1=1e150, tau=1e150), id="theory-F1-tau-1e150"),
        pytest.param("sweep", _swept(_figure(F1=1e154, tau=1e154), [0.5, 1.0]), id="sweep-risk-overflows"),
        pytest.param("theory", {"activations": [{"kind": "identity"}, {"kind": "relu"}],
                                "model": {"psi": [100, 0.01], "psi_n": 100, "lambda": 1e-12}},
                     id="theory-identity-relu-small-ridge"),
        pytest.param("simulate", _figure_counts(**{"lambda": 1e-300}), id="simulate-lambda-1e-300"),
        pytest.param("simulate", _figure_counts(**{"lambda": 1e300}), id="simulate-lambda-1e300"),
        pytest.param("simulate", _figure_counts(F0=1e300), id="simulate-F0-1e300"),
        pytest.param("simulate", _figure_counts(F1=1e150), id="simulate-F1-1e150"),
        pytest.param("simulate", _figure_counts(tau=1e150), id="simulate-tau-1e150"),
    ])
    def test_status_and_stderr(self, command, cfg, capsys):
        status = main([command, "--config", _inline(cfg)])
        captured = capsys.readouterr()
        assert status in (ExitStatus.OK, ExitStatus.CONFIG, ExitStatus.SOLVER), captured.err
        assert "Traceback" not in captured.out + captured.err
        for line in captured.err.splitlines():
            assert line.startswith(_DIAGNOSTICS), line
            assert not line.startswith("RuntimeWarning"), line


class TestReadme:
    """The README's config example and key reference follow the parser."""

    def test_config_example_validates(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        cfg = validate_config(json.loads(blocks[0]))
        assert "empirical" in cfg and "sweep" in cfg
        assert cfg["output"]["csv_path"] == "curve.csv"

    def test_python_blocks_run(self, capsys):
        """The quickstart's Python blocks run as written, so none names a
        deleted API, and each prints one line of finite numbers."""
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 2
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        for line in printed:
            values = [float(x) for x in line.split() if x not in ("+-", "vs")]
            assert values and all(math.isfinite(v) for v in values)

    def test_reference_lists_every_key(self):
        tables = {
            "activations[]": config_module._ACTIVATION,
            "moments_override[]": config_module._MOMENTS,
            "model": config_module._MODEL,
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
