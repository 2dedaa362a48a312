"""Golden error table: one single-error config per way validation can fail.

Every case starts from a valid config, makes one edit, and pins both the
JSON pointer and the full text of the resulting :class:`ConfigError`, exactly.
``build`` names the builder that must raise when validation itself accepts
the config.  Together the cases reach every ``raise ConfigError`` in
``validate_config`` and the ``build_*`` builders.
"""

import copy
import math

import pytest

from multidescent.config import (
    ConfigError,
    build_empirical_config,
    build_limit_spec,
    build_sweep_spec,
    build_theory_spec,
    validate_config,
)

DROP = object()  # edit value that deletes the key

PSI = {"activations": [{"kind": "relu"}], "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0}}
COUNTS = {"activations": [{"kind": "relu"}], "model": {"d": 10, "n": 20, "N": [10], "lambda": 1.0}}
MOMENTS = {
    "moments_override": [{"mu0": 0.0, "mu1": 1.0, "mu2_sq": 0.5}],
    "model": {"psi": [1.0], "psi_n": 1.0, "lambda": 1.0},
}
BUILDERS = {"theory": build_theory_spec, "empirical": build_empirical_config,
            "sweep": build_sweep_spec, "limit": build_limit_spec}


def _edited(base: dict, edits):
    """Apply ``{"dotted.path": value}`` edits to a copy of ``base``; a non-dict replaces it."""
    if not isinstance(edits, dict):
        return edits
    raw = copy.deepcopy(base)
    for path, value in edits.items():
        *parents, last = path.split(".")
        node = raw
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if isinstance(node, list):
            node[int(last)] = value
        elif value is DROP:
            del node[last]
        else:
            node[last] = value
    return raw


def case(case_id, edits, pointer, text, base=PSI, build=None):
    return pytest.param(base, edits, build, pointer, text, id=case_id)


CASES = [
    case("root-not-object", [1, 2], "", "expected an object, got list"),
    case("root-unknown-key", {"bogus": 1}, "/bogus", "/bogus: unknown key"),
    case("root-both-sources", {"moments_override": [{"mu0": 0, "mu1": 1, "mu2_sq": 0}]},
         "", "give exactly one of activations or moments_override"),
    case("root-no-source", {"activations": DROP}, "", "give exactly one of activations or moments_override"),
    case("root-missing-model", {"model": DROP}, "", "missing required section 'model'"),
    case("activations-not-array", {"activations": {"kind": "relu"}},
         "/activations", "/activations: expected an array, got dict"),
    case("activations-empty", {"activations": []},
         "/activations", "/activations: needs at least one activation"),
    case("activation-not-object", {"activations": ["relu"]},
         "/activations/0", "/activations/0: expected an object, got str"),
    case("activation-unknown-key", {"activations.0": {"kind": "relu", "scale": 2}},
         "/activations/0/scale", "/activations/0/scale: unknown key"),
    case("activation-missing-kind", {"activations.0": {"in_scale": 2.0}},
         "/activations/0", "/activations/0: missing required key 'kind'"),
    case("activation-kind-not-string", {"activations.0": {"kind": 3}},
         "/activations/0/kind", "/activations/0/kind: expected a string, got int"),
    case("activation-kind-unknown", {"activations.0": {"kind": "swish"}},
         "/activations/0/kind",
         "/activations/0/kind: unknown activation 'swish'; expected one of "
         "('constant', 'cos', 'elu', 'identity', 'relu', 'sigmoid', 'sin', 'step', 'tanh')"),
    case("activation-in-scale-string", {"activations.0": {"kind": "relu", "in_scale": "2"}},
         "/activations/0/in_scale", "/activations/0/in_scale: expected a number, got str"),
    case("activation-out-scale-bool", {"activations.0": {"kind": "relu", "out_scale": True}},
         "/activations/0/out_scale", "/activations/0/out_scale: expected a number, got bool"),
    case("activation-shift-infinite", {"activations.0": {"kind": "relu", "shift": math.inf}},
         "/activations/0/shift", "/activations/0/shift: must be finite"),
    case("moments-not-array", {"moments_override": {"mu0": 0}},
         "/moments_override", "/moments_override: expected an array, got dict", base=MOMENTS),
    case("moments-empty", {"moments_override": []},
         "/moments_override", "/moments_override: needs at least one moment triple", base=MOMENTS),
    case("moment-not-object", {"moments_override": [1.0]},
         "/moments_override/0", "/moments_override/0: expected an object, got float", base=MOMENTS),
    case("moment-unknown-key", {"moments_override.0": {"mu0": 0, "mu1": 1, "mu2_sq": 0, "mu3": 1}},
         "/moments_override/0/mu3", "/moments_override/0/mu3: unknown key", base=MOMENTS),
    case("moment-missing-mu0", {"moments_override.0": {"mu1": 1, "mu2_sq": 0}},
         "/moments_override/0", "/moments_override/0: missing required key 'mu0'", base=MOMENTS),
    case("moment-missing-mu2-sq", {"moments_override.0": {"mu0": 0, "mu1": 1}},
         "/moments_override/0", "/moments_override/0: missing required key 'mu2_sq'", base=MOMENTS),
    case("moment-mu0-string", {"moments_override.0": {"mu0": "0", "mu1": 1, "mu2_sq": 0}},
         "/moments_override/0/mu0", "/moments_override/0/mu0: expected a number, got str", base=MOMENTS),
    case("moment-mu1-nan", {"moments_override.0": {"mu0": 0, "mu1": math.nan, "mu2_sq": 0}},
         "/moments_override/0/mu1", "/moments_override/0/mu1: must be finite", base=MOMENTS),
    case("moment-mu2-sq-negative", {"moments_override.0": {"mu0": 0, "mu1": 1, "mu2_sq": -0.5}},
         "/moments_override/0/mu2_sq", "/moments_override/0/mu2_sq: must be >= 0", base=MOMENTS),
    case("model-not-object", {"model": [1.0]}, "/model", "/model: expected an object, got list"),
    case("model-unknown-key", {"model.extra": 1}, "/model/extra", "/model/extra: unknown key"),
    case("model-psi-and-counts", {"model.d": 10},
         "/model", "/model: give either psi/psi_n or d/n/N, not both"),
    case("model-no-size", {"model": {"lambda": 1.0}}, "/model", "/model: give either psi/psi_n or d/n/N"),
    case("model-missing-psi", {"model.psi": DROP}, "/model", "/model: missing required key 'psi'",
         build="theory"),
    case("model-missing-psi-n", {"model.psi_n": DROP}, "/model", "/model: missing required key 'psi_n'"),
    case("model-psi-not-array", {"model.psi": 1.0}, "/model/psi", "/model/psi: expected an array, got float"),
    case("model-psi-empty", {"model.psi": []}, "/model/psi", "/model/psi: needs at least one entry"),
    case("model-psi-entry-zero", {"model.psi": [1.0, 0.0]}, "/model/psi/1", "/model/psi/1: must be > 0"),
    case("model-psi-n-negative", {"model.psi_n": -1.0}, "/model/psi_n", "/model/psi_n: must be > 0"),
    case("model-missing-N", {"model.N": DROP}, "/model", "/model: missing required key 'N'", base=COUNTS,
         build="theory"),
    case("model-d-float", {"model.d": 10.0},
         "/model/d", "/model/d: expected an integer, got float", base=COUNTS),
    case("model-n-zero", {"model.n": 0}, "/model/n", "/model/n: must be >= 1", base=COUNTS),
    case("model-N-not-array", {"model.N": 10},
         "/model/N", "/model/N: expected an array, got int", base=COUNTS),
    case("model-N-empty", {"model.N": []}, "/model/N", "/model/N: needs at least one entry", base=COUNTS),
    case("model-N-entry-zero", {"model.N": [0]}, "/model/N/0", "/model/N/0: must be >= 1", base=COUNTS),
    case("model-missing-lambda", {"model.lambda": DROP}, "/model", "/model: missing required key 'lambda'",
         build="theory"),
    case("model-missing-n", {"model.n": DROP, "model.N": DROP}, "/model",
         "/model: missing required key 'n'", base=COUNTS),
    case("model-lambda-string", {"model.lambda": "1e-3"},
         "/model/lambda", "/model/lambda: expected a number, got str"),
    case("model-lambda-nan", {"model.lambda": math.nan}, "/model/lambda", "/model/lambda: must be finite"),
    case("model-lambda-zero", {"model.lambda": 0.0}, "/model/lambda", "/model/lambda: lambda must be > 0"),
    case("model-F0-bool", {"model.F0": False}, "/model/F0", "/model/F0: expected a number, got bool"),
    case("model-F1-negative", {"model.F1": -1.0}, "/model/F1", "/model/F1: must be >= 0"),
    case("model-tau-negative", {"model.tau": -0.1}, "/model/tau", "/model/tau: must be >= 0"),
    case("model-component-count", {"activations": [{"kind": "relu"}, {"kind": "tanh"}]},
         "/model", "/model: model has 1 components but 2 activations/moments given"),
    case("model-F0-needs-mean", {"activations": [{"kind": "identity"}], "model.F0": 0.2},
         "/model/F0", "/model/F0: F0 != 0 requires at least one activation with nonzero Gaussian mean"),
    case("solver-not-object", {"solver": 1}, "/solver", "/solver: expected an object, got int"),
    case("solver-unknown-key", {"solver": {"method": "newton"}},
         "/solver/method", "/solver/method: unknown key"),
    case("solver-tol-zero", {"solver": {"tol": 0}}, "/solver/tol", "/solver/tol: must be > 0"),
    case("solver-max-iter-float", {"solver": {"max_iter": 10.5}},
         "/solver/max_iter", "/solver/max_iter: expected an integer, got float"),
    case("solver-max-iter-zero", {"solver": {"max_iter": 0}},
         "/solver/max_iter", "/solver/max_iter: must be >= 1"),
    case("solver-removed-damping", {"solver": {"damping": 0.5}},
         "/solver/damping", "/solver/damping: unknown key"),
    case("solver-removed-continuation-start", {"solver": {"continuation_start": 1.0}},
         "/solver/continuation_start", "/solver/continuation_start: unknown key"),
    case("solver-removed-continuation-factor", {"solver": {"continuation_factor": 0.5}},
         "/solver/continuation_factor", "/solver/continuation_factor: unknown key"),
    case("empirical-not-object", {"empirical": []}, "/empirical", "/empirical: expected an object, got list"),
    case("empirical-unknown-key", {"empirical": {"seed": 1}},
         "/empirical/seed", "/empirical/seed: unknown key"),
    case("empirical-d-zero", {"empirical": {"d": 0}}, "/empirical/d", "/empirical/d: must be >= 1"),
    case("empirical-n-test-string", {"empirical": {"n_test": "500"}},
         "/empirical/n_test", "/empirical/n_test: expected an integer, got str"),
    case("empirical-replications-zero", {"empirical": {"replications": 0}},
         "/empirical/replications", "/empirical/replications: must be >= 1"),
    case("empirical-base-seed-negative", {"empirical": {"base_seed": -1}},
         "/empirical/base_seed", "/empirical/base_seed: must be >= 0"),
    case("empirical-workers-zero", {"empirical": {"workers": 0}},
         "/empirical/workers", "/empirical/workers: must be >= 1"),
    case("empirical-d-conflict", {"empirical": {"d": 50}},
         "/empirical/d", "/empirical/d: conflicts with /model/d", base=COUNTS),
    case("empirical-n-conflict", {"empirical": {"n": 50}},
         "/empirical/n", "/empirical/n: conflicts with /model/n", base=COUNTS),
    case("sweep-not-object", {"sweep": [1.0]}, "/sweep", "/sweep: expected an object, got list"),
    case("sweep-unknown-key", {"sweep": {"c_grid": [1.0], "grid": [1.0]}},
         "/sweep/grid", "/sweep/grid: unknown key"),
    case("sweep-ratios-not-array", {"sweep": {"c_grid": [1.0], "ratios": 1.0}},
         "/sweep/ratios", "/sweep/ratios: expected an array, got float"),
    case("sweep-ratios-empty", {"sweep": {"c_grid": [1.0], "ratios": []}},
         "/sweep/ratios", "/sweep/ratios: needs at least one entry"),
    case("sweep-ratio-negative", {"sweep": {"c_grid": [1.0], "ratios": [-1.0]}},
         "/sweep/ratios/0", "/sweep/ratios/0: must be > 0"),
    case("sweep-ratios-count", {"sweep": {"c_grid": [1.0], "ratios": [1.0, 2.0]}},
         "/sweep/ratios", "/sweep/ratios: expected 1 entries to match the model"),
    case("sweep-grid-and-range", {"sweep": {"c_grid": [1.0], "c_range": {"start": 1.0, "stop": 2.0}}},
         "/sweep", "/sweep: give exactly one of c_grid or c_range"),
    case("sweep-no-grid", {"sweep": {}}, "/sweep", "/sweep: give exactly one of c_grid or c_range"),
    case("sweep-c-grid-not-array", {"sweep": {"c_grid": 1.0}},
         "/sweep/c_grid", "/sweep/c_grid: expected an array, got float"),
    case("sweep-c-grid-entry-zero", {"sweep": {"c_grid": [0.0, 1.0]}},
         "/sweep/c_grid/0", "/sweep/c_grid/0: must be > 0"),
    case("sweep-c-grid-empty", {"sweep": {"c_grid": []}}, "/sweep/c_grid", "/sweep/c_grid: grid is empty"),
    case("sweep-c-grid-decreasing", {"sweep": {"c_grid": [1.0, 0.5]}},
         "/sweep/c_grid", "/sweep/c_grid: must be strictly increasing"),
    case("sweep-c-grid-repeated", {"sweep": {"c_grid": [1.0, 1.0]}},
         "/sweep/c_grid", "/sweep/c_grid: must be strictly increasing"),
    case("sweep-c-range-not-object", {"sweep": {"c_range": [0.1, 1.0]}},
         "/sweep/c_range", "/sweep/c_range: expected an object, got list"),
    case("sweep-c-range-unknown-key", {"sweep": {"c_range": {"start": 0.1, "stop": 1.0, "num": 5}}},
         "/sweep/c_range/num", "/sweep/c_range/num: unknown key"),
    case("sweep-c-range-missing-start", {"sweep": {"c_range": {"stop": 1.0}}},
         "/sweep/c_range", "/sweep/c_range: missing required key 'start'"),
    case("sweep-c-range-missing-stop", {"sweep": {"c_range": {"start": 0.1}}},
         "/sweep/c_range", "/sweep/c_range: missing required key 'stop'"),
    case("sweep-c-range-start-zero", {"sweep": {"c_range": {"start": 0.0, "stop": 1.0}}},
         "/sweep/c_range/start", "/sweep/c_range/start: must be > 0"),
    case("sweep-c-range-stop-string", {"sweep": {"c_range": {"start": 0.1, "stop": "1"}}},
         "/sweep/c_range/stop", "/sweep/c_range/stop: expected a number, got str"),
    case("sweep-c-range-step-negative", {"sweep": {"c_range": {"start": 0.1, "stop": 1.0, "step": -0.1}}},
         "/sweep/c_range/step", "/sweep/c_range/step: must be > 0"),
    case("sweep-c-range-stop-below-start", {"sweep": {"c_range": {"start": 1.0, "stop": 0.5}}},
         "/sweep/c_range", "/sweep/c_range: stop must be >= start"),
    case("sweep-c-range-step-too-small",
         {"sweep": {"c_range": {"start": 1.0, "stop": 1.0000000000000002, "step": 1e-17}}},
         "/sweep/c_range", "/sweep/c_range: step is too small to give distinct points"),
    case("sweep-c-range-too-many-points", {"sweep": {"c_range": {"start": 1.0, "stop": 1e6, "step": 1e-9}}},
         "/sweep/c_range", "/sweep/c_range: gives 999999000000001 points, more than 1000000"),
    case("sweep-log-y-string", {"sweep": {"c_grid": [1.0], "log_y": "yes"}},
         "/sweep/log_y", "/sweep/log_y: expected a boolean, got str"),
    case("sweep-y-cap-zero", {"sweep": {"c_grid": [1.0], "y_cap": 0}},
         "/sweep/y_cap", "/sweep/y_cap: must be > 0"),
    case("limit-not-object", {"limit": [1.0, 1.0]}, "/limit", "/limit: expected an object, got list"),
    case("limit-unknown-key", {"limit": {"ratio": [1.0, 1.0]}}, "/limit/ratio", "/limit/ratio: unknown key"),
    case("limit-r-not-array", {"limit": {"r": 1.0}}, "/limit/r", "/limit/r: expected an array, got float"),
    case("limit-r-length", {"limit": {"r": [1.0, 2.0, 3.0]}},
         "/limit/r", "/limit/r: expected 1 entries to match the model"),
    case("limit-r-entry-zero", {"limit": {"r": [1.0, 0.0]}}, "/limit/r/1", "/limit/r/1: must be > 0"),
    case("output-not-object", {"output": "curve.csv"}, "/output", "/output: expected an object, got str"),
    case("output-unknown-key", {"output": {"png_path": "x.png"}},
         "/output/png_path", "/output/png_path: unknown key"),
    case("output-csv-path-number", {"output": {"csv_path": 1}},
         "/output/csv_path", "/output/csv_path: expected a string, got int"),
    case("output-svg-path-list", {"output": {"svg_path": ["x.svg"]}},
         "/output/svg_path", "/output/svg_path: expected a string, got list"),
    case("output-json-path-bool", {"output": {"json_path": True}},
         "/output/json_path", "/output/json_path: expected a string, got bool"),
    case("build-empirical-moments", {},
         "/activations",
         "/activations: finite-size runs need activations, not moments_override",
         base=MOMENTS,
         build="empirical"),
    case("build-empirical-no-counts", {},
         "/model", "/model: finite-size runs need explicit feature counts N", build="empirical"),
    case("build-sweep-no-section", {}, "", "missing required section 'sweep'", build="sweep"),
    case("build-sweep-moments", {"sweep": {"c_grid": [1.0]}, "empirical": {}},
         "/activations",
         "/activations: finite-size runs need activations, not moments_override",
         base=MOMENTS,
         build="sweep"),
    case("build-sweep-no-counts", {"sweep": {"c_grid": [1.0]}, "empirical": {"d": 10}},
         "/empirical",
         "/empirical: finite-size runs need d and n (model d/n/N or empirical d/n)",
         build="sweep"),
]


@pytest.mark.parametrize("base, edits, build, pointer, text", CASES)
def test_single_error_golden(base, edits, build, pointer, text):
    raw = _edited(base, edits)
    with pytest.raises(ConfigError) as exc:
        cfg = validate_config(raw)
        assert build is not None, "validation accepted the config"
        BUILDERS[build](cfg)
    assert exc.value.pointer == pointer
    assert str(exc.value) == text


@pytest.mark.parametrize("build", ["empirical", "sweep"])
def test_finite_size_builders_need_lambda(build):
    raw = _edited(COUNTS, {"model.lambda": DROP, "sweep": {"c_grid": [1.0]}})
    with pytest.raises(ConfigError, match="^/model: missing required key 'lambda'$"):
        BUILDERS[build](validate_config(raw))


def test_build_limit_k1():
    """The width limit takes any K: a one-block config builds, weight 1 by default."""
    spec = build_limit_spec(validate_config(copy.deepcopy(PSI)))
    assert spec.r == (1.0,) and spec.psi_n == 1.0
