"""JSON configuration: strict parsing, validation and builders.

A run is described by one JSON document.  Validation is eager and strict:
unknown keys are rejected, and every error carries a JSON-pointer-style
location (``/model/lambda: lambda must be > 0``) so a long config can be
fixed without guesswork.  Each section is a ``{key: check}`` table walked by
:func:`_fields`; only rules that span several keys are written by hand.
Builders turn the validated document into the concrete inputs of the
theory, simulation and sweep layers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .activations import ACTIVATION_KINDS, ActivationSpec, Moments, compute_moments, represents_intercept
from .risk import LimitSpec, SolverConfig, TheorySpec
from .simulator import EmpiricalConfig
from .sweep import EmpiricalTemplate, SweepSpec

__all__ = [
    "ConfigError",
    "RootConfig",
    "load_raw",
    "apply_overrides",
    "validate_config",
    "parse_config",
    "build_theory_spec",
    "build_empirical_config",
    "build_sweep_spec",
    "build_limit_spec",
]


class ConfigError(ValueError):
    """Invalid configuration; ``pointer`` locates the offending key."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


# Checks take (value, pointer) and return the validated value or raise ConfigError.


def _object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _array(value, pointer: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(pointer, f"expected an array, got {type(value).__name__}")
    return value


def _number(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(pointer, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ConfigError(pointer, "must be finite")
    return float(value)


def _integer(minimum: int):
    def check(value, pointer: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(pointer, f"expected an integer, got {type(value).__name__}")
        if value < minimum:
            raise ConfigError(pointer, f"must be >= {minimum}")
        return value

    return check


def _boolean(value, pointer: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(pointer, f"expected a boolean, got {type(value).__name__}")
    return value


def _string(value, pointer: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(pointer, f"expected a string, got {type(value).__name__}")
    return value


def _positive(value, pointer: str) -> float:
    v = _number(value, pointer)
    if not v > 0.0:
        raise ConfigError(pointer, "must be > 0")
    return v


def _nonnegative(value, pointer: str) -> float:
    v = _number(value, pointer)
    if v < 0.0:
        raise ConfigError(pointer, "must be >= 0")
    return v


def _nullable(check):
    """``check``, except that null passes as None (the key's default)."""
    return lambda value, pointer: None if value is None else check(value, pointer)


def _list_of(check, empty_message: str):
    """A non-empty array whose entries all pass ``check``; returns a tuple."""

    def checked(value, pointer: str) -> tuple:
        items = tuple(check(v, f"{pointer}/{i}") for i, v in enumerate(_array(value, pointer)))
        if not items:
            raise ConfigError(pointer, empty_message)
        return items

    return checked


def _require(obj: dict, pointer: str, keys) -> None:
    for key in keys:
        if key not in obj:
            raise ConfigError(pointer, f"missing required key {key!r}")


def _fields(raw, pointer: str, spec: dict, required=()) -> dict:
    """Check an object against a ``{key: check}`` table; returns the checked keys present."""
    obj = _object(raw, pointer)
    for key in obj:
        if key not in spec:
            raise ConfigError(f"{pointer}/{key}", "unknown key")
    _require(obj, pointer, required)
    return {key: spec[key](value, f"{pointer}/{key}") for key, value in obj.items()}


def _kind(value, pointer: str) -> str:
    kind = _string(value, pointer)
    if kind not in ACTIVATION_KINDS:
        raise ConfigError(pointer, f"unknown activation {kind!r}; expected one of {ACTIVATION_KINDS}")
    return kind


def _lambda(value, pointer: str) -> float:
    lam = _number(value, pointer)
    if not lam > 0.0:
        raise ConfigError(pointer, "lambda must be > 0")
    return lam


def _increasing(grid) -> bool:
    return all(a < b for a, b in zip(grid, grid[1:]))


# Far above any useful sweep; a mistyped step must not allocate the grid.
_MAX_GRID_POINTS = 1_000_000
_C_RANGE = {"start": _positive, "stop": _positive, "step": _positive}


def _c_range(value, pointer: str) -> tuple[float, ...]:
    rng = _fields(value, pointer, _C_RANGE, required=("start", "stop"))
    start, stop, step = rng["start"], rng["stop"], rng.get("step", 0.05)
    if stop < start:
        raise ConfigError(pointer, "stop must be >= start")
    span = (stop - start) / step + 1e-9
    if not math.isfinite(span):
        raise ConfigError(pointer, "(stop - start) / step must be finite")
    count = int(span) + 1
    if count > _MAX_GRID_POINTS:
        raise ConfigError(pointer, f"gives {count} points, more than {_MAX_GRID_POINTS}")
    grid = tuple(start + i * step for i in range(count))
    if not _increasing(grid):
        raise ConfigError(pointer, "step is too small to give distinct points")
    return grid


@dataclass(frozen=True)
class ModelSection:
    """The model keys as given; lambda and the widths (psi or N) may be
    missing, as only the commands that read them require them."""

    lam: float | None = None
    psi: tuple[float, ...] | None = None
    psi_n: float | None = None
    d: int | None = None
    n: int | None = None
    N: tuple[int, ...] | None = None
    F0: float = 0.0
    F1: float = 1.0
    tau: float = 0.0

    @property
    def K(self) -> int | None:
        widths = self.psi if self.psi is not None else self.N
        return None if widths is None else len(widths)

    @property
    def psi_eff(self) -> tuple[float, ...]:
        if self.psi is not None:
            return self.psi
        return tuple(nc / self.d for nc in self.N)

    @property
    def psi_n_eff(self) -> float:
        if self.psi_n is not None:
            return self.psi_n
        return self.n / self.d


@dataclass(frozen=True)
class EmpiricalSection:
    d: int | None = None
    n: int | None = None
    n_test: int = 500
    replications: int = 30
    base_seed: int = 0
    workers: int | None = None


@dataclass(frozen=True)
class SweepSection:
    ratios: tuple[float, ...] | None
    c_grid: tuple[float, ...]
    log_y: bool = False
    y_cap: float | None = None


@dataclass(frozen=True)
class LimitSection:
    r: tuple[float, ...] | None = None


@dataclass(frozen=True)
class OutputSection:
    csv_path: str | None = None
    svg_path: str | None = None
    json_path: str | None = None


@dataclass(frozen=True)
class RootConfig:
    """Validated configuration with activation moments already resolved."""

    activations: tuple[ActivationSpec, ...] | None
    moments: tuple[Moments, ...]
    model: ModelSection
    solver: SolverConfig
    empirical: EmpiricalSection | None
    sweep: SweepSection | None
    limit: LimitSection | None
    output: OutputSection


_ACTIVATION = {"kind": _kind, "in_scale": _number, "out_scale": _number, "shift": _number}
_MOMENTS = {"mu0": _number, "mu1": _number, "mu2_sq": _nonnegative}
_MODEL = {
    "psi": _list_of(_positive, "needs at least one entry"),
    "psi_n": _positive,
    "d": _integer(1),
    "n": _integer(1),
    "N": _list_of(_integer(1), "needs at least one entry"),
    "lambda": _lambda,
    "F0": _number,
    "F1": _nonnegative,
    "tau": _nonnegative,
}
_SOLVER = {"tol": _positive, "max_iter": _integer(1)}
_EMPIRICAL = {
    "d": _integer(1),
    "n": _integer(1),
    "n_test": _integer(1),
    "replications": _integer(1),
    "base_seed": _integer(0),
    "workers": _nullable(_integer(1)),
}
_BLOCK_WEIGHTS = _list_of(_positive, "needs at least one entry")
_SWEEP = {
    "ratios": _BLOCK_WEIGHTS,
    "c_grid": _list_of(_positive, "grid is empty"),
    "c_range": _c_range,
    "log_y": _boolean,
    "y_cap": _nullable(_positive),
}
_LIMIT = {"r": _BLOCK_WEIGHTS}
_OUTPUT = dict.fromkeys(("csv_path", "svg_path", "json_path"), _nullable(_string))


def _model(raw, pointer: str) -> ModelSection:
    fields = _fields(raw, pointer, _MODEL)
    has_psi = "psi" in fields or "psi_n" in fields
    has_counts = "d" in fields or "n" in fields or "N" in fields
    if has_psi and has_counts:
        raise ConfigError(pointer, "give either psi/psi_n or d/n/N, not both")
    if not has_psi and not has_counts:
        raise ConfigError(pointer, "give either psi/psi_n or d/n/N")
    # psi_n (or n/d) is read by every command; lambda and the widths are
    # required by the builders of the commands that read them.
    _require(fields, pointer, ("psi_n",) if has_psi else ("d", "n"))
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    return ModelSection(**fields)


def _sweep(raw, pointer: str) -> SweepSection:
    fields = _fields(raw, pointer, _SWEEP)
    if ("c_grid" in fields) == ("c_range" in fields):
        raise ConfigError(pointer, "give exactly one of c_grid or c_range")
    if "c_grid" in fields and not _increasing(fields["c_grid"]):
        raise ConfigError(f"{pointer}/c_grid", "must be strictly increasing")
    grid = fields.pop("c_grid") if "c_grid" in fields else fields.pop("c_range")
    return SweepSection(ratios=fields.pop("ratios", None), c_grid=grid, **fields)


_ROOT = {
    "activations": _list_of(
        lambda v, p: ActivationSpec(**_fields(v, p, _ACTIVATION, required=("kind",))),
        "needs at least one activation",
    ),
    "moments_override": _list_of(
        lambda v, p: Moments(**_fields(v, p, _MOMENTS, required=tuple(_MOMENTS))),
        "needs at least one moment triple",
    ),
    "model": _model,
    "solver": lambda v, p: SolverConfig(**_fields(v, p, _SOLVER)),
    "empirical": lambda v, p: EmpiricalSection(**_fields(v, p, _EMPIRICAL)),
    "sweep": _sweep,
    "limit": lambda v, p: LimitSection(**_fields(v, p, _LIMIT)),
    "output": lambda v, p: OutputSection(**_fields(v, p, _OUTPUT)),
}


def validate_config(raw: dict) -> RootConfig:
    """Validate a parsed JSON document into a RootConfig, eagerly and strictly."""
    doc = _fields(raw, "", _ROOT)
    if ("activations" in doc) == ("moments_override" in doc):
        raise ConfigError("", "give exactly one of activations or moments_override")
    if "model" not in doc:
        raise ConfigError("", "missing required section 'model'")
    activations = doc.get("activations")
    if activations is not None:
        moments = tuple(compute_moments(a) for a in activations)
    else:
        moments = doc["moments_override"]

    model = doc["model"]
    k = len(moments)
    if model.K is not None and model.K != k:
        raise ConfigError(
            "/model",
            f"model has {model.K} components but {k} activations/moments given",
        )
    if model.F0 != 0.0 and not represents_intercept(moments):
        raise ConfigError(
            "/model/F0",
            "F0 != 0 requires at least one activation with nonzero Gaussian mean",
        )
    empirical, sweep, limit = doc.get("empirical"), doc.get("sweep"), doc.get("limit")
    if empirical is not None:
        for key in ("d", "n"):
            section_v = getattr(empirical, key)
            model_v = getattr(model, key)
            if section_v is not None and model_v is not None and section_v != model_v:
                raise ConfigError(f"/empirical/{key}", f"conflicts with /model/{key}")
    weights = {
        "/sweep/ratios": sweep.ratios if sweep is not None else None,
        "/limit/r": limit.r if limit is not None else None,
    }
    for pointer, values in weights.items():
        if values is not None and len(values) != k:
            raise ConfigError(pointer, f"expected {k} entries to match the model")

    return RootConfig(
        activations=activations,
        moments=moments,
        model=model,
        solver=doc.get("solver", SolverConfig()),
        empirical=empirical,
        sweep=sweep,
        limit=limit,
        output=doc.get("output", OutputSection()),
    )


def load_raw(source: str) -> dict:
    """Load a JSON document from a path, or parse inline text starting with '{'."""
    text = source
    if not source.lstrip().startswith("{"):
        if not os.path.exists(source):
            raise ConfigError("", f"config file not found: {source}")
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("", f"invalid JSON: {err}") from err
    return _object(raw, "")


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted-path KEY=VALUE overrides; values parse as JSON, else string."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError("", f"override {item!r} is not of the form key=value")
        dotted, text = item.split("=", 1)
        keys = dotted.split(".")
        if not all(keys):
            raise ConfigError("", f"override {item!r} has an empty path segment")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        for i, key in enumerate(keys[:-1]):
            if isinstance(node, list):
                here = "/" + "/".join(keys[: i + 1])
                try:
                    nxt = node[int(key)]
                except ValueError as err:
                    raise ConfigError(here, f"bad array index: {err}") from err
                except IndexError:
                    nxt = None
                if not isinstance(nxt, (dict, list)):
                    raise ConfigError(here, "override path runs off the document")
            else:
                nxt = node.get(key)
                if not isinstance(nxt, (dict, list)):
                    nxt = node[key] = {}
            node = nxt
        last = keys[-1]
        if isinstance(node, list):
            try:
                node[int(last)] = value
            except (IndexError, ValueError) as err:
                raise ConfigError("/" + "/".join(keys), f"bad array index: {err}") from err
        else:
            node[last] = value
    return raw


def parse_config(source: str, overrides: list[str] | None = None) -> RootConfig:
    """Load, override and validate in one step."""
    raw = load_raw(source)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)


def build_theory_spec(cfg: RootConfig) -> TheorySpec:
    """Asymptotic instance from the model section (counts become ratios)."""
    model = cfg.model
    for key, value in (("lambda", model.lam), ("psi" if model.psi_n is not None else "N", model.K)):
        if value is None:
            raise ConfigError("/model", f"missing required key {key!r}")
    return TheorySpec(
        psi=cfg.model.psi_eff,
        psi_n=cfg.model.psi_n_eff,
        moments=cfg.moments,
        lam=cfg.model.lam,
        F1=cfg.model.F1,
        tau=cfg.model.tau,
        F0=cfg.model.F0,
    )


def _finite_size(cfg: RootConfig, need_feature_counts: bool = False) -> EmpiricalTemplate:
    """Settings every finite-size run shares: real activations and resolved d, n."""
    if cfg.activations is None:
        raise ConfigError("/activations", "finite-size runs need activations, not moments_override")
    if need_feature_counts and cfg.model.N is None:
        raise ConfigError("/model", "finite-size runs need explicit feature counts N")
    emp = cfg.empirical or EmpiricalSection()
    d = emp.d if emp.d is not None else cfg.model.d
    n = emp.n if emp.n is not None else cfg.model.n
    if d is None or n is None:
        raise ConfigError("/empirical", "finite-size runs need d and n (model d/n/N or empirical d/n)")
    return EmpiricalTemplate(
        activations=cfg.activations,
        d=d,
        n=n,
        n_test=emp.n_test,
        replications=emp.replications,
        base_seed=emp.base_seed,
    )


def build_empirical_config(cfg: RootConfig) -> EmpiricalConfig:
    """Finite-size instance; requires activations and explicit counts."""
    return _finite_size(cfg, need_feature_counts=True).at(build_theory_spec(cfg), cfg.model.N)


def build_sweep_spec(cfg: RootConfig) -> SweepSpec:
    """Sweep instance; attaches a finite-size template iff /empirical is present."""
    if cfg.sweep is None:
        raise ConfigError("", "missing required section 'sweep'")
    base = build_theory_spec(cfg)
    ratios = cfg.sweep.ratios if cfg.sweep.ratios is not None else (1.0,) * base.K
    template = _finite_size(cfg) if cfg.empirical is not None else None
    return SweepSpec(base=base, ratios=ratios, c_grid=cfg.sweep.c_grid, empirical=template)


def build_limit_spec(cfg: RootConfig) -> LimitSpec:
    """Infinite-width instance; the block weights default to all 1."""
    limit = cfg.limit or LimitSection()
    return LimitSpec(
        r=limit.r if limit.r is not None else (1.0,) * len(cfg.moments),
        psi_n=cfg.model.psi_n_eff,
        moments=cfg.moments,
        F1=cfg.model.F1,
        tau=cfg.model.tau,
    )
