"""JSON configuration: strict parsing, validation and builders.

A run is described by one JSON document.  Validation is eager and strict:
unknown keys are rejected, and every error carries a JSON-pointer-style
location (``/model/lambda: lambda must be > 0``) so a long config can be
fixed without guesswork.  Builders turn the validated document into the
concrete inputs of the theory, simulation and sweep layers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .activations import ACTIVATION_KINDS, ActivationSpec, Moments, compute_moments, represents_intercept
from .nu_system import SolverConfig, TheorySpec
from .risk import LimitSpec
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


def _check_keys(obj: dict, pointer: str, allowed: tuple[str, ...]) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{pointer}/{key}", "unknown key")


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


def _integer(value, pointer: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(pointer, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ConfigError(pointer, f"must be >= {minimum}")
    return value


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


@dataclass(frozen=True)
class ModelSection:
    psi: tuple[float, ...] | None
    psi_n: float | None
    d: int | None
    n: int | None
    N: tuple[int, ...] | None
    lam: float
    F0: float
    F1: float
    tau: float

    @property
    def K(self) -> int:
        return len(self.psi) if self.psi is not None else len(self.N)

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
    r: tuple[float, float] = (1.0, 1.0)


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


def _parse_activations(raw, pointer: str) -> tuple[ActivationSpec, ...]:
    items = _array(raw, pointer)
    if not items:
        raise ConfigError(pointer, "needs at least one activation")
    out = []
    for i, item in enumerate(items):
        here = f"{pointer}/{i}"
        obj = _object(item, here)
        _check_keys(obj, here, ("kind", "in_scale", "out_scale", "shift"))
        if "kind" not in obj:
            raise ConfigError(here, "missing required key 'kind'")
        kind = _string(obj["kind"], f"{here}/kind")
        if kind not in ACTIVATION_KINDS:
            raise ConfigError(
                f"{here}/kind", f"unknown activation {kind!r}; expected one of {ACTIVATION_KINDS}"
            )
        out.append(
            ActivationSpec(
                kind=kind,
                in_scale=_number(obj.get("in_scale", 1.0), f"{here}/in_scale"),
                out_scale=_number(obj.get("out_scale", 1.0), f"{here}/out_scale"),
                shift=_number(obj.get("shift", 0.0), f"{here}/shift"),
            )
        )
    return tuple(out)


def _parse_moments(raw, pointer: str) -> tuple[Moments, ...]:
    items = _array(raw, pointer)
    if not items:
        raise ConfigError(pointer, "needs at least one moment triple")
    out = []
    for i, item in enumerate(items):
        here = f"{pointer}/{i}"
        obj = _object(item, here)
        _check_keys(obj, here, ("mu0", "mu1", "mu2_sq"))
        for key in ("mu0", "mu1", "mu2_sq"):
            if key not in obj:
                raise ConfigError(here, f"missing required key {key!r}")
        mu2_sq = _nonnegative(obj["mu2_sq"], f"{here}/mu2_sq")
        out.append(
            Moments(
                mu0=_number(obj["mu0"], f"{here}/mu0"),
                mu1=_number(obj["mu1"], f"{here}/mu1"),
                mu2_sq=mu2_sq,
            )
        )
    return tuple(out)


def _parse_model(raw, pointer: str) -> ModelSection:
    obj = _object(raw, pointer)
    _check_keys(obj, pointer, ("psi", "psi_n", "d", "n", "N", "lambda", "F0", "F1", "tau"))
    has_psi = "psi" in obj or "psi_n" in obj
    has_counts = "d" in obj or "n" in obj or "N" in obj
    if has_psi and has_counts:
        raise ConfigError(pointer, "give either psi/psi_n or d/n/N, not both")
    if not has_psi and not has_counts:
        raise ConfigError(pointer, "give either psi/psi_n or d/n/N")

    psi = psi_n = d = n = counts = None
    if has_psi:
        for key in ("psi", "psi_n"):
            if key not in obj:
                raise ConfigError(pointer, f"missing required key {key!r}")
        psi = tuple(
            _positive(v, f"{pointer}/psi/{i}") for i, v in enumerate(_array(obj["psi"], f"{pointer}/psi"))
        )
        if not psi:
            raise ConfigError(f"{pointer}/psi", "needs at least one entry")
        psi_n = _positive(obj["psi_n"], f"{pointer}/psi_n")
    else:
        for key in ("d", "n", "N"):
            if key not in obj:
                raise ConfigError(pointer, f"missing required key {key!r}")
        d = _integer(obj["d"], f"{pointer}/d", minimum=1)
        n = _integer(obj["n"], f"{pointer}/n", minimum=1)
        counts = tuple(
            _integer(v, f"{pointer}/N/{i}", minimum=1)
            for i, v in enumerate(_array(obj["N"], f"{pointer}/N"))
        )
        if not counts:
            raise ConfigError(f"{pointer}/N", "needs at least one entry")

    if "lambda" not in obj:
        raise ConfigError(pointer, "missing required key 'lambda'")
    lam = _number(obj["lambda"], f"{pointer}/lambda")
    if not lam > 0.0:
        raise ConfigError(f"{pointer}/lambda", "lambda must be > 0")
    return ModelSection(
        psi=psi,
        psi_n=psi_n,
        d=d,
        n=n,
        N=counts,
        lam=lam,
        F0=_number(obj.get("F0", 0.0), f"{pointer}/F0"),
        F1=_nonnegative(obj.get("F1", 1.0), f"{pointer}/F1"),
        tau=_nonnegative(obj.get("tau", 0.0), f"{pointer}/tau"),
    )


def _parse_solver(raw, pointer: str) -> SolverConfig:
    obj = _object(raw, pointer)
    allowed = ("tol", "max_iter", "damping", "continuation_start", "continuation_factor")
    _check_keys(obj, pointer, allowed)
    kwargs = {}
    if "tol" in obj:
        kwargs["tol"] = _positive(obj["tol"], f"{pointer}/tol")
    if "max_iter" in obj:
        kwargs["max_iter"] = _integer(obj["max_iter"], f"{pointer}/max_iter", minimum=1)
    if "damping" in obj:
        kwargs["damping"] = _positive(obj["damping"], f"{pointer}/damping")
    if "continuation_start" in obj and obj["continuation_start"] is not None:
        kwargs["continuation_start"] = _positive(
            obj["continuation_start"], f"{pointer}/continuation_start"
        )
    if "continuation_factor" in obj:
        kwargs["continuation_factor"] = _positive(
            obj["continuation_factor"], f"{pointer}/continuation_factor"
        )
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(pointer, str(err)) from err


def _parse_empirical(raw, pointer: str) -> EmpiricalSection:
    obj = _object(raw, pointer)
    _check_keys(obj, pointer, ("d", "n", "n_test", "replications", "base_seed", "workers"))
    kwargs = {}
    for key in ("d", "n", "n_test", "replications"):
        if key in obj:
            kwargs[key] = _integer(obj[key], f"{pointer}/{key}", minimum=1)
    if "base_seed" in obj:
        kwargs["base_seed"] = _integer(obj["base_seed"], f"{pointer}/base_seed", minimum=0)
    if "workers" in obj and obj["workers"] is not None:
        kwargs["workers"] = _integer(obj["workers"], f"{pointer}/workers", minimum=1)
    return EmpiricalSection(**kwargs)


def _parse_sweep(raw, pointer: str) -> SweepSection:
    obj = _object(raw, pointer)
    _check_keys(obj, pointer, ("ratios", "c_grid", "c_range", "log_y", "y_cap"))
    ratios = None
    if "ratios" in obj:
        ratios = tuple(
            _positive(v, f"{pointer}/ratios/{i}")
            for i, v in enumerate(_array(obj["ratios"], f"{pointer}/ratios"))
        )
        if not ratios:
            raise ConfigError(f"{pointer}/ratios", "needs at least one entry")
    if ("c_grid" in obj) == ("c_range" in obj):
        raise ConfigError(pointer, "give exactly one of c_grid or c_range")
    if "c_grid" in obj:
        grid = tuple(
            _positive(v, f"{pointer}/c_grid/{i}")
            for i, v in enumerate(_array(obj["c_grid"], f"{pointer}/c_grid"))
        )
    else:
        here = f"{pointer}/c_range"
        rng = _object(obj["c_range"], here)
        _check_keys(rng, here, ("start", "stop", "step"))
        for key in ("start", "stop"):
            if key not in rng:
                raise ConfigError(here, f"missing required key {key!r}")
        start = _positive(rng["start"], f"{here}/start")
        stop = _positive(rng["stop"], f"{here}/stop")
        step = _positive(rng.get("step", 0.05), f"{here}/step")
        if stop < start:
            raise ConfigError(here, "stop must be >= start")
        count = int((stop - start) / step + 1e-9) + 1
        grid = tuple(start + i * step for i in range(count))
    if not grid:
        raise ConfigError(f"{pointer}/c_grid", "grid is empty")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ConfigError(f"{pointer}/c_grid", "must be strictly increasing")
    kwargs = {}
    if "log_y" in obj:
        kwargs["log_y"] = _boolean(obj["log_y"], f"{pointer}/log_y")
    if "y_cap" in obj and obj["y_cap"] is not None:
        kwargs["y_cap"] = _positive(obj["y_cap"], f"{pointer}/y_cap")
    return SweepSection(ratios=ratios, c_grid=grid, **kwargs)


def _parse_limit(raw, pointer: str) -> LimitSection:
    obj = _object(raw, pointer)
    _check_keys(obj, pointer, ("r",))
    if "r" not in obj:
        return LimitSection()
    arr = _array(obj["r"], f"{pointer}/r")
    if len(arr) != 2:
        raise ConfigError(f"{pointer}/r", "expected exactly two width weights")
    return LimitSection(
        r=(_positive(arr[0], f"{pointer}/r/0"), _positive(arr[1], f"{pointer}/r/1"))
    )


def _parse_output(raw, pointer: str) -> OutputSection:
    obj = _object(raw, pointer)
    _check_keys(obj, pointer, ("csv_path", "svg_path", "json_path"))
    kwargs = {}
    for key in ("csv_path", "svg_path", "json_path"):
        if key in obj and obj[key] is not None:
            kwargs[key] = _string(obj[key], f"{pointer}/{key}")
    return OutputSection(**kwargs)


def validate_config(raw: dict) -> RootConfig:
    """Validate a parsed JSON document into a RootConfig, eagerly and strictly."""
    obj = _object(raw, "")
    _check_keys(
        obj, "", ("activations", "moments_override", "model", "solver", "empirical", "sweep", "limit", "output")
    )
    if ("activations" in obj) == ("moments_override" in obj):
        raise ConfigError("", "give exactly one of activations or moments_override")
    activations = None
    if "activations" in obj:
        activations = _parse_activations(obj["activations"], "/activations")
        moments = tuple(compute_moments(a) for a in activations)
    else:
        moments = _parse_moments(obj["moments_override"], "/moments_override")

    if "model" not in obj:
        raise ConfigError("", "missing required section 'model'")
    model = _parse_model(obj["model"], "/model")
    if model.K != len(moments):
        raise ConfigError(
            "/model",
            f"model has {model.K} components but {len(moments)} activations/moments given",
        )
    if model.F0 != 0.0 and not represents_intercept(moments):
        raise ConfigError(
            "/model/F0",
            "F0 != 0 requires at least one activation with nonzero Gaussian mean",
        )

    solver = _parse_solver(obj["solver"], "/solver") if "solver" in obj else SolverConfig()
    empirical = _parse_empirical(obj["empirical"], "/empirical") if "empirical" in obj else None
    sweep = _parse_sweep(obj["sweep"], "/sweep") if "sweep" in obj else None
    limit = _parse_limit(obj["limit"], "/limit") if "limit" in obj else None
    output = _parse_output(obj["output"], "/output") if "output" in obj else OutputSection()

    if empirical is not None:
        for key in ("d", "n"):
            section_v = getattr(empirical, key)
            model_v = getattr(model, key)
            if section_v is not None and model_v is not None and section_v != model_v:
                raise ConfigError(f"/empirical/{key}", f"conflicts with /model/{key}")
    if sweep is not None and sweep.ratios is not None and len(sweep.ratios) != model.K:
        raise ConfigError("/sweep/ratios", f"expected {model.K} entries to match the model")

    return RootConfig(
        activations=activations,
        moments=moments,
        model=model,
        solver=solver,
        empirical=empirical,
        sweep=sweep,
        limit=limit,
        output=output,
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
            step = int(key) if isinstance(node, list) else key
            try:
                nxt = node[step]
            except (KeyError, IndexError, ValueError):
                nxt = None
            if not isinstance(nxt, (dict, list)):
                if isinstance(node, list):
                    raise ConfigError(
                        "/" + "/".join(keys[: i + 1]), "override path runs off the document"
                    )
                nxt = node[step] = {}
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
    return TheorySpec(
        psi=cfg.model.psi_eff,
        psi_n=cfg.model.psi_n_eff,
        moments=cfg.moments,
        lam=cfg.model.lam,
        F1=cfg.model.F1,
        tau=cfg.model.tau,
        F0=cfg.model.F0,
    )


def _resolved_counts(cfg: RootConfig) -> tuple[int, int]:
    emp = cfg.empirical or EmpiricalSection()
    d = emp.d if emp.d is not None else cfg.model.d
    n = emp.n if emp.n is not None else cfg.model.n
    if d is None or n is None:
        raise ConfigError("/empirical", "finite-size runs need d and n (model d/n/N or empirical d/n)")
    return d, n


def build_empirical_config(cfg: RootConfig) -> EmpiricalConfig:
    """Finite-size instance; requires activations and explicit counts."""
    if cfg.activations is None:
        raise ConfigError("/activations", "finite-size runs need activations, not moments_override")
    if cfg.model.N is None:
        raise ConfigError("/model", "finite-size runs need explicit feature counts N")
    d, n = _resolved_counts(cfg)
    emp = cfg.empirical or EmpiricalSection()
    return EmpiricalConfig(
        d=d,
        n=n,
        N=cfg.model.N,
        activations=cfg.activations,
        lam=cfg.model.lam,
        F0=cfg.model.F0,
        F1=cfg.model.F1,
        tau=cfg.model.tau,
        n_test=emp.n_test,
        replications=emp.replications,
        base_seed=emp.base_seed,
    )


def build_sweep_spec(cfg: RootConfig) -> SweepSpec:
    """Sweep instance; attaches a finite-size template iff /empirical is present."""
    if cfg.sweep is None:
        raise ConfigError("", "missing required section 'sweep'")
    base = build_theory_spec(cfg)
    ratios = cfg.sweep.ratios if cfg.sweep.ratios is not None else (1.0,) * base.K
    template = None
    if cfg.empirical is not None:
        if cfg.activations is None:
            raise ConfigError(
                "/activations", "finite-size runs need activations, not moments_override"
            )
        d, n = _resolved_counts(cfg)
        template = EmpiricalTemplate(
            activations=cfg.activations,
            d=d,
            n=n,
            n_test=cfg.empirical.n_test,
            replications=cfg.empirical.replications,
            base_seed=cfg.empirical.base_seed,
        )
    return SweepSpec(base=base, ratios=ratios, c_grid=cfg.sweep.c_grid, empirical=template)


def build_limit_spec(cfg: RootConfig) -> LimitSpec:
    """Infinite-width instance; defined for exactly two components."""
    if cfg.model.K != 2:
        raise ConfigError("/model", f"the width limit is defined for K=2, got K={cfg.model.K}")
    limit = cfg.limit or LimitSection()
    return LimitSpec(
        r1=limit.r[0],
        r2=limit.r[1],
        psi3=cfg.model.psi_n_eff,
        moments=(cfg.moments[0], cfg.moments[1]),
        F1=cfg.model.F1,
        tau=cfg.model.tau,
    )
