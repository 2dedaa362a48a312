"""JSON configuration: strict parsing, validation and builders.

A run is described by one JSON document.  Validation is eager and strict:
unknown keys are rejected, and every error carries a JSON-pointer-style
location (``/model/lambda: lambda must be > 0``) so a long config can be
fixed without guesswork.  Each section is a ``{key: check}`` table walked by
:func:`_fields`; only rules that span several keys are written by hand.
A validated document is the one data model: the dict of its checked
sections, each the dict of its checked keys named as in the JSON
(``"lambda"``; ``sweep`` holds ``c_grid`` whether the document gave a grid
or a ``c_range``; ``activations`` is a tuple of ``ActivationSpec``), with
``output`` defaulting to ``{}`` and one moment triple per block under
``moments``, computed from the activations or moved there from
``moments_override`` (a key no document can hold, since unknown keys are
refused).  The builders read it, and never change it,
into ``TheorySpec``, ``EmpiricalConfig``, ``SweepSpec`` and ``LimitSpec``.
A builder passes an optional key only when the document gives it, so every
default lives in the spec (or ``render_svg``) that reads it.
"""

from __future__ import annotations

import json
import math
import os

from .activations import (ACTIVATION_KINDS, ActivationSpec, InvalidSpec, Moments, compute_moments,
                          represents_intercept)
from .risk import LimitSpec, TheorySpec
from .simulator import EmpiricalConfig
from .sweep import SweepSpec

__all__ = [
    "ConfigError",
    "parse_config",
    "build_theory_spec",
    "build_empirical_config",
    "build_sweep_spec",
    "build_limit_spec",
]


class ConfigError(InvalidSpec):
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
_EMPIRICAL = {
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


def _model(raw, pointer: str) -> dict:
    fields = _fields(raw, pointer, _MODEL)
    has_psi = "psi" in fields or "psi_n" in fields
    has_counts = "d" in fields or "n" in fields or "N" in fields
    if has_psi and has_counts:
        raise ConfigError(pointer, "give either psi/psi_n or d/n/N, not both")
    if not has_psi and not has_counts:
        raise ConfigError(pointer, "give either psi/psi_n or d/n/N")
    # Every builder reads psi_n (or n/d); lambda and the widths, only those that need them.
    _require(fields, pointer, ("psi_n",) if has_psi else ("d", "n"))
    return fields


def _sweep(raw, pointer: str) -> dict:
    fields = _fields(raw, pointer, _SWEEP)
    if ("c_grid" in fields) == ("c_range" in fields):
        raise ConfigError(pointer, "give exactly one of c_grid or c_range")
    if "c_grid" in fields and not _increasing(fields["c_grid"]):
        raise ConfigError(f"{pointer}/c_grid", "must be strictly increasing")
    if "c_range" in fields:
        fields["c_grid"] = fields.pop("c_range")
    return fields


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
    "empirical": lambda v, p: _fields(v, p, _EMPIRICAL),
    "sweep": _sweep,
    "limit": lambda v, p: _fields(v, p, _LIMIT),
    "output": lambda v, p: _fields(v, p, _OUTPUT),
}


def validate_config(raw: dict) -> dict:
    """Validate a parsed JSON document, eagerly and strictly, into its
    checked sections with the moments resolved (see the module docstring)."""
    doc = _fields(raw, "", _ROOT)
    if ("activations" in doc) == ("moments_override" in doc):
        raise ConfigError("", "give exactly one of activations or moments_override")
    if "activations" in doc:
        doc["moments"] = tuple(compute_moments(a) for a in doc["activations"])
    else:
        doc["moments"] = doc.pop("moments_override")

    model = doc.get("model", {})
    k = len(doc["moments"])
    widths = model.get("psi", model.get("N"))
    if widths is not None and len(widths) != k:
        raise ConfigError(
            "/model",
            f"model has {len(widths)} components but {k} activations/moments given",
        )
    if model.get("F0") and not represents_intercept(doc["moments"]):
        raise ConfigError(
            "/model/F0",
            "F0 != 0 requires at least one activation with nonzero Gaussian mean",
        )
    for section, key in (("sweep", "ratios"), ("limit", "r")):
        values = doc.get(section, {}).get(key)
        if values is not None and len(values) != k:
            raise ConfigError(f"/{section}/{key}", f"expected {k} entries to match the model")
    doc.setdefault("output", {})
    return doc


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


def parse_config(source: str, overrides: list[str] | None = None) -> dict:
    """Load a JSON document from a path, or parse inline text starting with
    '{', apply the ``overrides`` and validate it, in one step; returns the
    validated document (see :func:`validate_config`)."""
    text = source
    if not source.lstrip().startswith("{"):
        if not os.path.exists(source):
            raise ConfigError("", f"config file not found: {source}")
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = _object(json.loads(text), "")
    except json.JSONDecodeError as err:
        raise ConfigError("", f"invalid JSON: {err}") from err
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)


def _given(section: dict, keys) -> dict:
    """The ``keys`` that the section gives: the rest keep their spec defaults."""
    return {key: section[key] for key in keys if key in section}


def _psi_n(model: dict) -> float:
    return model["psi_n"] if "psi_n" in model else model["n"] / model["d"]


def _model_of(cfg: dict) -> dict:
    """The model section, which every command but ``moments`` reads."""
    if "model" not in cfg:
        raise ConfigError("", "missing required section 'model'")
    return cfg["model"]


def _at_widths(cfg: dict, psi) -> TheorySpec:
    """The model at the widths ``psi``; its ``lambda`` must be given."""
    model = cfg["model"]
    return TheorySpec(psi=psi, psi_n=_psi_n(model), moments=cfg["moments"], lam=model["lambda"],
                      **_given(model, ("F0", "F1", "tau")))


def build_theory_spec(cfg: dict) -> TheorySpec:
    """Asymptotic instance from the model section (counts become ratios)."""
    model = _model_of(cfg)
    widths = "psi" if "psi_n" in model else "N"
    _require(model, "/model", ("lambda", widths))
    return _at_widths(cfg, model["psi"] if widths == "psi" else tuple(nc / model["d"] for nc in model["N"]))


def _finite_size(cfg: dict, counts=None) -> EmpiricalConfig:
    """The finite-size run of the model: its activations, d, n and N (or
    ``counts``, where the model gives d and n but no N), and the empirical
    section's settings."""
    model = _model_of(cfg)
    if "activations" not in cfg:
        raise ConfigError("/activations", "finite-size runs need activations, not moments_override")
    counts = model.get("N", counts)
    if counts is None:
        raise ConfigError("/model", "finite-size runs need explicit feature counts N")
    if "d" not in model:  # a psi-form model gives no N, so only a sweep's counts reach here
        raise ConfigError("/model", "finite-size sweeps need d and n")
    _require(model, "/model", ("lambda",))
    spec = _at_widths(cfg, tuple(nc / model["d"] for nc in counts))
    return EmpiricalConfig(
        d=model["d"], n=model["n"], N=counts, activations=cfg["activations"],
        lam=spec.lam, F0=spec.F0, F1=spec.F1, tau=spec.tau,
        **_given(cfg.get("empirical", {}), ("n_test", "replications", "base_seed")),
    )


def build_empirical_config(cfg: dict) -> EmpiricalConfig:
    """The finite-size run of the model, at its feature counts N."""
    return _finite_size(cfg)


def build_sweep_spec(cfg: dict) -> SweepSpec:
    """Sweep instance: the model at widths ``sweep.ratios`` (all 1 by default), so a theory-only
    sweep reads no model widths; attaches the model's finite-size run iff /empirical is present.
    That run is built at the model's N, or at one feature a block without it: the sweep runs
    its own counts at each c, never these."""
    model = _model_of(cfg)
    if "sweep" not in cfg:
        raise ConfigError("", "missing required section 'sweep'")
    _require(model, "/model", ("lambda",))
    ones = (1,) * len(cfg["moments"])
    base = _at_widths(cfg, cfg["sweep"].get("ratios", ones))
    empirical = _finite_size(cfg, ones) if "empirical" in cfg else None
    return SweepSpec(base=base, c_grid=cfg["sweep"]["c_grid"], empirical=empirical)


def build_limit_spec(cfg: dict) -> LimitSpec:
    """Infinite-width instance; the block weights default to all 1."""
    model = _model_of(cfg)
    return LimitSpec(
        r=cfg.get("limit", {}).get("r", (1.0,) * len(cfg["moments"])),
        psi_n=_psi_n(model),
        moments=cfg["moments"],
        **_given(model, ("F1", "tau")),
    )
