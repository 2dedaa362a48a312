"""Scalar activations and their Gaussian moments.

The asymptotic theory sees an activation only through three statistics of
sigma(G) for G ~ N(0, 1): the mean ``mu0``, the linear (Hermite-1) component
``mu1``, and the residual nonlinear variance ``mu2_sq``.  This module
evaluates the supported activations and computes those moments by composite
Gauss-Legendre quadrature against the normal density, with panel boundaries
pinned to the kink of the ReLU family so every panel integrand is smooth.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActivationSpec",
    "Moments",
    "QuadratureDiverged",
    "eval_activation",
    "compute_moments",
    "represents_intercept",
    "ACTIVATION_KINDS",
]


class QuadratureDiverged(RuntimeError):
    """Raised when refining the quadrature still moves a moment by > 1e-8."""


def _relu(u):
    return np.maximum(u, 0.0)


def _step(u):
    # Indicator of u > 0; the value at exactly 0 is 0.
    return (np.asarray(u) > 0).astype(np.float64)


def _elu(u):
    u = np.asarray(u, dtype=np.float64)
    return np.where(u >= 0.0, u, np.expm1(np.minimum(u, 0.0)))


def _sigmoid(u):
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


_BASE_FUNCS = {
    "relu": _relu,
    "step": _step,
    "elu": _elu,
    "sigmoid": _sigmoid,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "identity": lambda u: np.asarray(u, dtype=np.float64),
    "constant": lambda u: np.ones_like(np.asarray(u, dtype=np.float64)),
}

ACTIVATION_KINDS = tuple(sorted(_BASE_FUNCS))

# Base functions with a kink: quadrature panels must break there.
_KINKED = frozenset({"relu", "step", "elu"})

# Composite Gauss-Legendre rule: equal panels on [-_TRUNCATION, _TRUNCATION],
# each with _NODES_PER_PANEL nodes (and twice that for the refinement check).
_PANEL_COUNT = 24
_TRUNCATION = 12.0
_NODES_PER_PANEL = 64


@dataclass(frozen=True)
class ActivationSpec:
    """A named scalar nonlinearity x -> out_scale * base(in_scale * x) + shift."""

    kind: str
    in_scale: float = 1.0
    out_scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in _BASE_FUNCS:
            raise ValueError(
                f"unknown activation kind {self.kind!r}; expected one of {ACTIVATION_KINDS}"
            )
        for name in ("in_scale", "out_scale", "shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def __call__(self, x):
        return eval_activation(self, x)


@dataclass(frozen=True)
class Moments:
    """Gaussian moment triple of an activation.

    mu0 = E sigma(G), mu1 = E G sigma(G), and
    mu2_sq = E sigma(G)^2 - mu0^2 - mu1^2 (clamped at 0).
    """

    mu0: float
    mu1: float
    mu2_sq: float

    def __post_init__(self):
        if self.mu2_sq < 0.0:
            raise ValueError("mu2_sq must be nonnegative (clamp before constructing)")


def eval_activation(act: ActivationSpec, x):
    """Evaluate ``act`` at ``x`` (scalar or ndarray, applied elementwise)."""
    base = _BASE_FUNCS[act.kind]
    out = act.out_scale * base(act.in_scale * np.asarray(x, dtype=np.float64)) + act.shift
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _panel_boundaries(act: ActivationSpec) -> np.ndarray:
    bounds = np.linspace(-_TRUNCATION, _TRUNCATION, _PANEL_COUNT + 1)
    if act.kind in _KINKED and act.in_scale != 0.0:
        # The base kink sits at in_scale * x = 0, i.e. x = 0.
        bounds = np.union1d(bounds, [0.0])
    return bounds


@functools.lru_cache
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count
    and shared read-only."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
    ref_x.flags.writeable = ref_w.flags.writeable = False
    return ref_x, ref_w


def _gauss_moments(act: ActivationSpec, nodes: int) -> np.ndarray:
    """Integrals of (sigma, x sigma, sigma^2) against the N(0,1) density."""
    ref_x, ref_w = _legendre_rule(nodes)
    bounds = _panel_boundaries(act)
    lo, hi = bounds[:-1], bounds[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    w = (half[:, None] * ref_w[None, :]).ravel()
    w = w * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    s = eval_activation(act, x)
    return np.array([np.dot(w, s), np.dot(w, x * s), np.dot(w, s * s)])


@functools.lru_cache
def compute_moments(act: ActivationSpec) -> Moments:
    """Compute the Gaussian moment triple of ``act`` by panel quadrature.

    The rule is evaluated at 64 nodes per panel and at twice that count; if
    any of the three raw integrals moves by more than 1e-8 under the
    refinement the quadrature is considered unresolved and
    ``QuadratureDiverged`` is raised.  The refined values are returned.
    Results are memoized on the frozen spec, so callers that need the
    same activation's moments share one quadrature.
    """
    coarse = _gauss_moments(act, _NODES_PER_PANEL)
    fine = _gauss_moments(act, 2 * _NODES_PER_PANEL)
    drift = np.max(np.abs(fine - coarse))
    if drift > 1e-8:
        raise QuadratureDiverged(
            f"moment integrals moved by {drift:.3e} under node doubling (kind={act.kind!r})"
        )
    mu0, mu1 = fine[0], fine[1]
    raw = fine[2] - mu0 * mu0 - mu1 * mu1
    if raw < -1e-8:
        raise QuadratureDiverged(
            f"nonlinear variance came out at {raw:.3e} < 0 beyond quadrature tolerance"
        )
    return Moments(mu0=mu0, mu1=mu1, mu2_sq=max(raw, 0.0))


def represents_intercept(moments: Iterable[Moments]) -> bool:
    """Whether these components can fit an intercept F0 != 0: some mean must be nonzero."""
    # Quadrature yields ~1e-19 rather than exact zero for odd activations,
    # so means below roundoff count as zero here.
    return sum(m.mu0 * m.mu0 for m in moments) > 1e-24
