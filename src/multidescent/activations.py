"""Scalar activations and their Gaussian moments.

The asymptotic theory sees an activation only through three statistics of
sigma(G) for G ~ N(0, 1): the mean ``mu0``, the linear (Hermite-1) component
``mu1``, and the residual nonlinear variance ``mu2_sq``.  This module
evaluates the supported activations and computes those moments by composite
Gauss-Legendre quadrature against the normal density, on equal panels whose
middle boundary is the kink of the ReLU family, so every panel integrand is
smooth.  Each kind's base function is implemented once, in place, and the
simulator's feature map applies the same kernels.
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


def _elu_in_place(z: np.ndarray) -> None:
    # max(z, 0) + expm1(min(z, 0)) is elu bit for bit; a ufunc's where=
    # mask would avoid the temporary but runs several times slower.
    neg = np.minimum(z, 0.0)
    np.expm1(neg, out=neg)
    np.maximum(z, 0.0, out=z)
    z += neg


def _sigmoid_in_place(z: np.ndarray) -> None:
    # 1/(1 + e^-z) loses no relative accuracy; e^-z overflows to inf only
    # where the sigmoid is below the smallest normal double.
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


# Each activation kind's base function, overwriting a float64 array in place:
# the one implementation behind eval_activation (so the moment quadrature)
# and the simulator's feature map.
_BASE_IN_PLACE = {
    "relu": lambda z: np.maximum(z, 0.0, out=z),
    "step": lambda z: np.greater(z, 0.0, out=z),  # the value at exactly 0 is 0
    "elu": _elu_in_place,
    "sigmoid": _sigmoid_in_place,
    "tanh": lambda z: np.tanh(z, out=z),
    "sin": lambda z: np.sin(z, out=z),
    "cos": lambda z: np.cos(z, out=z),
    "identity": lambda z: None,
    "constant": lambda z: z.fill(1.0),
}

ACTIVATION_KINDS = tuple(sorted(_BASE_IN_PLACE))

# Composite Gauss-Legendre rule: equal panels on [-_TRUNCATION, _TRUNCATION],
# each with _NODES_PER_PANEL nodes (and twice that for the refinement check).
# The panel count is even, so the middle boundary is 0: the kink of relu,
# step and elu, which leaves every panel's integrand smooth.
_PANEL_COUNT = 24
_TRUNCATION = 12.0
_NODES_PER_PANEL = 64
_PANEL_BOUNDS = np.linspace(-_TRUNCATION, _TRUNCATION, _PANEL_COUNT + 1)
_PANEL_BOUNDS.flags.writeable = False


@dataclass(frozen=True)
class ActivationSpec:
    """A named scalar nonlinearity x -> out_scale * base(in_scale * x) + shift."""

    kind: str
    in_scale: float = 1.0
    out_scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in _BASE_IN_PLACE:
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
    z = np.array(x, dtype=np.float64, ndmin=1)  # a copy: x is left as it is
    z *= act.in_scale
    _BASE_IN_PLACE[act.kind](z)
    z *= act.out_scale
    z += act.shift
    return float(z[0]) if np.ndim(x) == 0 else z


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
    lo, hi = _PANEL_BOUNDS[:-1], _PANEL_BOUNDS[1:]
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
