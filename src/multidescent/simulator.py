"""Finite-size Monte Carlo for the random feature ridge model.

One replication draws everything fresh (signal direction, feature
directions, inputs, noise, test set) from a generator keyed by
(base_seed, replication index), fits the readout by ridge regression and
estimates the excess risk on a noiseless test set.  Replications are
independent, so results are bit-identical for any execution order or
worker count.  BLAS runs one thread while replications run (see
``_single_threaded_blas``): replications are the unit of parallelism.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .activations import ActivationSpec, Moments, compute_moments, represents_intercept
from .nu_system import InvalidSpec, TheorySpec

__all__ = [
    "EmpiricalConfig",
    "Dataset",
    "EmpiricalRisk",
    "ShapeMismatch",
    "SolveFailure",
    "replication_rng",
    "sample_sphere",
    "generate_dataset",
    "feature_matrix",
    "ridge_fit",
    "excess_risk_on",
    "excess_risk_estimate",
    "run_replication",
    "run_experiment",
    "theory_spec_from_empirical",
]


class ShapeMismatch(ValueError):
    """Matrix dimensions disagree with the declared activation split."""


class SolveFailure(RuntimeError):
    """Ridge system could not be factorized (NaN/Inf inputs)."""


@dataclass(frozen=True)
class EmpiricalConfig:
    """Finite-size experiment parameters."""

    d: int
    n: int
    N: tuple[int, ...]
    activations: tuple[ActivationSpec, ...]
    lam: float
    F0: float = 0.0
    F1: float = 1.0
    tau: float = 0.0
    n_test: int = 700
    replications: int = 30
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "N", tuple(int(x) for x in self.N))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.N) != len(self.activations) or len(self.N) == 0:
            raise InvalidSpec("N and activations must be same nonzero length")
        if self.d < 1 or self.n < 1 or self.n_test < 1 or self.replications < 1:
            raise InvalidSpec("d, n, n_test and replications must be >= 1")
        if any(x < 1 for x in self.N):
            raise InvalidSpec("all feature counts must be >= 1")
        if not (self.lam > 0.0):
            raise InvalidSpec("lambda must be > 0")
        if self.F1 < 0.0 or self.tau < 0.0:
            raise InvalidSpec("F1 and tau must be >= 0")

    @property
    def K(self) -> int:
        return len(self.N)


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    beta1: np.ndarray


@dataclass
class EmpiricalRisk:
    per_replication: np.ndarray
    mean: float
    std_error: float


def replication_rng(base_seed: int, index: int) -> np.random.Generator:
    """Generator for one replication, a pure function of (base_seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(index,)))


def sample_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """One draw from the uniform distribution on the radius-sqrt(d) sphere."""
    if d < 1:
        raise ValueError("d must be >= 1")
    while True:
        g = rng.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 0.0:
            return g * (math.sqrt(d) / norm)


def _sphere_rows(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((m, d))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0.0):  # probability-0 event; redraw those rows
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    return g * (math.sqrt(d) / norms)[:, None]


def generate_dataset(cfg: EmpiricalConfig, rng: np.random.Generator) -> Dataset:
    """Signal direction, spherical inputs and noisy labels, in that draw order."""
    beta1 = cfg.F1 * sample_sphere(cfg.d, rng) / math.sqrt(cfg.d)
    X = _sphere_rows(cfg.n, cfg.d, rng)
    y = X @ beta1 + cfg.F0
    if cfg.tau > 0.0:
        y = y + rng.normal(0.0, cfg.tau, size=cfg.n)
    return Dataset(X=X, y=y, beta1=beta1)


def feature_matrix(
    X: np.ndarray,
    Theta: np.ndarray,
    acts: tuple[ActivationSpec, ...],
    n_split: tuple[int, ...],
) -> np.ndarray:
    """Normalized feature map: Z[j, i] = sigma_{c(i)}(<theta_i, x_j>/sqrt(d))/sqrt(d)."""
    if X.ndim != 2 or Theta.ndim != 2 or X.shape[1] != Theta.shape[1]:
        raise ShapeMismatch(f"X {X.shape} and Theta {Theta.shape} disagree on d")
    if len(acts) != len(n_split) or sum(n_split) != Theta.shape[0]:
        raise ShapeMismatch(
            f"split {tuple(n_split)} does not partition the {Theta.shape[0]} features"
        )
    d = X.shape[1]
    u = X @ Theta.T / math.sqrt(d)
    z = np.empty_like(u)
    col = 0
    for act, nc in zip(acts, n_split):
        z[:, col:col + nc] = act(u[:, col:col + nc])
        col += nc
    return z / math.sqrt(d)


def ridge_fit(Z: np.ndarray, y: np.ndarray, lam: float, d: int) -> np.ndarray:
    """Ridge readout: (Z^T Z + lam I)^{-1} Z^T y / sqrt(d).

    Switches to the algebraically identical dual form
    Z^T (Z Z^T + lam I)^{-1} y / sqrt(d) when there are more features than
    samples, keeping the factorization at min(N, n)^3 cost.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be > 0")
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(y))):
        raise SolveFailure("non-finite entries in ridge inputs")
    n, N = Z.shape
    try:
        if N <= n:
            gram = Z.T @ Z
            gram[np.arange(N), np.arange(N)] += lam
            ahat = np.linalg.solve(gram, Z.T @ y)
        else:
            gram = Z @ Z.T
            gram[np.arange(n), np.arange(n)] += lam
            ahat = Z.T @ np.linalg.solve(gram, y)
    except np.linalg.LinAlgError as err:  # pragma: no cover - lam > 0 makes SPD
        raise SolveFailure(str(err)) from err
    return ahat / math.sqrt(d)


def excess_risk_on(
    ahat: np.ndarray,
    Theta: np.ndarray,
    acts: tuple[ActivationSpec, ...],
    n_split: tuple[int, ...],
    beta1: np.ndarray,
    F0: float,
    X_test: np.ndarray,
) -> float:
    """Mean squared gap to the noiseless target over the given test inputs."""
    d = Theta.shape[1]
    z = feature_matrix(X_test, Theta, acts, n_split)
    preds = math.sqrt(d) * (z @ ahat)
    targets = X_test @ beta1 + F0
    gap = targets - preds
    return float(np.mean(gap * gap))


def excess_risk_estimate(
    ahat: np.ndarray,
    Theta: np.ndarray,
    acts: tuple[ActivationSpec, ...],
    n_split: tuple[int, ...],
    beta1: np.ndarray,
    F0: float,
    n_test: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo excess risk over a fresh spherical test set."""
    X_test = _sphere_rows(n_test, Theta.shape[1], rng)
    return excess_risk_on(ahat, Theta, acts, n_split, beta1, F0, X_test)


def run_replication(cfg: EmpiricalConfig, index: int) -> float:
    """One full draw-fit-evaluate cycle, keyed by the replication index."""
    rng = replication_rng(cfg.base_seed, index)
    data = generate_dataset(cfg, rng)
    Theta = _sphere_rows(sum(cfg.N), cfg.d, rng)
    Z = feature_matrix(data.X, Theta, cfg.activations, cfg.N)
    try:
        ahat = ridge_fit(Z, data.y, cfg.lam, cfg.d)
    except SolveFailure as err:
        raise SolveFailure(f"replication {index}: {err}") from err
    return excess_risk_estimate(
        ahat, Theta, cfg.activations, cfg.N, data.beta1, cfg.F0, cfg.n_test, rng
    )


@functools.cache
def _openblas_thread_calls():
    """numpy's OpenBLAS (get, set) thread-count functions, or None."""
    try:  # the BLAS name is e.g. "openblas", "openblas64" or "<vendor>-openblas"
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no such record
        return None
    if "openblas" not in name:
        return None
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    prefix = name.removesuffix("64").replace("-", "_")
    for suffix in ("64_", ""):
        get, set_ = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}", None)
                     for op in ("get", "set"))
        if get is not None and set_ is not None:
            get.restype = ctypes.c_int
            return get, set_
    return None


_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved_threads = 0


@contextlib.contextmanager
def _single_threaded_blas():
    """Run numpy's OpenBLAS on one thread until the last concurrent user leaves.

    Pool threads that each call a multithreaded BLAS oversubscribe the cores
    and its threads spin, so run times follow the scheduler; one BLAS thread
    also keeps results independent of the core count and of ``workers``.
    Process-wide; no-op when numpy does not link OpenBLAS.
    """
    global _blas_users, _blas_saved_threads
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved_threads = calls[0]()
            calls[1](1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                calls[1](_blas_saved_threads)


def run_experiment(cfg: EmpiricalConfig, workers: int | None = None) -> EmpiricalRisk:
    """Excess-risk estimate averaged over cfg.replications independent runs.

    ``workers`` > 1 runs replications in threads; results are gathered by
    replication index and BLAS runs one thread for any ``workers``, so the
    output never depends on the worker count.
    """
    if cfg.F0 != 0.0 and not represents_intercept(compute_moments(a) for a in cfg.activations):
        raise InvalidSpec(
            "F0 != 0 needs at least one activation with nonzero Gaussian mean, "
            "otherwise the model cannot represent the intercept"
        )
    indices = range(cfg.replications)
    with _single_threaded_blas():
        if workers is not None and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                risks = list(pool.map(lambda r: run_replication(cfg, r), indices))
        else:
            risks = [run_replication(cfg, r) for r in indices]
    per = np.array(risks)
    mean = float(np.mean(per))
    if cfg.replications > 1:
        se = float(np.std(per, ddof=1) / math.sqrt(cfg.replications))
    else:
        se = 0.0
    return EmpiricalRisk(per_replication=per, mean=mean, std_error=se)


def theory_spec_from_empirical(cfg: EmpiricalConfig) -> TheorySpec:
    """Matching asymptotic instance: psi_c = N_c/d, psi_n = n/d, quadrature moments."""
    moments: tuple[Moments, ...] = tuple(compute_moments(a) for a in cfg.activations)
    return TheorySpec(
        psi=tuple(nc / cfg.d for nc in cfg.N),
        psi_n=cfg.n / cfg.d,
        moments=moments,
        lam=cfg.lam,
        F1=cfg.F1,
        tau=cfg.tau,
        F0=cfg.F0,
    )
