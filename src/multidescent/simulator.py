"""Finite-size Monte Carlo for the random feature ridge model.

One replication draws everything fresh (signal direction, inputs, noise,
feature directions, test set) from a generator keyed by (base_seed,
replication index), fits the readout by ridge regression and estimates the
excess risk on a noiseless test set.  Configs of a batch that differ only
in their feature counts N (a sweep's grid) share each replication's draws:
one job draws them once and fits every config from a prefix of them.  A
config's draws, and so its result, never depend on its batch, the
execution order or the worker count.  ``run_experiments`` runs every job of
a batch in one thread pool, the one parallel section of the package, and
BLAS runs one thread meanwhile (see ``_single_threaded_blas``): jobs are
the unit of parallelism.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .activations import _BASE_IN_PLACE, ActivationSpec, Moments, compute_moments, represents_intercept
from .risk import InvalidSpec, TheorySpec

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
    "run_replication",
    "run_experiment",
    "run_experiments",
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
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise InvalidSpec("lambda must be > 0")
        if not (math.isfinite(self.F0)
                and 0.0 <= self.F1 < math.inf and 0.0 <= self.tau < math.inf):
            raise InvalidSpec("F0 must be finite, F1 and tau finite and >= 0")

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
    g *= (math.sqrt(d) / norms)[:, None]
    return g


def generate_dataset(cfg: EmpiricalConfig, rng: np.random.Generator) -> Dataset:
    """Signal direction, spherical inputs and noisy labels, in that draw order."""
    beta1 = cfg.F1 * sample_sphere(cfg.d, rng) / math.sqrt(cfg.d)
    X = _sphere_rows(cfg.n, cfg.d, rng)
    y = X @ beta1 + cfg.F0
    if cfg.tau > 0.0:
        y = y + rng.normal(0.0, cfg.tau, size=cfg.n)
    return Dataset(X=X, y=y, beta1=beta1)


# Rows of the output per elementwise pass, which bounds elu's temporary.
_CHUNK_ROWS = 128


def feature_matrix(
    X: np.ndarray,
    Theta: np.ndarray,
    acts: tuple[ActivationSpec, ...],
    n_split: tuple[int, ...],
) -> np.ndarray:
    """Normalized feature map: Z[j, i] = sigma_{c(i)}(<theta_i, x_j>/sqrt(d))/sqrt(d).

    Each block's in_scale/sqrt(d) scales its rows of Theta before the
    product; the base function, out_scale/sqrt(d) and shift/sqrt(d) then
    act in place on the block's columns of the one n x N output, a chunk
    of rows at a time.
    """
    if X.ndim != 2 or Theta.ndim != 2 or X.shape[1] != Theta.shape[1]:
        raise ShapeMismatch(f"X {X.shape} and Theta {Theta.shape} disagree on d")
    if len(acts) != len(n_split) or sum(n_split) != Theta.shape[0]:
        raise ShapeMismatch(
            f"split {tuple(n_split)} does not partition the {Theta.shape[0]} features"
        )
    root_d = math.sqrt(X.shape[1])
    row_scale = np.repeat([act.in_scale / root_d for act in acts], n_split)
    z = X @ (Theta * row_scale[:, None]).T
    ends = np.cumsum(n_split)
    for top in range(0, z.shape[0], _CHUNK_ROWS):
        for act, lo, hi in zip(acts, ends - n_split, ends):
            block = z[top:top + _CHUNK_ROWS, lo:hi]
            _BASE_IN_PLACE[act.kind](block)
            block *= act.out_scale / root_d
            if act.shift != 0.0:
                block += act.shift / root_d
    return z


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


def _replicate(group: Sequence[EmpiricalConfig], index: int) -> list[float | SolveFailure]:
    """Replication ``index`` of configs that differ only in N, from one set of draws.

    The draw order is beta, X, noise, then one block of sphere rows: a
    config's feature directions are the block's first sum(N) rows and its
    test inputs the next n_test.  One ``standard_normal`` call equals
    successive smaller ones and a row's norm does not depend on the other
    rows, so each config sees the draws of running it alone.  Returns per
    config its excess risk or the ``SolveFailure`` that failed it alone.
    """
    first = group[0]
    rng = replication_rng(first.base_seed, index)
    data = generate_dataset(first, rng)
    rows = _sphere_rows(max(sum(cfg.N) for cfg in group) + first.n_test, first.d, rng)
    out: list[float | SolveFailure] = []
    for cfg in group:
        m = sum(cfg.N)
        Theta = rows[:m]
        try:
            ahat = ridge_fit(feature_matrix(data.X, Theta, cfg.activations, cfg.N),
                             data.y, cfg.lam, cfg.d)
        except SolveFailure as err:
            out.append(SolveFailure(f"replication {index}: {err}"))
            continue
        out.append(excess_risk_on(ahat, Theta, cfg.activations, cfg.N, data.beta1, cfg.F0,
                                  rows[m:m + cfg.n_test]))
    return out


def run_replication(cfg: EmpiricalConfig, index: int) -> float:
    """One full draw-fit-evaluate cycle, keyed by the replication index."""
    (outcome,) = _replicate((cfg,), index)
    if isinstance(outcome, SolveFailure):
        raise outcome
    return outcome


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
    Process-wide; no-op when numpy does not link OpenBLAS.  The package
    enters it once per ``run_experiments`` call; the user count lets library
    callers run experiments from several threads of their own at once.
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


def run_experiments(
    cfgs: Sequence[EmpiricalConfig], workers: int | None = None
) -> list[EmpiricalRisk | InvalidSpec | SolveFailure]:
    """Every replication of every config in one pool of ``workers`` threads.

    Configs that differ only in N form a group, and one job runs one
    replication of a whole group from one set of draws (``_replicate``).
    Returns per config its :class:`EmpiricalRisk` or the error that failed
    it alone: the intercept guard's ``InvalidSpec``, checked before anything
    is drawn, or its lowest-index replication's ``SolveFailure``.
    ``workers`` None or below 2 means one thread.  Results are gathered by
    (config, index), so no outcome depends on the worker count or the batch.
    """
    outcomes: list = [
        None if cfg.F0 == 0.0 or represents_intercept(compute_moments(a) for a in cfg.activations)
        else InvalidSpec("F0 != 0 needs at least one activation with nonzero Gaussian mean, "
                         "otherwise the model cannot represent the intercept")
        for cfg in cfgs
    ]
    groups: dict[EmpiricalConfig, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        if outcomes[i] is None:  # keyed by the config with its feature counts blanked
            groups.setdefault(replace(cfg, N=(1,) * cfg.K), []).append(i)
    jobs = [(members, r) for members in groups.values()
            for r in range(cfgs[members[0]].replications)]

    def one(job):
        members, r = job
        return _replicate([cfgs[i] for i in members], r)

    # Imported here: processes that only run the theory never load the pool
    # machinery (concurrent.futures brings in logging).
    from concurrent.futures import ThreadPoolExecutor

    with _single_threaded_blas(), ThreadPoolExecutor(max_workers=max(workers or 1, 1)) as pool:
        results = list(pool.map(one, jobs))
    per: dict[int, list] = {i: [] for members in groups.values() for i in members}
    for (members, _), outs in zip(jobs, results):
        for i, out in zip(members, outs):
            per[i].append(out)
    for i, reps in per.items():
        failures = [r for r in reps if isinstance(r, SolveFailure)]
        outcomes[i] = failures[0] if failures else _summary(np.array(reps))
    return outcomes


def _summary(per: np.ndarray) -> EmpiricalRisk:
    se = float(np.std(per, ddof=1) / math.sqrt(per.size)) if per.size > 1 else 0.0
    return EmpiricalRisk(per_replication=per, mean=float(np.mean(per)), std_error=se)


def run_experiment(cfg: EmpiricalConfig, workers: int | None = None) -> EmpiricalRisk:
    """Excess-risk estimate averaged over cfg.replications independent runs.

    The one-config case of :func:`run_experiments`; raises its failure.
    """
    (outcome,) = run_experiments([cfg], workers)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
