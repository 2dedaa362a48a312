"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at the module attribute its
callers look it up by (``multidescent.sweep.solve_nu``,
``multidescent.simulator.feature_matrix``, ...) with a wrapper that records a
span: name, layer, start, end, parent span, thread and op id.  ``uninstall``
puts the originals back, so untraced passes run the package untouched.
Nothing under ``src/`` is modified.

A span's parent is the innermost open span on its own thread; a span opened
on a pool thread with nothing open there takes the innermost open span of
the thread that installed the tracer, which is the call that started the
pool.  The op id names the unit of work: the command label, plus the grid
point for theory solves and the replication for Monte Carlo spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, layer); one wrapper per place a caller looks a name up.
TARGETS = (
    ("multidescent.config", "parse_config", "config"),
    ("multidescent.cli", "build_theory_spec", "config"),
    ("multidescent.cli", "build_sweep_spec", "config"),
    ("multidescent.cli", "build_empirical_config", "config"),
    ("multidescent.config", "compute_moments", "activations"),
    ("multidescent.simulator", "compute_moments", "activations"),
    ("multidescent.cli", "solve_nu", "nu_system"),
    ("multidescent.sweep", "solve_nu", "nu_system"),
    ("multidescent.risk", "solve_nu", "nu_system"),
    ("multidescent.cli", "asymptotic_risk", "risk"),
    ("multidescent.sweep", "asymptotic_risk", "risk"),
    ("multidescent.cli", "run_sweep", "sweep"),
    ("multidescent.cli", "run_experiment", "simulator"),
    ("multidescent.sweep", "run_experiment", "simulator"),
    ("multidescent.simulator", "run_replication", "simulator"),
    ("multidescent.simulator", "generate_dataset", "simulator"),
    ("multidescent.simulator", "feature_matrix", "simulator"),
    ("multidescent.simulator", "ridge_fit", "simulator"),
    ("multidescent.simulator", "excess_risk_estimate", "simulator"),
    ("multidescent.cli", "dispatch", "cli"),
    ("multidescent.cli", "to_json", "cli"),
    ("multidescent.cli", "csv_text", "cli"),
)
LAYERS = ("config", "activations", "nu_system", "risk", "sweep", "simulator", "cli")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: str
    op: str
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "thread": self.thread, "op": self.op,
                **self.info}


class _WarningsProxy:
    """Stands in for ``warnings`` inside ``multidescent.risk`` to count warnings."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        name = category.__name__ if category is not None else "UserWarning"
        self._tracer.count(f"warn.{name}")
        self._real.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._command = "setup"
        self._point = 0
        self._lock = threading.Lock()
        self.t0 = time.perf_counter()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: that metric reads 0
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer))
        risk = importlib.import_module("multidescent.risk")
        if hasattr(risk, "warnings"):
            self._saved.append((risk, "warnings", risk.warnings))
            risk.warnings = _WarningsProxy(risk.warnings, self)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- recording -------------------------------------------------------

    def begin_command(self, label: str) -> None:
        self._command = label
        self._point = 0

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _op(self, name: str, args, parent: Span | None) -> str:
        if name == "solve_nu" and threading.get_ident() == self._home:
            self._point += 1
        if name in ("solve_nu", "asymptotic_risk"):
            return f"{self._command}/pt{self._point}"
        if name == "run_replication":
            cfg, index = args[0], args[1]
            return f"{self._command}/N{sum(cfg.N)}/rep{index}"
        return parent.op if parent is not None else self._command

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home and stack is not home else None
            span = Span(next(tracer._ids), name, layer, 0.0, 0.0,
                        parent.id if parent is not None else None,
                        threading.current_thread().name, tracer._op(name, args, parent))
            stack.append(span)
            span.start = time.perf_counter() - tracer.t0
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                span.end = time.perf_counter() - tracer.t0
                stack.pop()
                _annotate(span, args, kwargs, result, error)
                tracer.spans.append(span)
                tracer.count(f"calls.{name}")

        return traced


def _annotate(span: Span, args, kwargs, result, error) -> None:
    """Attach what a layer metric needs from a call's arguments and result."""
    if error is not None:
        span.info["error"] = type(error).__name__
    if span.name == "solve_nu":
        b0 = kwargs.get("b0", args[2] if len(args) > 2 else None)
        span.info["warm"] = b0 is not None
        if result is not None:
            span.info["iterations"] = result.iterations
            span.info["stages"] = len(result.lambda_path)
            # A warm start that converged returns the one-stage path at the
            # target; a rejected one falls back to the cold continuation.
            span.info["warm_accepted"] = b0 is not None and len(result.lambda_path) == 1
        elif error is not None:
            span.info["iterations"] = getattr(error, "iterations", 0)
    elif span.name == "run_sweep" and result is not None:
        span.info["points"] = len(result.rows)
        span.info["failed_points"] = sum(row.error is not None for row in result.rows)
    elif span.name == "run_replication":
        cfg = args[0]
        span.info.update(n=cfg.n, d=cfg.d, N=list(cfg.N), n_test=cfg.n_test)


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it covered by its children."""
    covered, cursor = 0.0, span.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.seconds - covered
