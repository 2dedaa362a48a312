"""Risk curves over a model-complexity grid, with CSV and SVG emission.

A sweep holds the activation moments, the sample ratio and the ridge
penalty fixed while the total feature budget ``c = sum(psi_c) / psi_n``
moves along a grid; relative widths between components are set by a ratio
vector.  Theory risk is evaluated at every point, the whole grid as one
stacked solve and one stacked risk evaluation, and finite-size experiments
can be attached to a subset of the same grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .activations import ActivationSpec
from .formatting import _float_cells, to_json
from .risk import InvalidSpec, SolverConfig, TheorySpec, _shared_coeffs, _theory
from .simulator import EmpiricalConfig, run_experiments

__all__ = [
    "EmptyGrid",
    "EmpiricalTemplate",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "csv_header",
    "csv_text",
    "write_csv",
    "render_svg",
]

class EmptyGrid(ValueError):
    """The complexity grid contains no points."""


@dataclass(frozen=True)
class EmpiricalTemplate:
    """Finite-size settings shared by all grid points of a sweep.

    Per-point feature counts are derived from the grid, everything else is
    copied verbatim into each point's :class:`EmpiricalConfig`.
    """

    activations: tuple[ActivationSpec, ...]
    d: int
    n: int
    n_test: int = 500
    replications: int = 30
    base_seed: int = 0

    def at(self, base: TheorySpec, N) -> EmpiricalConfig:
        """The finite-size run of ``base``'s ridge and target with feature counts ``N``."""
        return EmpiricalConfig(N=N, lam=base.lam, F0=base.F0, F1=base.F1, tau=base.tau,
                               **vars(self))


@dataclass(frozen=True)
class SweepSpec:
    """A complexity sweep: base model, relative widths and the c grid."""

    base: TheorySpec
    ratios: tuple[float, ...]
    c_grid: tuple[float, ...]
    empirical: EmpiricalTemplate | None = None

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        if len(self.ratios) != self.base.K:
            raise InvalidSpec(
                f"need {self.base.K} ratios to match the base model, got {len(self.ratios)}"
            )
        if any(r <= 0.0 for r in self.ratios):
            raise InvalidSpec("ratios must be > 0")
        if any(c <= 0.0 for c in self.c_grid):
            raise InvalidSpec("c grid values must be > 0")
        if any(b >= a for a, b in zip(self.c_grid[1:], self.c_grid)):
            raise InvalidSpec("c grid must be strictly increasing")
        if self.empirical is not None and len(self.empirical.activations) != self.base.K:
            raise InvalidSpec("empirical template needs one activation per component")


@dataclass
class SweepRow:
    """One grid point; the fields are the output columns, in order."""

    c: float
    psi: tuple[float, ...]
    psi_n: float
    lam: float
    theory_risk: float
    theory_bias: float
    theory_variance: float
    emp_mean: float | None = None
    emp_se: float | None = None
    replications: int | None = None
    solver_iterations: int | None = None
    error: str | None = None

    def record(self) -> dict:
        """Every field under its output column name, as in the JSON sidecar."""
        return {_column(key): value for key, value in asdict(self).items()}


def _column(field_name: str) -> str:
    return "lambda" if field_name == "lam" else field_name


# CSV cells after c and psi_1..psi_K.
CSV_BASE_COLUMNS = tuple(_column(f.name) for f in fields(SweepRow)
                         if f.name not in ("c", "psi", "error"))


@dataclass
class SweepResult:
    rows: list[SweepRow]
    metadata: dict = field(default_factory=dict)


def _grid_psi(spec: SweepSpec) -> np.ndarray:
    """Widths psi_c = ratio_c*c*psi_n/sum(ratios) of every grid value, shape (G, K)."""
    if len(spec.c_grid) == 0:
        raise EmptyGrid("c grid is empty")
    return np.multiply.outer(spec.c_grid, spec.ratios) * spec.base.psi_n / sum(spec.ratios)


def _empirical_at(spec: SweepSpec, c: float) -> EmpiricalConfig:
    """The finite-size run at ``c``: N_c = ratio_c*c*n/sum(ratios), rounded, at least 1."""
    tpl, total = spec.empirical, sum(spec.ratios)
    return tpl.at(spec.base, tuple(max(1, int(round(r * c * tpl.n / total))) for r in spec.ratios))


def _metadata(spec: SweepSpec) -> dict:
    return {
        "base": {
            "psi_n": spec.base.psi_n,
            "lambda": spec.base.lam,
            "F0": spec.base.F0,
            "F1": spec.base.F1,
            "tau": spec.base.tau,
            "moments": [[m.mu0, m.mu1, m.mu2_sq] for m in spec.base.moments],
        },
        "ratios": list(spec.ratios),
        "c_grid": list(spec.c_grid),
        "tool_version": __version__,
    }


def run_sweep(
    spec: SweepSpec,
    solver: SolverConfig | None = None,
    workers: int | None = None,
) -> SweepResult:
    """Evaluate the full grid; theory always, finite-size runs when configured.

    The theory pass solves and scores the whole grid as one stack of
    arrays, with no per-point spec or result objects, every point from a
    cold start, so a row depends on its own c alone.
    A failing point records its error in the row and leaves NaNs instead
    of aborting the sweep.
    ``workers`` threads run every replication of every point, in one
    ``run_experiments`` call; output does not depend on the worker count.
    """
    base = spec.base
    psi = _grid_psi(spec)
    cfgs = None if spec.empirical is None else [_empirical_at(spec, c) for c in spec.c_grid]
    if not (np.isfinite(psi).all() and (psi > 0.0).all()):
        raise InvalidSpec("all psi entries must be > 0")
    g = len(psi)
    risk, bias, variance, _, _, _, steps, errors = _theory(
        _shared_coeffs(psi, base.psi_n, base.moments, base.lam),
        np.full(g, base.F1 ** 2), np.full(g, base.tau ** 2), solver)
    rows = [
        SweepRow(c=c, psi=tuple(p), psi_n=base.psi_n, lam=base.lam, theory_risk=r,
                 theory_bias=bi, theory_variance=v, solver_iterations=n)
        for c, p, r, bi, v, n in zip(spec.c_grid, psi.tolist(), risk.tolist(), bias.tolist(),
                                     variance.tolist(), steps.tolist())
    ]
    for i, err in errors.items():
        rows[i].solver_iterations = None
        rows[i].error = f"{type(err).__name__}: {err}"
    if cfgs is not None:
        for row, cfg, outcome in zip(rows, cfgs, run_experiments(cfgs, workers)):
            if isinstance(outcome, Exception):
                note = f"{type(outcome).__name__}: {outcome}"
                row.error = note if row.error is None else row.error + "; " + note
            else:
                row.emp_mean = outcome.mean
                row.emp_se = outcome.std_error
                row.replications = cfg.replications
    return SweepResult(rows=rows, metadata=_metadata(spec))


def csv_header(k: int) -> str:
    return ",".join(["c"] + [f"psi_{i + 1}" for i in range(k)] + list(CSV_BASE_COLUMNS))


def csv_text(result: SweepResult) -> str:
    """Fixed-schema CSV: one row per grid point, LF newlines, 12-digit numbers."""
    if not result.rows:
        raise EmptyGrid("no rows to write")
    k = len(result.rows[0].psi)
    lines = [csv_header(k)]
    for row in result.rows:
        emp = [math.nan if v is None else v for v in (row.emp_mean, row.emp_se)]
        cells = _float_cells([row.c, *row.psi, row.psi_n, row.lam,
                              row.theory_risk, row.theory_bias, row.theory_variance, *emp])
        cells += ["" if v is None else str(v) for v in (row.replications, row.solver_iterations)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path) -> None:
    """Write :func:`csv_text` to ``path`` with LF newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(result))


_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 24, 56


def _axis_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def render_svg(result: SweepResult, path, log_y: bool = False, y_cap: float | None = None) -> None:
    """Standalone SVG: theory polyline, empirical dots with +-2se whiskers.

    Values above ``y_cap`` are drawn at the cap with a distinct clip marker
    so off-scale peaks stay visible without flattening the rest of the
    curve.  ``log_y`` switches the vertical axis to log10.
    """
    # Rows with any drawable value set the axis ranges; rows that only mark
    # a failed point still take part in the curve pass so the polyline
    # breaks there instead of bridging the gap.
    rows = [r for r in result.rows if math.isfinite(r.theory_risk) or r.emp_mean is not None]
    if not rows:
        raise EmptyGrid("no finite points to draw")

    def usable(v):
        return v is not None and math.isfinite(v) and (not log_y or v > 0.0)

    ys = []
    for r in rows:
        if usable(r.theory_risk):
            ys.append(r.theory_risk)
        if usable(r.emp_mean):
            ys.append(r.emp_mean)
            if r.emp_se:
                lo = r.emp_mean - 2.0 * r.emp_se
                hi = r.emp_mean + 2.0 * r.emp_se
                ys += [v for v in (lo, hi) if not log_y or v > 0.0]
    if not ys:
        raise EmptyGrid("no drawable values on this axis scale")
    if y_cap is not None:
        ys = [min(v, y_cap) for v in ys]
    ty = [math.log10(v) for v in ys] if log_y else ys
    y_lo, y_hi = min(ty), max(ty)
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    xs = [r.c for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def px(c):
        return _LEFT + (c - x_lo) / (x_hi - x_lo) * (_WIDTH - _LEFT - _RIGHT)

    def py(v):
        t = math.log10(v) if log_y else v
        return _HEIGHT - _BOTTOM - (t - y_lo) / (y_hi - y_lo) * (_HEIGHT - _TOP - _BOTTOM)

    def fmt(x):
        return f"{x:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    series = {
        "c": [r.c for r in result.rows],
        "theory_risk": [
            r.theory_risk if math.isfinite(r.theory_risk) else None for r in result.rows
        ],
        "emp_mean": [r.emp_mean for r in result.rows],
        "emp_se": [r.emp_se for r in result.rows],
        "log_y": log_y,
        "y_cap": y_cap,
        "metadata": result.metadata,
    }
    parts.append("<metadata>" + to_json(series) + "</metadata>")

    # axes
    x0, x1 = _LEFT, _WIDTH - _RIGHT
    y0, y1 = _HEIGHT - _BOTTOM, _TOP
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in _axis_ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{fmt(px(t))}" y1="{y0}" x2="{fmt(px(t))}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{fmt(px(t))}" y="{y0 + 20}" font-size="12" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _axis_ticks(y_lo, y_hi):
        value = 10.0 ** t if log_y else t
        ypix = _HEIGHT - _BOTTOM - (t - y_lo) / (y_hi - y_lo) * (_HEIGHT - _TOP - _BOTTOM)
        parts.append(f'<line x1="{x0 - 5}" y1="{fmt(ypix)}" x2="{x0}" y2="{fmt(ypix)}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{fmt(ypix + 4)}" font-size="12" text-anchor="end">{value:.3g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 12}" font-size="14" text-anchor="middle">c</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">excess risk</text>'
    )

    clipped: list[tuple[float, float]] = []

    def clamp(v):
        if y_cap is not None and v > y_cap:
            return y_cap, True
        return v, False

    coords = []
    for r in result.rows:
        if not usable(r.theory_risk):
            if len(coords) > 1:
                pts = " ".join(f"{fmt(a)},{fmt(b)}" for a, b in coords)
                parts.append(f'<polyline class="theory" fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>')
            coords = []
            continue
        v, was_clipped = clamp(r.theory_risk)
        coords.append((px(r.c), py(v)))
        if was_clipped:
            clipped.append((px(r.c), py(v)))
    if coords:
        pts = " ".join(f"{fmt(a)},{fmt(b)}" for a, b in coords)
        parts.append(f'<polyline class="theory" fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>')

    for r in rows:
        if not usable(r.emp_mean):
            continue
        v, was_clipped = clamp(r.emp_mean)
        cx, cy = px(r.c), py(v)
        if r.emp_se and not was_clipped:
            lo = r.emp_mean - 2.0 * r.emp_se
            hi = r.emp_mean + 2.0 * r.emp_se
            if not log_y or lo > 0.0:
                hi_c, _ = clamp(hi)
                parts.append(
                    f'<line class="whisker" x1="{fmt(cx)}" y1="{fmt(py(lo))}" '
                    f'x2="{fmt(cx)}" y2="{fmt(py(hi_c))}" stroke="#d62728"/>'
                )
        parts.append(f'<circle class="empirical" cx="{fmt(cx)}" cy="{fmt(cy)}" r="3.5" fill="#d62728"/>')
        if was_clipped:
            clipped.append((cx, cy))

    for cx, cy in clipped:
        parts.append(
            f'<path class="clipped" d="M {fmt(cx - 5)} {fmt(cy)} L {fmt(cx + 5)} {fmt(cy)} '
            f'L {fmt(cx)} {fmt(cy - 8)} Z" fill="#ff7f0e"/>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
