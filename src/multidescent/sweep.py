"""Risk curves over a model-complexity grid, with CSV and SVG emission.

A sweep moves one base model along a grid of the total feature budget
``c = sum(psi_c) / psi_n``; its moments, sample ratio, ridge penalty and
block proportions stay fixed.  Theory risk is evaluated at every point,
the whole grid as one stacked solve and one stacked risk evaluation, and a
finite-size run of the same model can be simulated at every point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .formatting import _float_cells, _write_text, to_json
from .risk import InvalidSpec, TheorySpec, _theory
from .simulator import EmpiricalConfig, run_experiments, theory_spec_from_empirical

__all__ = [
    "EmptyGrid",
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
class SweepSpec:
    """A complexity sweep: ``base`` moved along the c grid.

    The widths of ``base`` are the block proportions (only their direction
    matters), scaled at each c to sum to c*psi_n, and the counts of the
    finite-size run to c*n.  ``empirical``, when given, is that run: its
    theory instance may differ from ``base`` in the widths alone.
    """

    base: TheorySpec
    c_grid: tuple[float, ...]
    empirical: EmpiricalConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        if any(not (c > 0.0 and math.isfinite(c)) for c in self.c_grid):
            raise InvalidSpec("c grid values must be > 0")
        if any(b >= a for a, b in zip(self.c_grid[1:], self.c_grid)):
            raise InvalidSpec("c grid must be strictly increasing")
        if self.empirical is not None:
            run = vars(theory_spec_from_empirical(self.empirical))
            differ = [key for key, value in vars(self.base).items() if key != "psi" and run[key] != value]
            if differ:
                raise InvalidSpec(f"empirical runs a different model from base: {', '.join(differ)} differ")


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


def _along_grid(spec: SweepSpec, x: float, name: str, x_name: str) -> np.ndarray:
    """r_c*c*x/sum(r) at every grid value c, shape (G, K), with r the base
    widths; an entry that overflows raises ``InvalidSpec``, its message led
    by ``name`` and naming x as ``x_name``.  r is first scaled by one power
    of two, so that its sum is finite; the scaling is exact, so every entry
    keeps its bits.  The sum is Python's, in order: numpy's pairwise sum
    rounds differently from K = 8 blocks on."""
    _, e = math.frexp(max(spec.base.psi))
    shares = [math.ldexp(r, -e) for r in spec.base.psi]
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply.outer(spec.c_grid, shares) * x / sum(shares)
    if not np.isfinite(out).all():
        raise InvalidSpec(f"{name} overflow: r_c*c*{x_name}/sum(r) must be finite, with r the base widths")
    return out


def _grid_psi(spec: SweepSpec) -> np.ndarray:
    """Widths psi_c = r_c*c*psi_n/sum(r) of every grid value, shape (G, K);
    widths that overflow to inf or underflow to 0 raise ``InvalidSpec``."""
    if len(spec.c_grid) == 0:
        raise EmptyGrid("c grid is empty")
    psi = _along_grid(spec, spec.base.psi_n, "psi entries", "psi_n")
    if not (psi > 0.0).all():
        raise InvalidSpec("all psi entries must be > 0")
    return psi


def _grid_counts(spec: SweepSpec) -> list[tuple[int, ...]]:
    """The feature counts of the finite-size run at every grid value:
    N_c = r_c*c*n/sum(r), rounded, at least 1.  They round as Python
    floats, as a numpy cast to int would wrap past 2**63."""
    counts = _along_grid(spec, spec.empirical.n, "feature counts", "n")
    return [tuple(max(1, int(round(x))) for x in row) for row in counts.tolist()]


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
        "ratios": list(spec.base.psi),
        "c_grid": list(spec.c_grid),
        "tool_version": __version__,
    }


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate the base model at every c; theory always, finite-size runs when configured.

    The theory pass solves and scores the whole grid as one stack of
    arrays, with no per-point spec or result objects, every point from the
    closed-form start of its own widths (``risk._start``), so a row
    depends on its own c alone: it is the same, bit for bit, in any stack
    of two or more points.  From the one-point stack of ``asymptotic_risk``
    (the ``theory`` command) a row of a model with K >= 4 blocks may differ
    in the last bits: numpy's one-row matrix product rounds differently.
    A failing point records its error in the row and leaves NaNs instead
    of aborting the sweep.
    ``workers`` threads run every replication of every point, in one
    ``run_experiments`` call; output does not depend on the worker count.
    """
    base = spec.base
    psi = _grid_psi(spec)
    counts = None if spec.empirical is None else _grid_counts(spec)
    risk, bias, variance, _, _, _, steps, errors = _theory(base, psi)
    rows = [
        SweepRow(c=c, psi=tuple(p), psi_n=base.psi_n, lam=base.lam, theory_risk=r,
                 theory_bias=bi, theory_variance=v, solver_iterations=n)
        for c, p, r, bi, v, n in zip(spec.c_grid, psi.tolist(), risk.tolist(), bias.tolist(),
                                     variance.tolist(), steps.tolist())
    ]
    for i, err in errors.items():
        rows[i].solver_iterations = None
        rows[i].error = f"{type(err).__name__}: {err}"
    if counts is not None:
        for row, outcome in zip(rows, run_experiments(spec.empirical, counts, workers)):
            if isinstance(outcome, Exception):
                note = f"{type(outcome).__name__}: {outcome}"
                row.error = note if row.error is None else row.error + "; " + note
            else:
                row.emp_mean = outcome.mean
                row.emp_se = outcome.std_error
                row.replications = spec.empirical.replications
    return SweepResult(rows=rows, metadata=_metadata(spec))


def csv_header(k: int) -> str:
    return ",".join(["c"] + [f"psi_{i + 1}" for i in range(k)] + list(CSV_BASE_COLUMNS))


def csv_text(result: SweepResult) -> str:
    """Fixed-schema CSV: one row per grid point, LF newlines, 12-digit numbers."""
    if not result.rows:
        raise EmptyGrid("no rows to write")
    rows = result.rows
    floats = list(zip(*((r.c, *r.psi, r.psi_n, r.lam, r.theory_risk, r.theory_bias, r.theory_variance,
                         math.nan if r.emp_mean is None else r.emp_mean,
                         math.nan if r.emp_se is None else r.emp_se) for r in rows)))
    # A column equal to an earlier one (psi_2 = psi_1 at equal ratios) reuses its cells.
    columns = []
    for values in floats:
        first = floats.index(values)
        columns.append(columns[first] if first < len(columns) else _column_cells(values))
    columns += [["" if v is None else str(v) for v in values]
                for values in ([r.replications for r in rows], [r.solver_iterations for r in rows])]
    k = len(rows[0].psi)
    return "\n".join([csv_header(k), *map(",".join, zip(*columns))]) + "\n"


def _column_cells(values: tuple) -> list[str]:
    """The cells of one float column; a constant column, such as psi_n or
    lambda, is formatted once (values that compare equal format alike)."""
    if values.count(values[0]) == len(values):
        return _float_cells(values[:1]) * len(values)
    return _float_cells(values)


def write_csv(result: SweepResult, path) -> None:
    """Write :func:`csv_text` to ``path`` with LF newlines."""
    _write_text(path, csv_text(result))


_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 24, 56


def _axis_ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def render_svg(result: SweepResult, path, log_y: bool = False, y_cap: float | None = None) -> None:
    """Standalone SVG: theory polyline, empirical dots with +-2se whiskers.

    Values above ``y_cap`` are drawn at the cap with a distinct clip marker
    so off-scale peaks stay visible without flattening the rest of the
    curve.  ``log_y`` switches the vertical axis to log10.  The drawn marks
    alone set both axis ranges; a row without a drawable theory risk breaks
    the curve, and a theory point left alone in its segment is a short dash.
    """

    def usable(v):
        return v is not None and math.isfinite(v) and (not log_y or v > 0.0)

    def mark(v):  # v capped at y_cap and put on the axis scale, and whether it was capped
        capped = y_cap is not None and v > y_cap
        v = y_cap if capped else v
        return (math.log10(v) if log_y else v), capped

    # Theory vertices (c, t, capped) per unbroken segment; dots (c, t, capped, whisker ends or []).
    segments: list[list[tuple]] = [[]]
    dots = []
    for r in result.rows:
        if usable(r.theory_risk):
            segments[-1].append((r.c, *mark(r.theory_risk)))
        elif segments[-1]:
            segments.append([])
        if usable(r.emp_mean):
            t, capped = mark(r.emp_mean)
            ends = [r.emp_mean + k * r.emp_se for k in (-2.0, 2.0)] if r.emp_se and not capped else []
            dots.append((r.c, t, capped, [mark(e)[0] for e in ends] if all(map(usable, ends)) else []))
    vertices = [v for seg in segments for v in seg]
    xs = [v[0] for v in vertices] + [d[0] for d in dots]
    if not xs:
        raise EmptyGrid("no drawable values on this axis scale")
    ys = [v[1] for v in vertices] + [d[1] for d in dots] + [e for d in dots for e in d[3]]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def px(c):
        return _LEFT + (c - x_lo) / (x_hi - x_lo) * (_WIDTH - _LEFT - _RIGHT)

    def py(t):
        """The pixel row of ``t``, a value already on the axis scale."""
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
        "theory_risk": [r.theory_risk for r in result.rows],
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
        parts.append(f'<line x1="{x0 - 5}" y1="{fmt(py(t))}" x2="{x0}" y2="{fmt(py(t))}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{fmt(py(t) + 4)}" font-size="12" text-anchor="end">{value:.3g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 12}" font-size="14" text-anchor="middle">c</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">excess risk</text>'
    )

    clipped = [(px(c), py(t)) for c, t, capped in vertices if capped]
    for seg in filter(None, segments):
        dash = (-3.0, 3.0) if len(seg) == 1 else (0.0,)  # a lone vertex is a 6 px dash
        pts = " ".join(f"{fmt(px(c) + d)},{fmt(py(t))}" for c, t, _ in seg for d in dash)
        parts.append(f'<polyline class="theory" fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>')

    for c, t, capped, ends in dots:
        cx, cy = px(c), py(t)
        if ends:
            parts.append(
                f'<line class="whisker" x1="{fmt(cx)}" y1="{fmt(py(ends[0]))}" '
                f'x2="{fmt(cx)}" y2="{fmt(py(ends[1]))}" stroke="#d62728"/>'
            )
        parts.append(f'<circle class="empirical" cx="{fmt(cx)}" cy="{fmt(cy)}" r="3.5" fill="#d62728"/>')
        if capped:
            clipped.append((cx, cy))

    for cx, cy in clipped:
        parts.append(
            f'<path class="clipped" d="M {fmt(cx - 5)} {fmt(cy)} L {fmt(cx + 5)} {fmt(cy)} '
            f'L {fmt(cx)} {fmt(cy - 8)} Z" fill="#ff7f0e"/>'
        )

    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")
