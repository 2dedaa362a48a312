"""Command-line entry point.

Usage: ``multidescent <subcommand> --config <path> [--set key=value ...]``
with subcommands ``moments``, ``theory``, ``simulate``, ``sweep`` and
``limit``.  Results go to stdout as JSON (CSV for ``sweep``) with 12-digit
numbers; diagnostics and errors go to stderr, one line per error carrying
the error class name.  Exit codes: 0 success, 2 configuration error,
3 numerical/solver failure, 4 I/O error.  ``simulate`` and ``sweep`` run
their Monte Carlo replications in one pool of ``empirical.workers``
threads; ``--set empirical.workers=N`` changes that count, never the output.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from enum import IntEnum

import numpy as np

from . import __version__
from .activations import QuadratureDiverged
from .config import (
    ConfigError,
    RootConfig,
    build_empirical_config,
    build_limit_spec,
    build_sweep_spec,
    build_theory_spec,
    parse_config,
)
from .formatting import _write_text, to_json
from .risk import (
    DegenerateMoments,
    InvalidSpec,
    NoConvergence,
    asymptotic_risk,
    limit_risk_infinite_width,
)
from .simulator import ShapeMismatch, SolveFailure, run_experiment
from .sweep import EmptyGrid, csv_text, render_svg, run_sweep

__all__ = ["ExitStatus", "main", "dispatch"]


class ExitStatus(IntEnum):
    OK = 0
    CONFIG = 2
    SOLVER = 3
    IO = 4


_CONFIG_ERRORS = (ConfigError, InvalidSpec, DegenerateMoments, EmptyGrid, QuadratureDiverged)
_SOLVER_ERRORS = (NoConvergence, SolveFailure, ShapeMismatch, np.linalg.LinAlgError)
_STATUSES = ((_CONFIG_ERRORS, ExitStatus.CONFIG), (_SOLVER_ERRORS, ExitStatus.SOLVER),
             ((OSError,), ExitStatus.IO))
_ERRORS = _CONFIG_ERRORS + _SOLVER_ERRORS + (OSError,)


def _failure(err: Exception, stream) -> ExitStatus:
    """Print ``Name: message`` for an error of ``_ERRORS``; return its exit status."""
    print(f"{type(err).__name__}: {err}", file=stream)
    return next(status for kinds, status in _STATUSES if isinstance(err, kinds))


def _workers(cfg: RootConfig) -> int | None:
    return (cfg.empirical or {}).get("workers")


def _moments_payload(m) -> dict:
    return {"mu0": m.mu0, "mu1": m.mu1, "mu2_sq": m.mu2_sq}


def _cmd_moments(cfg: RootConfig, err_stream) -> str:
    return to_json({"moments": [_moments_payload(m) for m in cfg.moments]})


def _cmd_theory(cfg: RootConfig, err_stream) -> str:
    result = asymptotic_risk(build_theory_spec(cfg))
    print(f"solver: {result.iterations} iterations, residual {result.residual:.3e}",
          file=err_stream)
    return to_json(
        {
            "risk": result.risk,
            "bias": result.bias,
            "variance": result.variance,
            "b": result.b,
        }
    )


def _cmd_simulate(cfg: RootConfig, err_stream) -> str:
    ecfg = build_empirical_config(cfg)
    result = run_experiment(ecfg, workers=_workers(cfg))
    return to_json(
        {
            "mean": result.mean,
            "std_error": result.std_error,
            "replications": ecfg.replications,
            "per_replication": result.per_replication,
        }
    )


def _cmd_sweep(cfg: RootConfig, err_stream) -> str:
    spec = build_sweep_spec(cfg)
    result = run_sweep(spec, workers=_workers(cfg))
    failed = [row for row in result.rows if row.error is not None]
    if failed:
        print(
            f"sweep: {len(failed)} of {len(result.rows)} grid points failed "
            f"(first: {failed[0].error})",
            file=err_stream,
        )
    out = cfg.output
    text = csv_text(result)
    if out.get("csv_path"):
        _write_text(out["csv_path"], text)
    if out.get("svg_path"):
        style = {key: cfg.sweep[key] for key in ("log_y", "y_cap") if key in cfg.sweep}
        render_svg(result, out["svg_path"], **style)
    if out.get("json_path"):
        payload = {"rows": [row.record() for row in result.rows], "metadata": result.metadata}
        _write_text(out["json_path"], to_json(payload) + "\n")
    return text.rstrip("\n")


def _cmd_limit(cfg: RootConfig, err_stream) -> str:
    ls = build_limit_spec(cfg)
    return to_json(
        {"risk": limit_risk_infinite_width(ls), "r": list(ls.r), "psi_n": ls.psi_n}
    )


# Each subcommand's handler and its --help line, in the order --help lists them.
_COMMANDS = {
    "moments": (_cmd_moments,
                "print the Gaussian moment triple of each configured activation"),
    "theory": (_cmd_theory, "solve the asymptotic risk for the configured model"),
    "simulate": (_cmd_simulate, "run the finite-size Monte Carlo experiment"),
    "sweep": (_cmd_sweep, "evaluate a complexity grid and emit CSV/SVG"),
    "limit": (_cmd_limit,
              "evaluate the infinite-width risk limit at fixed block proportions"),
}


def dispatch(command: str, cfg: RootConfig, out_stream=None, err_stream=None) -> ExitStatus:
    """Run one subcommand against a validated config; returns the exit status."""
    out_stream = out_stream if out_stream is not None else sys.stdout
    err_stream = err_stream if err_stream is not None else sys.stderr
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = _COMMANDS[command][0](cfg, err_stream)
        seen = set()
        for w in caught:
            line = f"{w.category.__name__}: {w.message}"
            if line not in seen:
                seen.add(line)
                print(line, file=err_stream)
    except _ERRORS as err:
        return _failure(err, err_stream)
    print(payload, file=out_stream)
    return ExitStatus.OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multidescent",
        description="Asymptotic and finite-size excess risk of random feature ridge models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", required=True, help="path to a JSON config (or inline JSON)")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path override, e.g. model.lambda=1e-3 (value parsed as JSON)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
    except _ERRORS as err:
        return int(_failure(err, sys.stderr))
    return int(dispatch(args.command, cfg, sys.stdout, sys.stderr))


if __name__ == "__main__":
    sys.exit(main())
