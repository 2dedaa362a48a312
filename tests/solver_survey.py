"""A survey of the Newton solve (``risk._newton``) on the traffic that reaches
its step searches, and on the benchmark's commands, for the tree it runs in.

Run it by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/solver_survey.py [--count N] [--b-out FILE]

It prints one line for each of:

* the harsh box, the first ``--count`` (9,000) specs of
  ``box_spec(default_rng([0, i]), lam_exp=(-33, 3), k_max=8)``, each solved
  alone by ``_theory`` as ``asymptotic_risk`` does;
* the five wide linear families of ``test_scales.TestWideLinearBlock``:
  moments (0, 0.8, 0.5) and (0, 1, 0), psi_n = 2 and widths (1, w) for
  w = 1e10, 1e20, ... up to the largest width each lambda solves, stacked
  in one ``_newton`` call;
* every benchmark command, run through ``cli.dispatch``.

Each line gives the failed points, the Newton steps in all and the most for
one point, and the batched ``_step`` calls, probes included.  ``--b-out``
writes every harsh-box spec's and family point's scales b, exactly (as
``float.hex``), so that two trees' outputs can be diffed line by line.
"""

import argparse
import contextlib
import io
import warnings

import numpy as np

from multidescent import parse_config, risk
from multidescent.cli import dispatch
from oracles import box_spec
from test_references import COMMANDS
from test_scales import WIDE_FAMILIES, WIDE_LINEAR_MOMENTS


@contextlib.contextmanager
def counting_steps():
    """Yields a list that gains an entry for each batched ``_step`` call made
    inside the block."""
    calls, step = [], risk._step

    def counted(*args):
        calls.append(args)
        return step(*args)

    risk._step = counted
    try:
        yield calls
    finally:
        risk._step = step


def _hex(b) -> str:
    return " ".join(float(x).hex() for x in b)


def survey(count: int, b_out):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", risk.IllConditionedWarning)
        failures, steps = 0, []
        with counting_steps() as calls:
            for i in range(count):
                spec = box_spec(np.random.default_rng([0, i]), lam_exp=(-33.0, 3.0), k_max=8)
                *_, b, _, n, errors = risk._theory(spec, np.array([spec.psi]))
                failures += bool(errors)
                steps.append(int(n[0]))
                if b_out:
                    b_out.write(f"box {i}: {_hex(b[0])}\n")
        print(f"harsh box ({count} specs): {failures} failures, {sum(steps)} steps in all, "
              f"at most {max(steps)}, {len(calls)} _step calls")

        for lam, top, _, _ in sorted(WIDE_FAMILIES, reverse=True):
            widths = [10.0 ** e for e in range(10, top + 1, 10)]
            base = risk.TheorySpec(psi=(1.0, 1.0), psi_n=2.0, moments=WIDE_LINEAR_MOMENTS, lam=lam)
            with counting_steps() as calls:
                b, _, n, errors = risk._newton(base, np.array([(1.0, w) for w in widths]))
            print(f"wide family lam={lam:.0e} (w up to 1e{top}): {len(errors)} failures, "
                  f"{int(n.sum())} steps in all, at most {int(n.max())}, {len(calls)} _step calls")
            if b_out:
                for w, row in zip(widths, b):
                    b_out.write(f"family {lam:.0e} w={w:.0e}: {_hex(row)}\n")

    for command in COMMANDS:
        with counting_steps() as calls:
            status = dispatch(command.subcommand, parse_config(command.config_text), io.StringIO(), io.StringIO())
        print(f"command {command.label}: exit {status}, {len(calls)} _step calls")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=9000, help="harsh-box specs to solve (default 9000)")
    parser.add_argument("--b-out", help="write every point's scales b to this file")
    args = parser.parse_args()
    with open(args.b_out, "w") if args.b_out else contextlib.nullcontext() as b_out:
        survey(args.count, b_out)


if __name__ == "__main__":
    main()
