"""Every point of the benchmark's 50-digit references against the package.

``bench/references.json`` holds the risk and the scales b of every
instance the benchmark evaluates, computed with mpmath at 50 digits by
``bench/make_references.py``, which shares no code with the package.  The
instances are enumerated by ``bench/workloads.py`` (loaded read-only; it
imports nothing from the package).  Each command's instances are scored
as one stack, the path a sweep takes, and none of them may warn
``IllConditionedWarning``: each matches its reference.  The same instances
tie the Newton matrix S the risk is scored through to the framework
matrix H of the printed formulas (``build_matrices`` in ``oracles.py``).
"""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from multidescent import ActivationSpec, TheorySpec, asymptotic_risk_stack, compute_moments
from multidescent.risk import _jacobian, _stack_coeffs
from oracles import build_matrices

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
RTOL = 1e-10


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
REFERENCES = json.loads((BENCH / "references.json").read_text())["commands"]
COMMANDS = [
    command
    for name in WORKLOADS.WORKLOAD_NAMES
    for command in WORKLOADS.build_workload(name, seed=0).commands
]


def _spec(instance: dict, model: dict) -> TheorySpec:
    moments = tuple(compute_moments(ActivationSpec(**act)) for act in instance["activations"])
    return TheorySpec(psi=instance["psi"], psi_n=instance["psi_n"], moments=moments,
                      lam=instance["lambda"], F1=model["F1"], tau=model["tau"])


def test_every_reference_is_enumerated():
    assert sorted(command.label for command in COMMANDS) == sorted(REFERENCES)
    for command in COMMANDS:
        assert len(WORKLOADS.instances(command)) == len(REFERENCES[command.label])


@pytest.mark.filterwarnings("error::multidescent.IllConditionedWarning")
@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.label)
def test_risk_and_scales_match_references(command):
    specs = [_spec(inst, command.config["model"]) for inst in WORKLOADS.instances(command)]
    refs = REFERENCES[command.label]
    worst_risk = worst_b = 0.0
    for spec, ref, result in zip(specs, refs, asymptotic_risk_stack(specs)):
        assert not isinstance(result, Exception), f"c={ref['c']}: {result}"
        ref_b = np.array([float(x) for x in ref["b"]])
        worst_risk = max(worst_risk, abs(result.risk / float(ref["risk"]) - 1.0))
        worst_b = max(worst_b, float(np.max(np.abs(result.b / ref_b - 1.0))))
    assert worst_risk <= RTOL and worst_b <= RTOL, (
        f"worst relative error: risk {worst_risk:.2e}, b {worst_b:.2e}"
    )


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.label)
def test_newton_matrix_is_the_framework_matrix(command):
    """At every solved root S = dr/du is symmetric and equals -diag(b) H diag(b),
    so L = -G^T S^-1 G with G = b*V is V^T H^-1 V."""
    specs = [_spec(inst, command.config["model"]) for inst in WORKLOADS.instances(command)]
    for spec, result in zip(specs, asymptotic_risk_stack(specs)):
        b = result.b
        psi, m1, m2, lam = _stack_coeffs([spec])
        s = _jacobian(psi, m1, m2, np.sqrt(lam), b[None])[0] * psi[0][:, None]
        mats = build_matrices(spec, result.b)
        np.testing.assert_allclose(s, -(b[:, None] * mats.H * b), rtol=1e-14)
        np.testing.assert_allclose(s, s.T, rtol=1e-14)
        np.testing.assert_allclose(result.L, mats.V.T @ np.linalg.solve(mats.H, mats.V),
                                   rtol=RTOL)
