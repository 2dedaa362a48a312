"""Every point of the benchmark's 50-digit references against the package.

``bench/references.json`` holds the risk and the scales b of every
instance the benchmark evaluates, computed with mpmath at 50 digits by
``bench/make_references.py``, which shares no code with the package.  The
instances are enumerated by ``bench/workloads.py`` (loaded read-only; it
imports nothing from the package).  Each command's instances are one model
at several widths, scored in one ``_theory`` call, the path a sweep takes,
and none of them may warn ``IllConditionedWarning``: each matches its
reference.  The same instances tie the risk and the error estimate the
warning reads to the framework matrix H of the printed formulas
(``build_matrices`` in ``oracles.py``).
"""

import importlib.util
import json
import pathlib
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from multidescent import ActivationSpec, TheorySpec, compute_moments
from multidescent.risk import _theory
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


def _base_and_psi(command):
    """The command's model and the widths (G, K) of its instances, which
    differ in nothing else."""
    insts = WORKLOADS.instances(command)
    return _spec(insts[0], command.config["model"]), np.array([inst["psi"] for inst in insts])


def test_every_reference_is_enumerated():
    assert sorted(command.label for command in COMMANDS) == sorted(REFERENCES)
    for command in COMMANDS:
        assert len(WORKLOADS.instances(command)) == len(REFERENCES[command.label])


@pytest.mark.filterwarnings("error::multidescent.IllConditionedWarning")
@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.label)
def test_risk_and_scales_match_references(command):
    base, psi = _base_and_psi(command)
    refs = REFERENCES[command.label]
    risk, _, _, _, b, _, _, errors = _theory(base, psi)
    assert not errors, {refs[i]["c"]: str(err) for i, err in errors.items()}
    ref_risk = np.array([float(ref["risk"]) for ref in refs])
    ref_b = np.array([[float(x) for x in ref["b"]] for ref in refs])
    worst_risk = float(np.max(np.abs(risk / ref_risk - 1.0)))
    worst_b = float(np.max(np.abs(b / ref_b - 1.0)))
    assert worst_risk <= RTOL and worst_b <= RTOL, (
        f"worst relative error: risk {worst_risk:.2e}, b {worst_b:.2e}"
    )


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.label)
def test_newton_matrix_is_the_framework_matrix(command, monkeypatch):
    """At every solved root L = -G^T S^-1 G with G = b*V and
    S = -diag(b) H diag(b) is V^T H^-1 V, and the estimated error e of the
    scales, which every point warns at a threshold of 0, lies in
    [1, 1 + 1/psi_n] eps psi_n / s_n, with s_n the Schur complement of S on
    b_n's row, to the 4 digits the warning prints."""
    base, widths = _base_and_psi(command)
    monkeypatch.setattr("multidescent.risk._ERR_WARN", 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, _, _, L, b, _, _, _ = _theory(base, widths)
    est = [float(re.match(r"^estimated relative error (\S+) of the scales", str(w.message))[1])
           for w in caught]
    assert len(est) == len(widths)
    psi_n, eps = base.psi_n, np.finfo(float).eps
    for i, row in enumerate(widths):
        mats = build_matrices(replace(base, psi=tuple(row)), b[i])
        s = -(b[i][:, None] * mats.H * b[i])
        s_n = s[-1, -1] - s[-1, :-1] @ np.linalg.solve(s[:-1, :-1], s[:-1, -1])
        ratio = est[i] / (eps * psi_n / s_n)
        assert 1.0 - 1e-3 <= ratio <= (1.0 + 1.0 / psi_n) * (1.0 + 1e-3), ratio
        np.testing.assert_allclose(L[i], mats.V.T @ np.linalg.solve(mats.H, mats.V),
                                   rtol=RTOL)
