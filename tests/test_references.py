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

Every command's stdout and stderr through ``cli.dispatch`` are also pinned
byte for byte, by SHA-256 digests, so that a change meant to keep the
output shows that it does.  A change that moves digits on purpose records
the digests again and says so.
"""

import hashlib
import importlib.util
import io
import json
import pathlib
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from multidescent import ActivationSpec, TheorySpec, compute_moments, parse_config
from multidescent.cli import dispatch
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


# SHA-256 of each command's stdout and stderr, recorded with numpy 2.4 and
# OpenBLAS 0.3.31.  The Monte Carlo commands run 4 of their replications:
# replication i's draws depend on (base seed, i) alone, so they take the
# path of the full run.
CLI_DIGESTS = {
    "crit07": ("892e47ec049984abc444846179fc4e6ac933a6fe8c1b037d10284748ee5afa56",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit08-1to2": ("707e37cb869ad539275c7bd6a8a6dfae2ec006c837d52575048d5c2adad7a9ce",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit08-2to1": ("f3fcd21ddace7a32cc3a61e1b92bc2e9cf1855d69869b928e6dd2515c4caade1",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit09": ("49a99c6a50df91e040c1964d88d1afcacee63f8a53337393ee60b74653cd4e59",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quickstart": ("be0fdaefa10cf3547cabb323ff9b77ef16b74691e908aaafc6fcda08d8382022",
                 "b339fe7184da2e89233ac0b961bea693daa0b0e9a6b450ee7126a83225fc4551"),
    "peak-c1-lam1e-03": ("80ef5669beb14c9fa8f3a15b2c8b22af9d8351c7efb0932d6a3ae8ac7e6f5ab4",
                       "9fe4cbacb73386ce2eedc1dbfb1e974338b44cc82fba3c6eefc7a94eeb5fc051"),
    "peak-c1-lam1e-05": ("3348bf7def986e2b58de58aef24d1dd77f3c142e7f1097e01db3e5deb92dd203",
                       "4a985c6fd13b647def06a1d7e60a04d6aec9f4db59390dba41523b8a307a4988"),
    "peak-c1-lam1e-08": ("0cec4e9679b117091ef8bf0a39ac9cf179a9fde1a4a6adf86b4a01e30e22a515",
                       "9fe4cbacb73386ce2eedc1dbfb1e974338b44cc82fba3c6eefc7a94eeb5fc051"),
    "peak-c1-lam1e-10": ("92ace4d3bccb42bbd13c482d85da8e025fbc0325b4c6ffff792ec34b12c325be",
                       "899a7ed5a5998548ab9a87144f782807baf1b8c119c08ecf17ed9242c9ababf6"),
    "peak-c2-lam1e-03": ("7bcd4f92101555e313e215ba12b2e329ed63e4f3061c0d738a311e0293cdaba4",
                       "11a9c5511cdf51eb1ea6242f2e7f3d623c28ace598f48e85712dd699af9ab233"),
    "peak-c2-lam1e-05": ("2d50ca75c8ea1c73fc4edcaf56b8e16c7e0f6bda0a20c7a97b996eaff0d34f5e",
                       "d163e7271f460ad160c3775024eabac3b138a345963b7c8f30b435b781261c0a"),
    "peak-c2-lam1e-08": ("85c8f87350eb1fe05b33315c7c0d2f452914c21f1e987eed2b5b2c157f8ef530",
                       "640cdf900816d291d1f095500d1f6fe1fb388f5dab1b8f9cb7e6a076844dfb4a"),
    "peak-c2-lam1e-10": ("ae6e7fa6d8e5a5ad55a31b69809743d2110aae872d63f743a5176ddbed65a9fe",
                       "96d0bf151f9eaa9870038101f1fbc4105d17c7607f1587d012c07b6a0bdc0c4c"),
    "crit07-lam1e-08": ("2e9720c5445057ca3a9139e9a2a98e1ee709635850535fa150c6a0f98113204a",
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc-sweep": ("43f4a8dbd79c9f0f5211352841c976e4711ff8ec3a563fdfd3ab60d05adae9f5",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc-simulate": ("84856adb92c6dbbcca8f590bbb507f0c2db7b684afaea6533c18963ff1430e28",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.label)
def test_cli_bytes_match_recorded_digests(command):
    overrides = ["empirical.replications=4"] if "empirical" in command.config else []
    out, err = io.StringIO(), io.StringIO()
    dispatch(command.subcommand, parse_config(command.config_text, overrides), out, err)
    digests = tuple(hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err))
    assert digests == CLI_DIGESTS[command.label], (out.getvalue()[:200], err.getvalue())
