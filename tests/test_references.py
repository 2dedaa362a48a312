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

Every command's stdout and stderr through ``cli.dispatch``, and the JSON
and SVG files of every sweep, are also pinned byte for byte, by SHA-256
digests, so that a change meant to keep the output shows that it does.  A change that moves digits on purpose records
the digests again and says so.  The batched ``_step`` calls of every
theory command are counted as well, so that work the solver adds or
drops, such as a probe that is always refused, shows.
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

from multidescent import ActivationSpec, TheorySpec, compute_moments, parse_config, risk
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


def _replications(command) -> list[str]:
    """The override that runs 4 of a Monte Carlo command's replications:
    replication i's draws depend on (base seed, i) alone, so they take the
    path of the full run."""
    return ["empirical.replications=4"] if "empirical" in command.config else []


# SHA-256 of each command's stdout and stderr, recorded with numpy 2.4 and
# OpenBLAS 0.3.31.  The Monte Carlo commands run 4 of their replications.
CLI_DIGESTS = {
    "crit07": ("a8aa835246a2a6e2bca03d8fe75b9a6724493a659af69420950cbc02df544ede",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit08-1to2": ("494dd02970b672a2ec8f60b85a91122842c6977bc9a040985d73ae1cf71835b4",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit08-2to1": ("5aedbacbef64b93612685ea1b0356da8673e0b8cc5ba9b5fd46e235dde63d00a",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit09": ("48429d8c0bb2150ee88a27eb93692b04bcfe7abcd5ceb038b3db86f95280db63",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quickstart": ("be0fdaefa10cf3547cabb323ff9b77ef16b74691e908aaafc6fcda08d8382022",
                 "00b700975836f4307b1fb4587d79c187340c1501129dd57b78ff582d91abe303"),
    "peak-c1-lam1e-03": ("80ef5669beb14c9fa8f3a15b2c8b22af9d8351c7efb0932d6a3ae8ac7e6f5ab4",
                       "99b8cdb76142645e16b121287b1acfd9dbcca78f777f4aceac4924d88bcb88ef"),
    "peak-c1-lam1e-05": ("3348bf7def986e2b58de58aef24d1dd77f3c142e7f1097e01db3e5deb92dd203",
                       "4d1b0a773ec627a048ec74c1d5a7cdebe297726d759a2b40b634914e59331dea"),
    "peak-c1-lam1e-08": ("034a39e97f98a3c4497089a48427909cfeaa280f1d19aa063d9ec3908c2dbf8a",
                       "00b700975836f4307b1fb4587d79c187340c1501129dd57b78ff582d91abe303"),
    "peak-c1-lam1e-10": ("190e03f59a45e5ca9bdd15678c585764a75f8c669cf21322353ee1b343a25691",
                       "22b108cb6a6dda4f72a67a250ee2d1ea500a8a2fc767f8c5478b0ea442ecc3d4"),
    "peak-c2-lam1e-03": ("7bcd4f92101555e313e215ba12b2e329ed63e4f3061c0d738a311e0293cdaba4",
                       "dbec1d8583b84c5bcc9a9f80c9394de0a4927c8e1361d34564033486f95c250e"),
    "peak-c2-lam1e-05": ("2d50ca75c8ea1c73fc4edcaf56b8e16c7e0f6bda0a20c7a97b996eaff0d34f5e",
                       "eceaffc189c6bc93332c941b4289d6b18e407602358e23cd786226cf0a699fe0"),
    "peak-c2-lam1e-08": ("85c8f87350eb1fe05b33315c7c0d2f452914c21f1e987eed2b5b2c157f8ef530",
                       "640cdf900816d291d1f095500d1f6fe1fb388f5dab1b8f9cb7e6a076844dfb4a"),
    "peak-c2-lam1e-10": ("b9c91a8bf0dd2020b67b4af5787a530afebf9a500e5f9a2b485a3c14a82d016f",
                       "021c9a90db171ab5a7ecc8995d902b2e2724bd948d91745ce168454440f73c25"),
    "crit07-lam1e-08": ("89ed3fba1c42bd8c703d0b811964223c0751f811fcea554aa497df8f907c3836",
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc-sweep": ("a45515c1bb18263b7f6ae5aa60e3bcabc94b977ecd43d7da50071a7b90b5c7d5",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc-simulate": ("84856adb92c6dbbcca8f590bbb507f0c2db7b684afaea6533c18963ff1430e28",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.label)
def test_cli_bytes_match_recorded_digests(command):
    overrides = _replications(command)
    out, err = io.StringIO(), io.StringIO()
    dispatch(command.subcommand, parse_config(command.config_text, overrides), out, err)
    digests = tuple(hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err))
    assert digests == CLI_DIGESTS[command.label], (out.getvalue()[:200], err.getvalue())


# SHA-256 of the JSON and SVG sidecars each sweep command writes, recorded as
# ``CLI_DIGESTS`` are; the CSV is its stdout, pinned there.
SIDECAR_DIGESTS = {
    "crit07": ("9b35230e37e68238cf5cfcdff6d42dc59cf5214596f415676c02288936f9b04e",
               "8d667796cba415cf638629df11b557dcba269d2b2045c8c1b18e28ed0d27f4cf"),
    "crit08-1to2": ("a0950f5634269af5f66afa4334f5378d4b8bbd579a9d901241772d1f042b5d8c",
                    "a5fbb4431779035ab0def131e385da7df18e40551bfb8138dc117c6e97860671"),
    "crit08-2to1": ("bf193742e99f0ad82dbc54a0b9837fe15a5e49f55d6c5b165330692bd57f87fb",
                    "47dc7d426465ee833a04d6afdf0b02faa8b59c24c38a32fa63615b1f9c9154a5"),
    "crit09": ("aa07bc8604113a64226e15b57e0ae3010eb60821013050cac7d907d119daca40",
               "cbf0444034d35428888f73c7c82fac7129714fb7438873fee40808549aa85fae"),
    "crit07-lam1e-08": ("10d249c24fa678448440624df9ef1083a0b4cc45142c414e7c488e1e1e58a44b",
                        "3a8eb343680d9997b27bfca97b0f6282139413c6f074702e378cb72046f04b37"),
    "mc-sweep": ("2570473457100e3992234b70a03526162b3e2434f9b49eb841c87c2e7e2653ad",
                 "044b4e8f37ebd3469d1eb6eb19969efe1ceb5dc8a34598079460fd401a5f9b77"),
}


@pytest.mark.parametrize("command", [command for command in COMMANDS if command.subcommand == "sweep"],
                         ids=lambda command: command.label)
def test_sweep_sidecars_match_recorded_digests(command, tmp_path):
    paths = {key: tmp_path / f"out.{key}" for key in ("json", "svg")}
    overrides = _replications(command) + [f"output.{key}_path={path}" for key, path in paths.items()]
    status = dispatch("sweep", parse_config(command.config_text, overrides), io.StringIO(), io.StringIO())
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths.values())
    assert status == 0 and digests == SIDECAR_DIGESTS[command.label]


# Batched ``_step`` calls of each theory command: the start, every Newton
# step and every probe that lengthens a capped or a full step.
STEP_CALLS = {
    "crit07": 6, "crit08-1to2": 6, "crit08-2to1": 6, "crit09": 6, "quickstart": 6,
    **{f"peak-c{c}-lam{lam}": 6 for c in (1, 2) for lam in ("1e-03", "1e-05", "1e-08", "1e-10")},
    "crit07-lam1e-08": 6,
}


@pytest.mark.parametrize("command", [command for command in COMMANDS if command.label in STEP_CALLS],
                         ids=lambda command: command.label)
def test_step_calls_per_command(command, monkeypatch):
    calls, step = [], risk._step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(risk, "_step", counted)
    status = dispatch(command.subcommand, parse_config(command.config_text), io.StringIO(), io.StringIO())
    assert status == 0 and len(calls) == STEP_CALLS[command.label]
