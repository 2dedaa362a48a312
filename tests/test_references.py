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
    "crit07": ("3c447ab69ae88a1ab125837b2ec899296e0c7c84915d4218ec789738f063cc7f",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit08-1to2": ("fca13c5e1b776ebe87fa04b96ec50b622ba0d2b94183e42cd9a819401ed6ca9b",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit08-2to1": ("0f18567eb928776db080f53d8526fc80843d7fb0a6777de4fd8333af7d6a7a1b",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "crit09": ("aec0c040332014ce8133d96e73ed2b3b4628a8ace3624842a0249b425d000b13",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quickstart": ("be0fdaefa10cf3547cabb323ff9b77ef16b74691e908aaafc6fcda08d8382022",
                 "1048adc693b0a260be375673395166d37da74a0f758e3583727224d04007700e"),
    "peak-c1-lam1e-03": ("80ef5669beb14c9fa8f3a15b2c8b22af9d8351c7efb0932d6a3ae8ac7e6f5ab4",
                       "a41ea3400765e6a63a3dd4299f2363a7f8c39b8d726212dc1b23e4298ab3b7ba"),
    "peak-c1-lam1e-05": ("3348bf7def986e2b58de58aef24d1dd77f3c142e7f1097e01db3e5deb92dd203",
                       "91c91583d22528f9bc99540a948f31e046be3a82d6e855b32a2f0996392ecd95"),
    "peak-c1-lam1e-08": ("2989af984e18a6a5938350619232e366ce1963f4b29b0a94fe9868ec9b321f51",
                       "39a3ab79069c8969417c3c1e9c715071f9b3dd265cbf872e14676fb16c59423b"),
    "peak-c1-lam1e-10": ("eb7502c26fbd5f1e5b1cbb3fceac60286fa95b7400f5e2db70b303205a821e18",
                       "c3d7fa328ae0ab87ec5678596ee2e122dead51aaa2f3d26dec04c32239f05d43"),
    "peak-c2-lam1e-03": ("7bcd4f92101555e313e215ba12b2e329ed63e4f3061c0d738a311e0293cdaba4",
                       "88936a8c2cd8f8480105ec62e075cd75f802ef7cb44127045ae3e6dc08070fec"),
    "peak-c2-lam1e-05": ("2d50ca75c8ea1c73fc4edcaf56b8e16c7e0f6bda0a20c7a97b996eaff0d34f5e",
                       "3ce6710d70e47cc8ee4f1672f0311c4092ad76d3282c6f0629d38d08be53b167"),
    "peak-c2-lam1e-08": ("ff76545385ee4c91347636995c6f2ee69715988e15e8278067c2e725b3becaa6",
                       "e75127605ad15187dff7b6e8b9a14b24268e62f9569963439648115712d1784d"),
    "peak-c2-lam1e-10": ("b56a54a20416afc22e266697f46fc924ff9c3e313a737a6e511bd928f0ced44c",
                       "e94033d5274495418182ebe5436a49e8fe47797ef1e0ba507482ba9cafb42ded"),
    "crit07-lam1e-08": ("dbd097450dca0e25df78a30dfa39972f24ac69785f6657b46eb0f9686e1838ef",
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc-sweep": ("191ce1d7e9037cfb9cb70f8ae27f45a3dea0f13a580270a4896b104e7782433f",
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
    "crit07": ("41a6c35a24e2fcfeefdd164d8b40fa7094c5fd65ee4b6e4a2235c33339c08d82",
               "8d667796cba415cf638629df11b557dcba269d2b2045c8c1b18e28ed0d27f4cf"),
    "crit08-1to2": ("6bc378c91ea733baa1834f143fa62fa883dbc7a4e751269b352a1ae495a9f25a",
                    "a5fbb4431779035ab0def131e385da7df18e40551bfb8138dc117c6e97860671"),
    "crit08-2to1": ("8b3211a69fd2bfb96007520a3bf8bf350caf3ecafd84b7d5e3f5bb667de53030",
                    "47dc7d426465ee833a04d6afdf0b02faa8b59c24c38a32fa63615b1f9c9154a5"),
    "crit09": ("f350644f972c7c86c4b88db6953ce69ceb1e3bc5b1cf6a94b00cb2f952acc00e",
               "cbf0444034d35428888f73c7c82fac7129714fb7438873fee40808549aa85fae"),
    "crit07-lam1e-08": ("123218372dcdd38e68623f632d0ae6fc400ef9836e27f33bd625744c4a0d0a4f",
                        "3a8eb343680d9997b27bfca97b0f6282139413c6f074702e378cb72046f04b37"),
    "mc-sweep": ("ddd731ee380eec6d8b10793c9c434198b3a820268bad36d26f8f30e5e47f4c4b",
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
    "crit07": 4, "crit08-1to2": 4, "crit08-2to1": 4, "crit09": 5, "quickstart": 4,
    **{f"peak-c{c}-lam{lam}": 4 for c in (1, 2) for lam in ("1e-03", "1e-05", "1e-08", "1e-10")},
    "crit07-lam1e-08": 4,
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
