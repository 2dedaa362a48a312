"""The benchmark's workloads: CLI commands with inline JSON configs, and the
checks that decide whether each command's output is right.

Every command is run in process through ``multidescent.cli.dispatch``; its
stdout and stderr are captured and handed to the check for its kind.  This
module imports nothing from ``multidescent``, so ``make_references.py`` can
enumerate the same instances without touching the code under test.

An *op* is the unit that ``attempted`` and ``ops_per_s`` count: one grid
point of a theory sweep, one ``theory`` command, or one Monte Carlo
replication.  Each op ends in one of four outcomes:

* ``ok`` - the output passed every check;
* ``loud`` - the solver failed and said so (exit status 3 for ``theory``, an
  empty risk cell for a sweep point) without printing a number;
* ``stat`` - a Monte Carlo mean missed criterion 10's band around theory;
* ``wrong`` - a printed number disagrees with its reference, or the command
  broke its output contract.

``fail_share`` counts everything but ``ok``; only ``wrong`` makes a run
incorrect.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

PSI_N = 10.0 / 3.0
FIGURE_ACTS = [{"kind": "elu", "in_scale": 3.0}, {"kind": "relu", "in_scale": 0.25}]
CASCADE_ACTS = [{"kind": "relu", "in_scale": s} for s in (9.0, 1.0, 0.1)]

# Relative tolerance of a printed risk (and b) against its 50-digit reference.
# It is the repo's own oracle-equivalence tolerance (criteria 03 and 04).  The
# package's worst error over all reference points is recorded in
# references.json as ``package_worst_rel_error``: 4e-11 at commit 9b03c56,
# where the solver stops at a relative residual of 1e-12, which near the
# peaks costs a few more digits of the risk.  1e-8 leaves over two orders of
# headroom for a different solver, while a wrong branch or formula moves a
# risk by far more.
RISK_RTOL = 1e-8
# Grid values are printed with 12 significant digits.
C_RTOL = 1e-11

MC_REPLICATIONS = 20
MC_C_GRID = (0.5, 1.5, 3.0)
MC_SIMULATE_C = 1.5

CSV_COLUMNS = ("psi_n", "lambda", "theory_risk", "theory_bias", "theory_variance",
               "emp_mean", "emp_se", "replications", "solver_iterations")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``multidescent <subcommand> --config <config>``."""

    label: str
    subcommand: str
    config: dict

    @property
    def config_text(self) -> str:
        return json.dumps(self.config, sort_keys=True)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def _theory_model(psi, lam: float) -> dict:
    return {"psi": list(psi), "psi_n": PSI_N, "lambda": lam, "F1": 1.0, "tau": 0.1}


def _theory_sweep(acts, ratios, stop: float, lam: float) -> dict:
    return {
        "activations": acts,
        "model": _theory_model([1.0] * len(acts), lam),
        "sweep": {"c_range": {"start": 0.2, "stop": stop, "step": 0.05}, "ratios": list(ratios)},
    }


def _peak_theory(c: float, lam: float) -> dict:
    psi = c * PSI_N / 2.0
    return {"activations": FIGURE_ACTS, "model": _theory_model([psi, psi], lam)}


def _monte_carlo_base(seed: int) -> dict:
    return {
        "activations": FIGURE_ACTS,
        "model": {"d": 200, "n": 600, "N": [450, 450], "lambda": 1e-3,
                  "F0": 0.2, "F1": 1.0, "tau": 0.1},
        "empirical": {"replications": MC_REPLICATIONS, "n_test": 500,
                      "base_seed": seed, "workers": 2},
    }


def build_workload(name: str, seed: int) -> Workload:
    """The named workload (why each exists: README.md).  Only ``monte-carlo``
    depends on the seed, as its ``base_seed``; the theory workloads are the
    paper's fixed instances."""
    if name == "paper-curves":
        commands = (
            Command("crit07", "sweep", _theory_sweep(FIGURE_ACTS, (1, 1), 3.2, 1e-5)),
            Command("crit08-1to2", "sweep", _theory_sweep(FIGURE_ACTS, (1, 2), 3.6, 1e-5)),
            Command("crit08-2to1", "sweep", _theory_sweep(FIGURE_ACTS, (2, 1), 3.2, 1e-5)),
            Command("crit09", "sweep", _theory_sweep(CASCADE_ACTS, (1, 1, 3), 6.0, 1e-4)),
            Command("quickstart", "theory",
                    {"activations": FIGURE_ACTS, "model": _theory_model([1.0, 1.0], 1e-5)}),
        )
    elif name == "small-ridge":
        commands = tuple(
            Command(f"peak-c{c:g}-lam{lam:.0e}", "theory", _peak_theory(c, lam))
            for c in (1.0, 2.0)
            for lam in (1e-3, 1e-5, 1e-8, 1e-10)
        ) + (Command("crit07-lam1e-08", "sweep", _theory_sweep(FIGURE_ACTS, (1, 1), 3.2, 1e-8)),)
    elif name == "monte-carlo":
        base = _monte_carlo_base(seed)
        sweep = dict(base, sweep={"c_grid": list(MC_C_GRID), "ratios": [1, 1]})
        commands = (Command("mc-sweep", "sweep", sweep), Command("mc-simulate", "simulate", base))
    else:
        raise KeyError(name)
    return Workload(name=name, commands=commands)


WORKLOAD_NAMES = ("paper-curves", "small-ridge", "monte-carlo")


# ---------------------------------------------------------------------------
# Instances, mirrored from the config rules so references can be made
# without importing the package.


def grid(config: dict) -> list[float]:
    """The c grid that ``multidescent.config`` builds from a sweep section."""
    sweep = config["sweep"]
    if "c_grid" in sweep:
        return [float(c) for c in sweep["c_grid"]]
    rng = sweep["c_range"]
    start, stop, step = rng["start"], rng["stop"], rng["step"]
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def instances(command: Command) -> list[dict]:
    """The asymptotic instances a command evaluates, in output order.

    Each is ``{"c", "psi", "psi_n", "lambda", "activations"}`` with the same
    floating-point values the CLI computes.
    """
    cfg = command.config
    model = cfg["model"]
    if "psi" in model:
        psi, psi_n = [float(p) for p in model["psi"]], float(model["psi_n"])
    else:
        psi = [nc / model["d"] for nc in model["N"]]
        psi_n = model["n"] / model["d"]
    common = {"psi_n": psi_n, "lambda": float(model["lambda"]), "activations": cfg["activations"]}
    if command.subcommand != "sweep":
        return [dict(common, c=sum(psi) / psi_n, psi=psi)]
    ratios = [float(r) for r in cfg["sweep"].get("ratios", [1.0] * len(psi))]
    total = sum(ratios)
    return [
        dict(common, c=c, psi=[r * c * psi_n / total for r in ratios])
        for c in grid(cfg)
    ]


# ---------------------------------------------------------------------------
# Checks


@dataclass
class Outcome:
    ok: int = 0
    loud: int = 0
    stat: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.ok += other.ok
        self.loud += other.loud
        self.stat += other.stat
        self.wrong += other.wrong
        self.notes += other.notes


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _theory_outcome(label: str, status: int, out: str, err: str, ref: dict) -> Outcome:
    if status == 3 and not out and re.search(r"^\w+: ", err, re.M):
        return Outcome(loud=1, notes=[f"{label}: solver failed loudly: {err.splitlines()[-1]}"])
    if status != 0:
        return Outcome(wrong=1, notes=[f"{label}: exit status {status}: {err.strip()[-200:]}"])
    payload = json.loads(out)
    risk_ok = _close(payload["risk"], float(ref["risk"]), RISK_RTOL)
    b_ok = len(payload["b"]) == len(ref["b"]) and all(
        _close(x, float(r), RISK_RTOL) for x, r in zip(payload["b"], ref["b"])
    )
    if risk_ok and b_ok:
        return Outcome(ok=1)
    return Outcome(wrong=1, notes=[f"{label}: risk {payload['risk']} / b {payload['b']} "
                                   f"vs reference {ref['risk']} / {ref['b']}"])


def _csv_rows(out: str, k: int) -> list[dict]:
    lines = out.split("\n")
    header = ["c"] + [f"psi_{i + 1}" for i in range(k)] + list(CSV_COLUMNS)
    if lines[0] != ",".join(header):
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _sweep_outcome(label: str, status: int, out: str, refs: list[dict], k: int,
                   replications: int | None) -> tuple[Outcome, list[dict]]:
    per_row = replications or 1
    if status != 0:
        return Outcome(wrong=per_row * len(refs),
                       notes=[f"{label}: exit status {status}"]), []
    try:
        rows = _csv_rows(out, k)
    except ValueError as err:
        return Outcome(wrong=per_row * len(refs), notes=[f"{label}: {err}"]), []
    if len(rows) != len(refs):
        return Outcome(wrong=per_row * len(refs),
                       notes=[f"{label}: {len(rows)} rows, expected {len(refs)}"]), rows
    outcome = Outcome()
    for row, ref in zip(rows, refs):
        where = f"{label} c={row['c']}"
        ref_risk = float(ref["risk"])
        if not _close(float(row["c"]), float(ref["c"]), C_RTOL):
            outcome.add(Outcome(wrong=per_row, notes=[f"{where}: grid value vs {ref['c']}"]))
        elif row["theory_risk"] == "":
            outcome.add(Outcome(loud=per_row, notes=[f"{where}: point failed"]))
        elif not _close(float(row["theory_risk"]), ref_risk, RISK_RTOL):
            outcome.add(Outcome(wrong=per_row,
                                notes=[f"{where}: risk {row['theory_risk']} vs {ref['risk']}"]))
        elif replications is None:
            outcome.add(Outcome(ok=1))
        elif row["replications"] != str(replications) or row["emp_mean"] == "":
            outcome.add(Outcome(wrong=per_row, notes=[f"{where}: empirical columns missing"]))
        else:
            outcome.add(_mc_agreement(where, float(row["emp_mean"]), float(row["emp_se"]),
                                      ref_risk, per_row))
    return outcome, rows


def _mc_agreement(where: str, mean: float, se: float, theory: float, ops: int) -> Outcome:
    """Criterion 10: the Monte Carlo mean lies within max(3 se, 5%) of theory."""
    band = max(3.0 * se, 0.05 * theory)
    if abs(mean - theory) <= band:
        return Outcome(ok=ops)
    return Outcome(stat=ops, notes=[f"{where}: mean {mean:.4f} misses theory {theory:.4f} "
                                    f"by more than {band:.4f}"])


def _simulate_outcome(label: str, status: int, out: str, ref: dict, sweep_mean_text: str | None,
                      replications: int) -> Outcome:
    if status != 0:
        return Outcome(wrong=replications, notes=[f"{label}: exit status {status}"])
    payload = json.loads(out)
    mean_text = re.search(r'"mean": (\S+),', out).group(1)
    if payload["replications"] != replications or len(payload["per_replication"]) != replications:
        return Outcome(wrong=replications, notes=[f"{label}: wrong replication count"])
    if mean_text != sweep_mean_text:
        return Outcome(wrong=replications,
                       notes=[f"{label}: mean {mean_text} differs from sweep emp_mean {sweep_mean_text}"])
    return _mc_agreement(label, payload["mean"], payload["std_error"], float(ref["risk"]),
                         replications)


def _ops(command: Command, refs: list[dict]) -> int:
    replications = command.config.get("empirical", {}).get("replications")
    if command.subcommand == "simulate":
        return replications
    return len(refs) * (replications or 1)


def check_pass(workload: Workload, results: list[tuple[int, str, str]], refs: dict) -> Outcome:
    """Check one pass: ``results[i]`` is (exit status, stdout, stderr) of command i.

    Output that cannot be parsed makes every op of its command wrong.  A
    ``simulate`` is compared with the ``sweep`` listed before it.
    """
    total = Outcome()
    sweep_mean_at = {}
    for command, (status, out, err) in zip(workload.commands, results):
        ref_rows = refs[command.label]
        try:
            if command.subcommand == "theory":
                outcome = _theory_outcome(command.label, status, out, err, ref_rows[0])
            elif command.subcommand == "sweep":
                reps = command.config.get("empirical", {}).get("replications")
                k = len(command.config["activations"])
                outcome, rows = _sweep_outcome(command.label, status, out, ref_rows, k, reps)
                sweep_mean_at.update((float(row["c"]), row["emp_mean"]) for row in rows)
            else:
                outcome = _simulate_outcome(command.label, status, out, ref_rows[0],
                                            sweep_mean_at.get(MC_SIMULATE_C),
                                            command.config["empirical"]["replications"])
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            outcome = Outcome(wrong=_ops(command, ref_rows),
                              notes=[f"{command.label}: unreadable output ({err!r})"])
        total.add(outcome)
    return total
