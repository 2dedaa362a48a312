"""One fresh process that runs a workload through the CLI and checks it.

Started by run.py from the root of a checkout; imports ``multidescent`` from
``./src`` only.  With ``--setup-only`` it imports the package, parses the
workload's configs, prints ``ready`` and exits: run.py times that as
set-up.  Otherwise it does the same set-up, prints ``ready`` and then obeys
one-line requests on stdin, so that run.py can time set-up starts between
commands while this process waits:

* ``next``   - run the next command of the current pass through
  ``multidescent.cli.dispatch``; reply ``pass`` when that completed the
  pass (which is then checked) and ``command`` otherwise;
* ``trace``  - trace the passes from now on (only at a pass boundary);
* ``report`` - print the JSON report and exit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import build_workload, check_pass  # noqa: E402

SRC = os.path.abspath("src")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def import_package():
    sys.path.insert(0, SRC)
    import multidescent
    from multidescent import cli, config

    if not os.path.abspath(multidescent.__file__).startswith(SRC + os.sep):
        raise ImportError(f"multidescent imported from {multidescent.__file__}, not {SRC}")
    return cli, config


def setup(workload, config):
    """Parse every command's inline JSON config, as the CLI's main() would."""
    return [config.parse_config(command.config_text) for command in workload.commands]


def pass_seconds(passes) -> float:
    """Time of one pass: each command's fastest run among ``passes``, summed.

    The host's speed for the same code drifts by up to 2x in episodes of
    10-20 s (CPU time tracks wall time, so this is not preemption), which
    moves a median pass time by 40% between runs.  A command's fastest run
    is its time outside those episodes.
    """
    return sum(min(column) for column in zip(*passes))


def provenance(numpy_module, scipy_module) -> dict:
    blas = numpy_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_files = sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(SRC)
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_loc": lines,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_module.__version__,
        "scipy": scipy_module.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, left at its default."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


class Checker:
    """Checks every pass and requires byte-identical stdout across passes."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.totals = {"ok": 0, "loud": 0, "stat": 0, "wrong": 0}
        self.per_pass = None
        self.notes = []
        self.digest = None
        self.identical = True

    def __call__(self, results):
        outcome = check_pass(self.workload, results, self.refs)
        for key in self.totals:
            self.totals[key] += getattr(outcome, key)
        if self.per_pass is None:
            self.per_pass = {key: getattr(outcome, key) for key in self.totals}
            self.notes = outcome.notes
        stdout = "\n".join(out for _, out, _ in results).encode()
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.identical = False
            self.notes.append(f"stdout changed between passes ({self.digest[:12]} -> {digest[:12]})")


class Session:
    """The passes of one run: untraced, then optionally traced."""

    def __init__(self, workload, parsed, cli, checker):
        self.workload, self.parsed, self.cli, self.checker = workload, parsed, cli, checker
        self.plain, self.traced = [], []
        self.results, self.seconds = [], []
        self.tracer = None
        self.marks = []

    def start_tracing(self, tracer) -> None:
        self.tracer = tracer
        tracer.install()
        self.marks.append((len(tracer.spans), dict(tracer.counts)))

    def next_command(self) -> bool:
        """Run the next command; True when that completes a pass."""
        i = len(self.results)
        command, cfg = self.workload.commands[i], self.parsed[i]
        if self.tracer is not None:
            self.tracer.begin_command(command.label)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        status = self.cli.dispatch(command.subcommand, cfg, out, err)
        self.seconds.append(time.perf_counter() - t0)
        self.results.append((int(status), out.getvalue().rstrip("\n"), err.getvalue()))
        if len(self.results) < len(self.workload.commands):
            return False
        if self.tracer is not None:
            self.marks.append((len(self.tracer.spans), dict(self.tracer.counts)))
        (self.traced if self.tracer is not None else self.plain).append(self.seconds)
        self.checker(self.results)
        self.results, self.seconds = [], []
        return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = build_workload(args.workload, args.seed)
    cli, config = import_package()
    parsed = setup(workload, config)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import numpy
    import scipy

    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)["commands"]
    checker = Checker(workload, refs)
    session = Session(workload, parsed, cli, checker)
    tracer = setup_spans = None
    print("ready", flush=True)
    for line in sys.stdin:
        request = line.strip()
        if request == "next":
            print("pass" if session.next_command() else "command", flush=True)
        elif request == "trace":
            from tracer import Tracer

            # Set-up is repeated under the tracer for the config-layer metrics.
            tracer = Tracer()
            tracer.install()
            session.parsed = setup(workload, config)
            tracer.uninstall()
            setup_spans = list(tracer.spans)
            session.start_tracing(tracer)
        elif request == "report":
            break
    if tracer is not None:
        tracer.uninstall()
    report = {
        "provenance": provenance(numpy, scipy),
        "pass_seconds": [sum(p) for p in session.plain],
        "wall_s": pass_seconds(session.plain),
        "totals": checker.totals,
        "per_pass": checker.per_pass,
        "passes": len(session.plain) + len(session.traced),
        "stdout_identical": checker.identical,
        "stdout_sha256": checker.digest,
        "notes": checker.notes[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from layers import layer_metrics

        report["layers"] = layer_metrics(
            tracer, setup_spans, session.marks, pass_seconds(session.plain),
            [sum(p) for p in session.traced], pass_seconds(session.traced))
        report["spans_file"] = write_spans(tracer, args, report["provenance"])
    print(json.dumps(report), flush=True)
    return 0


def write_spans(tracer, args, prov) -> str:
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, **prov}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span.record()) + "\n")
        fh.write(json.dumps({"counts": tracer.counts}) + "\n")
    return os.path.relpath(path)


if __name__ == "__main__":
    sys.exit(main())
