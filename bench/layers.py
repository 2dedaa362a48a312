"""Per-layer metrics from the spans of a traced run.

Every metric is taken per traced pass and reported as the median over the
traced passes, except the set-up metrics, which come from one traced
set-up.  Times are seconds; a layer that does no work on a workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, self_seconds

# Every metric a traced run reports, in report order, with its unit.
LAYER_METRICS = (
    ("config.parse_s", "s"),
    ("config.self_s", "s"),
    ("activations.moment_calls", "count"),
    ("activations.moment_s", "s"),
    ("nu_system.solves", "count"),
    ("nu_system.warm_solve_s", "s"),
    ("nu_system.warm_accept_ratio", "ratio"),
    ("nu_system.iterations", "count"),
    ("nu_system.cold_solve_s", "s"),
    ("nu_system.stages", "count"),
    ("nu_system.failures", "count"),
    ("nu_system.self_s", "s"),
    ("risk.calls", "count"),
    ("risk.call_s", "s"),
    ("risk.cond_warnings", "count"),
    ("risk.self_s", "s"),
    ("sweep.points", "count"),
    ("sweep.failed_points", "count"),
    ("sweep.self_s", "s"),
    ("simulator.replications", "count"),
    ("simulator.data_s", "s"),
    ("simulator.theta_s", "s"),
    ("simulator.features_s", "s"),
    ("simulator.ridge_s", "s"),
    ("simulator.test_s", "s"),
    ("simulator.gflop_s", "GFLOP/s"),
    ("simulator.pool_speedup", "ratio"),
    ("simulator.self_s", "s"),
    ("cli.emit_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _union_seconds(spans) -> float:
    total, cursor = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        lo = max(span.start, cursor)
        if span.end > lo:
            total += span.end - lo
            cursor = span.end
    return total


def replication_flops(info: dict) -> float:
    """Computed (not counted) flops of one replication's matrix products and solve."""
    n, d, N, m = info["n"], info["d"], sum(info["N"]), info["n_test"]
    features = 2.0 * n * d * N
    if N <= n:
        ridge = 2.0 * n * N * N + 2.0 * n * N + N ** 3 / 3.0 + 2.0 * N * N
    else:
        ridge = 2.0 * n * n * N + n ** 3 / 3.0 + 2.0 * n * n + 2.0 * n * N
    test = 2.0 * m * d * N + 2.0 * m * N + 2.0 * m * d
    return features + ridge + test


def _children(spans):
    kids = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    return kids


def _pass_metrics(spans, counts, wall: float) -> dict:
    kids = _children(spans)
    own = {span.id: self_seconds(span, kids[span.id]) for span in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name):
        return sum(span.seconds for span in by_name[name])

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span in spans:
        m[f"{span.layer}.self_s"] += own[span.id]

    m["activations.moment_s"] = total("compute_moments")
    m["activations.pass_calls"] = len(by_name["compute_moments"])

    solves = by_name["solve_nu"]
    warm = [s for s in solves if s.info.get("warm")]
    m["nu_system.solves"] = len(solves)
    m["nu_system.warm_solve_s"] = sum(s.seconds for s in warm)
    m["nu_system.cold_solve_s"] = sum(s.seconds for s in solves if not s.info.get("warm"))
    m["nu_system.warm_accept_ratio"] = (
        sum(bool(s.info.get("warm_accepted")) for s in warm) / len(warm) if warm else 0.0
    )
    m["nu_system.iterations"] = sum(s.info.get("iterations", 0) for s in solves)
    m["nu_system.stages"] = sum(s.info.get("stages", 0) for s in solves)
    m["nu_system.failures"] = sum("error" in s.info for s in solves)

    m["risk.calls"] = len(by_name["asymptotic_risk"])
    m["risk.call_s"] = total("asymptotic_risk")
    m["risk.cond_warnings"] = counts.get("warn.IllConditionedWarning", 0)

    sweeps = by_name["run_sweep"]
    m["sweep.points"] = sum(s.info.get("points", 0) for s in sweeps)
    m["sweep.failed_points"] = sum(s.info.get("failed_points", 0) for s in sweeps)

    reps = by_name["run_replication"]
    parts = defaultdict(list)
    for rep in reps:
        mine = kids[rep.id]
        parts["data"].append(sum(c.seconds for c in mine if c.name == "generate_dataset"))
        parts["theta"].append(own[rep.id])
        parts["features"].append(sum(c.seconds for c in mine if c.name == "feature_matrix"))
        parts["ridge"].append(sum(c.seconds for c in mine if c.name == "ridge_fit"))
        parts["test"].append(sum(c.seconds for c in mine if c.name == "excess_risk_estimate"))
    m["simulator.replications"] = len(reps)
    for part in ("data", "theta", "features", "ridge", "test"):
        m[f"simulator.{part}_s"] = _median(parts[part])
    busy = _union_seconds(by_name["run_experiment"])
    flops = sum(replication_flops(rep.info) for rep in reps)
    m["simulator.gflop_s"] = flops / busy / 1e9 if busy > 0 else 0.0
    m["simulator.replication_sum_s"] = sum(rep.seconds for rep in reps)

    m["cli.emit_s"] = (total("to_json") + total("csv_text")
                       + sum(own[s.id] for s in by_name["dispatch"]))
    roots = [s for s in spans if s.parent is None]
    m["trace.coverage"] = sum(s.seconds for s in roots) / wall if wall > 0 else 0.0
    return m


def layer_metrics(tracer, setup_spans, marks, untraced_wall, traced_walls, traced_wall) -> dict:
    """Median per-pass layer metrics; ``marks`` bound each traced pass's spans.

    ``untraced_wall`` and ``traced_wall`` are the pass times of the two
    phases, ``traced_walls`` the length of each traced pass.
    """
    per_pass = []
    for (lo, before), (hi, after), wall in zip(marks, marks[1:], traced_walls):
        counts = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        per_pass.append(_pass_metrics(tracer.spans[lo:hi], counts, wall))
    metrics = {key: _median(p[key] for p in per_pass) for key in per_pass[0]}

    metrics["config.parse_s"] = sum(s.seconds for s in setup_spans if s.name == "parse_config")
    setup_moments = sum(s.name == "compute_moments" for s in setup_spans)
    metrics["activations.moment_calls"] = setup_moments + metrics.pop("activations.pass_calls")
    metrics["simulator.pool_speedup"] = (
        metrics.pop("simulator.replication_sum_s") / untraced_wall if untraced_wall > 0 else 0.0
    )
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    # activations.self_s and cli.self_s equal activations.moment_s and
    # cli.emit_s by construction, so only the latter are reported.
    return {name: metrics[name] for name, _ in LAYER_METRICS}
