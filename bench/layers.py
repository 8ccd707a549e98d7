"""Per-layer metrics derived from a traced run.

Times (``*_s``) are means per call of the named span over the whole traced
run, set-up included, so a layer that only runs in set-up (``formulation``
and ``solver`` on ``check-replay``) still reports.  Counts are totals over
a fixed prefix of the run: the first set-up repetition plus the first
``count_prefix`` requests, which the seed alone determines, so on a
deterministic solver they repeat exactly from run to run.
"""

import time
from collections import defaultdict

import stats
import tracing

ENTRY_SPANS = ("analysis.run_horizon", "analysis.sweep_epsilon", "analysis.point")

MEAN_TIMES = {
    "netmodel.parse_s": "netmodel.parse",
    "checker.verify_s": "checker.verify",
    "checker.schedule_load_s": "checker.schedule_load",
    "formulation.build_s": "formulation.build",
    "solver.solve_s": "solver.solve",
    "analysis.extract_s": "analysis.extract",
    "analysis.metrics_s": "analysis.metrics",
}

COUNTS = (
    "checker.violations",
    "formulation.vars",
    "formulation.binaries",
    "formulation.rows",
    "formulation.nnz",
    "solver.nodes",
    "solver.status.optimal",
    "solver.status.feasible-gap",
    "solver.status.infeasible",
    "solver.status.limit",
)


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def span_overhead_s(calls: int = 20000, reps: int = 5) -> float:
    """Traced minus untraced cost of one wrapped call that records a
    counter, the median of ``reps`` timings of ``calls`` calls each."""
    tracer = tracing.Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibrate", noop, lambda args, result: tracer.count("c"))
    diffs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return stats.median(diffs)


def per_layer(tracer, work, out) -> dict:
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    metrics = {}
    for metric, name in MEAN_TIMES.items():
        metrics[metric] = (_mean([s.end - s.start for s in by_name[name]]), "s")

    counted = {-1, *range(work.count_prefix)}
    totals = defaultdict(float)
    for (name, request), value in tracer.counts.items():
        if request in counted:
            totals[name] += value
    for name in COUNTS:
        metrics[name] = (int(totals[name]), "count")

    selfs = tracing.self_times(spans)
    entries = [s for name in ENTRY_SPANS for s in by_name[name]]
    metrics["analysis.self_s"] = (_mean([selfs[s.id] for s in entries]), "s")

    all_counts = defaultdict(float)
    for (name, _), value in tracer.counts.items():
        all_counts[name] += value
    queued = all_counts["analysis.queued"]
    metrics["analysis.queue_wait_s"] = (
        all_counts["analysis.queue_wait_s"] / queued if queued else 0.0, "s")

    points = by_name["analysis.point"]
    if points:
        sweep_wall = sum(s.end - s.start for s in by_name["analysis.sweep_epsilon"])
        busy = sum(s.end - s.start for s in points)
        eff = busy / (work.workers * sweep_wall)
    else:
        eff = out.raw_busy_s / out.wall_s  # one worker: its busy share of the loop
    metrics["analysis.parallel_eff"] = (eff, "ratio")

    measured = [s for s in spans if s.request is not None and s.request >= 0]
    metrics["trace.spans"] = (
        sum(1 for s in spans if s.request in counted), "count")
    metrics["trace.overhead_s"] = (
        span_overhead_s() * len(measured) / max(1, out.attempted), "s")
    return metrics
