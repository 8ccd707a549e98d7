"""gridshed benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload horizon-13bus --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
lines before it are a readable report.  The exit code is 0 only when
every operation matched its reference.  See ``bench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".bench_traces")
SETUP_REPS = 3


def _import_program():
    """Put the checkout's ``src`` first on the path and import gridshed."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "gridshed")):
        raise ImportError(f"no gridshed package under {src}")
    sys.path.insert(0, src)
    import gridshed  # noqa: F401


def environment() -> dict:
    import numpy
    import scipy
    try:
        from scipy.optimize._highspy import _core
        highs = (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
                 f"{_core.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs = "unknown"
    from workloads import nproc
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "highs": highs}


def end_to_end(out, setup_times) -> dict:
    """The metrics, from scaled times where the workload scales them
    (see ``hostspeed``), and notes."""
    import stats
    from workloads import ops_per_s
    tail, q, n = stats.tail(out.latencies)
    return {
        "setup_s": (stats.median(setup_times), "s"),
        "ops_per_s": (ops_per_s(out), "1/s"),
        "latency_p50_s": (stats.median(out.latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "ok_share": ((out.attempted - out.failed) / out.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"tail_percentile": q, "latency_samples": n,
        "failed_share": out.failed / out.attempted}


def raw_report(out) -> str:
    """The unscaled timings and the range of the host-speed factor."""
    import stats
    ops = (out.attempted - out.failed) / out.raw_busy_s
    q = sorted(out.factors)
    return (f"unscaled: ops_per_s {ops:.6g} "
            f"latency_p50_s {stats.median(out.raw_latencies):.6g} "
            f"latency_tail_s {stats.tail(out.raw_latencies)[0]:.6g}; "
            f"scale factor min {q[0]:.4g} median {stats.median(q):.4g} max {q[-1]:.4g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gridshed benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import layers
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    work = WORKLOADS[args.workload](args.seed, tracer)

    def run():
        setup_times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            work.setup(rep)
            setup_times.append(time.perf_counter() - t0)
        return setup_times, work.measure(args.seconds)

    if tracer is None:
        setup_times, out = run()
    else:
        with tracing.instrument(tracer):
            setup_times, out = run()

    out.errors[:0] = work.setup_errors
    out.failed += len(work.setup_errors)
    correct = out.failed == 0 and out.attempted > 0

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"attempted {out.attempted} failed {out.failed}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for err in out.errors:
        print(f"FAIL {err}")

    if tracer is None:
        metrics, notes = end_to_end(out, setup_times)
        print(f"failed_share {notes['failed_share']:.6g}; latency_tail_s is the "
              f"p{notes['tail_percentile']:.4g} of {notes['latency_samples']} samples")
        if work.probe:
            print(raw_report(out))
    else:
        metrics = layers.per_layer(tracer, work, out)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
