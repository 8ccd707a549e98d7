"""In-memory spans recorded around calls into the gridshed layers.

Tracing is attached from outside: ``instrument`` swaps module attributes
of ``gridshed.analysis`` and ``gridshed.checker`` for wrappers while a
traced run lasts and puts the originals back afterwards, so no file of the
program changes.  Each span records its name, start, end, parent span,
request id and thread.  Parents are tracked per thread; work handed to the
sweep's thread pool inherits the submitting span as its parent, so sweep
points nest under their sweep even though they run on worker threads.
"""

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int


class Tracer:
    """Collects finished spans and per-request counters in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (name, request) -> total
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self):
        """(parent span id, request id) for a span opened here now."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextmanager
    def span(self, name: str, request=None, context=None):
        """Record ``name`` around the body.

        ``request`` starts a new request; otherwise the span joins the
        request of its parent, taken from this thread's open spans or from
        ``context`` captured on another thread.
        """
        parent, inherited = context if context is not None else self.context()
        req = inherited if request is None else request
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, req))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, req,
                                   threading.get_ident()))

    def count(self, name: str, value=1) -> None:
        key = (name, self.context()[1])
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` records counters."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover.

    Children on other threads can overlap each other; their union is
    subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id])
        for s in spans
    }


def make_pool_class(tracer: Tracer):
    """A ThreadPoolExecutor whose tasks run as ``analysis.point`` spans.

    Each task inherits the submitting thread's span as its parent and
    records how long it waited in the queue before a worker took it.
    """
    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            ctx = tracer.context()
            queued = time.perf_counter()

            def task():
                waited = time.perf_counter() - queued
                with tracer.span("analysis.point", context=ctx):
                    tracer.count("analysis.queue_wait_s", waited)
                    tracer.count("analysis.queued", 1)
                    return fn(*args, **kwargs)

            return super().submit(task)

    return TracedPool


def _model_counts(tracer: Tracer):
    def after(args, model):
        tracer.count("formulation.vars", model.num_vars)
        tracer.count("formulation.binaries", int(model.is_binary.sum()))
        tracer.count("formulation.rows", model.num_rows)
    return after


def _solve_counts(tracer: Tracer):
    def after(args, sol):
        tracer.count("solver.nodes", int(sol.stats.get("nodes") or 0))
        tracer.count(f"solver.status.{sol.status}")
        # the solver has built the sparse matrix by now; reading it is free
        tracer.count("formulation.nnz", int(args[0].constraint_matrix().nnz))
    return after


def _verify_counts(tracer: Tracer):
    def after(args, report):
        tracer.count("checker.violations", len(report.violations))
    return after


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points that ``gridshed.analysis`` calls."""
    from gridshed import analysis, checker

    patches = [
        (analysis, "compute_load_blocks", "netmodel.blocks", None),
        (analysis, "build_model", "formulation.build", _model_counts(tracer)),
        (analysis, "solve_milp", "solver.solve", _solve_counts(tracer)),
        (analysis, "solve_lp", "solver.solve_lp", None),
        (analysis, "extract_schedule", "analysis.extract", None),
        (analysis, "compute_metrics", "analysis.metrics", None),
        (checker, "verify_schedule", "checker.verify", _verify_counts(tracer)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
    saved.append((analysis, "ThreadPoolExecutor", analysis.ThreadPoolExecutor))
    try:
        for mod, attr, name, after in patches:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), after))
        analysis.ThreadPoolExecutor = make_pool_class(tracer)
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
