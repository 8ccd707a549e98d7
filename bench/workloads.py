"""The three benchmark workloads.

Every workload sends the program only generated inputs, as JSON text, and
checks every answer against ``data/refs.json`` or, for ``check-replay``,
against the verdict its corruption was built to have.  A workload object
is set up one or more times (``setup``), then measured (``measure``).

* ``horizon-13bus``: one client in a closed loop; each request parses the
  network and scenario and calls ``run_horizon``.  Requests come in cycles
  that hold one catalog entry from every cost stratum of each mode.
* ``sweep-desk``: one client calling ``sweep_epsilon`` with one pool
  worker per CPU; a cycle is one six-point sweep on each desk system.
* ``check-replay``: one client replaying ``gridshed check``: parse the
  inputs, load a schedule document, ``verify_schedule``.  Schedules are
  solved in set-up; a cycle checks each of them once clean and once under
  each corruption, which is built so its verdict is known.

Each workload measures whole cycles until ``seconds`` have passed, so
every run carries the same mix.  On ``check-replay`` and
``horizon-13bus`` every latency sample is rescaled by host-speed probes
taken around it (``hostspeed``), and the raw times are kept beside the
scaled ones; ``sweep-desk`` reports raw times (factor 1).
"""

import json
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import cases
import hostspeed
from gridshed import analysis, checker, netmodel
from gridshed.errors import InfeasibleError
from gridshed.solver import SolverOptions

SOLVED = ("optimal", "feasible-gap")
# a run stops early, mid-cycle, once it has measured this long
HARD_STOP_S = 120.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _options() -> SolverOptions:
    return SolverOptions(gap_target=cases.GAP, time_limit=cases.TIME_LIMIT_S)


def within_gap(objective, reference) -> bool:
    if objective is None or reference is None:
        return False
    return abs(objective - reference) <= 1.01 * cases.GAP * max(1.0, abs(reference))


@dataclass
class Outcome:
    """What one measured loop saw."""

    latencies: list = field(default_factory=list)  # s, one per sample, scaled
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # s inside operations, scaled
    wall_s: float = 0.0  # measured loop less its probes, client work included
    errors: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)  # the same, unscaled
    raw_busy: list = field(default_factory=list)  # s inside operations, per sample
    intervals: list = field(default_factory=list)  # (start, end) of each sample
    factors: list = field(default_factory=list)  # scale factor of each sample

    def record(self, start: float, end: float, busy_s: float, latency_s: float) -> None:
        """One latency sample, from ``start`` to ``end``, covering
        ``busy_s`` of operations."""
        self.intervals.append((start, end))
        self.raw_latencies.append(latency_s)
        self.raw_busy.append(busy_s)

    @property
    def raw_busy_s(self) -> float:
        return sum(self.raw_busy)

    def scale(self, probes) -> None:
        """Fill the scaled figures from the probes of the run."""
        self.factors = [probes.factor(a, b) for a, b in self.intervals]
        self.latencies = [x * f for x, f in zip(self.raw_latencies, self.factors)]
        self.busy_s = sum(x * f for x, f in zip(self.raw_busy, self.factors))

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def parse_inputs(net_text: str, scen_text: str):
    """The read path of every request: JSON text to validated objects."""
    net = netmodel.parse_network(json.loads(net_text))
    part = netmodel.compute_load_blocks(net)
    scen = netmodel.parse_scenario(json.loads(scen_text), part)
    return net, part, scen


class Workload:
    name = ""
    count_prefix = 0  # requests whose counters the traced report sums
    probe = None  # kind of host-speed probe that scales latency samples

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.refs = None
        self.setup_errors: list = []

    def span(self, name: str, request=None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, request=request)

    def setup(self, rep: int) -> None:
        """Load and check the inputs; ``rep`` numbers repeated set-ups."""
        self.setup_errors = []
        self.refs = cases.load_refs()
        self._setup(rep)

    def _setup(self, rep: int) -> None:
        raise NotImplementedError

    def solve_entry(self, index: int, rep: int):
        """Solve 23-bus catalog entry ``index`` in set-up and check it
        against its reference; returns what ``check-replay`` replays."""
        net_doc, base = cases.thirteen_bus()
        mode, scen_doc = cases.horizon_entry(base, index)
        ref = self.refs["horizon-13bus"][str(index)]
        with self.span("request", request=-1 - rep):
            with self.span("netmodel.parse"):
                net, part, scen = parse_inputs(json.dumps(net_doc), json.dumps(scen_doc))
            with self.span("analysis.run_horizon"):
                sched, _ = analysis.run_horizon(net, scen, mode=mode,
                                                opts=_options(), part=part)
        objective = cases.schedule_objective(part, scen, sched.block_status, mode)
        if not within_gap(objective, ref["objective"]):
            self.setup_errors.append(f"entry {index}: objective {objective!r}, "
                                     f"reference {ref['objective']!r}")
        return net, part, scen, mode, json.dumps(scen_doc), sched

    def warm_up(self, rep: int) -> None:
        """One solve before timing starts, so that lazy initialisation in
        the solver stack is paid in set-up, not by the first request."""
        self.solve_entry(cases.check_entries(self.refs)[0], rep)

    def cycle(self, index: int, out: Outcome, request: int) -> int:
        """Run cycle ``index``; return the next request id."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        self.probes = hostspeed.Probes(self.probe) if self.probe else hostspeed.Unscaled()
        start = time.perf_counter()
        self._since = self.probes.take()
        index = request = 0
        while True:
            request = self.cycle(index, out, request)
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or elapsed >= HARD_STOP_S:
                break
        out.wall_s = time.perf_counter() - start - self.probes.spent_s
        out.scale(self.probes)
        return out

    def _record(self, out: Outcome, busy_s: float, latency_s: float) -> None:
        """Record a sample taken since the last probe, then probe."""
        end = time.perf_counter()
        out.record(self._since, end, busy_s, latency_s)
        self._since = self.probes.take()

    @staticmethod
    def _timed(fn):
        """(result, exception, seconds) of ``fn``."""
        t0 = time.perf_counter()
        try:
            result, exc = fn(), None
        except Exception as err:  # any exception fails the operation, not the run
            result, exc = None, err
        return result, exc, time.perf_counter() - t0


class HorizonWorkload(Workload):
    name = "horizon-13bus"
    probe = "solver"
    count_prefix = cases.HORIZON_CATALOG_SIZE // cases.STRATUM

    def _setup(self, rep: int) -> None:
        self.net_doc, base = cases.thirteen_bus()
        self.net_text = json.dumps(self.net_doc)
        self.entries = {}
        for i in range(cases.HORIZON_CATALOG_SIZE):
            mode, scen = cases.horizon_entry(base, i)
            if cases.input_key(self.net_doc, scen, mode) != self.refs[self.name][str(i)]["key"]:
                self.setup_errors.append(f"catalog entry {i} differs from its reference")
            self.entries[i] = (mode, json.dumps(scen))
        with self.span("netmodel.parse", request=-1 - rep):
            parse_inputs(self.net_text, self.entries[0][1])
        self.warm_up(rep)

    def cycle(self, index, out, request):
        for i in cases.horizon_cycle(self.seed, self.refs, index):
            mode, scen_text = self.entries[i]
            ref = self.refs[self.name][str(i)]
            out.attempted += 1

            def one():
                with self.span("request", request=request):
                    with self.span("netmodel.parse"):
                        net, part, scen = parse_inputs(self.net_text, scen_text)
                    with self.span("analysis.run_horizon"):
                        sched, _ = analysis.run_horizon(net, scen, mode=mode,
                                                        opts=_options(), part=part)
                return part, scen, sched

            result, exc, dt = self._timed(one)
            self._record(out, dt, dt)
            request += 1
            if isinstance(exc, InfeasibleError):
                if ref["status"] != "infeasible":
                    out.fail(f"entry {i}: infeasible, reference {ref['status']}")
            elif exc is not None:
                out.fail(f"entry {i}: {type(exc).__name__}: {exc}")
            elif ref["status"] != "solved":
                out.fail(f"entry {i}: solved, reference {ref['status']}")
            else:
                part, scen, sched = result
                objective = cases.schedule_objective(part, scen, sched.block_status, mode)
                if not within_gap(objective, ref["objective"]):
                    out.fail(f"entry {i}: objective {objective!r}, "
                             f"reference {ref['objective']!r}")
            if out.raw_busy_s >= HARD_STOP_S:
                break
        return request


class SweepWorkload(Workload):
    name = "sweep-desk"
    count_prefix = len(cases.DESK_SYSTEMS)

    def _setup(self, rep: int) -> None:
        self.systems = {}
        for s in cases.DESK_SYSTEMS:
            net_doc, scen_doc = cases.desk_system(s)
            ref = self.refs[self.name][str(s)]
            if cases.input_key(net_doc, scen_doc) != ref["key"]:
                self.setup_errors.append(f"desk system {s} differs from its reference")
            self.systems[s] = (json.dumps(net_doc), json.dumps(scen_doc),
                               {p["epsilon"]: p for p in ref["points"]})
            with self.span("netmodel.parse", request=-1 - rep):
                parse_inputs(*self.systems[s][:2])
        self.workers = nproc()
        self.warm_up(rep)

    def cycle(self, index, out, request):
        for system, epsilons in cases.sweep_cycle(self.seed, self.refs, index):
            net_text, scen_text, ref_points = self.systems[system]
            out.attempted += len(epsilons)

            def one():
                with self.span("request", request=request):
                    with self.span("netmodel.parse"):
                        net, _, scen = parse_inputs(net_text, scen_text)
                    with self.span("analysis.sweep_epsilon"):
                        return analysis.sweep_epsilon(net, scen, epsilons,
                                                      opts=_options(),
                                                      workers=self.workers)

            result, exc, dt = self._timed(one)
            self._record(out, dt, dt)
            request += 1
            if exc is not None:
                for _ in epsilons:
                    out.fail(f"desk {system}: {type(exc).__name__}: {exc}")
                continue
            for eps, point in zip(epsilons, result.points):
                ref = ref_points[eps]
                if point.status not in SOLVED:
                    out.fail(f"desk {system} eps {eps}: status {point.status}")
                elif not within_gap(point.objective, ref["objective"]):
                    out.fail(f"desk {system} eps {eps}: objective {point.objective!r}, "
                             f"reference {ref['objective']!r}")
        return request


class CheckWorkload(Workload):
    name = "check-replay"
    count_prefix = 200
    probe = "python"
    rounds = 4  # rounds of checks per cycle, with a probe between rounds

    def _setup(self, rep: int) -> None:
        self.net_text = json.dumps(cases.thirteen_bus()[0])
        self.replays = []
        for i in cases.check_entries(self.refs):
            net, part, scen, mode, scen_text, sched = self.solve_entry(i, rep)
            loaded = sorted({part.block_of(ld.bus) for ld in net.loads if ld.p_min > 0})
            switchable = [ln.id for ln in net.lines if ln.switchable]
            self.replays.append((mode, scen_text, checker.schedule_to_dict(sched),
                                 loaded, switchable, scen.k_sw_max))
        self.rng = random.Random(f"check-replay/ops/{self.seed}")

    def cycle(self, index, out, request):
        """``rounds`` rounds, each one check of each schedule under each
        corruption kind.

        The cycle's mean check time is one latency sample, so the tail
        reports slow stretches of a few hundred milliseconds rather than
        the millisecond stalls any single check can meet on a shared host.
        """
        times = []
        for rnd in range(self.rounds):
            if rnd:
                self.probes.take()
            request = self._round(out, request, times)
        self._record(out, sum(times), sum(times) / len(times))
        return request

    def _round(self, out, request, times):
        for mode, scen_text, clean, loaded, switchable, k_sw_max in self.replays:
            for kind in self.rng.sample(cases.CORRUPTIONS, len(cases.CORRUPTIONS)):
                doc = cases.corrupt(clean, kind, self.rng, loaded, switchable, k_sw_max)
                sched_text = json.dumps(doc)
                out.attempted += 1

                def one():
                    with self.span("request", request=request):
                        with self.span("netmodel.parse"):
                            net, part, scen = parse_inputs(self.net_text, scen_text)
                        with self.span("checker.schedule_load"):
                            sched = checker.schedule_from_dict(json.loads(sched_text))
                        return checker.verify_schedule(net, part, scen, sched, mode=mode)

                report, exc, dt = self._timed(one)
                times.append(dt)
                if exc is not None:
                    out.fail(f"check {request} ({kind}): {type(exc).__name__}: {exc}")
                elif report.passed != (kind == "valid"):
                    out.fail(f"check {request} ({kind}): verdict "
                             f"{'pass' if report.passed else 'fail'}")
                request += 1
        return request


WORKLOADS = {w.name: w for w in (HorizonWorkload, SweepWorkload, CheckWorkload)}


def ops_per_s(out: Outcome) -> float:
    """Correct operations per second of time spent inside operations."""
    return (out.attempted - out.failed) / out.busy_s
