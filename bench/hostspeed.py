"""Host-speed probes: a fixed job timed next to every latency sample.

The shared virtual machines this benchmark runs on change speed under the
same work, for seconds to minutes at a time: one stretch of checks ran
2.9 ms each, a later one 8.9 ms.  A run's median then says more about the
host's phase than about the program.  So on the workloads that allow it,
every latency sample is taken between two probes, timings of a fixed job
that never calls the program, and is rescaled to the host speed at which
the job takes its nominal time:

    scaled = raw * nominal / median(probes within WINDOW_S of the sample)

A change to the program moves ``raw`` and leaves the probe alone, so it
moves the scaled figure by the same share; a change of host speed moves
both and cancels.  The report prints the raw figures beside the scaled
ones.

A probe tracks only work of its own kind, so there are two:

* ``python``: JSON parsing, dict and float work in the standard library,
  for the pure-Python checks of ``check-replay``.  In one 90 s stretch the
  2-second medians of raw check time swung between 4.3 and 6.2 ms while
  their ratio to a probe of this kind stayed between 3.39 and 3.78.
* ``solver``: a fixed LP solved by the HiGHS that scipy bundles, the
  solver the program calls, for the requests of ``horizon-13bus``, which
  spend most of their time in it.  Over 200 s of one repeated request the
  20-second medians ranged 1.53-2.05 s raw, 0.47-0.53 times the probe.

``sweep-desk`` is not scaled: its two solver threads slowed far less than
either probe, taken between sweeps, in the same phases, and scaling
widened the spread of sweep times from 0.12 to 0.15-0.32.
"""

import bisect
import json
import time

import numpy as np
from scipy.optimize import linprog

import stats

PROBE_REPS = 3
# probes this close to a sample set its factor; host phases last seconds,
# so this smooths the noise of single probes without blurring phases
WINDOW_S = 0.25

_DOC = json.dumps({
    "lines": [{"id": f"l{i}", "r": 0.01 * (i % 7 + 1), "x": 0.02 * (i % 5 + 1),
               "flow": [0.1 * ((i * t) % 13) for t in range(24)]}
              for i in range(40)],
})


def python_job() -> float:
    """A fixed mix of JSON parsing, dict and float work, about 1 ms."""
    doc = json.loads(_DOC)
    loss = {}
    for line in doc["lines"]:
        r = line["r"]
        for t, f in enumerate(line["flow"]):
            loss[t] = loss.get(t, 0.0) + r * f * f
    order = sorted(loss, key=loss.get)
    return sum(loss[t] for t in order) + len(json.dumps(doc))


def _lp():
    rng = np.random.default_rng(0)
    a = rng.random((150, 400)) * (rng.random((150, 400)) < 0.1)
    return -rng.random(400), a, 0.3 * a.sum(axis=1)


_LP = _lp()


def solver_job() -> float:
    """A fixed 150 x 400 packing LP solved by HiGHS, about 35 ms."""
    c, a, b = _LP
    return linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs").fun


# job and nominal time of each probe; the nominal times are about the
# median probe times on the host the bounds were set on (2-vCPU VM,
# 2.1 GHz, Python 3.11), so scaled figures there stay near raw ones
PROBES = {
    "python": (python_job, 0.0010),
    "solver": (solver_job, 0.035),
}


def probe(kind: str) -> float:
    """Median time of ``PROBE_REPS`` runs of a probe's job, in seconds."""
    job = PROBES[kind][0]
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        job()
        times.append(time.perf_counter() - t0)
    return stats.median(times)


class Probes:
    """Probes of one kind taken through a run, by time, and the factors
    they give."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = PROBES[kind][1]
        self.times: list = []  # midpoint of each probe, perf_counter s
        self.values: list = []  # its time, s
        self.spent_s = 0.0

    def take(self) -> float:
        """Probe now; return the time the probe ended."""
        t0 = time.perf_counter()
        value = probe(self.kind)
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.values.append(value)
        self.spent_s += t1 - t0
        return t1

    def factor(self, start: float, end: float) -> float:
        """Scale factor for a sample that ran from ``start`` to ``end``:
        the nominal time over the median of the probes within
        ``WINDOW_S`` of the sample, which include the probes on either
        side of it when the caller probes between samples."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return self.nominal_s / stats.median(self.values[lo:hi])


class Unscaled:
    """Stands in for ``Probes`` where times are not scaled: takes no probe,
    gives the factor 1."""

    spent_s = 0.0

    def take(self) -> float:
        return time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        return 1.0
