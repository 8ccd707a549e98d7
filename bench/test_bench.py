"""Self-tests for the benchmark's own helpers.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import random
import threading
import unittest

import cases
import hostspeed
import layers
import stats
import tracing


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, q, n = stats.tail(range(1, 31))
        self.assertEqual((value, n), (20, 30))
        self.assertAlmostEqual(q, 200 / 3)

    def test_order_does_not_matter(self):
        xs = list(range(100))
        random.Random(0).shuffle(xs)
        self.assertEqual(stats.tail(xs), (89, 90.0, 100))

    def test_never_below_median(self):
        self.assertEqual(stats.tail(range(1, 16)), (8, 50.0, 15))
        self.assertEqual(stats.tail([3.0, 1.0]), (2.0, 50.0, 2))

    def test_median(self):
        self.assertEqual(stats.median([4, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)


def _span(sid, start, end, parent=None):
    return tracing.Span(sid, f"s{sid}", start, end, parent, 0, 0)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(tracing.covered(0, 10, [(2, 5), (4, 7), (9, 12)]), 6)
        self.assertEqual(tracing.covered(0, 10, []), 0)

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 6.0, parent=1),  # two workers in parallel
            _span(3, 2.0, 8.0, parent=1),
            _span(4, 3.0, 4.0, parent=2),  # grandchild: counts against 2 only
        ]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[1], 3.0)
        self.assertAlmostEqual(selfs[2], 4.0)
        self.assertAlmostEqual(selfs[3], 6.0)
        self.assertAlmostEqual(selfs[4], 1.0)


class HostSpeedTest(unittest.TestCase):
    def _probes(self, times, values):
        probes = hostspeed.Probes("python")
        probes.times, probes.values = list(times), list(values)
        return probes

    def test_factor_uses_median_of_nearby_probes(self):
        n = hostspeed.PROBES["python"][1]
        probes = self._probes([0.0, 1.0, 1.1, 1.2, 5.0], [9 * n, 2 * n, 4 * n, 2 * n, 9 * n])
        self.assertAlmostEqual(probes.factor(1.05, 1.15), 0.5)
        self.assertAlmostEqual(probes.factor(4.9, 5.0), 1 / 9)

    def test_outcome_scales_latency_and_busy_time(self):
        import run
        run._import_program()
        from workloads import Outcome
        n = hostspeed.PROBES["python"][1]
        out = Outcome()
        out.record(1.0, 2.0, busy_s=8.0, latency_s=1.0)
        out.record(10.0, 11.0, busy_s=4.0, latency_s=0.5)
        out.scale(self._probes([0.9, 2.1, 9.9, 11.1], [2 * n, 2 * n, n, n]))
        self.assertEqual(out.raw_latencies, [1.0, 0.5])
        self.assertEqual(out.latencies, [0.5, 0.5])
        self.assertAlmostEqual(out.busy_s, 8.0)
        self.assertAlmostEqual(out.raw_busy_s, 12.0)
        out.scale(hostspeed.Unscaled())
        self.assertEqual(out.latencies, out.raw_latencies)

    def test_probe_jobs_are_fixed(self):
        for kind, (job, _) in hostspeed.PROBES.items():
            self.assertEqual(job(), job(), kind)
            self.assertGreater(hostspeed.probe(kind), 0.0)


class TracerTest(unittest.TestCase):
    def test_pool_tasks_nest_under_submitting_span(self):
        tracer = tracing.Tracer()
        pool_class = tracing.make_pool_class(tracer)
        seen = []

        def work(x):
            with tracer.span("leaf"):
                seen.append(threading.get_ident())
            return x * x

        with tracer.span("sweep", request=7) as sweep_id:
            with pool_class(max_workers=2) as pool:
                self.assertEqual(list(pool.map(work, range(4))), [0, 1, 4, 9])
        by_id = {s.id: s for s in tracer.spans}
        points = [s for s in tracer.spans if s.name == "analysis.point"]
        self.assertEqual(len(points), 4)
        for s in points:
            self.assertEqual((s.parent, s.request), (sweep_id, 7))
        for s in tracer.spans:
            if s.name == "leaf":
                self.assertEqual(by_id[s.parent].name, "analysis.point")
                self.assertEqual(s.request, 7)
        self.assertEqual(tracer.counts[("analysis.queued", 7)], 4)

    def test_wrap_records_span_and_counter(self):
        tracer = tracing.Tracer()
        fn = tracer.wrap("layer.call", lambda x: x + 1,
                         lambda args, result: tracer.count("layer.out", result))
        with tracer.span("request", request=3):
            self.assertEqual(fn(1), 2)
        names = sorted(s.name for s in tracer.spans)
        self.assertEqual(names, ["layer.call", "request"])
        self.assertEqual(tracer.counts[("layer.out", 3)], 2)


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.refs = cases.load_refs()
        cls.base = cases.thirteen_bus()[1]

    def test_catalog_entries_are_fixed(self):
        self.assertEqual(cases.horizon_entry(self.base, 5),
                         cases.horizon_entry(self.base, 5))
        self.assertNotEqual(cases.horizon_entry(self.base, 5),
                            cases.horizon_entry(self.base, 7))
        net = cases.thirteen_bus()[0]
        for i in (0, 1, 95):
            mode, scen = cases.horizon_entry(self.base, i)
            self.assertEqual(cases.input_key(net, scen, mode),
                             self.refs["horizon-13bus"][str(i)]["key"])

    def test_horizon_cycles_follow_the_seed(self):
        a = [cases.horizon_cycle(1, self.refs, c) for c in range(cases.STRATUM)]
        self.assertEqual(a, [cases.horizon_cycle(1, self.refs, c)
                             for c in range(cases.STRATUM)])
        self.assertNotEqual(a[0], cases.horizon_cycle(2, self.refs, 0))
        flat = [i for cycle in a for i in cycle]
        self.assertEqual(sorted(flat), list(range(cases.HORIZON_CATALOG_SIZE)))
        self.assertEqual([i % 2 for i in a[0]], [0, 1] * (len(a[0]) // 2))

    def test_sweep_cycles_follow_the_seed(self):
        a = cases.sweep_cycle(4, self.refs, 0)
        self.assertEqual(a, cases.sweep_cycle(4, self.refs, 0))
        self.assertNotEqual(a, cases.sweep_cycle(5, self.refs, 0))
        self.assertEqual([s for s, _ in a], list(cases.DESK_SYSTEMS))
        for _, eps in a:
            self.assertEqual(len(set(eps)), cases.SWEEP_POINTS)

    def test_check_entries_are_solved_one_per_mode(self):
        a = cases.check_entries(self.refs)
        self.assertEqual([i % 2 for i in a], [0, 1])
        for i in a:
            self.assertEqual(self.refs["horizon-13bus"][str(i)]["status"], "solved")

    def test_corruptions_follow_the_seed(self):
        sched = {
            "horizon": 2,
            "block_status": [[1, 1], [1, 0]],
            "switch_status": {"s1": [1, 1], "s2": [0, 1], "s3": [1, 1]},
            "dispatch": {"flow_p": {"l1": [0.5, 0.5]}},
        }
        for kind in cases.CORRUPTIONS:
            a = cases.corrupt(sched, kind, random.Random(9), [0, 1], ["s1", "s2", "s3"], 1)
            b = cases.corrupt(sched, kind, random.Random(9), [0, 1], ["s1", "s2", "s3"], 1)
            self.assertEqual(a, b)
            self.assertEqual(a == sched, kind == "valid")
        broken = cases.corrupt(sched, "switch_budget", random.Random(1), [0],
                               ["s1", "s2", "s3"], 1)
        opened = [sum(1 for s in broken["switch_status"].values() if s[t] == 0)
                  for t in range(2)]
        self.assertIn(2, opened)


class ContractTest(unittest.TestCase):
    """The metric names printed match the ones BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        path = os.path.join(os.path.dirname(cases.DATA_DIR), "..", "BENCHMARK.json")
        with open(path, "r", encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_per_layer_names(self):
        class Work:
            count_prefix = 0
            workers = 1

        class Out:
            busy_s, raw_busy_s, wall_s, attempted = 1.0, 1.0, 2.0, 1

        names = layers.per_layer(tracing.Tracer(), Work, Out)
        self.assertEqual(sorted(names), sorted(m["name"] for m in self.spec["per_layer"]))

    def test_end_to_end_names(self):
        import run
        run._import_program()
        from workloads import Outcome
        out = Outcome(latencies=[1.0, 2.0], attempted=2, busy_s=3.0)
        metrics, _ = run.end_to_end(out, [0.5])
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in self.spec["end_to_end"]))
        for m in self.spec["end_to_end"]:
            self.assertEqual(metrics[m["name"]][1], m["unit"])


if __name__ == "__main__":
    unittest.main()
