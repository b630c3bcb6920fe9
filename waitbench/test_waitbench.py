"""Self-tests of the benchmark's own helpers.

    python3 -m pytest waitbench -q        (or: python3 waitbench/test_waitbench.py)
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import spec  # noqa: E402
import traffic  # noqa: E402


class TestPercentiles(unittest.TestCase):
    def test_nearest_rank_never_interpolates(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(measure.nearest_rank(xs, 50), 50.0)
        self.assertEqual(measure.nearest_rank(xs, 99), 99.0)
        self.assertEqual(measure.nearest_rank(xs, 100), 100.0)
        self.assertEqual(measure.nearest_rank([7.0], 1), 7.0)
        self.assertEqual(measure.nearest_rank([1.0, 2.0, 3.0], 50), 2.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            measure.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            measure.nearest_rank([1.0], 0)

    def test_tail_needs_ten_samples_beyond(self):
        xs = [float(i) for i in range(100)]
        self.assertEqual(measure.samples_beyond(100, 90), 10)
        self.assertEqual(measure.tail(xs, 90), 89.0)
        with self.assertRaises(ValueError):
            measure.tail(xs[:99], 90)
        with self.assertRaises(ValueError):
            measure.tail(xs, 99)

    def test_min_samples_and_ladder(self):
        self.assertEqual(measure.min_samples_for(80), 50)
        self.assertEqual(measure.min_samples_for(90), 100)
        self.assertEqual(measure.min_samples_for(99), 1000)
        self.assertEqual(measure.min_samples_for(99.9), 10000)
        self.assertIsNone(measure.highest_supported(49))
        self.assertEqual(measure.highest_supported(50), 80)
        self.assertEqual(measure.highest_supported(999), 90)
        self.assertEqual(measure.highest_supported(10_000), 99.9)

    def test_declared_tails_are_the_highest_their_minimum_supports(self):
        for w in spec.WORKLOADS:
            self.assertEqual(measure.highest_supported(w.min_primary), w.primary_tail)
            self.assertEqual(measure.highest_supported(w.min_light), w.light_tail)


class TestNormalisation(unittest.TestCase):
    def test_scale_to_reference(self):
        ref = measure.PROBE_REF_MS
        self.assertAlmostEqual(measure.normalise(2.0, ref, ref), 2.0)
        # A host twice as slow as the reference halves the figure.
        self.assertAlmostEqual(measure.normalise(2.0, 2 * ref, 2 * ref), 1.0)
        self.assertAlmostEqual(measure.normalise(3.0, ref, 2 * ref), 2.0)

    def test_timeline_scales_by_window_mean(self):
        ref = measure.PROBE_REF_MS
        timeline = measure.Timeline(probes=[ref])
        readings = [ref] + [2 * ref] * 9
        feed = iter(readings)
        original = measure.probe_ms
        measure.probe_ms = lambda: next(feed)
        try:
            for _ in range(len(readings)):
                timeline.add(1.0, 10, {"primary": [0.5, 1.0]})
        finally:
            measure.probe_ms = original
        w = measure.PROBE_WINDOW
        probes = [ref, *readings]
        for i, s in enumerate(timeline.slices):
            window = probes[max(0, i + 1 - w) : i + 1 + w]
            self.assertAlmostEqual(s.factor, ref * len(window) / sum(window))
        # Deep in the slow stretch every reading is twice the reference.
        self.assertAlmostEqual(timeline.slices[-1].factor, 0.5)
        self.assertEqual(timeline.count("primary"), 2 * len(readings))
        self.assertEqual(timeline.samples("primary", normalised=False)[-1], 1.0)
        self.assertAlmostEqual(timeline.samples("primary")[0], 0.25)
        self.assertAlmostEqual(timeline.throughput(normalised=False), 10.0)

    def test_probe_is_positive_and_repro_free(self):
        self.assertGreater(measure.probe_ms(), 0.0)
        for module in (measure, traffic):
            self.assertNotIn("import repro", Path(module.__file__).read_text())


class TestGenerators(unittest.TestCase):
    def test_hot_stream_is_seeded(self):
        def take(seed):
            return list(itertools.islice(traffic.hot_requests(seed), 500))

        self.assertEqual(take(3), take(3))
        self.assertNotEqual(take(3), take(4))
        ops = {json.loads(frame)["op"] for frame in take(3)}
        self.assertEqual(ops, {"reach", "arrival", "growth"})

    def test_churn_trace_and_stream_are_seeded(self):
        self.assertEqual(traffic.churn_trace(5), traffic.churn_trace(5))
        self.assertNotEqual(traffic.churn_trace(5), traffic.churn_trace(6))

        def take(seed):
            return list(itertools.islice(traffic.churn_requests(seed), 400))

        self.assertEqual(take(5), take(5))
        self.assertNotEqual(take(5), take(6))

    def test_churn_stays_inside_communities(self):
        for line in traffic.churn_trace(2)[1:]:
            u, v, start, end = line.split()
            self.assertEqual(traffic.community_of(u), traffic.community_of(v))
            self.assertLess(int(start), int(end))
        cycles = itertools.islice(traffic.churn_cycles(2), 200)
        kinds = []
        for mutation, read in cycles:
            kinds.append(mutation["op"])
            if "target" in mutation:
                self.assertEqual(
                    traffic.community_of(mutation["source"]),
                    traffic.community_of(mutation["target"]),
                )
            self.assertEqual(
                traffic.community_of(read["source"]),
                traffic.community_of(read["target"]),
            )
        self.assertEqual(kinds[:4], list(traffic.CHURN_KINDS))

    def test_scale_edges_are_seeded(self):
        self.assertEqual(traffic.scale_edges(1)[:50], traffic.scale_edges(1)[:50])
        edges = traffic.scale_edges(1)
        self.assertTrue(all(u != v and residues for u, v, residues in edges))


class TestDeclaredTable(unittest.TestCase):
    def test_benchmark_json_is_rendered_from_the_table(self):
        on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, spec.render())

    def test_every_layer_maps_to_a_workload_and_metric(self):
        gated = {w.name for w in spec.WORKLOADS}
        end_to_end = {m.name for m in spec.END_TO_END}
        for m in spec.PER_LAYER:
            if m.workload in gated:
                self.assertTrue(set(m.moves.split(",")) <= end_to_end, m.name)
            else:
                self.assertIn(m.workload, set(spec.TRACED_ONLY) | {"all"}, m.name)
                self.assertEqual(m.moves, "", m.name)

    def test_bounds_within_contract(self):
        for m in spec.END_TO_END:
            self.assertTrue(0 < m.bound <= 0.25, m.name)
        setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
        self.assertEqual(setup.bound, max(m.bound for m in spec.END_TO_END))


class TestSpanCoverage(unittest.TestCase):
    def test_spans_cover_each_traced_cold_op(self):
        import cold_query
        import layers

        graph = cold_query.build_graph(3, nodes=120, density=0.03)
        for name, sem in cold_query.parsed_semantics().items():
            ops = [layers.paired_cold_op(graph, sem, i % 2 == 1) for i in range(6)]
            self.assertTrue(all(op["same"] for op in ops), name)
            self.assertGreaterEqual(layers.span_coverage(ops), 0.9, name)


if __name__ == "__main__":
    unittest.main()
