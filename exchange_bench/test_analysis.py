"""Tests of the exchange benchmark's own arithmetic.

    python3 -m unittest discover -s exchange_bench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7], 50), 7)
        self.assertEqual(analysis.percentile([1, 2, 3], 50), 2)
        with self.assertRaises(ValueError):
            analysis.percentile([], 50)

    def test_tail_is_p99_when_ten_samples_lie_beyond_it(self):
        values = list(range(1000))
        value, pct = analysis.tail(values)
        self.assertEqual(pct, 99.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_tail_never_exceeds_p99(self):
        values = list(range(100000))
        value, pct = analysis.tail(values)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 98999)

    def test_tail_drops_to_keep_ten_samples_beyond(self):
        values = list(range(100))
        value, pct = analysis.tail(values)
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)
        value, pct = analysis.tail(list(range(11)))
        self.assertEqual(value, 0)

    def test_no_tail_without_ten_samples_beyond(self):
        self.assertIsNone(analysis.tail(list(range(10))))


def span(key, name, parent, start, end, nbytes=0, waited=False):
    return analysis.Span((0, key), name, (0, parent) if parent else None,
                         start, end, nbytes, waited)


class SelfTime(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertEqual(analysis.covered([]), 0)
        self.assertEqual(analysis.covered([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(analysis.covered([(0, 10), (2, 3)]), 10)
        self.assertEqual(analysis.covered([(5, 5), (7, 6)]), 0)

    def test_nested_and_overlapping_children(self):
        spans = [
            span(1, "exchange", None, 0, 100),
            span(2, "a", 1, 10, 30),
            span(3, "b", 1, 20, 50),      # overlaps a
            span(4, "a.inner", 2, 12, 15),  # nested one level down
            span(5, "c", 1, 90, 120),     # runs past the parent's end
            span(6, "replay", 1, 150, 160),  # outside the parent entirely
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[(0, 1)], 100 - (40 + 10))
        self.assertEqual(selfs[(0, 2)], 20 - 3)
        self.assertEqual(selfs[(0, 3)], 30)
        self.assertEqual(selfs[(0, 4)], 3)
        self.assertEqual(selfs[(0, 5)], 30)
        self.assertEqual(selfs[(0, 6)], 10)

    def test_children_in_other_tracers(self):
        spans = [
            analysis.Span((0, 1), "exchange", None, 0, 100),
            analysis.Span((1, 1), "x", (0, 1), 40, 60),
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[(0, 1)], 80)

    def test_step_costs_sum_within_an_exchange_then_average(self):
        spans = [
            span(1, "exchange", None, 0, 100),
            span(2, "dict", 1, 0, 4),
            span(3, "dict", 1, 10, 16),
            span(4, "exchange", None, 200, 300),
            span(5, "dict", 4, 200, 210, waited=True),
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(analysis.step_costs(spans, selfs)["dict"], 10)
        self.assertEqual(
            analysis.step_costs(spans, selfs, waited_only=True), {"dict": 10})

    def test_per_mib_costs(self):
        mib = 1 << 20
        spans = [span(1, "hmac", None, 0, 1000, mib),
                 span(2, "hmac", None, 0, 3000, mib),
                 span(3, "idle", None, 0, 5)]
        costs = analysis.per_mib_costs(spans, analysis.self_times(spans))
        self.assertAlmostEqual(costs["hmac"], 2.0)
        self.assertNotIn("idle", costs)


class Residual(unittest.TestCase):
    def test_residual_subtracts_every_blocking_step(self):
        self.assertAlmostEqual(analysis.residual_us(60.0, [10.0, 5.0, 2.5]),
                               42.5)
        self.assertEqual(analysis.residual_us(60.0, []), 60.0)

    def test_materialized_residual_from_a_report(self):
        m = analysis.per_layer(synthetic_report())
        # traced p50 30 us; client steps 1+2+3+4 us; server stages 1+2+3 us
        # (registry means); wait-path dictionary replays 0.5 us.
        self.assertAlmostEqual(m["residual_us"], 30 - 10 - 6 - 0.5)
        self.assertAlmostEqual(m["trace_overhead_ratio"], 30 / 50)
        self.assertAlmostEqual(m["transport.client_wait_us"], 20.0)
        self.assertAlmostEqual(m["bxsa.dict_decode_us"], 0.5)
        self.assertAlmostEqual(m["server.respcache_hit_ratio"], 0.75)
        self.assertAlmostEqual(m["server.reactor_wakeups_per_op"], 1.5)

    def test_missing_registry_names_are_absent_not_fatal(self):
        report = synthetic_report()
        report["registry"]["histograms"].pop("event.stage.handler.ns")
        report["registry"]["counters"].pop("event.respcache.hits")
        m = analysis.per_layer(report)
        self.assertNotIn("server.handler_us", m)
        self.assertNotIn("server.respcache_hit_ratio", m)
        self.assertNotIn("residual_us", m)
        self.assertIn("server.serialize_us", m)


class EndToEnd(unittest.TestCase):
    def test_metrics_from_kept_samples(self):
        report = synthetic_report()
        m = analysis.end_to_end(report)
        self.assertAlmostEqual(m["latency_p50_us"], 50.0)
        self.assertAlmostEqual(m["ops_per_s"], 100 / 2.0)
        self.assertAlmostEqual(m["wire_bytes_per_op"], 3.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["wan_modeled_ms"], (50e-6 + 0.006) * 1e3)
        self.assertEqual(sorted(m), sorted(n for n, _, _ in analysis.END_TO_END))


class Segments(unittest.TestCase):
    def phase(self):
        # Connection 0 kept 1..4, connection 1 kept 10..30; three segments.
        seg = {"bytes_out": 0, "bytes_in": 0, "syscalls": 0,
               "logical_bytes": 0, "wan_wire_s": 0.0}
        return {
            "latency_ns": [1, 2, 3, 4, 10, 20, 30], "ttfb_ns": [],
            "segments": [
                dict(seg, ends=[2, 1], steal_share=0.10, window_s=1.0,
                     completed=3),
                dict(seg, ends=[3, 2], steal_share=0.00, window_s=1.0,
                     completed=2),
                dict(seg, ends=[4, 3], steal_share=0.05, window_s=1.0,
                     completed=2),
            ]}

    def test_samples_split_by_segment_across_connections(self):
        self.assertEqual(analysis.segment_samples(self.phase(), "latency_ns"),
                         [[1, 2, 10], [3, 20], [4, 30]])

    def test_quiet_half_has_the_least_steal(self):
        self.assertEqual(analysis.quiet_segments(self.phase()), [1, 2])
        self.assertEqual(analysis.quieter_half([0.3, 0.1, 0.2, 0.0]), [1, 3])
        self.assertEqual(analysis.quieter_half([0.0, 0.0, 0.0]), [0, 1])

    def test_end_to_end_uses_only_the_quiet_segments(self):
        report = {"untraced": self.phase(), "setup_s": [1.0, 3.0, 2.0],
                  "setup_steal_share": [0.0, 0.5, 0.0],
                  "peak_rss_kib": 1024}
        m = analysis.end_to_end(report)
        self.assertAlmostEqual(m["ops_per_s"], 4 / 2.0)
        self.assertAlmostEqual(m["latency_p50_us"], 4 / 1e3)  # of 3,4,20,30
        self.assertAlmostEqual(m["setup_s"], 1.5)  # median of 1.0 and 2.0


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [n for n, _, _ in analysis.END_TO_END + analysis.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in analysis.END_TO_END + analysis.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
            self.assertIn(better, ("higher", "lower"))

    def test_names_agree_with_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            analysis.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            analysis.PER_LAYER)
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])

    def test_every_span_metric_is_a_declared_per_layer_metric(self):
        declared = {n for n, _, _ in analysis.PER_LAYER}
        for metric in list(analysis.STEP_METRICS.values()) + list(
                analysis.PER_MIB_METRICS.values()):
            self.assertIn(metric, declared)


def synthetic_report():
    """A hand-checkable materialized report: two connections' worth of
    traced exchanges collapsed to one, plus replays and a registry."""
    names = ["exchange", "soap.envelope_build", "bxsa.encode",
             "transport.client_send", "transport.client_wait", "bxsa.decode",
             "bxsa.dict_decode"]
    us = 1000
    spans = [
        # tracer, name, parent_tracer, parent, xid, start, end, bytes, waited
        [0, 0, 0, 0, 0, 0, 30 * us, 0, 0],
        [0, 1, 0, 1, 0, 0, 1 * us, 0, 0],
        [0, 2, 0, 1, 0, 1 * us, 3 * us, 0, 0],
        [0, 3, 0, 1, 0, 3 * us, 6 * us, 0, 0],
        [0, 4, 0, 1, 0, 6 * us, 26 * us, 0, 0],
        [0, 5, 0, 1, 0, 26 * us, 30 * us, 0, 0],
        # replay tracer (index = connections): wait-path dictionary decode
        [1, 6, 0, 1, 0, 40 * us, 40 * us + 500, 100, 1],
    ]
    latency = [(i + 1) * us for i in range(100)]
    segment = {"window_s": 2.0, "completed": 100, "logical_bytes": 200,
               "bytes_out": 100, "bytes_in": 200, "syscalls": 400,
               "steal_share": 0.0, "ends": [100], "wan_wire_s": 0.006}
    phase = {"attempted": 100, "failed": 0, "errors": [],
             "latency_ns": latency, "ttfb_ns": [], "segments": [segment]}
    traced = {"attempted": 10, "failed": 0, "errors": [],
              "latency_ns": [30 * us] * 10, "ttfb_ns": [],
              "segments": [dict(segment, completed=10, ends=[10])]}
    return {
        "workload": "rpc_small", "family": "materialized", "seed": 1,
        "trace": 1, "uses_cache": True, "connections": 1,
        "setup_s": [0.3, 0.1, 0.2, 0.9],
        "setup_steal_share": [0.0, 0.0, 0.0, 0.2],
        "untraced": phase, "traced": traced,
        "replay": {"exchanges": 1, "dict_saved_bytes": 50,
                   "compress_plain_bytes": 100, "compress_wire_bytes": 100},
        "span_names": names, "spans": spans, "server_exchanges": 200,
        "registry": {
            "counters": {"event.reactor.wakeups": 300,
                         "event.respcache.hits": 3,
                         "event.respcache.misses": 1,
                         "event.pool.hit": 9, "event.pool.miss": 1,
                         "event.sec.verify.ns": 0,
                         "event.sec.bytes_authenticated": 0},
            "histograms": {
                "event.stage.deserialize.ns": {"count": 2, "sum": 2 * us},
                "event.stage.handler.ns": {"count": 2, "sum": 4 * us},
                "event.stage.serialize.ns": {"count": 2, "sum": 6 * us}},
            "waterlines": {"event.queue.waterline": {"value": 0, "peak": 2},
                           "event.stream.buffered_bytes": {"value": 0,
                                                           "peak": 0}},
        },
        "peak_rss_kib": 2048,
    }


if __name__ == "__main__":
    unittest.main()
