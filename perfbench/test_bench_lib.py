"""Tests of the benchmark's own helpers. No simulation runs; the whole
file takes milliseconds:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import bench_lib as bl


class TailPercentile(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 100 samples
        self.assertEqual(bl.tail_percentile(samples), (90, 90.0, 10))
        samples = list(range(1, 1001))
        self.assertEqual(bl.tail_percentile(samples), (990, 99.0, 10))

    def test_percentile_follows_the_sample_count(self):
        # 199 and 201 samples straddle p95's ten-beyond point; the tail
        # moves by one rank instead of jumping from p90 to p95.
        low = bl.tail_percentile(list(range(1, 200)))
        high = bl.tail_percentile(list(range(1, 202)))
        self.assertEqual((low[0], low[2]), (189, 10))
        self.assertEqual((high[0], high[2]), (191, 10))
        self.assertAlmostEqual(low[1], 100.0 * 189 / 199)
        self.assertAlmostEqual(high[1], 100.0 * 191 / 201)

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10  # 50 samples
        self.assertEqual(bl.tail_percentile(samples),
                         bl.tail_percentile(sorted(samples)))

    def test_too_few_samples_fall_back_to_max(self):
        value, pct, beyond = bl.tail_percentile([3.0, 1.0, 2.0])
        self.assertEqual((value, pct, beyond), (3.0, 100.0, 0))

    def test_no_tail_below_p75(self):
        # 39 samples put ten-beyond at p74.4: not a tail, so the max.
        self.assertEqual(bl.tail_percentile(list(range(39))),
                         (38, 100.0, 0))
        self.assertEqual(bl.tail_percentile(list(range(40))),
                         (29, 75.0, 10))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.tail_percentile([])


class HostNormalised(unittest.TestCase):
    def test_slow_host_phase_cancels(self):
        # The same operation on a host running at half speed: wall time
        # and probe both double, and the scaled times agree.
        times = bl.host_normalised([2.0, 4.0], [0.01, 0.02], 0.01)
        self.assertEqual(times, [2.0, 2.0])

    def test_program_slowdown_shows_in_full(self):
        # A 20% slower program on a steady host reads 20% slower.
        base = bl.host_normalised([2.0], [0.008], 0.008)[0]
        slow = bl.host_normalised([2.4], [0.008], 0.008)[0]
        self.assertAlmostEqual(slow / base, 1.2)

    def test_one_probe_per_time(self):
        with self.assertRaises(ValueError):
            bl.host_normalised([1.0, 2.0], [0.01], 0.01)


class FailedOps(unittest.TestCase):
    def test_counts_only_failed_checks(self):
        self.assertEqual(bl.count_failed([True, False, True, False]), 2)
        self.assertEqual(bl.count_failed([]), 0)
        self.assertEqual(bl.count_failed([True] * 5), 0)

    def test_serve_check_rejects_each_kind_of_wrong_output(self):
        ref = {"estimate": {"ipc": 1.0}}
        good = {"status": "ok", "point_status": "ok", "warm_hits": 4,
                "intervals": 4, "estimate": {"ipc": 1.0}}
        self.assertTrue(bl.serve_op_ok(good, ref, 4))
        for field, bad in (("status", "failed"), ("point_status", "failed"),
                           ("warm_hits", 3), ("estimate", {"ipc": 1.1})):
            wrong = dict(good, **{field: bad})
            self.assertFalse(bl.serve_op_ok(wrong, ref, 4), field)
        checks = [bl.serve_op_ok(s, ref, 4)
                  for s in (good, dict(good, warm_hits=0), good)]
        self.assertEqual(bl.count_failed(checks), 1)


def span(i, name, start, end, parent=-1, count=1):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "op": 0, "count": count}


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        spans = [span(0, "sim.run", 0.0, 10.0),
                 span(1, "core.a", 1.0, 3.0, 0),
                 span(2, "core.b", 5.0, 6.0, 0)]
        st = bl.self_times(spans)
        self.assertAlmostEqual(st[0], 7.0)
        self.assertAlmostEqual(st[1], 2.0)

    def test_overlapping_children_count_once(self):
        # Two workers' children overlap on [3, 4]: union is [2, 6].
        spans = [span(0, "search.tier3", 0.0, 10.0),
                 span(1, "sim.a", 2.0, 4.0, 0),
                 span(2, "sim.b", 3.0, 6.0, 0)]
        self.assertAlmostEqual(bl.self_times(spans)[0], 6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, "serve.request", 0.0, 1.0),
                 span(1, "warp.point", 0.5, 1.5, 0)]
        self.assertAlmostEqual(bl.self_times(spans)[0], 0.5)

    def test_nested_child_inside_another(self):
        spans = [span(0, "x.p", 0.0, 10.0),
                 span(1, "x.a", 1.0, 9.0, 0),
                 span(2, "x.b", 2.0, 3.0, 0)]
        self.assertAlmostEqual(bl.self_times(spans)[0], 2.0)

    def test_aggregate_children_subtract_as_a_sum(self):
        # Three aggregate spans share the parent's start; summed they
        # cover 9 of the loop's 10 seconds.
        spans = [span(0, "sim.loop", 0.0, 10.0),
                 span(1, "core.frontend.tick", 0.0, 4.0, 0, count=1000),
                 span(2, "core.backend.tick", 0.0, 3.0, 0, count=1000),
                 span(3, "bpu.tick", 0.0, 2.0, 0, count=1000)]
        self.assertAlmostEqual(bl.self_times(spans)[0], 1.0)
        layers = bl.layer_self_times(spans)
        self.assertAlmostEqual(layers["core"], 7.0)
        self.assertAlmostEqual(layers["bpu"], 2.0)
        self.assertAlmostEqual(layers["sim"], 1.0)

    def test_renumber_keeps_parent_links(self):
        spans = [span(0, "a.x", 0.0, 2.0), span(1, "a.y", 0.5, 1.0, 0)]
        out = bl.renumber(spans, 10)
        self.assertEqual([s["id"] for s in out], [10, 11])
        self.assertEqual(out[1]["parent"], 10)
        self.assertEqual(out[0]["parent"], -1)


class Progress(unittest.TestCase):
    LINES = [
        (0.10, "cobra_search: pool: 32 candidates (0 anchors over budget)"),
        (0.60, "cobra_search: tier 0: 10 seed evaluations"),
        (0.61, "cobra_search: surrogate: rmse 0.0020"),
        (1.20, "cobra_search: tier 1: 14 functional survivors"),
        (4.00, "cobra_search: tier 2: 5 warp rankings"),
        (9.00, "cobra_search: tier 3: 5 certified"),
        (9.01, "cobra_search: frontier: 3 points"),
        (9.02, "cobra_search: seed 7, pool 32, 18 functional / ..."),
    ]

    def test_tier_times_sum_to_the_process_time(self):
        t = bl.parse_progress(self.LINES, 0.0, 9.05)
        self.assertTrue(t["complete"])
        self.assertAlmostEqual(t["search.pool_s"], 0.10)
        self.assertAlmostEqual(t["search.tier0_s"], 0.50)
        self.assertAlmostEqual(t["search.surrogate_s"], 0.01)
        self.assertAlmostEqual(t["search.tier2_warp_s"], 2.80)
        self.assertAlmostEqual(t["search.tier3_detailed_s"], 5.00)
        self.assertAlmostEqual(t["search.exit_s"], 0.04)
        total = sum(v for k, v in t.items() if k != "complete")
        self.assertAlmostEqual(total, 9.05)

    def test_missing_surrogate_line_is_zero(self):
        lines = [l for l in self.LINES if "surrogate" not in l[1]]
        t = bl.parse_progress(lines, 0.0, 9.05)
        self.assertEqual(t["search.surrogate_s"], 0.0)
        self.assertAlmostEqual(t["search.tier1_s"], 0.60)
        self.assertTrue(t["complete"])

    def test_truncated_progress_is_incomplete(self):
        t = bl.parse_progress(self.LINES[:3], 0.0, 1.0)
        self.assertFalse(t["complete"])
        self.assertEqual(t["search.tier3_detailed_s"], 0.0)


class ServeResult(unittest.TestCase):
    DOC = {
        "tool": "cobra_serve", "id": "op1", "client": "perfbench",
        "priority": 1, "status": "ok",
        "points": [{
            "label": "TAGE-L/mcf", "status": "ok", "attempts": 1,
            "cycles": 1000, "insts": 400000, "ipc": 0.3,
            "warp": {"intervals": 4, "warm_hits": 4, "ff_insts": 0,
                     "ipc_ci95": 0.01, "mpki_ci95": 0.2},
            "wall_seconds": 0.16,
        }],
    }

    def test_parses_point_fields(self):
        s = bl.parse_serve_result(self.DOC)
        self.assertEqual(s["status"], "ok")
        self.assertEqual(s["warm_hits"], 4)
        self.assertEqual(s["intervals"], 4)
        self.assertAlmostEqual(s["wall_seconds"], 0.16)
        self.assertNotIn("wall_seconds", s["estimate"])
        self.assertNotIn("warm_hits", s["estimate"]["warp"])
        self.assertEqual(s["estimate"]["warp"]["ipc_ci95"], 0.01)

    def test_cold_and_warm_estimates_compare_equal(self):
        cold = {**self.DOC, "id": "prime"}
        cold["points"] = [dict(self.DOC["points"][0], wall_seconds=1.7,
                               warp=dict(self.DOC["points"][0]["warp"],
                                         warm_hits=0, ff_insts=520000))]
        self.assertEqual(bl.parse_serve_result(cold)["estimate"],
                         bl.parse_serve_result(self.DOC)["estimate"])

    def test_rejected_document_has_no_point(self):
        s = bl.parse_serve_result({"status": "rejected",
                                   "reason": "queue_full", "points": []})
        self.assertEqual(s["points"], 0)
        self.assertNotIn("estimate", s)
        self.assertFalse(bl.serve_op_ok(s, {"estimate": {}}, 4))


if __name__ == "__main__":
    unittest.main()
