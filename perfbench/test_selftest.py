"""Self-tests of the benchmark's own rules (no program run needed).

Run: ``python3 -m pytest -q perfbench/test_selftest.py`` or
``python3 perfbench/test_selftest.py``.
"""

from __future__ import annotations

import math
import unittest

import mix
from benchstats import (Ladder, Phase, layer_totals, max_rate_rps,
                        self_times_ns, tail)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(tail(values), (90.0, 90.0))
        value, _ = tail(values)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1000, 0, -1)]
        self.assertEqual(tail(values), (990.0, 99.0))

    def test_small_samples_report_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(tail([float(v) for v in range(20)]), (19.0, 100.0))

    def test_smallest_sample_with_a_percentile(self):
        value, pct = tail([float(v) for v in range(21)])
        self.assertEqual(value, 10.0)
        self.assertAlmostEqual(pct, 100 * 11 / 21)

    def test_failures_are_infinitely_late(self):
        values = [0.001] * 100 + [math.inf] * 11
        self.assertTrue(math.isinf(tail(values)[0]))

    def test_empty(self):
        self.assertTrue(math.isnan(tail([])[0]))


class Seeds(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = mix.arrival_offsets(7, "x", 100.0, 3.0)
        self.assertEqual(a, mix.arrival_offsets(7, "x", 100.0, 3.0))
        self.assertNotEqual(a, mix.arrival_offsets(8, "x", 100.0, 3.0))
        self.assertNotEqual(a, mix.arrival_offsets(7, "y", 100.0, 3.0))
        self.assertEqual(len(a), 300)
        self.assertEqual(a, sorted(a))
        self.assertTrue(all(0.0 <= t <= 3.0 for t in a))

    def test_same_seed_same_queries(self):
        queries = mix.cli_queries(7, 40)
        self.assertEqual(queries, mix.cli_queries(7, 40))
        self.assertNotEqual(queries, mix.cli_queries(8, 40))
        self.assertEqual(queries[0], mix.ANCHOR_QUERY)
        self.assertEqual({q["model"] for q in queries}, set(mix.MODELS))
        self.assertEqual({q["kind"] for q in queries}, set(mix.QUERY_KINDS))

    def test_churn_bodies_repeat_per_seed_and_never_share_a_key(self):
        def draw(seed):
            bodies = mix.ChurnBodies(seed, "p", 3)
            return [bodies.next() for _ in range(200)]

        first = draw(7)
        self.assertEqual(first, draw(7))
        self.assertNotEqual(first, draw(8))
        self.assertEqual(len({mix.encode(r) for r in first}), 200)
        models = {r[2]["model"] for r in first}
        self.assertEqual(models, set(mix.MODELS))

    def test_hot_pool_repeats_per_seed_and_its_draws_repeat_it(self):
        pool = mix.hot_pool(7)
        self.assertEqual(pool, mix.hot_pool(7))
        self.assertNotEqual(pool, mix.hot_pool(8))
        self.assertEqual(len({mix.encode(r) for r in pool}), mix.HOT_POOL)
        self.assertTrue(all(r[2]["batch" if r[1] != "/pareto" else "batches"]
                            in (mix.WARM_BATCH, [mix.WARM_BATCH]) for r in pool))
        self.assertTrue(all("samples" not in r[2] for r in pool))
        draws = mix.hot_requests(7, "hot", pool, 500)
        self.assertEqual(draws, mix.hot_requests(7, "hot", pool, 500))
        self.assertLess(len({mix.encode(r) for r in draws}), len(draws))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ("root", 0, 100, -1),
            ("a", 10, 40, 0),
            ("b", 30, 60, 0),   # overlaps a: the union covers 10..60
            ("c", 15, 20, 1),
            ("d", 90, 120, 0),  # runs past its parent: clipped to 90..100
        ]
        self.assertEqual(self_times_ns(spans), [40, 25, 30, 5, 30])

    def test_layer_totals(self):
        spans = [
            ("root", 0, 1_000_000_000, -1),
            ("x", 0, 400_000_000, 0),
            ("x", 100_000_000, 300_000_000, 1),  # x inside x: one call
            ("y", 500_000_000, 600_000_000, 0),
        ]
        totals = layer_totals(spans)
        self.assertAlmostEqual(totals["root"][0], 0.5)
        self.assertAlmostEqual(totals["x"][0], 0.4)
        self.assertAlmostEqual(totals["x"][1], 0.4)
        self.assertEqual(totals["x"][2], 1)
        windowed = layer_totals(spans, (450_000_000, 700_000_000))
        self.assertEqual(set(windowed), {"y"})

    def test_self_times_add_up_to_the_root(self):
        spans = [("root", 0, 50, -1), ("a", 5, 25, 0), ("b", 10, 20, 1)]
        self.assertEqual(sum(self_times_ns(spans)), 50)


def _phase(rate, latencies, backlog=0, window=1.0):
    return Phase(f"r{rate}", rate, latencies, backlog, [0.0], window)


class MaxRate(unittest.TestCase):
    def test_highest_passing_phase_wins(self):
        phases = [
            _phase(100, [0.001] * 100, window=1.01),
            _phase(200, [0.002] * 200, window=1.02),
            _phase(400, [0.5] * 400),
        ]
        self.assertAlmostEqual(max_rate_rps(phases, 25.0), 200 / 1.02)

    def test_growing_backlog_does_not_count(self):
        phases = [_phase(100, [0.001] * 100), _phase(200, [0.001] * 200, 15)]
        self.assertFalse(phases[1].passes(25.0))
        self.assertAlmostEqual(max_rate_rps(phases, 25.0), 100.0)
        self.assertTrue(_phase(200, [0.001] * 200, 14).passes(25.0))

    def test_failures_miss_the_limit(self):
        failing = _phase(100, [0.001] * 89 + [math.inf] * 11)
        self.assertEqual(failing.failed, 11)
        self.assertFalse(failing.passes(25.0))
        self.assertEqual(max_rate_rps([failing], 25.0), 0.0)
        few = _phase(100, [0.001] * 90 + [math.inf] * 10, window=1.0)
        self.assertTrue(few.passes(25.0))
        self.assertAlmostEqual(few.offered_rps, 100.0)

    def test_limit_is_strict(self):
        self.assertFalse(_phase(50, [0.025] * 50).passes(25.0))


def _climb(capacity_rung, flaky=()):
    """Run a Ladder against a program that passes every rung up to
    ``capacity_rung``, except the (rung, coarse, attempt) in ``flaky``."""
    ladder = Ladder(4.0, 1.15, 3, 30)
    tried = []
    step = ladder.next()
    while step is not None:
        tried.append(step)
        ladder.record(step[0] <= capacity_rung and step not in flaky)
        step = ladder.next()
    return tried


def _climb_lenient(capacity_rung, coarse_capacity_rung):
    """Like :func:`_climb`, but short (coarse) phases pass up to
    ``coarse_capacity_rung``."""
    ladder = Ladder(4.0, 1.15, 3, 30)
    tried = []
    step = ladder.next()
    while step is not None:
        tried.append(step)
        limit = coarse_capacity_rung if step[1] else capacity_rung
        ladder.record(step[0] <= limit)
        step = ladder.next()
    return tried


class LadderRule(unittest.TestCase):
    def test_coarse_then_fine_then_one_retry(self):
        self.assertEqual(_climb(19), [
            (0, True, 0), (3, True, 0), (6, True, 0), (9, True, 0),
            (12, True, 0), (15, True, 0), (18, True, 0), (21, True, 0),
            (21, True, 1), (18, False, 0), (19, False, 0), (20, False, 0),
            (20, False, 1),
        ])

    def test_a_lenient_coarse_pass_is_descended_from(self):
        # Short phases pass rung 18 though full ones only hold rung 16.
        tried = _climb(16)
        tried_lenient = _climb_lenient(16, 18)
        self.assertEqual(tried[-3:], [(16, False, 0), (17, False, 0),
                                      (17, False, 1)])
        self.assertEqual(tried_lenient[-4:], [(18, False, 0), (18, False, 1),
                                              (17, False, 0), (16, False, 0)])

    def test_a_stall_on_a_coarse_rung_is_run_again(self):
        tried = _climb(17, flaky={(9, True, 0)})
        self.assertEqual(tried[:6], [(0, True, 0), (3, True, 0), (6, True, 0),
                                     (9, True, 0), (9, True, 1), (12, True, 0)])
        self.assertEqual(tried[-2:], [(18, False, 0), (18, False, 1)])

    def test_a_coarse_rung_failing_twice_is_climbed_past(self):
        tried = _climb(17, flaky={(9, True, 0), (9, True, 1)})
        self.assertEqual(tried[:6], [(0, True, 0), (3, True, 0), (6, True, 0),
                                     (9, True, 0), (9, True, 1), (6, False, 0)])
        self.assertEqual(tried[-2:], [(18, False, 0), (18, False, 1)])

    def test_a_fine_rung_passing_on_retry_continues(self):
        tried = _climb(17, flaky={(16, False, 0)})
        self.assertIn((16, False, 1), tried)
        self.assertIn((17, False, 0), tried)

    def test_a_very_slow_program_ends_at_rung_zero(self):
        self.assertEqual(_climb(-1), [(0, True, 0), (0, True, 1),
                                      (0, False, 0), (0, False, 1)])

    def test_rates_and_the_top(self):
        ladder = Ladder(4.0, 1.15, 3, 30)
        self.assertEqual(ladder.rate(0), 4.0)
        self.assertEqual(ladder.rate(18), round(4.0 * 1.15 ** 18, 2))
        self.assertLessEqual(max(r for r, _, _ in _climb(1000)), 30)


if __name__ == "__main__":
    unittest.main()
