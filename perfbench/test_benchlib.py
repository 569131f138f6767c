"""Self-tests of the benchmark's own arithmetic on synthetic inputs.

    python3 perfbench/test_benchlib.py
"""

import json
import os
import statistics
import tempfile
import unittest

import benchlib


def span(id_, name, parent, t0, t1, **args):
    return {"id": id_, "name": name, "parent": parent, "t0": t0, "t1": t1, "args": args}


# One source: a journey of two reported rounds plus the fixpoint round,
# then a past-fixpoint hop, the flooding pass and a merge.
#   journey.run      [1.0, 2.0]
#     accumulate     [1.3, 1.4]  round 1 inserts 500
#     accumulate     [1.6, 1.65] round 2 inserts 5
#   accumulate       [2.0, 2.1]  hop 3, past the fixpoint
#   accumulate       [2.1, 2.2]  flooding
#   delay_cdf.merge  [2.2, 2.25]
SPANS = [
    span(0, "solve", -1, 1.0, 2.5, n_contacts=1000),
    span(1, "source", 0, 1.0, 2.25),
    span(2, "journey.run", 1, 1.0, 2.0, rounds=2),
    span(3, "delay_cdf.accumulate", 2, 1.3, 1.4, hop=1, changed=500, calls=9, in_round=True),
    span(4, "delay_cdf.accumulate", 2, 1.6, 1.65, hop=2, changed=5, calls=9, in_round=True),
    span(5, "delay_cdf.accumulate", 1, 2.0, 2.1, hop=3, changed=0, calls=9, in_round=False),
    span(6, "delay_cdf.accumulate", 1, 2.1, 2.2, hop=0, changed=0, calls=9, in_round=False),
    span(7, "delay_cdf.merge", 1, 2.2, 2.25),
]


class Quartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(benchlib.spread(values), 5.5 / 5.5)

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)
        self.assertEqual(benchlib.spread([2.0]), 0.0)


class Ratios(unittest.TestCase):
    def test_pool_efficiency(self):
        self.assertAlmostEqual(benchlib.pool_efficiency(4.0, 2.0), 1.0)
        self.assertAlmostEqual(benchlib.pool_efficiency(4.0, 2.5), 0.8)

    def test_unchanged_share(self):
        self.assertAlmostEqual(benchlib.unchanged_share(37, 100), 0.37)
        self.assertEqual(benchlib.unchanged_share(0, 0), 0.0)


class Rounds(unittest.TestCase):
    def test_sparse_threshold_is_one_percent_of_contacts(self):
        self.assertFalse(benchlib.is_sparse(10, 1000, False))
        self.assertTrue(benchlib.is_sparse(9, 1000, False))
        self.assertTrue(benchlib.is_sparse(0, 1000, True))

    def test_round_rows_partition_the_journey(self):
        rows = benchlib.journey_rounds(SPANS)
        self.assertEqual([(c, f) for c, _, f, _ in rows],
                         [(500, False), (5, False), (0, True)])
        for got, want in zip([s for _, s, _, _ in rows], [0.3, 0.2, 0.35]):
            self.assertAlmostEqual(got, want)
        # sweeps plus callbacks cover the journey exactly
        self.assertAlmostEqual(sum(s for _, s, _, _ in rows) + 0.1 + 0.05, 1.0)

    def test_sparse_sweep_counts_small_and_fixpoint_rounds(self):
        rows = benchlib.journey_rounds(SPANS)
        self.assertAlmostEqual(benchlib.sparse_sweep_s(rows), 0.2 + 0.35)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        st = benchlib.self_times(SPANS)
        self.assertAlmostEqual(st["journey.run"], 1.0 - 0.15)
        self.assertAlmostEqual(st["delay_cdf.accumulate"], 0.1 + 0.05 + 0.1 + 0.1)
        self.assertAlmostEqual(st["source"], 1.25 - 1.0 - 0.2 - 0.05)

    def test_coverage_counts_layer_self_time_under_solve(self):
        # layers: journey 0.85 + accumulate 0.35 + merge 0.05 = 1.25 of 1.5
        self.assertAlmostEqual(benchlib.layer_coverage(SPANS), 1.25 / 1.5)

    def test_load_spans_reads_chrome_events(self):
        events = [{"name": "x", "ph": "X", "ts": 1e6, "dur": 5e5,
                   "args": {"id": 0, "parent": -1, "n_contacts": 3}}]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": events}, f)
            (s,) = benchlib.load_spans(path)
        self.assertEqual((s["t0"], s["t1"], s["args"]), (1.0, 1.5, {"n_contacts": 3}))


class Inputs(unittest.TestCase):
    def test_permutation_is_seeded_and_keeps_fixed_points(self):
        p = benchlib.permutation(7, 20, fixed=(0, 5))
        self.assertEqual(sorted(p), list(range(20)))
        self.assertEqual((p[0], p[5]), (0, 5))
        self.assertEqual(p, benchlib.permutation(7, 20, fixed=(0, 5)))
        self.assertNotEqual(p, benchlib.permutation(8, 20, fixed=(0, 5)))

    def test_relabel_keeps_headers_and_times(self):
        text = "# omn-trace 1\n# nodes 3\n0 1 0.5 2\n1 2 3 4.25\n"
        self.assertEqual(benchlib.relabel_text(text, [2, 0, 1]),
                         "# omn-trace 1\n# nodes 3\n2 0 0.5 2\n0 1 3 4.25\n")

    def test_top_heap_words(self):
        self.assertEqual(benchlib.top_heap_words("heap_words: 5\ntop_heap_words: 42\n"), 42)
        self.assertIsNone(benchlib.top_heap_words(""))


class Records(unittest.TestCase):
    def record(self, digest, value):
        return {"workload": "w", "trace": 0, "inputs": {"sha256": {"f": digest}},
                "metrics": {"total_s": {"value": value, "unit": "s"}}}

    def test_same_inputs_compare_by_median(self):
        rows, unmatched = benchlib.compare(
            [self.record("a", v) for v in (1, 2, 3)], [self.record("a", v) for v in (4, 5)])
        (row,) = rows
        self.assertEqual(row[:2], ("w", "total_s"))
        self.assertEqual(row[2], (2, benchlib.spread([1, 2, 3])))
        self.assertEqual(row[3], (4.5, benchlib.spread([4, 5])))
        self.assertEqual(unmatched, [])

    def test_different_inputs_are_never_compared(self):
        rows, unmatched = benchlib.compare([self.record("a", 1)], [self.record("b", 1)])
        self.assertEqual(rows, [])
        self.assertEqual(sorted(unmatched), [("w", "new"), ("w", "old")])


if __name__ == "__main__":
    unittest.main()
