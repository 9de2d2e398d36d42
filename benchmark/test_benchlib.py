"""Tests of the benchmark's own rules (benchlib.py) and of the
agreement between BENCHMARK.json and run.py.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import benchlib
import run

HERE = Path(__file__).resolve().parent


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples: rank 990, ten beyond it.
        values = list(range(1, 1001))
        self.assertEqual(benchlib.tail_percentile(values), (99.0, 990, 1000))

    def test_falls_back_to_the_highest_supported_percentile(self):
        # 999 samples: p99 has rank 990 and only nine beyond; p95 has
        # rank 950 and 49 beyond.
        values = list(range(1, 1000))
        self.assertEqual(benchlib.tail_percentile(values), (95.0, 950, 999))
        # 40 samples: p75 (rank 30) is the highest with ten beyond.
        self.assertEqual(benchlib.tail_percentile(list(range(1, 41))),
                         (75.0, 30, 40))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(benchlib.tail_percentile([3.0, 1.0, 2.0]),
                         (100.0, 3.0, 3))

    def test_order_of_samples_does_not_matter(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.tail_percentile(values[::-1]),
                         benchlib.tail_percentile(values))

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([])


class Aggregation(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q2, q3))
        self.assertEqual(benchlib.median(values), 5.5)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchlib.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(benchlib.relative_spread([2.5]), 0.0)

    def test_relative_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.relative_spread(values),
                               (q3 - q1) / q2)

    def test_e2e_metrics_use_medians(self):
        metrics = run.e2e_metrics([3.0, 1.0, 2.0], [0.2, 0.1, 0.3],
                                  [100.0, 300.0, 200.0])
        self.assertEqual(metrics, {"wall_s": 2.0, "setup_s": 0.2,
                                   "peak_rss_mib": 200.0})


class GoldenSplitter(unittest.TestCase):
    OUT = ("===== fig1/ipc =====\n\n"
           "Figure 1\nrow\n"
           "\n"
           "===== sec3e/plackett_burman =====\n\n"
           "PB table\n"
           "\n")

    def test_sections_are_byte_exact_bodies(self):
        self.assertEqual(benchlib.split_sections(self.OUT), [
            ("fig1/ipc", "Figure 1\nrow\n"),
            ("sec3e/plackett_burman", "PB table\n"),
        ])

    def test_body_keeps_inner_blank_lines(self):
        out = "===== a/b =====\n\nx\n\ny\n\n"
        self.assertEqual(benchlib.split_sections(out), [("a/b", "x\n\ny\n")])

    def test_no_sections(self):
        self.assertEqual(benchlib.split_sections("no figures\n"), [])

    def test_figure_list_maps_titles_to_ids(self):
        listing = "fig1               fig1/ipc\npb                 sec3e/plackett_burman\n"
        self.assertEqual(benchlib.parse_figure_list(listing),
                         {"fig1/ipc": "fig1", "sec3e/plackett_burman": "pb"})

    def test_mismatches_name_missing_and_differing_figures(self):
        titles = {"fig1/ipc": "fig1", "sec3e/plackett_burman": "pb"}
        golden = {"fig1": "Figure 1\nrow\n", "pb": "PB table\n",
                  "fig2": "Figure 2\n"}
        self.assertEqual(benchlib.figure_mismatches(self.OUT, titles, golden),
                         ["fig2"])
        golden["pb"] = "PB table changed\n"
        self.assertEqual(benchlib.figure_mismatches(self.OUT, titles, golden),
                         ["fig2", "pb"])


class FailureCounting(unittest.TestCase):
    def test_booleans(self):
        self.assertEqual(benchlib.count_failures([True, False, True]), (3, 1))

    def test_status_codes(self):
        # 0 served; 1 not served; 2 served with a wrong payload.
        self.assertEqual(benchlib.count_failures([0, 1, 0, 2, 0]), (5, 2))

    def test_mixed_and_empty(self):
        self.assertEqual(benchlib.count_failures([True, 0, False, 2]), (4, 2))
        self.assertEqual(benchlib.count_failures([]), (0, 0))


class MetricsReads(unittest.TestCase):
    DOC = {
        "schema": 1,
        "stable": {
            "gpusim": {"sims_run": 3,
                       "sim": {"cycles": {"a/s2/v0/x": 10, "b/s2/v0/x": 5}}},
            "store": {"hits": 7},
        },
        "volatile": {
            "store": {"load_us": {"count": 2, "sum": 30, "min": 10,
                                  "max": 20, "buckets": {"8": 1, "16": 1}}},
            "service": {"queue_wait_us": {
                "warm": {"count": 1, "sum": 4, "min": 4, "max": 4,
                         "buckets": {"4": 1}},
                "cold": {"count": 3, "sum": 9, "min": 1, "max": 5,
                         "buckets": {"1": 1, "4": 2}}}},
        },
    }

    def test_counters(self):
        self.assertEqual(benchlib.metric_total(self.DOC, "gpusim.sims_run"), 3)
        self.assertEqual(benchlib.metric_total(self.DOC, "gpusim.sim.cycles"),
                         15)
        self.assertEqual(benchlib.metric_labels(self.DOC, "gpusim.sim.cycles"),
                         2)
        self.assertEqual(benchlib.metric_total(self.DOC, "store.misses"), 0)

    def test_histograms(self):
        self.assertEqual(benchlib.histogram_totals(self.DOC, "store.load_us"),
                         (2, 30))
        self.assertEqual(
            benchlib.histogram_totals(self.DOC, "service.queue_wait_us"),
            (4, 13))
        self.assertEqual(benchlib.histogram_totals(self.DOC, "nope"), (0, 0))


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
