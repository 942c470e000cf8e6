#!/usr/bin/env python3
"""Tests of the benchmark's output checks: a clean record passes, and a
tampered record or a mismatched fingerprint is rejected.

    python3 perfbench/test_run.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def session(role, index, fingerprint="465d54a9e8021608"):
    return {
        "role": role,
        "index": index,
        "fingerprint": fingerprint,
        "reference": "465d54a9e8021608",
        "stable_continuity": 0.9196566237446347,
        "continuity_index": 0.98,
        "control_overhead": 0.018,
        "prefetch_overhead": 0.037,
        "nodes": 8000,
        "segments_emitted": 249,
        "segments_delivered": 1900000,
        "duplicate_deliveries": 48000,
        "events": 8613394,
    }


def record(trace=0):
    return {
        "trace": trace,
        "replications": 1,
        "setup_s": [0.08, 0.07, 0.09],
        "wall_s": [14.1],
        "cpu_s": [16.5],
        "continuity": [0.9196566237446347],
        "peak_rss_mb": 34.1,
        "sessions": [session("reference", 0), session("measured", 0)],
        "layers": [{"name": "sim.events", "unit": "count", "value": 8613394}],
    }


class OutputChecks(unittest.TestCase):
    def assert_rejected(self, raw, reason):
        result, failures = run.evaluate(raw)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(reason in f for f in failures), failures)

    def test_clean_record_passes(self):
        result, failures = run.evaluate(record())
        self.assertEqual(failures, [])
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (True, 2, 0))
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.08)

    def test_traced_record_reports_layers(self):
        result, failures = run.evaluate(record(trace=1))
        self.assertEqual(failures, [])
        self.assertEqual(result["metrics"], {"sim.events": {"value": 8613394, "unit": "count"}})

    def test_mismatched_fingerprint_is_rejected(self):
        raw = record()
        raw["sessions"][1]["fingerprint"] = "465d54a9e8021609"
        self.assert_rejected(raw, "threads-1 reference")
        self.assertEqual(run.evaluate(raw)[0]["failed"], 1)

    def test_tampered_continuity_is_rejected(self):
        raw = record()
        raw["sessions"][1]["stable_continuity"] = 1.25
        self.assert_rejected(raw, "outside [0, 1]")

    def test_non_finite_metric_is_rejected(self):
        raw = record()
        raw["sessions"][0]["prefetch_overhead"] = float("nan")
        self.assert_rejected(raw, "not finite")

    def test_segments_from_thin_air_are_rejected(self):
        raw = record()
        raw["sessions"][1]["segments_delivered"] = 249 * 8000 + 1
        self.assert_rejected(raw, "emitted")

    def test_more_duplicates_than_deliveries_are_rejected(self):
        raw = record()
        raw["sessions"][1]["duplicate_deliveries"] = 1900001
        self.assert_rejected(raw, "duplicates")

    def test_missing_reference_is_rejected(self):
        raw = record()
        raw["sessions"] = [session("measured", 0)]
        self.assert_rejected(raw, "reference sessions")

    def test_non_positive_end_to_end_metric_is_rejected(self):
        raw = record()
        raw["wall_s"] = [0.0]
        self.assert_rejected(raw, "not positive")

    def test_checks_do_not_modify_the_record(self):
        raw = record()
        before = copy.deepcopy(raw)
        run.evaluate(raw)
        self.assertEqual(raw, before)


if __name__ == "__main__":
    unittest.main()
