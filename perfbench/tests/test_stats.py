"""Tests of the benchmark's statistics and wire parsing.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import framing  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.8, 10.4, 10.1, 9.9, 10.0, 10.7, 10.2, 9.7, 10.3, 10.05]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_relative_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / 3.0)

    def test_empty_and_single_samples_are_refused(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.median([])
        with self.assertRaises(stats.InsufficientSamples):
            stats.quartiles([1.0])


class TailRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: nearest rank 990, ten beyond it -> allowed.
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), 990)
        # 999 samples: rank 990, nine beyond -> refused.
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(1, 1000)), 99)

    def test_p90_boundary(self):
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(1, 100)), 90)

    def test_median_is_exempt(self):
        self.assertEqual(stats.percentile([5.0, 1.0, 3.0], 50), 3.0)

    def test_percentile_range_is_checked(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0, 2.0], 100)


class HistogramPercentiles(unittest.TestCase):
    BOUNDS = [0.05, 0.1, 0.25, 0.5, 1.0]

    def test_interpolates_inside_the_bucket(self):
        counts = [0, 0, 100, 0, 0, 0]  # all in (0.1, 0.25]
        self.assertAlmostEqual(stats.histogram_percentile(self.BOUNDS, counts, 50),
                               0.1 + 0.15 * 50 / 100)

    def test_first_bucket_starts_at_zero(self):
        counts = [40, 0, 0, 0, 0, 0]
        self.assertAlmostEqual(stats.histogram_percentile(self.BOUNDS, counts, 50),
                               0.05 * 20 / 40)

    def test_p99_across_buckets(self):
        counts = [0, 900, 90, 10, 0, 0]  # 1000 samples, rank 990 ends bucket 2
        self.assertAlmostEqual(stats.histogram_percentile(self.BOUNDS, counts, 99), 0.25)
        counts = [0, 900, 89, 11, 0, 0]  # rank 990 is the 1st of bucket 3
        self.assertAlmostEqual(stats.histogram_percentile(self.BOUNDS, counts, 99),
                               0.25 + 0.25 / 11)

    def test_tail_rule_applies_to_histograms(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.histogram_percentile(self.BOUNDS, [0, 50, 49, 0, 0, 0], 99)

    def test_overflow_bucket_has_no_value(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.histogram_percentile(self.BOUNDS, [0, 0, 0, 0, 0, 20], 50)

    def test_shape_is_checked(self):
        with self.assertRaises(ValueError):
            stats.histogram_percentile(self.BOUNDS, [1, 2], 50)


class ResultFraming(unittest.TestCase):
    DOC = b'{\n  "spec": "table3",\n  "rows": [1, 2]\n}\n'

    def result_bytes(self, payload):
        header = {"event": "result", "id": "r1", "spec": "table3", "key": "table3-00",
                  "cache_hit": True, "coalesced": False, "bytes": len(payload)}
        return json.dumps(header).encode() + b"\n" + payload

    def test_payload_with_newlines_is_taken_by_length(self):
        f = framing.Framer()
        f.feed(b'{"event":"accepted","id":"r1"}\n' + self.result_bytes(self.DOC))
        self.assertEqual(f.next_event(), ({"event": "accepted", "id": "r1"}, None))
        header, payload = f.next_event()
        self.assertEqual(header["event"], "result")
        self.assertEqual(payload, self.DOC)
        self.assertIsNone(f.next_event())

    def test_incremental_feed(self):
        f = framing.Framer()
        wire = self.result_bytes(self.DOC) + b'{"event":"hello","protocol":1}\n'
        events = []
        for i in range(len(wire)):
            f.feed(wire[i:i + 1])
            event = f.next_event()
            if event is not None:
                events.append(event)
        self.assertEqual(len(events), 2)
        self.assertEqual(events[0][1], self.DOC)
        self.assertEqual(events[1], ({"event": "hello", "protocol": 1}, None))

    def test_truncated_payload_waits(self):
        f = framing.Framer()
        f.feed(self.result_bytes(self.DOC)[:-3])
        self.assertIsNone(f.next_event())

    def test_malformed_lines_are_errors(self):
        for bad in (b"not json\n", b"[1, 2]\n", b'{"id": "r1"}\n',
                    b'{"event": "result", "bytes": -1}\n',
                    b'{"event": "result", "bytes": "12"}\n'):
            f = framing.Framer()
            f.feed(bad)
            with self.assertRaises(framing.FramingError, msg=bad):
                f.next_event()


if __name__ == "__main__":
    unittest.main()
