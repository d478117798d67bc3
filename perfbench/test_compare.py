"""Tests of the spread and comparison helpers: python3 -m unittest discover perfbench"""

import importlib.util
import statistics
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location("compare", Path(__file__).with_name("compare.py"))
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


class QuartileSpread(unittest.TestCase):
    def test_known_inputs(self):
        # quantiles(1..10, n=4) = [2.75, 5.5, 8.25]; median 5.5
        self.assertAlmostEqual(compare.quartile_spread(list(range(1, 11))), 1.0)
        # ten runs within +-2 % of 100
        runs = [98, 99, 99.5, 100, 100, 100, 100.5, 101, 101, 102]
        q1, _, q3 = statistics.quantiles(runs, n=4)
        self.assertAlmostEqual(compare.quartile_spread(runs), (q3 - q1) / 100.0)
        self.assertLess(compare.quartile_spread(runs), 0.02)

    def test_constant_and_degenerate_inputs(self):
        self.assertEqual(compare.quartile_spread([3.0] * 10), 0.0)
        self.assertEqual(compare.quartile_spread([5.0]), 0.0)
        self.assertEqual(compare.quartile_spread([0.0] * 4), 0.0)

    def test_order_does_not_matter(self):
        runs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(compare.quartile_spread(runs), compare.quartile_spread(sorted(runs)))


class Verdict(unittest.TestCase):
    old = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def test_worse_share_follows_the_better_direction(self):
        self.assertAlmostEqual(compare.worse_share(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(compare.worse_share(100.0, 110.0, "higher"), -0.10)

    def test_regression_beyond_the_bound(self):
        new = [v * 1.2 for v in self.old]
        self.assertEqual(compare.verdict(self.old, new, "lower", 0.1), "regression")
        self.assertEqual(compare.verdict(self.old, new, "higher", 0.1), "improved")

    def test_change_within_the_bound_is_unchanged(self):
        new = [v * 1.05 for v in self.old]
        self.assertEqual(compare.verdict(self.old, new, "lower", 0.1), "unchanged")

    def test_wide_spread_is_unresolved_unless_every_run_wins(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1),
                         "unresolved")
        self.assertEqual(compare.verdict(noisy, [10.0] * 10, "lower", 0.1), "improved")


class Fingerprints(unittest.TestCase):
    def test_differing_fingerprints_are_flagged(self):
        a = [{"fingerprint": {"nproc": "2", "simd": "avx512"}}]
        b = [{"fingerprint": {"nproc": "2", "simd": "avx2"}}]
        self.assertEqual(compare.fingerprint_diff(a, b), {"simd": ["avx2", "avx512"]})
        self.assertEqual(compare.fingerprint_diff(a, a), {})


if __name__ == "__main__":
    unittest.main()
