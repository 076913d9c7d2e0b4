#!/usr/bin/env python3
"""Decision rule of tools/paired_gate.py on fixed (head, base) pair lists."""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from paired_gate import decide  # noqa: E402

BASE = [100, 118, 84, 107, 93, 125, 76, 111, 97, 89]


class PairedGateDecision(unittest.TestCase):
    def test_aa_noise_of_25_percent_passes(self):
        head = [124, 80, 117, 90, 106, 77, 121, 94, 103, 112]
        self.assertTrue(decide(list(zip(head, BASE)))["pass"])

    def test_head_twice_as_slow_in_every_pair_fails(self):
        verdict = decide([(b / 2, b) for b in BASE])
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["losses"], 10)

    def test_head_twice_as_slow_in_8_of_10_pairs_passes(self):
        pairs = [(b / 2, b) for b in BASE[:8]] + [(b, b) for b in BASE[8:]]
        verdict = decide(pairs)
        self.assertTrue(verdict["pass"])
        self.assertEqual(verdict["losses"], 8)

    def test_consistent_small_loss_passes(self):
        self.assertTrue(decide([(b * 0.9, b) for b in BASE])["pass"])

    def test_a_failed_run_fails(self):
        pairs = [(b, b) for b in BASE]
        pairs[3] = (None, BASE[3])
        self.assertFalse(decide(pairs)["pass"])
        pairs[3] = (BASE[3], None)
        self.assertFalse(decide(pairs)["pass"])


if __name__ == "__main__":
    unittest.main()
