#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/test_short.py

1. Short mode: one round of every workload, untraced and traced, with
   every check on, must finish with no failed operation but those of the
   known fault (run.py, KNOWN_FAULT_OPS).
2. Short mode with --corrupt: every workload corrupts its first output
   that would otherwise pass (a complemented primary output, or a mutant
   handed to a proof), and each run must count exactly that one more
   operation as failed while still reporting a correct run.
3. Oracle self-test on a hand-written 2-bit adder: the evaluator and the
   adder reference accept it and reject corrupted copies.
"""
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_short(*extra):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--short"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def failed_counts(proc):
    """(workload, trace) -> failed operations, from --short's lines."""
    return {(m.group(1), m.group(2)): int(m.group(3)) for m in re.finditer(
        r"^(\S+)\s+trace=(\d) ok\s+attempted=\d+ failed=(\d+) ",
        proc.stdout, re.M)}


class ShortMode(unittest.TestCase):
    def check_lines(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr[-3000:])
        counts = failed_counts(proc)
        self.assertEqual(len(counts), 8, proc.stdout + proc.stderr[-3000:])
        return counts

    def test_short_mode_passes(self):
        counts = self.check_lines(run_short())
        for (workload, _), failed in counts.items():
            if workload not in ("flow_control", "daemon_mix"):
                self.assertEqual(failed, 0, workload)

    def test_oracle_self_test(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--self-test"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr[-3000:])
        self.assertNotIn("FAIL", proc.stdout)

    def test_corrupted_netlist_counts_as_failed(self):
        plain = self.check_lines(run_short())
        corrupt = self.check_lines(run_short("--corrupt"))
        for key, failed in plain.items():
            self.assertEqual(corrupt[key], failed + 1, key)


if __name__ == "__main__":
    unittest.main(verbosity=2)
