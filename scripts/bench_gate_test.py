#!/usr/bin/env python3
"""Tests for bench_gate.compare on synthetic per-round `go test -bench` outputs.

Usage: python3 scripts/bench_gate_test.py
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402

NS = {
    "BenchmarkKernelPostStep": 52.1,
    "BenchmarkMeshSendEvent": 31.4,
    "BenchmarkSimulatorThroughput": 55_300_000,
    "BenchmarkProtocols/tl2": 4_190_000,
    "BenchmarkCheckpointCodec/append": 766_000,
    "BenchmarkCheckpointCodec/decode": 2_110_000,
}


def output(ns=NS, allocs=None, suffix="-8"):
    """One round's `go test -bench -benchmem` output; allocs overrides allocs/op."""
    allocs = allocs or {}
    lines = ["goos: linux", "goarch: amd64", "pkg: scalabletcc"]
    for bench, v in ns.items():
        a = allocs.get(bench, 0 if bench in bench_gate.ZERO_ALLOC else 640)
        lines.append(f"{bench}{suffix}  \t 5\t {v:.1f} ns/op\t 1024 B/op\t {a} allocs/op")
    return "\n".join(lines + ["PASS", "ok  \tscalabletcc\t3.2s"]) + "\n"


def slower(bench, factor):
    return {b: v * factor if b == bench else v for b, v in NS.items()}


class CompareTest(unittest.TestCase):
    def gate(self, base, head):
        """Gate three rounds; a single output stands for the same one each round."""
        rounds = lambda x: x if isinstance(x, list) else [x] * 3
        report, failed = bench_gate.compare(rounds(base), rounds(head))
        return "\n".join(report), failed

    def test_equal_runs_pass(self):
        report, failed = self.gate(output(), output())
        self.assertFalse(failed, report)
        self.assertNotIn("REGRESSION", report)

    def test_ten_percent_slower_passes(self):
        report, failed = self.gate(output(), output(slower("BenchmarkProtocols/tl2", 1.10)))
        self.assertFalse(failed, report)
        self.assertIn("BenchmarkProtocols/tl2: median ratio 1.100", report)

    def test_twenty_five_percent_slower_fails_that_row_only(self):
        report, failed = self.gate(output(), output(slower("BenchmarkSimulatorThroughput", 1.25)))
        self.assertTrue(failed)
        bad = [line for line in report.splitlines() if "REGRESSION" in line or "FAIL" in line]
        self.assertEqual(len(bad), 1, report)
        self.assertTrue(bad[0].startswith("BenchmarkSimulatorThroughput: median ratio 1.250"), bad)

    def test_one_slow_round_passes(self):
        # A burst of host noise in one round is outvoted by the other two.
        head = [output(slower("BenchmarkKernelPostStep", 1.5)), output(), output()]
        report, failed = self.gate(output(), head)
        self.assertFalse(failed, report)
        self.assertIn("BenchmarkKernelPostStep: median ratio 1.000", report)

    def test_slow_in_most_rounds_fails(self):
        slow = output(slower("BenchmarkKernelPostStep", 1.2))
        report, failed = self.gate(output(), [slow, output(), slow])
        self.assertTrue(failed)
        self.assertIn("BenchmarkKernelPostStep: median ratio 1.200", report)

    def test_one_fast_base_round_passes(self):
        # A rare fast run on the base sets min(base), not the median ratio.
        base = [output(slower("BenchmarkMeshSendEvent", 0.8)), output(), output()]
        report, failed = self.gate(base, output())
        self.assertFalse(failed, report)
        self.assertIn("BenchmarkMeshSendEvent: median ratio 1.000 (limit 1.15; rounds 1.251 1.000 1.000)", report)

    def test_zero_alloc_row_allocating_fails(self):
        head = [output(), output(allocs={"BenchmarkMeshSendEvent": 1}), output()]
        report, failed = self.gate(output(), head)
        self.assertTrue(failed)
        self.assertIn("BenchmarkMeshSendEvent: 1 allocs/op", report)

    def test_zero_alloc_row_without_allocs_column_fails(self):
        head = output().replace("\t 1024 B/op\t 0 allocs/op", "")
        report, failed = self.gate(output(), head)
        self.assertTrue(failed)
        self.assertIn("BenchmarkKernelPostStep: no allocs/op at the head", report)

    def test_row_missing_at_head_fails(self):
        head = {b: v for b, v in NS.items() if b != "BenchmarkProtocols/tl2"}
        report, failed = self.gate(output(), output(head))
        self.assertTrue(failed)
        self.assertIn("BenchmarkProtocols/tl2: at the base but missing at the head", report)

    def test_row_only_at_head_is_informational(self):
        report, failed = self.gate(output(), output(NS | {"BenchmarkProtocols/eager": 2_210_000}))
        self.assertFalse(failed, report)
        self.assertIn("BenchmarkProtocols/eager: head only, informational", report)

    def test_parse_suffixes_and_sub_benchmarks(self):
        for suffix in ("-8", "-16", ""):
            ns, allocs = bench_gate.parse(output(suffix=suffix))
            self.assertEqual(ns, NS, suffix)
            self.assertEqual(allocs["BenchmarkProtocols/tl2"], 640)
            self.assertEqual(allocs["BenchmarkKernelPostStep"], 0)

    def test_codec_row_gates_append_and_decode(self):
        # `go test -bench` splits the pattern at '/' and matches each level
        # unanchored against that level of the name.
        rows = [row for row in bench_gate.ROWS if row[0] == "./internal/core"]
        self.assertEqual(len(rows), 1)
        top, sub = rows[0][1].split("/")
        for name, gated in (("append", True), ("decode", True), ("marshal", False), ("unmarshal", False)):
            hit = bool(re.search(top, "BenchmarkCheckpointCodec") and re.search(sub, name))
            self.assertEqual(hit, gated, name)
        report, failed = self.gate(output(), output(slower("BenchmarkCheckpointCodec/decode", 1.25)))
        self.assertTrue(failed)
        self.assertIn("BenchmarkCheckpointCodec/decode: median ratio 1.250", report)

    def test_empty_input_fails(self):
        for base, head in (("", output()), (output(), ""), ("", ""), ("PASS\n", "PASS\n"), ([], [])):
            report, failed = self.gate(base, head)
            self.assertTrue(failed)
            self.assertIn("no benchmark lines parsed", report)


if __name__ == "__main__":
    unittest.main()
