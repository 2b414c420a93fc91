#!/usr/bin/env python3
"""The benchmark's own tests: seconds-scale smoke runs of every workload.

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py (which builds the benchmark on first
use) with --smoke, the toy sizes. Smoke numbers say nothing about speed;
these tests only keep the benchmark from rotting: it must build, run every
workload, pass its own correctness checks, print the metrics BENCHMARK.json
declares, keep the layers apart, and repeat its single-client counts
exactly for a fixed op count.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run_bench(workload, trace=0, ops=0, seed=3, seconds=1):
    """Runs one smoke run; returns (result dict, {metric: value} report)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    if ops:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" %
                             (" ".join(cmd), proc.returncode,
                              proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("  note:") \
                and line.startswith("  "):
            try:
                report[parts[0]] = float(parts[1])
            except ValueError:
                report[parts[0]] = None  # n/a
    return result, report


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


class SmokeTest(unittest.TestCase):
    """Every declared workload runs clean and prints the declared metrics."""

    def check_run(self, workload, trace):
        spec = declared()
        result, _ = run_bench(workload, trace=trace)
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in metrics))
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_every_declared_workload(self):
        for workload in (w["name"] for w in declared()["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_gated_timings_are_in_probe_units(self):
        """The gated timings are the measured ones over the median time
        of the naive-scan probes run in the same phase."""
        for workload in ("hot_match", "served"):
            with self.subTest(workload=workload):
                _, report = run_bench(workload, seconds=2)
                probe_ms = report["naive_probe_ms"]
                self.assertGreater(probe_ms, 0)
                for name in ("p50", "p99"):
                    norm = report["latency_%s_norm" % name]
                    raw = report["latency_%s_ms" % name]
                    self.assertAlmostEqual(norm, raw / probe_ms,
                                           delta=1e-6 * norm)
                ops = report["ops_per_probe"]
                self.assertAlmostEqual(
                    ops, report["ops_per_s"] * probe_ms / 1e3,
                    delta=1e-6 * ops)

    def test_layer_separation(self):
        """Storage misses only on disk_read, server costs only on served,
        WAL writes only on disk_mixed."""
        values, reports = {}, {}
        # 400 ops are more than served's smoke request pool, so its traced
        # pass cycles the pool.
        for workload in ("hot_match", "served", "disk_read"):
            result, reports[workload] = run_bench(workload, trace=1, ops=400)
            values[workload] = {k: v["value"]
                                for k, v in result["metrics"].items()}
        for name in ("bufferpool.misses_per_query", "pager.reads_per_query"):
            self.assertEqual(values["hot_match"][name], 0, name)
            self.assertGreater(values["disk_read"][name], 0, name)
        self.assertGreater(values["served"]["server.overhead_us"], 0)
        self.assertEqual(values["hot_match"]["server.overhead_us"], 0)
        self.assertEqual(values["disk_read"]["server.overhead_us"], 0)
        # 400 ops hold 40 durable ops, fewer than the defect noted at
        # DeterminismTest.test_disk_mixed_is_correct needs.
        _, mixed = run_bench("disk_mixed", ops=400)
        self.assertGreater(mixed["wal.bytes_per_op"], 0)
        for workload, report in reports.items():
            self.assertFalse(report.get("wal.bytes_per_op"), workload)


class DeterminismTest(unittest.TestCase):
    """With one client and a fixed op count, registry counts repeat."""

    COUNTS = ("count.eti.probes", "count.match.tids_processed",
              "count.bufferpool.misses")

    def check_repeats(self, workload, counts):
        result, first = run_bench(workload, ops=400, seed=5)
        _, second = run_bench(workload, ops=400, seed=5)
        self.assertTrue(result["correct"], result)
        for name in counts:
            self.assertIn(name, first)
            self.assertEqual(first[name], second[name], name)

    def test_hot_match_counts_repeat(self):
        self.check_repeats("hot_match", self.COUNTS)

    def test_disk_read_counts_repeat(self):
        self.check_repeats("disk_read", self.COUNTS)

    def test_disk_mixed_counts_repeat(self):
        # 400 ops hold 40 durable ops, fewer than the defect below needs.
        self.check_repeats("disk_mixed",
                           self.COUNTS + ("count.wal.bytes_written",))

    # Durable maintenance corrupts B-tree internal nodes on this commit:
    # the WAL commit stamps the page LSN into header bytes [12, 16), which
    # B-tree internal nodes use for their leftmost-child pointer. After a
    # few dozen durable ops disk_mixed fails its checks. Drop the
    # decorator once that is fixed.
    @unittest.expectedFailure
    def test_disk_mixed_is_correct(self):
        result, _ = run_bench("disk_mixed", seconds=2)
        self.assertTrue(result["correct"], result)


class StandaloneTest(unittest.TestCase):
    """Without the library sources the benchmark fails fast, no result."""

    def test_fails_without_sources(self):
        base = os.path.join(ROOT, ".bench_build", "standalone-check")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
        shutil.copytree(BENCH_DIR, os.path.join(base, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hot_match",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=base, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(base, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
