"""Self-test of the benchmark at tiny sizes: python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the report line carries every per-command metric with a sample
count, that corrupted outputs (a tau table, a flipped verdict) are counted
as failures, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

TINY = run.Sizes(
    verify_n=40,
    congruence_n=120,
    audit_n=40,
    tau_table_n=64,
    session_requests=24,
    trunc_lo=24,
    trunc_hi=40,
    trunc_pool=4,
    tau_single_max=64,
    coprime_pairs=20,
    setup_samples=1,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((run.HERE / "spec.json").read_text())


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        self.assertEqual(dict(run.END_TO_END), units(BENCHMARK["end_to_end"]))
        self.assertEqual(dict(run.per_layer_units()), units(BENCHMARK["per_layer"]))
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))

    def test_every_layer_metric_says_what_it_moves(self):
        moves = SPEC["per_layer"]["moves"]
        for name, _ in run.per_layer_units():
            base = name.rsplit(".", 1)[0] if name.endswith((".calls", ".self_s")) else name
            self.assertIn(base, moves, name)


class TinyRuns(unittest.TestCase):
    def check_result(self, result, expected_units):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, expected_units)
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})

    def test_untraced(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                full, result = run.run(name, 7, 0.01, 0, TINY)
                self.check_result(result, units(BENCHMARK["end_to_end"]))
                self.assertEqual(result["failed"], 0, full["problems"])
                self.assertTrue(result["correct"])
                report = full["metrics"]
                for metric in list(run.COMMAND_METRICS[name]) + ["failed_frac"]:
                    self.assertIn(metric, report)
                for m in report.values():
                    self.assertGreaterEqual(m["samples"], 1)
                    self.assertTrue(m["unit"])
                self.assertEqual(report["failed_frac"]["value"], 0)

    def test_traced(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                full, result = run.run(name, 7, 0.01, 1, TINY)
                self.check_result(result, units(BENCHMARK["per_layer"]))
                self.assertEqual(result["failed"], 0, full["problems"])
                self.assertGreater(result["metrics"]["qseries.linear.calls"]["value"], 0)

    def test_corrupted_tau_table_counts_as_failed(self):
        def corrupt(op, text):
            if op != "tau_table_vdp":
                return text
            rows = text.splitlines()
            n, v = rows[4].split(",")  # tau(4): +691 keeps the mod-691 check quiet
            rows[4] = f"{n},{int(v) + 691}"
            return "\n".join(rows) + "\n"

        full, result = run.run("tau-tables", 7, 0.01, 0, TINY, tamper=corrupt)
        self.assertEqual(result["failed"], 1, full["problems"])
        self.assertFalse(result["correct"])
        self.assertEqual(full["metrics"]["failed_frac"]["value"], 1 / result["attempted"])

    def test_flipped_verdicts_count_as_failed(self):
        def flip_cli(op, text):
            return text.replace("eq1.1: certified", "eq1.1: failed") if op == "certify" else text

        full, result = run.run("catalogue", 7, 0.01, 0, TINY, tamper=flip_cli)
        self.assertEqual(result["failed"], 1, full["problems"])
        self.assertEqual(full["metrics"]["failed_frac"]["value"], 0.25)

        def flip_session(op, out):
            if op == "certify":
                return {"status": "certified" if out["status"] == "failed" else "failed"}
            return out

        full, result = run.run("session", 7, 0.01, 0, TINY, tamper=flip_session)
        certifies = sum(1 for p in full["problems"] if p.startswith("certify "))
        self.assertGreater(certifies, 0)
        self.assertEqual(result["failed"], certifies)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for path in run.HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            shutil.copy(run.HERE / "spec.json", bare / "perfbench")
            argv = [sys.executable, "perfbench/run.py", "--workload", "session"]
            argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
