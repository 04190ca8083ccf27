"""The benchmark's own checks, kept out of the repository's test suite.

Usage: python3 perfbench/check_bench.py

They run the smoke workload (``qcells sweep --cartan A2``, well under a
second) and the shortest listed workload, so the whole file takes about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class OutputGate(unittest.TestCase):
    def test_corrupted_digest_fails_every_run(self):
        ref = dict(run.load_reference()["smoke_a2"], sha256="0" * 64)
        r = run.Runner("smoke_a2", ref, seconds=0.5, seed=1)
        metrics = run.run_untraced(r)
        work = r.of("work")
        self.assertTrue(work)
        self.assertTrue(all(not c.ok and "digest" in c.reason for c in work))
        self.assertEqual(metrics["ok_frac"], 0.0)

    def test_other_exit_code_fails(self):
        ref = dict(run.load_reference()["smoke_a2"], exit=1)
        r = run.Runner("smoke_a2", ref, seconds=0.1, seed=1)
        self.assertFalse(r.work().ok)

    def test_timeout_is_a_failed_run(self):
        child = run.check(
            run.spawn(["-c", "import time; time.sleep(30)"], 0.5, "work"),
            run.load_reference()["smoke_a2"],
        )
        self.assertTrue(child.timed_out)
        self.assertFalse(child.ok)
        self.assertLess(child.wall_s, 10.0)


class CpuSpeed(unittest.TestCase):
    def test_child_times_are_scaled_by_sampled_speed(self):
        child = run.spawn(["-c", "sum(i * i for i in range(3_000_000))"], 30, "work")
        self.assertEqual(child.exit_code, 0)
        self.assertTrue(0.1 < child.speed < 10.0, child.speed)
        self.assertAlmostEqual(child.ref_wall_s, child.wall_s * child.speed)
        self.assertAlmostEqual(child.ref_cpu_s, child.cpu_s * child.speed)

    def test_probe_runs_on_any_cpu(self):
        self.assertGreater(run.probe_cpu(None), 0.0)
        self.assertTrue(run.child_cpus(os.getpid()))


class TracedRun(unittest.TestCase):
    def test_traced_stdout_matches_untraced_reference(self):
        for name in ("smoke_a2", "verify_b3_3232"):
            r = run.Runner(name, run.load_reference()[name], seconds=0.1, seed=2)
            metrics = run.run_traced(r)
            traced = r.of("traced")
            self.assertTrue(traced, name)
            for child in r.children:
                self.assertTrue(child.ok, f"{name} {child.kind}: {child.reason}")
            self.assertEqual(set(metrics), set(run.PER_LAYER_UNITS))
            self.assertEqual(metrics["cli.instances"], traced[0].records)

    def test_layer_counts_are_consistent(self):
        r = run.Runner("verify_b3_3232", run.load_reference()["verify_b3_3232"], 0.1, 3)
        m = run.run_traced(r)
        self.assertLessEqual(m["cells.candidates_rejected"], m["cells.candidates_tried"])
        self.assertLessEqual(m["hwmod.module_builds"], m["hwmod.get_module_calls"])
        for name in ("hwmod.rejected_build_frac", "hwmod.module_cache_hit_ratio",
                     "cells.candidate_accept_ratio"):
            self.assertTrue(0.0 <= m[name] <= 1.0, name)


class MetricNames(unittest.TestCase):
    def test_smoke_prints_every_metric_with_its_unit(self):
        spec = json.loads(BENCHMARK.read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _bench("--workload", "smoke_a2", "--seed", "5", "--seconds", "1",
                          "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, wanted)
            for name, unit in wanted.items():
                self.assertTrue(
                    any(line.split()[1:2] == [name] and line.endswith(unit) for line in lines),
                    name,
                )

    def test_listed_workloads_match_benchmark_json(self):
        spec = json.loads(BENCHMARK.read_text())
        listed = [n for n, wl in run.WORKLOADS.items() if wl.listed]
        self.assertEqual([w["name"] for w in spec["workloads"]], listed)
        self.assertTrue(set(run.WORKLOADS) <= set(run.load_reference()))

    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            shutil.copy(BENCHMARK, tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "smoke_a2", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
