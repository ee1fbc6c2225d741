#!/usr/bin/env python3
"""Self-tests of the benchmark harness (not part of the project's test suite).

    python3 perfbench/selftest.py

Each workload runs end to end at the tiny size, a perturbed expected
value is reported as a failure, and no tracing wrapper survives a traced
run.  Takes under a minute on two cores.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import tracing
import worker
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class EndToEnd(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        self.assertEqual([w["name"] for w in CONFIG["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                                     "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = last_json(proc.stdout)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in CONFIG[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    if trace:
                        self._check_self_times_add_up(result["metrics"])

    def _check_self_times_add_up(self, metrics):
        parts = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS + ("other",))
        self.assertTrue(math.isclose(parts, metrics["traced_wall_s"]["value"], rel_tol=1e-9))

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "reference", "--seconds", "1", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class OutputCheck(unittest.TestCase):
    def test_recorded_values_for_default_and_held_out_seed(self):
        for workload in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                self.assertIsNotNone(workloads.load_expected(workload, seed, "full"))

    def test_exact_and_tolerant_comparison(self):
        run = workloads.load_expected("reference", 1, "full")["trmac"]
        bumped = dict(run, mean_delay_s=math.nextafter(run["mean_delay_s"], math.inf))
        self.assertIsNone(workloads.mismatch(copy.deepcopy(run), run, 0.0))
        self.assertIn("mean_delay_s", workloads.mismatch(bumped, run, 0.0))
        heat = workloads.load_expected("phy_maps", 1, "full")["correlation_heatmap"]
        near, far = copy.deepcopy(heat), copy.deepcopy(heat)
        near["rows"][5][2] *= 1 + 1e-12
        far["rows"][5][2] *= 1 + 1e-8
        self.assertIsNone(workloads.mismatch(near, heat, workloads.PHY_REL_TOL))
        self.assertIn("rows[5][2]", workloads.mismatch(far, heat, workloads.PHY_REL_TOL))
        self.assertTrue(any(math.isnan(row[2]) for row in heat["rows"]))  # NaN == NaN

    def test_perturbed_expected_value_counts_as_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            uw = worker.import_uwansim()
            size = workloads.SIZES["tiny"]["reference"]
            _, _, outputs, _ = worker._rep(uw, "reference", 1, size, Path(tmp), worker.SpeedProbe(), None)
            outputs["csma_ca"]["delivered"] += 1
            original = workloads.load_expected
            workloads.load_expected = lambda *args: outputs
            try:
                result = worker.measure("measure", "reference", 1, 0.0, "tiny", Path(tmp))
            finally:
                workloads.load_expected = original
        self.assertEqual((result["attempted"], result["failed"]), (3, 1))
        self.assertIn("csma_ca.delivered", result["failures"][0])


class Tracing(unittest.TestCase):
    def test_wrappers_are_removed(self):
        uw = worker.import_uwansim()
        originals = (uw.sim.p_ili, uw.mac.eta_threshold, uw.presets.generate_cir,
                     uw.sim.collect_metrics, uw.sim.heapq, uw.mac.TrmacEngine.__dict__["on_frame"])
        tracer = tracing.Tracer().install(uw)
        try:
            left = tracing.installed_wrappers(uw)
            for name in ("uwansim.sim.p_ili", "uwansim.mac.eta_threshold", "uwansim.presets.generate_cir",
                         "uwansim.sim.collect_metrics", "uwansim.sim.heapq",
                         "uwansim.mac.TrmacEngine.on_frame", "uwansim.run_preset"):
                self.assertIn(name, left)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.installed_wrappers(uw), [])
        self.assertEqual(originals, (uw.sim.p_ili, uw.mac.eta_threshold, uw.presets.generate_cir,
                                     uw.sim.collect_metrics, uw.sim.heapq,
                                     uw.mac.TrmacEngine.__dict__["on_frame"]))

    def test_traced_run_leaves_no_wrappers(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = worker.measure("trace", "sweep", 2, 0.0, "tiny", Path(tmp))
        self.assertEqual(result["wrappers_left"], [])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["trace"]["sim.events"], 0)
        self.assertGreater(result["trace"]["presets.jobs"], 0)


if __name__ == "__main__":
    unittest.main()
