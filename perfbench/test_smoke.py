#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny inputs, every workload, both passes.

    python3 perfbench/test_smoke.py

Run from the repository root. For each workload it runs the untraced and the
traced pass in --smoke mode and asserts that the output checks pass with no
failed job, that every metric BENCHMARK.json names is emitted with its unit
(run.py refuses the result line otherwise), that each workload's own layers
show work, that the traced pass wrote a flexmr.profile.v1 document, and that
the deterministic metrics repeat exactly for one seed.
"""
import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own wrapper, for its paths)

WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# Per-layer metrics that must be non-zero on the workload that exercises them.
LAYER_WORK = {
    "wide-cluster": ["sched.skewtune_argmax.calls", "rm.offer_node.calls",
                     "mr.running_maps.calls", "simcore.events_fired",
                     "bench.run_job.FlexMap_s", "bench.make_layout_ms"],
    "fault-churn": ["faults.events", "hdfs.degraded_reads",
                    "hdfs.repair_read_mib", "simcore.events_fired"],
    "tenant-stream": ["bench.service_ctor_s", "bench.service_run_s",
                      "service.fairness_index", "simcore.events_fired"],
    "rt-wordcount": ["rt.generate_text_s", "rt.run_fixed_s",
                     "rt.run_elastic_s", "rt.serial_map_mib_per_s",
                     "rt.map_tasks"],
}
# Metrics that are simulated, so one seed must give one value.
DETERMINISTIC = {
    "wide-cluster": ["flexmap_speedup"],
    "fault-churn": ["flexmap_speedup"],
    "tenant-stream": ["flexmap_speedup"],
    "rt-wordcount": [],
}


def bench(workload, trace, seed=5):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}")
    return json.loads(done.stdout.strip().split("\n")[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, result):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = bench(workload, 0)
                self.check_result(first)
                for name, metric in first["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                again = bench(workload, 0)
                for name in DETERMINISTIC[workload]:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)

    def test_per_layer(self):
        out_dir = run.build_dir() / "out"
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                profile = out_dir / f"PROFILE_{workload}.json"
                profile.unlink(missing_ok=True)
                result = bench(workload, 1)
                self.check_result(result)
                for name in LAYER_WORK[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)
                doc = json.loads(profile.read_text())
                self.assertEqual(doc["schema"], "flexmr.profile.v1")


if __name__ == "__main__":
    unittest.main()
