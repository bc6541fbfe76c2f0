#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

- the output check's unit tests (perfbench_tests) pass;
- a tiny-size invocation of each workload prints every metric BENCHMARK.json
  names, with its unit, in both modes;
- two invocations with one seed give identical simulated metrics;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HOST_METRICS = {"host_s", "setup_s", "peak_rss_mb"}


def invoke(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Benchmark(unittest.TestCase):
    def test_check_unit_tests(self):
        invoke(WORKLOADS[0], 1, 0)  # builds
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        binary = os.path.join(ROOT, target, "perfbench", "build",
                              "perfbench_tests")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    proc = invoke(w, 1, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    r = result(proc)
                    self.assertTrue(r["correct"], proc.stdout)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)

    def test_same_seed_same_simulated_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = result(invoke(w, 3, 0)), result(invoke(w, 3, 0))
                sim = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                                 if k not in HOST_METRICS}
                self.assertEqual(sim(a), sim(b))
                self.assertEqual(a["failed"] / a["attempted"],
                                 b["failed"] / b["attempted"])

    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
