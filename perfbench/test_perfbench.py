#!/usr/bin/env python3
"""Self-test of the exhibit benchmark at tiny sizes.

    python3 perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit
on every workload, that a planted output mismatch is counted as failed (and
makes the command exit nonzero) instead of being swallowed, that a wrong
pin is caught, that --compare refuses results of another nproc, build type
or input, and that the command refuses to run without the repository
sources.  The first test builds the runner (about a minute).
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import unittest

import run

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(run.ROOT, ".bench_build", "perfbench-selftest")


def bench(*extra, cwd=run.ROOT):
    """Runs the benchmark command at tiny sizes; returns (status, result)."""
    with open(SPEC_PATH) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--seconds", "0"] + list(extra), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC_PATH) as fh:
            cls.spec = json.load(fh)

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    status, result = bench("--workload", workload, "--seed", "3",
                                           "--trace", str(trace), "--tiny")
                    self.assertEqual(status, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_planted_mismatch_is_counted(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                status, result = bench("--workload", "campaign_suite", "--seed", "1",
                                       "--trace", str(trace), "--tiny",
                                       "--plant-mismatch")
                self.assertEqual(status, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                if trace == 1:
                    self.assertGreater(result["metrics"]["failed_frac"]["value"], 0)

    def test_wrong_pin_is_counted(self):
        run_dir = os.path.join(SCRATCH, "pin")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        csv = b"benchmark,x\ngcc,1\nvpr,2\nAvg,1.5\n"
        for k in range(2):
            with open(os.path.join(run_dir, "pass-%d.csv" % k), "wb") as fh:
                fh.write(csv)
        params = dict(benchmarks=["gcc", "vpr"], insns=1, faults=0, window=0, fault_seed=0)
        raw = dict(params, workload="w", pass_s=[1.0, 1.0], errors=[])
        pin = run.output_digests(csv, params["benchmarks"])
        pins = {"w": {"params": params, "groups": pin}}
        self.assertEqual(run.check_outputs(raw, run_dir, pins, False)[:2], (6, 0))
        pins["w"]["groups"] = dict(pin, vpr=run.sha256(b"vpr,3\n"))
        attempted, failed, _, pinned = run.check_outputs(raw, run_dir, pins, False)
        self.assertTrue(pinned)
        self.assertEqual((attempted, failed), (6, 2))

    def test_compare_refuses_different_hosts_or_inputs(self):
        os.makedirs(SCRATCH, exist_ok=True)
        host = dict(nproc=4, build_type="RelWithDebInfo", params=dict(insns=1))
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        paths = []
        for k, change in enumerate(({}, {}, {"nproc": 2}, {"build_type": "Release"},
                                    {"params": dict(insns=2)})):
            paths.append(os.path.join(SCRATCH, "result-%d.json" % k))
            with open(paths[-1], "w") as fh:
                json.dump({"metrics": metrics, "host": dict(host, **change)}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.compare(paths[0], paths[1]), 0)
        with contextlib.redirect_stderr(io.StringIO()):
            for other in paths[2:]:
                self.assertEqual(run.compare(paths[0], other), 2)

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(SPEC_PATH, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        status, result = bench("--workload", "campaign_suite", "--seed", "1",
                               "--trace", "0", cwd=bare)
        self.assertNotEqual(status, 0)
        self.assertIsNone(result)

    def test_layer_map_names_every_per_layer_metric(self):
        with open(os.path.join(run.HERE, "layer_map.json")) as fh:
            mapped = set(json.load(fh)["metrics"])
        self.assertEqual(mapped, {m["name"] for m in self.spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
