#!/usr/bin/env python3
"""Re-pins perfbench/pins.json from the repository's exhibit binaries.

    python3 perfbench/pin.py

Builds fig08_fault_injection, fig06_detection_loss and fig01_repetition_int
in the benchmark's build tree, runs each workload's exhibit at the flags the
benchmark uses for seed 1, and records the sha256 of every benchmark's CSV
rows, of the whole CSV and of the architectural stats JSON.  The
pins therefore come from the exhibit binaries, never from the benchmark's
own runner, which must reproduce them byte for byte.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import run

# Workload -> (exhibit binary, its flags, the runner's seed-1 parameters).
SUITE = ["gap", "gcc", "parser", "perl", "twolf", "vortex", "vpr", "applu", "apsi",
         "equake", "swim"]
SPECINT = ["bzip", "gap", "gcc", "gzip", "parser", "perl", "twolf", "vortex", "vpr"]
FIG08 = ["--csv", "--exec", "batch", "--prune", "full", "--seed", "1"]
EXHIBITS = {
    "campaign_suite": ("fig08_fault_injection",
                       FIG08 + ["--threads", "1", "--insns", "500000", "--window", "20000"],
                       dict(benchmarks=SUITE, insns=500000, faults=100, window=20000,
                            fault_seed=1)),
    "campaign_deep": ("fig08_fault_injection",
                      FIG08 + ["--threads", "4", "--benchmarks", "vortex", "--faults", "1000"],
                      dict(benchmarks=["vortex"], insns=2000000, faults=1000,
                           window=100000, fault_seed=1)),
    "coverage_sweep": ("fig06_detection_loss",
                       ["--csv", "--threads", "1", "--insns", "2000000"],
                       dict(benchmarks=SUITE, insns=2000000, faults=0, window=0,
                            fault_seed=0)),
    "characterize": ("fig01_repetition_int",
                     ["--csv", "--threads", "1", "--insns", "2000000"],
                     dict(benchmarks=SPECINT, insns=2000000, faults=0, window=0,
                          fault_seed=0)),
}


def main():
    run.build()
    targets = sorted({binary for binary, _, _ in EXHIBITS.values()})
    subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target"] + targets +
                   ["-j", str(run.nproc())], check=True, stdout=sys.stderr)
    work = os.path.join(run.ROOT, ".bench_build", "perfbench-pin")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pins = {}
    for name, (binary, flags, params) in EXHIBITS.items():
        exe = os.path.join(run.BUILD_DIR, "bench", binary)
        stats = os.path.join(work, name + ".stats.json")
        cmd = [exe] + flags + ["--stats-json", stats]
        if binary == "fig06_detection_loss":
            # Warm a private stream cache first: the benchmark's stats are
            # taken from warm-cache passes.
            cmd += ["--stream-cache", os.path.join(work, "stream-cache")]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        csv = subprocess.run(cmd, check=True, stdout=subprocess.PIPE).stdout
        with open(stats, "rb") as fh:
            stats_digest = run.sha256(fh.read())
        pins[name] = {
            "exhibit": " ".join([binary] + flags),
            "params": params,
            "groups": run.output_digests(csv, params["benchmarks"]),
            "stats": stats_digest,
        }
        print("pinned %s: csv %s" % (name, pins[name]["groups"]["_table"]), file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
