#!/usr/bin/env python3
"""Exhibit benchmark: four paper-exhibit workloads timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run from the repository root.  The first run configures the repository's own
build (default RelWithDebInfo) with perfbench/exhibits.cmake hooked in and
builds the perfbench_exhibits runner under .bench_build/; later runs only re-check the
build.  The runner executes the workload in-process; this script checks the
exhibit CSV bytes of every pass (and, traced, the architectural stats JSON)
against perfbench/pins.json, or pass against pass for seeds without a pin,
and prints the metrics named in BENCHMARK.json.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics.

The last stdout line is the result object; the line before it ("host ...")
holds the host context (nproc, compiler, build type, source revision,
threads used), which is also saved with the metrics under
.bench_build/perfbench-results/ (not for --tiny or --plant-mismatch runs).
--compare refuses results taken at a different nproc, build type or
workload parameters.  Exit status: 0 when every output checked
out, 1 when one did not (the result is still printed), 2 on a usage or
build error (no result printed).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-results")
RUNNER_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ROOT, "-B", BUILD_DIR,
                        "-DCMAKE_PROJECT_itr_INCLUDE=" + os.path.join(HERE, "exhibits.cmake")],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_exhibits",
                    "-j", str(nproc())], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench_exhibits")


def source_revision():
    """The git revision, or a digest of the sources when not in a git tree."""
    try:
        top, rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                                  check=True, capture_output=True,
                                  text=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(sha256(fh.read()).encode())
    return "tree-sha256:" + h.hexdigest()


def output_digests(csv_bytes, benchmarks):
    """The operations a pass is checked by: the sha256 of each benchmark's
    CSV rows, and of the whole table ("_table": header, summary rows, order)."""
    rows = {name: b"" for name in benchmarks}
    for line in csv_bytes.splitlines(keepends=True):
        first = line.split(b",", 1)[0].decode(errors="replace")
        if first in rows:
            rows[first] += line
    digests = {name: sha256(data) for name, data in rows.items()}
    digests["_table"] = sha256(csv_bytes)
    return digests


def check_outputs(raw, run_dir, pins, traced):
    """Returns (attempted, failed, notes, pinned): the output_digests
    operations of every pass, plus the stats JSON when traced and pinned."""
    benchmarks = raw["benchmarks"]
    params = {k: raw[k] for k in ("benchmarks", "insns", "faults", "window", "fault_seed")}
    pin = pins.get(raw["workload"])
    pinned = pin is not None and pin["params"] == params
    outputs = [os.path.join(run_dir, "pass-%d.csv" % k) for k in range(len(raw["pass_s"]))]
    if traced:
        outputs.append(os.path.join(run_dir, "traced.csv"))
    digests = []
    for path in outputs:
        with open(path, "rb") as fh:
            digests.append(output_digests(fh.read(), benchmarks))
    reference = pin["groups"] if pinned else digests[0]
    attempted = failed = 0
    notes = []
    for path, got in zip(outputs, digests):
        for key, digest in got.items():
            attempted += 1
            if digest != reference.get(key):
                failed += 1
                notes.append("%s: %s bytes differ from the %s" % (
                    os.path.basename(path), key, "pin" if pinned else "first pass"))
    if traced and pinned:
        attempted += 1
        with open(os.path.join(run_dir, "stats.json"), "rb") as fh:
            if sha256(fh.read()) != pin["stats"]:
                failed += 1
                notes.append("stats.json differs from the pin")
    if raw["errors"]:
        failed = max(failed, 1)
        notes.extend(raw["errors"])
    return attempted, failed, notes, pinned


def metrics_for(raw, spec, traced, attempted, failed):
    """Maps the runner's measurements onto BENCHMARK.json's metric names."""
    wall = statistics.median(raw["pass_s"])
    if not traced:
        values = {
            "wall_s": wall,
            "minsn_per_s": raw["insns_per_pass"] / 1e6 / wall,
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        layers = dict(raw["layers"])
        layer_sum = layers.pop("bench.layer_sum_s")
        values = dict(layers)
        values["inj_per_s"] = raw["injections_per_pass"] / wall
        values["failed_frac"] = failed / attempted
        values["bench.trace_overhead_frac"] = raw["traced_pass_s"] / wall - 1.0
        # The traced pass's layers against the untraced median pass: within
        # about bench.trace_overhead_frac of 0 when the layers account for
        # wall_s.  (Set-up is timed apart, in setup_s.)
        values["bench.unattributed_frac"] = 1.0 - layer_sum / wall
        wanted = spec["per_layer"]
        unknown = set(values) - {m["name"] for m in wanted}
        if unknown:
            raise KeyError("runner reported unknown layer metrics: %s" % sorted(unknown))
    # A layer the workload never calls reads 0 (see perfbench/layer_map.json).
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted}


def compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for key in ("nproc", "build_type", "params"):
        if a["host"][key] != b["host"][key]:
            log("refusing to compare: %s differs (%r vs %r)" % (key, a["host"][key],
                                                               b["host"][key]))
            return 2
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        rel = mb["value"] / ma["value"] - 1.0 if ma["value"] else float("nan")
        print("%-36s %14.6g %14.6g %-6s %+8.2f%%" % (name, ma["value"], mb["value"],
                                                    ma["unit"], 100.0 * rel))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (self-test); never matches a pin")
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="self-test: corrupt one output byte of the last pass")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload or args.seed < 0:
        ap.error("--workload is required and --seed must be >= 0")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no repository sources next to perfbench/ (%s)" % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error("unknown workload %r" % args.workload)

    try:
        runner = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    run_dir = os.path.join(RUNS_DIR, "%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(run_dir)
    try:
        cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", run_dir, "--threads-cap", str(nproc())]
        if args.tiny:
            cmd.append("--tiny")
        if args.plant_mismatch:
            cmd.append("--plant-mismatch")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("runner exceeded %d s" % RUNNER_TIMEOUT_S)
            return 2
        if proc.returncode != 0:
            log("runner exited with status %d" % proc.returncode)
            return 2
        raw = json.loads(out.strip().splitlines()[-1])
        attempted, failed, notes, pinned = check_outputs(raw, run_dir, pins, args.trace == 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = metrics_for(raw, spec, args.trace == 1, attempted, failed)
    flags = list(notes)
    if raw["stream_loads"] and raw["stream_hits"] < raw["stream_loads"]:
        flags.append("stream cache hit ratio %d/%d < 1 in the timed phase"
                     % (raw["stream_hits"], raw["stream_loads"]))
    if raw["layers"].get("fi.fanout_s", 0.0) < 0.0:
        flags.append("fi.fanout_s < 0: the fi::analyze_golden probe ran slower than "
                     "the campaigns it is subtracted from")
    for note in flags:
        log(note)
    host = {
        "nproc": nproc(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "source_rev": source_revision(),
        "threads": raw["threads"],
        "threads_cap": raw["threads_cap"],
        "workload": args.workload,
        "seed": args.seed,
        "params": {k: raw[k] for k in ("benchmarks", "insns", "faults", "window",
                                       "fault_seed")},
        "passes": len(raw["pass_s"]),
        "peak_rss_scope": raw["peak_rss_scope"],
        "output_check": "pinned digests" if pinned else "pass-to-pass identity",
        "flags": flags,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if not (args.tiny or args.plant_mismatch):  # self-test runs are not kept
        os.makedirs(RESULTS_DIR, exist_ok=True)
        name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(RESULTS_DIR, name), "w") as fh:
            json.dump(dict(result, host=host), fh, indent=1)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
