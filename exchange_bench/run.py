#!/usr/bin/env python3
"""The `exchange` benchmark: one command per workload.

    python3 exchange_bench/run.py --workload rpc_small --seed 1 \\
        --seconds 10 --trace 0

Builds exchange_bench (Release) from this checkout's sources into
.bench_build/exchange on first use, runs one workload in its own process,
verifies every reply, and prints each metric by name and unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
and reports the per-layer metrics. Exits nonzero, without a result line,
when the build or the run fails, and with correct=false when any exchange
failed. See README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "exchange")
BINARY = os.path.join(BUILD_DIR, "exchange_bench")
WORKLOADS = ("rpc_small", "dataset_1m", "stream_signed", "stream_wan")
# A seed never used while the benchmark or a change was being developed;
# a claimed gain should also hold on it.
HOLDOUT_SEED = 60221023

sys.path.insert(0, HERE)
import analysis  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources next to the benchmark "
                           "(expected %s)" % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "exchange_bench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_times():
    """The aggregate `cpu` line of /proc/stat (jiffies by state)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests meanwhile:
    the noise floor a shared host adds to every timing."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def run_benchmark(args):
    report_path = os.path.join(BUILD_DIR, "report-%d.json" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", report_path]
    try:
        # A run takes --seconds plus a few seconds of set-up; the bound
        # keeps a hung run inside the 180 s a benchmark run may take.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=min(170, args.seconds * 3 + 60))
        if proc.returncode != 0:
            raise RuntimeError("exchange_bench exited with %d" % proc.returncode)
        with open(report_path) as f:
            return json.load(f)
    finally:
        if os.path.exists(report_path):
            os.remove(report_path)


def meta(report, args, absent, steal):
    ph = report["untraced"]
    segs = ph["segments"]
    lat, _ = analysis.latency_summary(ph, analysis.quiet_segments(ph))
    t = analysis.tail(lat)
    setups = report["setup_s"]
    m = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "reactor_threads": report["reactor_threads"],
        "worker_threads": report["worker_threads"],
        "client_connections": report["connections"],
        "samples": len(lat),
        # Reported, not gated: on a shared 4-vCPU host the tail moved by
        # 0.09-0.23 (quartile spread / median) between runs, too much for
        # any allowed bound (README.md).
        "tail_latency_us": t[0] / 1e3 if t else None,
        "tail_percentile": round(t[1], 3) if t else None,
        "segments": len(segs),
        "segment_ops_per_s": [round(s["completed"] / s["window_s"], 3)
                              for s in segs],
        "segment_steal_share": [round(s["steal_share"], 5) for s in segs],
        "quiet_segments": analysis.quiet_segments(ph),
        "setup_runs": len(setups),
        "setup_spread_s": [min(setups), max(setups)],
        "setup_steal_share": [round(x, 5) for x in report["setup_steal_share"]],
        "cpu_steal_share": steal,
        "errors": ph["errors"] + report.get("traced", {}).get("errors", []),
    }
    if absent:
        m["absent_metrics"] = absent
    return m


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        build()
        before = cpu_times()
        report = run_benchmark(args)
        steal = steal_share(before, cpu_times())
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("exchange: %s" % e)
        return 2

    if report["build_type"] != "Release":
        log("!" * 72)
        log("exchange: WARNING: %s build, not Release; these numbers are not "
            "comparable" % report["build_type"])
        log("!" * 72)

    phases = [report["untraced"]] + (
        [report["traced"]] if "traced" in report else [])
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    try:
        if args.trace:
            table, values = analysis.PER_LAYER, analysis.per_layer(report)
        else:
            table, values = analysis.END_TO_END, analysis.end_to_end(report)
    except (ValueError, ZeroDivisionError) as e:
        log("exchange: cannot compute metrics: %s" % e)
        return 2

    metrics = {}
    for name, unit, _ in table:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print("%-36s %16.6g %s" % (name, values[name], unit))
        else:
            print("%-36s %16s (registry name missing)" % (name, "absent"))
    info = meta(report, args, [n for n, _, _ in table if n not in values],
                steal)
    print("# meta " + json.dumps(info, sort_keys=True))
    for err in info["errors"]:
        log("exchange: failed exchange: %s" % err)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
