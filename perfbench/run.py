#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload ycsb_mixed|ycsb_incast|shuffle_stream \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/ (which compiles the
simulator library from src/) into .bench_build/, runs the strombench harness,
prints a report and a `record:` line with the run's full manifest, then one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics and their units are the ones BENCHMARK.json lists: with --trace 0
the end-to-end ones; with --trace 1 the per-layer work counters, the harness
spans, the traced-vs-untraced overhead, and each src/ module's share of
run-phase SIGPROF samples (attributed with addr2line to the innermost frame
whose containing function lives in src/<module>/).
See perfbench/METHOD.md for the method.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from collections import Counter

WORKLOADS = ("ycsb_mixed", "ycsb_incast", "shuffle_stream")

MODULES = ("sim", "roce", "proto", "pcie", "netsim", "fabric", "strom",
           "kernels", "common", "host", "workload", "telemetry")

# Units of the end-to-end metrics the record carries beyond the gated ones.
UNGATED_UNITS = {"ops_failed_frac": "frac", "sim_exec_ms": "ms", "sim_p50_us": "us",
                 "sim_p99_us": "us", "sim_p999_us": "us", "sim_ops": "count",
                 "run_cpu_s": "s", "setup_cpu_s": "s", "reference_s": "s"}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Names and units of the metrics on the result line.
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "strombench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from the root of a source tree")
    if not os.path.isfile(SPEC):
        fail("no BENCHMARK.json at the root of the source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "strombench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def module_of(path):
    m = re.search(r"/src/([^/]+)/[^/]+$", path)
    return m.group(1) if m else None


def self_shares(samples_path):
    """Maps each sample to its innermost frame whose containing function
    lives in src/<module>/; samples with none, or in another src/ directory,
    count as "other"."""
    with open(samples_path) as f:
        stacks = [line.split() for line in f if line.strip()]
    # Return addresses point after the call; look up the call itself.
    addrs = sorted({int(a, 16) - 1 for s in stacks for a in s})
    # addr2line -a -i prints each address, then (function, file:line) pairs
    # from the innermost inlined frame out to the containing function. The
    # last pair wins: inlined helpers count toward their caller's module.
    module = {}
    if addrs:
        out = subprocess.run(
            ["addr2line", "-e", BINARY, "-a", "-f", "-i"],
            input="".join("%x\n" % a for a in addrs), capture_output=True,
            text=True, check=True, timeout=RUN_TIMEOUT_S).stdout.splitlines()
        addr, since_addr = None, 0
        for line in out:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                addr, since_addr = int(line, 16), 0
                continue
            since_addr += 1
            if since_addr % 2 == 0:  # a file:line location
                module[addr] = module_of(line.split(" ")[0].rsplit(":", 1)[0])
    counts = Counter()
    for s in stacks:
        owner = next((module[int(a, 16) - 1] for a in s if module.get(int(a, 16) - 1)),
                     "other")
        counts[owner if owner in MODULES else "other"] += 1
    total = max(1, len(stacks))
    shares = {m + ".self_share": counts[m] / total for m in MODULES + ("other",)}
    return shares, len(stacks)


def report(record, units):
    print("workload %s  seed %d  reps %d" % (record["workload"], record["seed"],
                                             record["reps"]))
    for name, value in record["end_to_end"].items():
        print("  %-18s %.9g %s" % (name, value, units.get(name) or UNGATED_UNITS[name]))
    for name in ("run_s_reps", "setup_s_reps", "reference_s_reps"):
        if record[name]:
            print("  %-18s min %.6f  max %.6f  (%d reps)" % (
                name, min(record[name]), max(record[name]), len(record[name])))
    print("  %-18s %s" % ("sim_digest", record["sim_digest"]))
    print("  %-18s %s" % ("checks", "all passed" if record["correct"] else "FAILED"))
    for check in record["checks"]:
        print("    " + check)
    for name, value in record["per_layer"].items():
        print("  %-28s %.9g" % (name, value))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    samples = os.path.join(BUILD, "samples.%d.txt" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--samples-out", samples]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail("strombench exited with %d" % proc.returncode)
        record = json.loads(lines[-1])
        if args.trace:
            shares, nsamples = self_shares(samples)
            record["trace_samples"] = nsamples
            record["per_layer"].update(shares)
    finally:
        if os.path.exists(samples):
            os.remove(samples)

    with open(SPEC) as f:
        spec = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report(record, e2e_units)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in record[section]:
            fail("the harness did not report %s metric %s" % (section, m["name"]))
        metrics[m["name"]] = {"value": record[section][m["name"]], "unit": m["unit"]}
    # The full record (seed, sim_digest, every check, every metric) precedes
    # the result line so each result carries its own manifest.
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
