#!/usr/bin/env python3
"""Repository benchmark: simulator host speed on the paper's Table 2
workloads plus live migration.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile_ept --seed 42 --seconds 38 --trace 0

The script builds perfbench/driver (a stand-alone CMake package that
compiles the simulator from ../src and ../bench) into .bench_build, runs
one workload for --seconds host seconds, checks the simulated outputs and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics (perfbench/layer_map.json
says what each one measures). disk_vahci runs by name but is not a
BENCHMARK.json workload (layer_map.json says why). The host-clock spans of the run are written
as Chrome trace_event JSON to .bench_build/perfbench/spans/.

Correctness: at the pinned seed (perfbench/pins.json) every run's simulated
fingerprint must equal the pin. At every seed a rerun in the same process
must reproduce the first run's fingerprint, a traced run must reproduce the
untraced one, the trace fold must agree with the hypervisor counters, and
every checkpoint or migration target must re-save to the source's bytes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_ept", "compile_vtlb", "disk_vahci", "migrate_precopy")
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (cmd, ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            return None
    binary = os.path.join(out, "perfbench_driver")
    return binary if os.path.isfile(binary) else None


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver; returns its JSON report or None."""
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    env = dict(os.environ)
    env.pop("NOVA_TEST_CPUS", None)  # The workloads are single-CPU machines.
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--spans",
           os.path.join(spans, "%s-seed%d-trace%d.json" % (workload, seed, trace))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench: driver failed with code %d\n" % proc.returncode)
        return None
    return json.loads(lines[-1])


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def pin_mismatches(report, pins):
    """Fingerprint keys that differ from the pin for this workload and seed.

    Returns None when no pin applies (another seed), else a list of
    mismatching keys (empty when everything matches). The untraced
    fingerprint is compared without the trace digest; a traced one with it.
    """
    if report["seed"] != pins["seed"]:
        return None
    pin = pins["workloads"].get(report["workload"])
    if pin is None:
        return ["<no pin for workload>"]
    bad = []
    for fp in (report["fingerprint"], report.get("traced_fingerprint")):
        if fp is None:
            continue
        expect = {k: v for k, v in pin.items() if k != "trace_digest" or "trace_digest" in fp}
        for key in sorted(set(expect) | set(fp)):
            if expect.get(key) != fp.get(key) and key not in bad:
                bad.append(key)
    return bad


def result(report, pins, bench):
    """Folds the driver report and the pin check into the result object."""
    errors = list(report["errors"])
    failed = report["failed"]
    bad = pin_mismatches(report, pins)
    if bad:
        # Every rep reproduces the first one (else the driver already
        # failed it), so a wrong fingerprint fails every run.
        failed += report["reps"]
        errors.append("fingerprint differs from the pin in: " + ", ".join(bad))
    key = "per_layer" if report["trace"] else "end_to_end"
    metrics = {}
    for m in bench[key]:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append("metric %s missing or in the wrong unit" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": not errors and failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }, errors


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    pins = load_json("pins.json")
    binary = build()
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    report = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    if report is None:
        return 1

    out, errors = result(report, pins, bench)
    for e in errors:
        print("perfbench: FAILED: " + e)
    print("perfbench: %s seed=%d trace=%d reps=%d attempted=%d failed=%d" % (
        args.workload, args.seed, args.trace, report["reps"], out["attempted"],
        out["failed"]))
    for name, m in out["metrics"].items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  detail: " + json.dumps(report["detail"], sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
