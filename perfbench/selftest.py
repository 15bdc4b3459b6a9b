#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

Builds the driver, then runs every workload at a small size, twice in one
process, both untraced (--trace 0) and as two untraced/traced pairs
(--trace 1), and checks that:
  * the runs of a process give identical fingerprints, the traced runs
    identical trace digests, and the traced fingerprint equals the
    untraced one apart from the trace digest;
  * every metric BENCHMARK.json names is reported, with its unit, and
    every per-layer metric is described in layer_map.json;
  * nothing failed (fail ratio 0);
  * a deliberately altered pin is caught as a failure.
Exits 0 when every check passes.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Two reps untraced; two untraced/traced pairs traced, so that the traced
# reps are also compared with each other.
REPS = {0: 2, 1: 4}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    layer_map = run.load_json("layer_map.json")
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)

    for m in bench["per_layer"]:
        entry = layer_map["per_layer"].get(m["name"])
        check(entry is not None and entry["unit"] == m["unit"],
              "layer_map.json lacks %s or gives another unit" % m["name"])
    check(list(layer_map["workloads"]) == list(run.WORKLOADS),
          "layer_map.json workloads differ from run.py's")
    check(sorted(w["name"] for w in bench["workloads"]) ==
          sorted(set(run.WORKLOADS) - set(layer_map["not_in_benchmark"])),
          "BENCHMARK.json workloads differ from layer_map.json's benchmark workloads")

    binary = run.build()
    if binary is None:
        print("selftest: build failed")
        return 1
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            report = run.run_driver(binary, workload, layer_map["default_seed"], 1,
                                    trace, ("--size", "small", "--reps", str(REPS[trace])))
            if report is None:
                problems.append(label + ": driver failed")
                continue
            check(report["reps"] == REPS[trace],
                  label + ": expected %d runs in one process" % REPS[trace])
            check(report["failed"] == 0 and not report["errors"],
                  label + ": failures %d %s" % (report["failed"], report["errors"]))
            if trace:
                traced = dict(report["traced_fingerprint"])
                check("trace_digest" in traced, label + ": no trace digest")
                traced.pop("trace_digest", None)
                check(traced == report["fingerprint"],
                      label + ": traced fingerprint differs from the untraced one")

            # The small size has no pin: pin this run's own fingerprints.
            pin = dict(report["fingerprint"])
            if report["traced_fingerprint"]:
                pin.update(report["traced_fingerprint"])
            pins = {"seed": report["seed"], "workloads": {workload: pin}}
            out, errors = run.result(report, pins, bench)
            check(out["correct"] and out["failed"] == 0 and not errors,
                  label + ": run not correct against its own pin: %s" % errors)
            key = "per_layer" if trace else "end_to_end"
            for m in bench[key]:
                got = out["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      label + ": metric %s missing or in the wrong unit" % m["name"])
            altered = dict(pin)
            altered["sim_ps"] += 1
            pins["workloads"][workload] = altered
            bad, _ = run.result(report, pins, bench)
            check(not bad["correct"] and bad["failed"] >= report["reps"],
                  label + ": an altered pin was not caught")
            print("selftest: %s ok" % label if not problems else
                  "selftest: %s checked" % label)

    for p in problems:
        print("selftest: FAIL: " + p)
    print("selftest: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
