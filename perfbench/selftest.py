#!/usr/bin/env python3
"""Quick self-tests of the benchmark.

    python3 perfbench/selftest.py

For each workload, a quick untraced run (1 s of timed windows, one set-up)
and a traced run check that:
  * the metrics are exactly those BENCHMARK.json names, with its units;
  * every output matches the goldens;
  * the traced run's layer self times cover >= 90% of the replay wall;
  * a corrupted golden value is detected as a failure.
Exits non-zero when any check fails.
"""

import copy
import json
import sys

import run


def emitted(result, spec):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return got == spec


def corrupt(golden, unit):
    """The goldens with one value of `unit` moved far outside tolerance."""
    bad = copy.deepcopy(golden)
    values = bad[unit["id"]]["values"]
    name = next(iter(values))
    values[name] += max(1.0, abs(values[name]))
    return bad


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run.build()
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in run.WORKLOADS:
        golden = run.load_golden(w)
        data = run.run_driver("--workload", w, "--seed", 1, "--mode", "run",
                              "--seconds", 1, "--setup-reps", 1)
        res = run.evaluate_untraced(w, data, golden)
        expect(emitted(res, e2e), f"{w}: end-to-end metrics with units")
        expect(res["correct"] and res["failed"] == 0,
               f"{w}: outputs match the goldens")
        bad = corrupt(golden, data["windows"][str(run.THREADS)]["units"][0])
        res = run.evaluate_untraced(w, data, bad)
        expect(not res["correct"] and res["failed"] > 0,
               f"{w}: corrupted golden detected")

        spans_path = run.BUILD / f"spans-{w}-selftest.json"
        data = run.run_driver("--workload", w, "--seed", 1, "--mode", "trace",
                              "--spans", spans_path)
        res = run.evaluate_traced(w, data, json.loads(spans_path.read_text()),
                                  golden)
        expect(emitted(res, layers), f"{w}: per-layer metrics with units")
        expect(res["correct"] and res["failed"] == 0,
               f"{w}: traced outputs match the goldens and the drivers")
        coverage = res["metrics"]["obs.span_coverage"]["value"]
        expect(coverage >= 0.9, f"{w}: span self times cover {coverage:.3f} "
               "of the replay wall")
        expect(res["metrics"]["check.count_mismatches"]["value"] == 0,
               f"{w}: counts repeat across thread counts and the replay")
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
