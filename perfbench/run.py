#!/usr/bin/env python3
"""Repository benchmark for skewsense: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  Builds the skewsense libraries and the
perfbench driver from source into .bench_build/, runs the workload's inputs
(generated from --seed) through the program, checks every output against
the goldens in perfbench/golden/, and prints one JSON object as the last
line of stdout.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a fixed-size traced pass.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench" / "perfbench_driver"
WORKLOADS = ("mc_population", "fault_campaign", "skew_sweep",
             "clocktree_transient")
THREADS = 4
SETUP_REPS = 5  # set-ups per untraced run; setup_s is their median
DRIVER_TIMEOUT_S = 170

# Output tolerances, by value-name prefix: (absolute, relative).  They admit
# the <=1e-9 differences between solve paths (dense/sparse/Schur, scalar/
# batch) by three orders of magnitude or more, and nothing a real change of
# result would produce.
TOLERANCE = {
    "vmin": (1e-6, 0.0),       # V_min [V]
    "tau_min": (1e-12, 0.0),   # 2x the bisection tolerance [s]
    "iddq_sum": (0.0, 1e-6),   # summed excess IDDQ [A]
    "t_root": (1e-13, 0.0),    # 50% crossing [s]
    "v_sum": (0.0, 1e-6),      # summed node voltages [V]
    "v_sq_sum": (0.0, 1e-6),   # [V^2]
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the libraries and the driver."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no skewsense source tree at {ROOT}")
    lib, drv = BUILD / "sks", BUILD / "perfbench"
    jobs = str(min(THREADS, os.cpu_count() or 1))
    steps = []
    if not (lib / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ROOT, "-B", lib,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", lib, "-j", jobs,
                  "--target", "sks_scheme", "sks_fault"])
    if not (drv / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE, "-B", drv,
                      f"-DSKS_SOURCE_DIR={ROOT}", f"-DSKS_BINARY_DIR={lib}"])
    steps.append(["cmake", "--build", drv, "-j", jobs])
    for cmd in steps:
        done = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(str(c) for c in cmd))


def run_driver(*args):
    """Run the driver with a clean SKS_* environment; parse its JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SKS_")}
    try:
        done = subprocess.run([str(DRIVER), *map(str, args)], env=env,
                              capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {DRIVER_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"driver exited with {done.returncode}")
    return json.loads(done.stdout)


def load_golden(workload):
    path = HERE / "golden" / f"{workload}.json"
    if not path.is_file():
        fail(f"no goldens at {path}")
    return json.loads(path.read_text())["units"]


def close(name, got, want):
    for prefix, (abs_tol, rel_tol) in TOLERANCE.items():
        if name.startswith(prefix):
            return abs(got - want) <= max(abs_tol, rel_tol * abs(want))
    return got == want


def unit_matches(unit, golden):
    """A unit is correct when its discrete outputs equal the golden's and
    every continuous output is within tolerance."""
    want = golden.get(unit["id"])
    if want is None or unit["items"] != want["items"]:
        return False
    if unit["digest"] != want["digest"]:
        return False
    if set(unit["values"]) != set(want["values"]):
        return False
    return all(close(k, v, want["values"][k])
               for k, v in unit["values"].items())


def same_outputs(a, b):
    return a["digest"] == b["digest"] and a["values"] == b["values"]


class Check:
    """Items attempted/failed plus the reasons, for the result line."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def units(self, units, label):
        for u in units:
            self.attempted += u["items"]
            if not unit_matches(u, self.golden):
                self.failed += u["items"]
                self.problems.append(f"{label} {u['id']}: output differs "
                                     "from golden")

    def identical(self, units, reference, label):
        """Outputs must not depend on thread count (or on the replay)."""
        by_id = {u["id"]: u for u in reference}
        for u in units:
            if u["id"] in by_id and not same_outputs(u, by_id[u["id"]]):
                self.problems.append(f"{label} {u['id']}: outputs differ")

    def result(self, metrics):
        for p in self.problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def metric(value, unit):
    return {"value": value, "unit": unit}


def cycle_rate(window):
    """Median over cycles (consecutive rounds covering every configuration
    once) of items per second of driver time."""
    return statistics.median(items / wall
                             for items, wall, _ in window["cycles"])


def evaluate_untraced(workload, data, golden):
    w4, w1 = data["windows"][str(THREADS)], data["windows"]["1"]
    check = Check(golden)
    check.units(w4["units"], f"{THREADS}t")
    check.units(w1["units"], "1t")
    check.identical(w1["units"], w4["units"], f"1t vs {THREADS}t")
    res = check.result({
        "setup_s": metric(statistics.median(data["setup_s"]), "s"),
        "items_per_s": metric(cycle_rate(w4), "1/s"),
        "items_per_s_1t": metric(cycle_rate(w1), "1/s"),
        "peak_rss_mb": metric(data["peak_rss_kb"] / 1024.0, "MB"),
    })
    failed_frac = res["failed"] / max(res["attempted"], 1)
    summary = " ".join(f"{k}={m['value']:.6g}{m['unit']}"
                       for k, m in res["metrics"].items())
    print(f"{workload}: {summary} failed_frac={failed_frac:.6g}")
    return res


def quantile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_times(spans):
    """Inclusive seconds per span name and self seconds per layer (span
    duration minus its child spans; the layer is the name's first field)."""
    total, self_s = {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
    return total, self_s


# Replay tally -> the registry counter the drivers bump for the same work.
COUNTER_OF = {
    "newton_iterations": "esim.newton_iterations",
    "newton_failures": "esim.newton_failures",
    "lu_factorizations": "esim.lu_factorizations",
    "lu_refactorizations": "esim.lu_refactorizations",
    "lu_pattern_rebuilds": "esim.lu_pattern_rebuilds",
    "steps_accepted": "esim.steps_accepted",
    "dt_halvings": "esim.dt_halvings",
    "be_fallbacks": "esim.be_fallbacks",
    "schur_block_factorizations": "schur.block_factorizations",
    "schur_interface_solves": "schur.interface_solves",
    "batch_lanes": "batch.lanes",
    "batch_fallbacks": "batch.fallbacks",
    "batch_refactor_passes": "batch.refactorizations",
}
COUNTS = ("newton_iterations", "newton_failures", "lu_factorizations",
          "lu_refactorizations", "lu_pattern_rebuilds", "steps_accepted",
          "dt_halvings", "be_fallbacks", "dc_gmin_steps", "dc_source_steps",
          "batch_lanes", "batch_fallbacks", "batch_refactor_passes",
          "schur_block_factorizations", "schur_interface_solves")


def evaluate_traced(workload, data, spans, golden):
    p4, p1 = data["passes"][str(THREADS)], data["passes"]["1"]
    replay = data["replay"]
    tally = replay["tally"]
    check = Check(golden)
    check.units(p4["units"], f"{THREADS}t")
    check.units(p1["units"], "1t")
    check.units(replay["units"], "replay")
    check.identical(p1["units"], p4["units"], f"1t vs {THREADS}t")
    check.identical(replay["units"], p1["units"], "replay vs driver")

    # Counts must repeat exactly across thread counts, and the replay must
    # have done the drivers' work.
    mismatches = []
    for name in sorted(set(p4["counters"]) | set(p1["counters"])):
        a, b = p4["counters"].get(name, 0), p1["counters"].get(name, 0)
        if a != b:
            mismatches.append(f"{name}: {a} at {THREADS}t, {b} at 1t")
    for key, name in COUNTER_OF.items():
        if tally[key] != p1["counters"].get(name, 0):
            mismatches.append(f"{name}: replay {tally[key]}, driver "
                              f"{p1['counters'].get(name, 0)}")
    flags = list(mismatches)
    if workload == "mc_population" and p4["counters"].get("batch.fallbacks", 0):
        flags.append("mc_population: batch fallbacks "
                     f"{p4['counters']['batch.fallbacks']} (expected 0)")
    for f in flags:
        print(f"perfbench: count check: {f}", file=sys.stderr)

    setup_total, setup_self = layer_times(spans["setup"])
    replay_total, replay_self = layer_times(spans["replay"])
    total = Counter(setup_total) + Counter(replay_total)
    self_s = Counter(setup_self) + Counter(replay_self)
    items = sum(u["items"] for u in p4["units"])
    driver_s = sum(u["wall"] for u in p4["units"])
    lanes = p4["counters"].get("batch.lanes", 0)
    fallbacks = p4["counters"].get("batch.fallbacks", 0)
    esim_s = (replay_total.get("esim.transient", 0.0)
              + replay_total.get("esim.batch_transient", 0.0))
    fault_ms = [s * 1e3 for u in p1["units"] for s in u.get("item_seconds", [])]
    measure_ms = [s * 1e3 for s in tally["measure_s"]]
    m = {
        "scheme.mc_call_s": metric(
            driver_s if workload == "mc_population" else 0.0, "s"),
        "scheme.lane_fill": metric(
            (lanes - fallbacks) / items if workload == "mc_population" else 0.0,
            "frac"),
        "fault.campaign_call_s": metric(
            driver_s if workload == "fault_campaign" else 0.0, "s"),
        "fault.inject_s": metric(total.get("fault.inject", 0.0), "s"),
        "fault.classify_s": metric(total.get("fault.classify", 0.0), "s"),
        "fault.test_samples": metric(len(fault_ms), "count"),
        "fault.test_p50_ms": metric(quantile(fault_ms, 0.50), "ms"),
        "fault.test_p95_ms": metric(quantile(fault_ms, 0.95), "ms"),
        "fault.batch_fallback_frac": metric(
            fallbacks / lanes if lanes else 0.0, "frac"),
        "cell.bench_build_s": metric(total.get("cell.bench_build", 0.0), "s"),
        "cell.interpret_s": metric(total.get("cell.interpret", 0.0), "s"),
        "cell.measure_samples": metric(len(measure_ms), "count"),
        "cell.measure_p50_ms": metric(quantile(measure_ms, 0.50), "ms"),
        "cell.measure_p99_ms": metric(quantile(measure_ms, 0.99), "ms"),
        "cell.window_step_frac": metric(
            tally["window_steps"] / tally["steps"] if tally["steps"] else 0.0,
            "frac"),
        "esim.transient_s": metric(total.get("esim.transient", 0.0), "s"),
        "esim.batch_transient_s": metric(
            total.get("esim.batch_transient", 0.0), "s"),
        "esim.dc_s": metric(total.get("esim.dc", 0.0), "s"),
        "esim.us_per_newton_iter": metric(
            esim_s / tally["newton_iterations"] * 1e6
            if tally["newton_iterations"] else 0.0, "us"),
        "esim.batch_assemble_s": metric(
            replay["timers"]["esim.batch_assemble"], "s"),
        "esim.batch_refactor_s": metric(
            replay["timers"]["esim.batch_refactor"], "s"),
        "esim.batch_trisolve_s": metric(
            replay["timers"]["esim.batch_trisolve"], "s"),
    }
    for key in COUNTS:
        m[f"esim.{key}"] = metric(tally[key], "count")
    m.update({
        "esim.schur_bytes": metric(tally["schur_bytes"], "bytes"),
        "clocktree.build_s": metric(total.get("clocktree.build", 0.0), "s"),
        "clocktree.unknowns": metric(tally["unknowns"], "count"),
        "par.util": metric(
            sum(u["busy"] for u in p4["units"]) / (THREADS * p4["wall"]),
            "frac"),
        "par.speedup": metric(p1["wall"] / p4["wall"], "x"),
        "obs.trace_overhead_frac": metric(replay["wall"] / p1["wall"] - 1.0,
                                          "frac"),
        "obs.span_coverage": metric(
            sum(replay_self.values()) / replay["wall"], "frac"),
    })
    for layer in ("scheme", "fault", "cell", "esim", "clocktree"):
        m[f"{layer}.self_s"] = metric(self_s.get(layer, 0.0), "s")
    m["check.count_mismatches"] = metric(len(mismatches), "count")
    m["check.flags"] = metric(len(flags), "count")
    m["failed_frac"] = metric(check.failed / max(check.attempted, 1), "frac")
    return check.result(m)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    golden = load_golden(args.workload)
    if args.trace:
        spans_path = BUILD / f"spans-{args.workload}-{args.seed}.json"
        data = run_driver("--workload", args.workload, "--seed", args.seed,
                          "--mode", "trace", "--spans", spans_path)
        spans = json.loads(spans_path.read_text())
        res = evaluate_traced(args.workload, data, spans, golden)
    else:
        data = run_driver("--workload", args.workload, "--seed", args.seed,
                          "--mode", "run", "--seconds", args.seconds,
                          "--setup-reps", SETUP_REPS)
        res = evaluate_untraced(args.workload, data, golden)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
