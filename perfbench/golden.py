#!/usr/bin/env python3
"""Record the output goldens the benchmark checks every run against.

    python3 perfbench/golden.py [WORKLOAD ...]

Runs every round of each workload's input pool through the program (at 4
threads) and writes perfbench/golden/<workload>.json.  Record them on the
commit whose results are the reference: a later commit that changes a
result then fails the benchmark's correctness check.
"""

import json
import subprocess
import sys

import run


def commit():
    done = subprocess.run(["git", "-C", str(run.ROOT), "rev-parse",
                           "--short=12", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() or "unknown"


def sane(workload, unit):
    """Every pool input must simulate; the workload definitions rely on it."""
    if workload == "mc_population":
        return " unsim=0 " in unit["digest"]
    if workload == "fault_campaign":
        return "U" not in unit["digest"]
    if workload == "skew_sweep":
        # tau_min strictly inside the seeded bracket (see SkewSweep::setup).
        return 0.02e-9 < unit["values"]["tau_min"] < 0.6e-9
    return unit["digest"] == "root-crossed"


def main():
    names = sys.argv[1:] or run.WORKLOADS
    run.build()
    for name in names:
        data = run.run_driver("--workload", name, "--mode", "golden")
        units = {}
        for u in data["units"]:
            if not sane(name, u):
                run.fail(f"{name} {u['id']}: unusable pool input {u}")
            units[u["id"]] = {k: u[k] for k in ("items", "digest", "values")}
        path = run.HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        write(path, name, commit(), units)
        print(f"{name}: {len(units)} units -> {path}")


def write(path, workload, at_commit, units):
    """One unit per line, so a changed result shows as a one-line diff."""
    lines = [f"  {json.dumps(k)}: {json.dumps(u)}" for k, u in units.items()]
    path.write_text(f'{{"workload": {json.dumps(workload)}, '
                    f'"commit": {json.dumps(at_commit)},\n "units": {{\n'
                    + ",\n".join(lines) + "\n }\n}\n")


if __name__ == "__main__":
    main()
