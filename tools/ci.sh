#!/usr/bin/env bash
# Continuous-integration driver: warnings-as-errors build, full test suite,
# a telemetry smoke check that the bench --profile reports are valid JSON,
# the metrics timeline (the live view), and the bench regression gate
# (tools/bench_gate.py).  Run from the repository root:
#
#   tools/ci.sh                    # build + ctest + bench smoke + bench gate
#   tools/ci.sh --asan             # additionally build and test under ASan+UBSan
#   tools/ci.sh --tsan             # additionally run the concurrency tests under TSan
#   tools/ci.sh --rebaseline-bench # refresh bench/baseline/ instead of gating
#
# Wall-time gate knobs (see tools/bench_gate.py): SKS_BENCH_TIME_TOL
# (relative tolerance, default 0.20) and SKS_BENCH_SKIP_TIME=1.
#
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
RUN_ASAN=0
RUN_TSAN=0
REBASELINE=0
for arg in "$@"; do
  case "$arg" in
    --asan) RUN_ASAN=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --rebaseline-bench) REBASELINE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "=== configure + build (ci preset: RelWithDebInfo, -Werror) ==="
cmake --preset ci
cmake --build build-ci -j "$JOBS"

echo "=== tier-1 tests ==="
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== bench --profile smoke check ==="
# A short figure run and a filtered perf_micro pass must both produce
# parseable run reports (schema_version 1, see EXPERIMENTS.md).  The fig2
# run also exercises the tracing/waveform exporters: Chrome trace JSON,
# VCD, and CSV.
SMOKE_DIR=build-ci/smoke
mkdir -p "$SMOKE_DIR"
(cd "$SMOKE_DIR" && ../bench/fig2_waveforms --profile \
    --trace-out fig2_trace.json --vcd-out fig2.vcd \
    --csv-out fig2_traces.csv > fig2.log)
(cd "$SMOKE_DIR" && ../bench/perf_micro --profile \
    --benchmark_filter=BM_DcOperatingPoint \
    --benchmark_min_time=0.01 > perf.log)
for report in "$SMOKE_DIR"/BENCH_fig2_waveforms.json \
              "$SMOKE_DIR"/BENCH_perf_micro.json; do
  [ -s "$report" ] || { echo "missing report: $report" >&2; exit 1; }
  python3 -m json.tool "$report" > /dev/null \
    || { echo "invalid JSON: $report" >&2; exit 1; }
  echo "ok: $report"
done
python3 - "$SMOKE_DIR/BENCH_fig2_waveforms.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert int(doc["counters"]["esim.newton_iterations"]) > 0
assert "esim.run_transient" in doc["timers"]
print("ok: fig2 report carries solver counters and timers")
EOF

echo "=== tracing + waveform export smoke check ==="
# The Chrome trace must be valid trace-event JSON with span and instant
# events; the VCD and CSV dumps must be non-empty and well-formed.
python3 - "$SMOKE_DIR/fig2_trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
phases = {e["ph"] for e in events}
assert "M" in phases and "X" in phases, phases
spans = [e for e in events if e["ph"] == "X"]
assert all("ts" in e and "dur" in e and "tid" in e for e in spans)
assert any(e["name"] == "esim.run_transient" for e in spans)
print(f"ok: {len(events)} trace events ({len(spans)} spans)")
EOF
grep -q '$enddefinitions' "$SMOKE_DIR/fig2.vcd" \
  || { echo "invalid VCD: $SMOKE_DIR/fig2.vcd" >&2; exit 1; }
[ "$(head -1 "$SMOKE_DIR/fig2_traces.csv" | cut -c1-2)" = "t," ] \
  || { echo "invalid CSV: $SMOKE_DIR/fig2_traces.csv" >&2; exit 1; }
echo "ok: $SMOKE_DIR/fig2.vcd, $SMOKE_DIR/fig2_traces.csv"

echo "=== fallback marker smoke check ==="
# The Sec. 3 campaign takes the solver off its fast path (DC continuation
# ladders, unsimulated or escaping faults): a traced run must write at
# least one newton_fallback or fault_verdict instant, and its report's
# trace section must count the instants the trace file holds.
(cd "$SMOKE_DIR" && ../bench/sec3_testability --profile \
    --trace-out sec3_trace.json > sec3.log)
python3 - "$SMOKE_DIR/sec3_trace.json" \
    "$SMOKE_DIR/BENCH_sec3_testability.json" <<'EOF'
import collections, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
instants = collections.Counter(e["name"] for e in events if e["ph"] == "i")
assert instants["newton_fallback"] + instants["fault_verdict"] >= 1, instants
trace = json.load(open(sys.argv[2]))["trace"]
assert trace["dropped"] == 0, trace
assert trace["instants"] == dict(instants), (trace["instants"], instants)
print("ok: sec3 trace instants", dict(instants))
EOF

echo "=== sks-report CLI smoke check ==="
SKS_REPORT=build-ci/tools/sks-report
"$SKS_REPORT" print "$SMOKE_DIR/BENCH_fig2_waveforms.json" > /dev/null
"$SKS_REPORT" diff "$SMOKE_DIR/BENCH_fig2_waveforms.json" \
    "$SMOKE_DIR/BENCH_perf_micro.json" > /dev/null
echo "ok: sks-report print/diff"

echo "=== performance attribution smoke check ==="
# The traced fig2 run must embed a call-tree profile in its report and
# drop the collapsed-stack flamegraph file next to it; `sks-report flame`
# must rank it (from the report AND from the raw Chrome trace), and
# `sks-report diff` on two traced reports (fig2 and sec3) must rank their
# profile nodes by wall-time delta.
FLAME_FILE=$SMOKE_DIR/FLAME_fig2_waveforms.collapsed
[ -s "$FLAME_FILE" ] \
  || { echo "missing collapsed stacks: $FLAME_FILE" >&2; exit 1; }
grep -q "esim.run_transient" "$FLAME_FILE" \
  || { echo "collapsed stacks lack solver spans" >&2; exit 1; }
"$SKS_REPORT" flame "$SMOKE_DIR/BENCH_fig2_waveforms.json" \
    > "$SMOKE_DIR/flame_report.log"
grep -q "esim.run_transient" "$SMOKE_DIR/flame_report.log" \
  || { echo "flame table lacks solver spans" >&2; exit 1; }
"$SKS_REPORT" flame "$SMOKE_DIR/fig2_trace.json" --top 5 \
    --collapsed "$SMOKE_DIR/flame_from_trace.collapsed" > /dev/null
[ -s "$SMOKE_DIR/flame_from_trace.collapsed" ] \
  || { echo "flame --collapsed wrote nothing" >&2; exit 1; }
"$SKS_REPORT" diff "$SMOKE_DIR/BENCH_fig2_waveforms.json" \
    "$SMOKE_DIR/BENCH_sec3_testability.json" > "$SMOKE_DIR/attribution.log"
grep -q "^  #[0-9].*esim" "$SMOKE_DIR/attribution.log" \
  || { echo "diff printed no attribution rows" >&2; exit 1; }
echo "ok: sks-report flame/diff + $FLAME_FILE"

echo "=== postmortem bundle smoke check ==="
# A deliberately singular netlist (two ideal sources pinning one node to
# different voltages) must fail, emit a self-contained bundle that names
# the LU back end that ran, explain to the singular_system class, and
# reproduce from the bundle alone.
PM_DIR=build-ci/postmortem
rm -rf "$PM_DIR"
mkdir -p "$PM_DIR"
cat > "$PM_DIR/singular.sp" <<'EOF'
* conflicting ideal sources: structurally singular MNA system
V1 n 0 DC 1.0
V2 n 0 DC 2.0
R1 n 0 1e3
.end
EOF
if "$SKS_REPORT" run "$PM_DIR/singular.sp" --dc \
    --postmortem "$PM_DIR/bundles" > "$PM_DIR/run.log" 2>&1; then
  echo "singular netlist unexpectedly converged" >&2; exit 1
fi
BUNDLE=$(ls -d "$PM_DIR"/bundles/pm_* | head -1)
[ -n "$BUNDLE" ] || { echo "no postmortem bundle written" >&2; exit 1; }
grep -q '"solver_mode": "sparse"' "$BUNDLE/manifest.json" \
  || { echo "manifest does not name the sparse LU back end" >&2; exit 1; }
"$SKS_REPORT" explain "$BUNDLE" | tee "$PM_DIR/explain.log" \
    | grep -q "singular_system" \
  || { echo "explain did not classify singular_system" >&2; exit 1; }
"$SKS_REPORT" repro "$BUNDLE" \
  || { echo "bundle failure did not reproduce" >&2; exit 1; }
echo "ok: sks-report run/explain/repro on $BUNDLE"

echo "=== bench history smoke check ==="
"$SKS_REPORT" history "$PM_DIR/history.jsonl" \
    "$SMOKE_DIR/BENCH_perf_micro.json" > /dev/null
# Capture to a file rather than `| grep -q`: under pipefail, grep -q
# closing the pipe at the first match SIGPIPEs sks-report mid-table.
# The second append hands over the SAME report, so dedup must skip it
# (keyed on the content hash) and the file must stay at one line.
"$SKS_REPORT" history "$PM_DIR/history.jsonl" \
    "$SMOKE_DIR/BENCH_perf_micro.json" > "$PM_DIR/history_table.log"
grep -q "metric" "$PM_DIR/history_table.log" \
  || { echo "history trend table missing" >&2; exit 1; }
grep -q "duplicate" "$PM_DIR/history_table.log" \
  || { echo "history dedup did not skip an identical report" >&2; exit 1; }
[ "$(wc -l < "$PM_DIR/history.jsonl")" = 1 ] \
  || { echo "duplicate report still appended to history" >&2; exit 1; }
# Every history line must carry its dedup hash and the provenance meta.
python3 - "$PM_DIR/history.jsonl" <<'EOF'
import json, sys
line = json.loads(open(sys.argv[1]).readline())
assert len(line["hash"]) == 16, line.get("hash")
assert "git_sha" in line["meta"] and "compiler" in line["meta"], line["meta"]
print("ok: history line carries hash", line["hash"],
      "and git_sha", line["meta"]["git_sha"])
EOF
echo "ok: sks-report history (dedup + provenance)"

echo "=== metrics timeline smoke check ==="
# A scaled-down fig5 Monte-Carlo run with the timeline enabled must emit
# >= 10 JSONL snapshots with strictly monotone seq, and the final snapshot
# must agree exactly with the end-of-run BENCH report's counters (the
# equality contract documented in obs/timeline.hpp).  `sks-report
# timeline`/`tail` must both render the file, and `sks-report diff` of the
# timeline against the report must find no counter delta.
TL_DIR=build-ci/timeline
rm -rf "$TL_DIR"
mkdir -p "$TL_DIR"
(cd "$TL_DIR" && SKS_BENCH_SCALE=0.1 SKS_TIMELINE=fig5_timeline.jsonl \
    SKS_TIMELINE_EVERY=10 ../bench/fig5_montecarlo --profile > fig5.log)
python3 - "$TL_DIR/fig5_timeline.jsonl" "$TL_DIR/BENCH_fig5_montecarlo.json" <<'EOF'
import json, sys
snaps = []
with open(sys.argv[1]) as f:
    for line_no, line in enumerate(f, 1):
        if not line.strip():
            continue
        snap = json.loads(line)  # every line must parse
        assert isinstance(snap["seq"], int), f"line {line_no}: bad seq"
        snaps.append(snap)
assert len(snaps) >= 10, f"only {len(snaps)} snapshots"
seqs = [s["seq"] for s in snaps]
assert seqs == sorted(set(seqs)), "seq not strictly monotone"
final = snaps[-1]
assert final["label"] == "final", final["label"]
report = json.load(open(sys.argv[2]))
# Counter equality: the final snapshot is taken immediately before the
# registry capture, and bumps its own counters first.
assert final["counters"] == {k: int(v) for k, v in report["counters"].items()}, \
    "final snapshot counters != BENCH report counters"
# Stream summaries must match too (same registry, same instant).
assert set(final["streams"]) == set(report["streams"]), \
    (set(final["streams"]), set(report["streams"]))
for name, snap_s in final["streams"].items():
    rep_s = report["streams"][name]
    assert snap_s["count"] == rep_s["count"], name
    assert abs(snap_s["mean"] - rep_s["mean"]) <= 1e-9 * max(1.0, abs(rep_s["mean"])), name
# Progress snapshots rode the OrderedSink commit order.
with_progress = [s for s in snaps if "progress" in s]
assert with_progress, "no item-cadence progress snapshots"
assert with_progress[-1]["progress"]["done"] == with_progress[-1]["progress"]["total"]
# Drop counters are surfaced in every snapshot.
assert all("trace" in s for s in snaps)
print(f"ok: {len(snaps)} monotone snapshots; final matches BENCH report")
EOF
"$SKS_REPORT" timeline "$TL_DIR/fig5_timeline.jsonl" > "$TL_DIR/timeline.log" \
  || { echo "sks-report timeline failed" >&2; exit 1; }
grep -q "monotone" "$TL_DIR/timeline.log" \
  || { echo "timeline summary missing" >&2; exit 1; }
"$SKS_REPORT" diff "$TL_DIR/fig5_timeline.jsonl" \
    "$TL_DIR/BENCH_fig5_montecarlo.json" > "$TL_DIR/diff.log"
if grep -q "^counters:" "$TL_DIR/diff.log"; then
  echo "final timeline snapshot counters differ from the report:" >&2
  cat "$TL_DIR/diff.log" >&2; exit 1
fi
"$SKS_REPORT" tail "$TL_DIR/fig5_timeline.jsonl" | grep -q "final" \
  || { echo "sks-report tail did not render the final snapshot" >&2; exit 1; }
echo "ok: timeline JSONL + sks-report timeline/tail/diff"

echo "=== bench regression gate ==="
# perf_micro's deterministic fixed-workload pass yields exact solver work
# counts (values.fixed.*, machine-independent, gated at >0%); the
# google-benchmark JSON carries wall times (machine-dependent, gated at
# SKS_BENCH_TIME_TOL when a baseline exists).
BENCH_DIR=build-ci/bench-gate
mkdir -p "$BENCH_DIR"
# SKS_TRACE=1: the gate run records spans so its report embeds the span-tree
# profile — that is what `sks-report diff` ranks against the baseline
# when a value drifts out of its window.  Span recording is outside the
# fixed counter windows, so the fixed.* counts (and the REQUIRED_ZERO
# obs.* guards) are identical with tracing on or off.
(cd "$BENCH_DIR" && SKS_TRACE=1 ../bench/perf_micro \
    --benchmark_min_time=0.05 \
    --benchmark_out=gbench_perf_micro.json \
    --benchmark_out_format=json > bench.log)
# Append this run to the history (identical re-runs dedup by hash).  CI
# uploads bench/history.jsonl as an artifact and restores it across runs;
# render the trend table with `sks-report history bench/history.jsonl`.
"$SKS_REPORT" history bench/history.jsonl \
    "$BENCH_DIR/BENCH_perf_micro.json" > /dev/null
if [ "$REBASELINE" = 1 ]; then
  python3 tools/bench_gate.py rebaseline \
      --report "$BENCH_DIR/BENCH_perf_micro.json" \
      --timings "$BENCH_DIR/gbench_perf_micro.json"
else
  python3 tools/bench_gate.py check \
      --report "$BENCH_DIR/BENCH_perf_micro.json" \
      --timings "$BENCH_DIR/gbench_perf_micro.json" \
      --attribute-with "$SKS_REPORT"
fi

echo "=== bigtree scaling curve artifact ==="
# Fold the hierarchical-vs-flat wall-time-vs-size curve (and the Schur
# working-set bytes) out of the gate run's report into one CSV; CI uploads
# it next to bench/history.jsonl so the scaling trend is a downloadable
# artifact without parsing the full report.
python3 - "$BENCH_DIR/BENCH_perf_micro.json" \
    > "$BENCH_DIR/bigtree_scaling.csv" <<'EOF'
import json, sys
values = json.load(open(sys.argv[1]))["values"]
print("levels,unknowns_approx,hier_wall_s,sparse_wall_s,schur_bytes")
for lv, n in ((4, 2076), (5, 8732), (6, 33308), (7, 139804)):
    hier = values.get(f"solver.bigtree_l{lv}_hier_wall_s")
    flat = values.get(f"solver.bigtree_l{lv}_sparse_wall_s")
    mem = values.get(f"mem.bigtree_l{lv}_schur_bytes")
    assert hier is not None, f"report lacks the level-{lv} hier wall time"
    row = [str(lv), str(n), f"{hier:.6f}",
           "" if flat is None else f"{flat:.6f}",
           "" if mem is None else f"{mem:.0f}"]
    print(",".join(row))
EOF
cat "$BENCH_DIR/bigtree_scaling.csv"
echo "ok: $BENCH_DIR/bigtree_scaling.csv"

if [ "$RUN_ASAN" = 1 ]; then
  echo "=== ASan+UBSan build + tests ==="
  cmake --preset asan
  cmake --build build-asan -j "$JOBS"
  # -LE slow: the soak suites (integration, bigtree scaling) take minutes
  # under sanitizer instrumentation; the default job above ran them
  # uninstrumented.  Same policy as the tsan preset.
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" -LE slow
fi

if [ "$RUN_TSAN" = 1 ]; then
  echo "=== TSan build + concurrency tests ==="
  cmake --preset tsan
  cmake --build build-tsan -j "$JOBS"
  ctest --preset tsan -j "$JOBS"
fi

echo "=== CI OK ==="
