// Memory accounting: process-level peak RSS / page-fault capture plus
// `mem.*` byte gauges on the real retainers (sparse LU fill, the
// BatchSimulator SoA stripes, retained waveforms, trace buffer capacity).
//
// Two tiers, mirroring the Span/Tracer cost discipline:
//
//  * `record_mem_gauges()` is a *cold* end-of-run / per-snapshot sampler
//    (one getrusage syscall + a handful of gauge stores).  It is NOT gated
//    on obs::enabled(): every bench run records `mem.peak_rss_bytes` and
//    `mem.major_page_faults` so bench/history.jsonl accumulates a memory
//    trend alongside wall times even with profiling off.
//  * `record_peak_bytes()` is the *instrumented* path the engine/batch
//    layers call near hot code (plan build, SoA allocation, run end).
//    Call sites gate on obs::enabled() — zero cost when profiling is off —
//    and every update bumps `obs.mem_gauge_updates`, which the bench gate
//    pins to zero for the profiling-off fixed workloads (same REQUIRED_ZERO
//    mechanism that guards stream/timeline accumulators).
//
// Gauges use max semantics ("peak observed this run"): registry gauges are
// zeroed by Registry::reset() at run start, then only ratchet upward.  The
// max is approximate under concurrent writers (benign gauge race).
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace sks::obs {

// Process-wide memory counters from getrusage(RUSAGE_SELF); zeros on
// platforms without it.
struct MemStats {
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t major_page_faults = 0;
  std::uint64_t minor_page_faults = 0;
};

MemStats sample_mem_stats();

// Cold sampler: sets mem.peak_rss_bytes / mem.major_page_faults /
// mem.minor_page_faults from getrusage, and mem.trace_buffer_bytes from
// the current trace buffer capacities.  Ungated; call once at the end of a
// run and from timeline snapshots.
void record_mem_gauges(Registry& reg = registry());

// Instrumented path: ratchet `gauge` up to `bytes` (max semantics) and
// bump obs.mem_gauge_updates.  Callers cache the Gauge& (stable address)
// and gate on obs::enabled().
void record_peak_bytes(Gauge& gauge, double bytes);

}  // namespace sks::obs
