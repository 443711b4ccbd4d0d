#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/trace.hpp"

namespace sks::obs {
namespace {

// The obs enable flag is process-global; every test restores it so test
// order cannot leak profiling mode into other suites.
struct ObsFlagGuard {
  bool saved = enabled();
  ~ObsFlagGuard() { set_enabled(saved); }
};

TEST(Counter, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TimerStat, AccumulatesMinMaxMean) {
  TimerStat t;
  EXPECT_EQ(t.min_ns(), 0u);  // empty: min reports 0, not the sentinel
  EXPECT_DOUBLE_EQ(t.mean_seconds(), 0.0);
  t.record_ns(100);
  t.record_ns(300);
  t.record_ns(200);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_EQ(t.total_ns(), 600u);
  EXPECT_EQ(t.min_ns(), 100u);
  EXPECT_EQ(t.max_ns(), 300u);
  EXPECT_DOUBLE_EQ(t.mean_seconds(), 200e-9);
  t.reset();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.min_ns(), 0u);
}

TEST(RegistryTest, GetOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("a");
  a.inc(7);
  EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_EQ(reg.counter("a").value(), 7u);
  // reset() zeroes but does not invalidate: the cached reference still
  // points at the live entry.
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.inc();
  EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(RegistryTest, FindDoesNotCreate) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_timer("nope"), nullptr);
  EXPECT_TRUE(reg.counters().empty());
  reg.counter("yes").inc();
  ASSERT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.find_counter("yes")->value(), 1u);
}

TEST(RegistryTest, SnapshotsAreSortedByName) {
  Registry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  const auto snap = reg.counters();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");
  EXPECT_EQ(snap[1].first, "b");
}

TEST(RegistryTest, HistogramBinningFixedOnFirstUse) {
  Registry reg;
  util::Histogram& h = reg.histogram("h", 0.0, 10.0, 5);
  h.add(1.0);
  // A later call with a different range returns the same histogram.
  util::Histogram& again = reg.histogram("h", -99.0, 99.0, 50);
  EXPECT_EQ(&again, &h);
  EXPECT_DOUBLE_EQ(again.lo(), 0.0);
  EXPECT_DOUBLE_EQ(again.hi(), 10.0);
  reg.reset();
  EXPECT_EQ(h.total(), 0u);
}

TEST(RegistryTest, HistogramRangeMismatchIsCountedNotSilent) {
  Registry reg;
  reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_EQ(reg.find_counter("obs.histogram_range_mismatch"), nullptr)
      << "first use fixes the binning without complaint";
  // Matching re-request: still no mismatch.
  reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_EQ(reg.find_counter("obs.histogram_range_mismatch"), nullptr);
  // Conflicting range, hi, and bin count each count once.
  reg.histogram("h", -1.0, 10.0, 5);
  reg.histogram("h", 0.0, 20.0, 5);
  reg.histogram("h", 0.0, 10.0, 7);
  const Counter* mismatches =
      reg.find_counter("obs.histogram_range_mismatch");
  ASSERT_NE(mismatches, nullptr);
  EXPECT_EQ(mismatches->value(), 3u);
}

// Span as the scope timer: the obs switch gates the TimerStat, the tracer
// switch gates the trace event.  The guard restores both so no test leaks
// a mode into other suites.
struct SpanSwitchGuard {
  bool obs_saved = enabled();
  bool trace_saved = tracer().enabled();
  SpanSwitchGuard() {
    tracer().set_enabled(false);
    tracer().clear();
  }
  ~SpanSwitchGuard() {
    set_enabled(obs_saved);
    tracer().set_enabled(trace_saved);
    tracer().clear();
  }
};

TEST(SpanTimer, DisabledRecordsNothing) {
  SpanSwitchGuard guard;
  set_enabled(false);
  Registry reg;
  TimerStat& stat = reg.timer("region");
  {
    Span span("region", stat);
    EXPECT_DOUBLE_EQ(span.end(), 0.0);
  }
  EXPECT_EQ(stat.count(), 0u);
}

TEST(SpanTimer, EnabledRecordsAndEndIsIdempotent) {
  SpanSwitchGuard guard;
  set_enabled(true);
  Registry reg;
  TimerStat& stat = reg.timer("region");
  {
    Span span("region", stat);
    span.end();
    EXPECT_DOUBLE_EQ(span.end(), 0.0);  // second end records nothing
  }  // ... and neither does the destructor
  EXPECT_EQ(stat.count(), 1u);
}

TEST(SpanTimer, NestedScopesAccumulateInnerWithinOuter) {
  SpanSwitchGuard guard;
  set_enabled(true);
  Registry reg;
  TimerStat& outer = reg.timer("outer");
  TimerStat& inner = reg.timer("inner");
  {
    Span to("outer", outer);
    for (int i = 0; i < 3; ++i) {
      Span ti("inner", inner);
      volatile double sink = 0.0;
      for (int k = 0; k < 1000; ++k) sink = sink + static_cast<double>(k);
    }
  }
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_EQ(inner.count(), 3u);
  // The inner scopes are strictly contained in the outer one.
  EXPECT_LE(inner.total_ns(), outer.total_ns());
}

TEST(SpanTimer, SpanWithoutStatTimesNothingWhenTracingIsOff) {
  SpanSwitchGuard guard;
  set_enabled(true);
  // A stat-less span is a pure trace span: with tracing off it reads no
  // clock, and it never creates a registry entry under its name.
  {
    Span span("obs_test.span_only");
    EXPECT_FALSE(span.active());
    EXPECT_DOUBLE_EQ(span.end(), 0.0);
  }
  EXPECT_EQ(registry().find_timer("obs_test.span_only"), nullptr);
  EXPECT_EQ(tracer().event_count(), 0u);
}

TEST(SpanTimer, ObsAndTraceSwitchesAreIndependent) {
  SpanSwitchGuard guard;
  Registry reg;
  TimerStat& stat = reg.timer("region");

  // obs on, tracing off: the stat records, no trace event.
  set_enabled(true);
  { Span span("region", stat); }
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_EQ(tracer().event_count(), 0u);

  // obs off, tracing on: a trace event, the stat stays put.
  set_enabled(false);
  tracer().set_enabled(true);
  { Span span("region", stat); }
  EXPECT_EQ(stat.count(), 1u);
  ASSERT_EQ(tracer().event_count(), 1u);

  // Both on: one clock read per end serves both, so the stat's increment
  // is exactly the event's duration.
  set_enabled(true);
  const std::uint64_t before_ns = stat.total_ns();
  {
    Span span("region", stat);
    volatile double sink = 0.0;
    for (int k = 0; k < 1000; ++k) sink = sink + static_cast<double>(k);
  }
  EXPECT_EQ(stat.count(), 2u);
  const auto buffers = tracer().buffers();
  ASSERT_EQ(buffers.size(), 1u);
  ASSERT_EQ(buffers[0]->size(), 2u);
  const TraceEvent& e = buffers[0]->event(1);
  EXPECT_EQ(e.name, "region");
  EXPECT_EQ(stat.total_ns() - before_ns, e.dur_ns);

  // Both off: nothing at all.
  set_enabled(false);
  tracer().set_enabled(false);
  {
    Span span("region", stat);
    EXPECT_DOUBLE_EQ(span.end(), 0.0);
  }
  EXPECT_EQ(stat.count(), 2u);
  EXPECT_EQ(tracer().event_count(), 2u);
}

}  // namespace
}  // namespace sks::obs
