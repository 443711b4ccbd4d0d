// Span tracing: recording semantics (gating, args, bounded buffers,
// clear/re-registration) and the Chrome trace-event export, which is
// parsed back with obs::Json and checked field by field.  The 4-worker
// pool test holds every worker at a spin barrier so all four tracks are
// guaranteed to record.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "par/parallel.hpp"
#include "par/pool.hpp"
#include "util/error.hpp"

namespace sks::obs {
namespace {

// Fixture owns the global tracer's state: every test starts cleared and
// enabled, and leaves the tracer off at the default capacity.
struct ObsTrace : ::testing::Test {
  void SetUp() override {
    tracer().set_enabled(false);
    tracer().set_buffer_capacity(65536);
    tracer().clear();
    set_trace_thread_name("test-main");
    tracer().set_enabled(true);
  }
  void TearDown() override {
    tracer().set_enabled(false);
    tracer().set_buffer_capacity(65536);
    tracer().clear();
  }
};

TEST_F(ObsTrace, DisabledSpanRecordsNothing) {
  tracer().set_enabled(false);
  {
    Span span("should.not.record");
    EXPECT_FALSE(span.active());
    span.arg("x", 1.0);  // no-op, must not crash
    SKS_TRACE_SPAN("macro.span");
  }
  trace_instant("also.not.recorded");
  EXPECT_EQ(tracer().event_count(), 0u);
  EXPECT_EQ(tracer().dropped(), 0u);
}

TEST_F(ObsTrace, SpanRecordsCompleteEventWithArgs) {
  {
    Span span("unit.work");
    EXPECT_TRUE(span.active());
    span.arg("fault", std::string("SON(p1)")).arg("index", 3.0);
  }
  const auto buffers = tracer().buffers();
  ASSERT_EQ(buffers.size(), 1u);
  ASSERT_EQ(buffers[0]->size(), 1u);
  const TraceEvent& e = buffers[0]->event(0);
  EXPECT_EQ(e.phase, 'X');
  EXPECT_EQ(e.name, "unit.work");
  ASSERT_EQ(e.args.size(), 2u);
  EXPECT_EQ(e.args[0].key, "fault");
  EXPECT_EQ(e.args[0].json, "\"SON(p1)\"");
  EXPECT_EQ(e.args[1].key, "index");
  EXPECT_EQ(e.args[1].json, "3");
}

TEST_F(ObsTrace, SpanEndIsIdempotentAndStopsTheClock) {
  Span span("early.end");
  span.end();
  const std::uint64_t dur =
      tracer().buffers().at(0)->event(0).dur_ns;
  span.end();  // second end records nothing
  span.arg("late", 1.0);  // args after end are dropped
  EXPECT_EQ(tracer().event_count(), 1u);
  EXPECT_EQ(tracer().buffers().at(0)->event(0).dur_ns, dur);
}

TEST_F(ObsTrace, InstantEventsCarryPhaseAndArgs) {
  trace_instant("marker", {{"t", "1.5e-09"}});
  const auto buffers = tracer().buffers();
  ASSERT_EQ(buffers.size(), 1u);
  const TraceEvent& e = buffers[0]->event(0);
  EXPECT_EQ(e.phase, 'i');
  EXPECT_EQ(e.name, "marker");
  EXPECT_EQ(e.dur_ns, 0u);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].key, "t");
}

TEST_F(ObsTrace, MarkerCarriesTypedArgs) {
  trace_marker(Marker::kDtHalved, 2e-9, 5e-12, 7, "newton failure");
  trace_marker(Marker::kNewtonFallback, 1e-9, 0.0);
  const auto buffers = tracer().buffers();
  ASSERT_EQ(buffers.size(), 1u);
  ASSERT_EQ(buffers[0]->size(), 2u);
  const TraceEvent& e = buffers[0]->event(0);
  EXPECT_EQ(e.phase, 'i');
  EXPECT_EQ(e.name, "dt_halved");
  // t, value, iterations, detail — all carried as pre-rendered JSON.
  ASSERT_EQ(e.args.size(), 4u);
  EXPECT_EQ(e.args[0].key, "t");
  EXPECT_EQ(e.args[0].json, json_number(2e-9));
  EXPECT_EQ(e.args[1].key, "value");
  EXPECT_EQ(e.args[1].json, json_number(5e-12));
  EXPECT_EQ(e.args[2].key, "iterations");
  EXPECT_EQ(e.args[2].json, "7");
  EXPECT_EQ(e.args[3].key, "detail");
  EXPECT_EQ(e.args[3].json, "\"newton failure\"");
  // Zero iterations and an empty detail are omitted, not rendered empty.
  const TraceEvent& bare = buffers[0]->event(1);
  EXPECT_EQ(bare.name, "newton_fallback");
  ASSERT_EQ(bare.args.size(), 2u);
  EXPECT_EQ(bare.args[1].key, "value");
}

TEST_F(ObsTrace, MarkerNamesAreStable) {
  // These strings are part of the report schema (trace.instants,
  // EXPERIMENTS.md).
  EXPECT_STREQ(to_string(Marker::kNewtonFallback), "newton_fallback");
  EXPECT_STREQ(to_string(Marker::kStepRejected), "step_rejected");
  EXPECT_STREQ(to_string(Marker::kDtHalved), "dt_halved");
  EXPECT_STREQ(to_string(Marker::kFaultVerdict), "fault_verdict");
  EXPECT_STREQ(to_string(Marker::kWarning), "warning");
}

TEST_F(ObsTrace, DisabledTracerRecordsNoMarker) {
  // Call sites gate on tracer().enabled() so the detail string is never
  // built; trace_marker itself must still record nothing when off.
  tracer().set_enabled(false);
  EXPECT_FALSE(tracer().enabled());
  trace_marker(Marker::kWarning, 0.0, 0.0, 0, "dropped");
  trace_marker(Marker::kDtHalved, 1e-9, 5e-12);
  EXPECT_EQ(tracer().event_count(), 0u);
  EXPECT_EQ(tracer().dropped(), 0u);
  EXPECT_TRUE(tracer().instant_counts().empty());
  tracer().set_enabled(true);
  trace_marker(Marker::kWarning, 0.0, 0.0, 0, "kept");
  EXPECT_EQ(tracer().event_count(), 1u);
}

TEST_F(ObsTrace, InstantCountsByName) {
  trace_marker(Marker::kDtHalved, 0.0, 1e-12);
  trace_marker(Marker::kDtHalved, 1e-9, 5e-13);
  trace_marker(Marker::kStepRejected, 2e-9, 1e-12);
  { Span span("not.an.instant"); }
  trace_instant("custom.marker");
  EXPECT_EQ(tracer().event_count(), 5u);
  // Spans are not counted; names never recorded are absent.
  EXPECT_EQ(tracer().instant_counts(),
            (std::map<std::string, std::uint64_t>{{"custom.marker", 1},
                                                  {"dt_halved", 2},
                                                  {"step_rejected", 1}}));
}

TEST_F(ObsTrace, OverflowDropsNewestAndCounts) {
  tracer().set_buffer_capacity(4);
  tracer().clear();  // re-register at the new capacity
  for (int i = 0; i < 10; ++i) {
    Span span("overflow.span");
    span.arg("i", static_cast<double>(i));
  }
  EXPECT_EQ(tracer().event_count(), 4u);
  EXPECT_EQ(tracer().dropped(), 6u);
  const auto buffers = tracer().buffers();
  ASSERT_EQ(buffers.size(), 1u);
  // Oldest events survive (drop-newest policy).
  EXPECT_EQ(buffers[0]->event(0).args[0].json, "0");
  EXPECT_EQ(buffers[0]->event(3).args[0].json, "3");
}

TEST_F(ObsTrace, ClearDropsEventsAndReregistersThreads) {
  { SKS_TRACE_SPAN("before.clear"); }
  EXPECT_EQ(tracer().event_count(), 1u);
  tracer().clear();
  EXPECT_EQ(tracer().event_count(), 0u);
  EXPECT_TRUE(tracer().buffers().empty());
  { SKS_TRACE_SPAN("after.clear"); }
  EXPECT_EQ(tracer().event_count(), 1u);
  EXPECT_EQ(tracer().buffers().at(0)->event(0).name, "after.clear");
}

TEST_F(ObsTrace, ChromeJsonParsesBackWithMetadataAndEvents) {
  {
    Span span("solve");
    span.arg("nr_iters", 12.0).arg("label", "SON(n1)");
  }
  trace_instant("fallback", {{"value", "5e-12"}});
  const Json doc = Json::parse(tracer().chrome_trace_json());
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ns");
  const auto& events = doc.at("traceEvents").array();
  // process_name + thread_name metadata + span + instant.
  ASSERT_EQ(events.size(), 4u);

  const Json& process = events[0];
  EXPECT_EQ(process.at("ph").str(), "M");
  EXPECT_EQ(process.at("name").str(), "process_name");
  EXPECT_DOUBLE_EQ(process.at("pid").number(), 1.0);

  const Json& thread = events[1];
  EXPECT_EQ(thread.at("ph").str(), "M");
  EXPECT_EQ(thread.at("name").str(), "thread_name");
  EXPECT_EQ(thread.at("args").at("name").str(), "test-main");
  const double tid = thread.at("tid").number();
  EXPECT_GE(tid, 1.0);

  const Json& span_event = events[2];
  EXPECT_EQ(span_event.at("ph").str(), "X");
  EXPECT_EQ(span_event.at("name").str(), "solve");
  EXPECT_DOUBLE_EQ(span_event.at("pid").number(), 1.0);
  EXPECT_DOUBLE_EQ(span_event.at("tid").number(), tid);
  EXPECT_GE(span_event.at("ts").number(), 0.0);   // microseconds
  EXPECT_GE(span_event.at("dur").number(), 0.0);
  EXPECT_DOUBLE_EQ(span_event.at("args").at("nr_iters").number(), 12.0);
  EXPECT_EQ(span_event.at("args").at("label").str(), "SON(n1)");

  const Json& instant = events[3];
  EXPECT_EQ(instant.at("ph").str(), "i");
  EXPECT_EQ(instant.at("s").str(), "t");
  EXPECT_DOUBLE_EQ(instant.at("args").at("value").number(), 5e-12);
}

TEST_F(ObsTrace, FourPoolWorkersYieldFourNamedTracks) {
  constexpr std::size_t kWorkers = 4;
  {
    par::ThreadPool pool(kWorkers);
    // Spin barrier: no item finishes until every worker holds one, so all
    // four workers are forced to record (work stealing cannot collapse the
    // items onto fewer threads).
    std::atomic<std::size_t> arrived{0};
    par::parallel_for(pool, 0, kWorkers, [&](std::size_t i) {
      arrived.fetch_add(1);
      while (arrived.load() < kWorkers) std::this_thread::yield();
      Span span("pool.item");
      span.arg("item", static_cast<double>(i));
    });
  }
  std::set<std::uint32_t> tids;
  std::set<std::string> names;
  for (const auto& buffer : tracer().buffers()) {
    std::uint64_t prev_ts = 0;
    bool has_item = false;
    for (std::size_t i = 0; i < buffer->size(); ++i) {
      const TraceEvent& e = buffer->event(i);
      if (e.name != "pool.item") continue;
      has_item = true;
      EXPECT_GE(e.ts_ns, prev_ts);  // per-track spans appear in time order
      prev_ts = e.ts_ns;
    }
    if (has_item) {
      tids.insert(buffer->tid());
      names.insert(buffer->thread_name());
    }
  }
  EXPECT_EQ(tids.size(), kWorkers);
  ASSERT_EQ(names.size(), kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(names.count("par.worker-" + std::to_string(w)), 1u) << w;
  }
  // The export names each worker track via thread_name metadata.
  const Json doc = Json::parse(tracer().chrome_trace_json());
  std::map<double, std::string> track_names;
  for (const Json& e : doc.at("traceEvents").array()) {
    if (e.at("ph").str() == "M" && e.at("name").str() == "thread_name") {
      track_names[e.at("tid").number()] = e.at("args").at("name").str();
    }
  }
  for (const std::uint32_t tid : tids) {
    const auto it = track_names.find(static_cast<double>(tid));
    ASSERT_NE(it, track_names.end());
    EXPECT_EQ(it->second.rfind("par.worker-", 0), 0u) << it->second;
  }
}

TEST_F(ObsTrace, WriteChromeTraceRejectsUnwritablePath) {
  { SKS_TRACE_SPAN("x"); }
  EXPECT_THROW(tracer().write_chrome_trace("/nonexistent-dir/trace.json"),
               Error);
}

}  // namespace
}  // namespace sks::obs
