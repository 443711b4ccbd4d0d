// MetricsTimeline / ProgressTracker tests (obs/timeline.hpp): JSONL
// snapshot integrity under an 8-thread counter hammer, cadence triggers,
// registry StreamStat wiring, and the counter-equality contract between a
// final snapshot and a report captured right after it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace sks::obs {
namespace {

// The process-wide timeline survives across tests; every test tears its
// configuration down so later suites see it disabled again.
struct TimelineGuard {
  ~TimelineGuard() { timeline().disable(); }
};

std::string temp_timeline_path(const char* tag) {
  return std::string("test_timeline_") + tag + ".jsonl";
}

std::vector<Json> parse_timeline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<Json> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(Json::parse(line));  // throws (fails the test) on corrupt
  }
  return out;
}

TEST(MetricsTimeline, DisabledByDefaultAndSnapshotReturnsZero) {
  TimelineGuard guard;
  timeline().disable();
  EXPECT_FALSE(timeline().enabled());
  EXPECT_EQ(timeline().snapshot("noop"), 0u);
}

TEST(MetricsTimeline, SnapshotsAreMonotoneAndParseable) {
  TimelineGuard guard;
  const std::string path = temp_timeline_path("basic");
  TimelineOptions options;
  options.path = path;
  timeline().configure(options);
  ASSERT_TRUE(timeline().enabled());

  Counter& counter = registry().counter("test.timeline.basic");
  counter.reset();
  const std::uint64_t first = timeline().snapshot("one");
  counter.inc(5);
  const std::uint64_t second = timeline().snapshot("two");
  EXPECT_LT(first, second);
  timeline().disable();

  const auto snaps = parse_timeline(path);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_LT(snaps[0].at("seq").number(), snaps[1].at("seq").number());
  EXPECT_EQ(snaps[0].at("label").str(), "one");
  // The counter bumped between the snapshots must show the growth.
  EXPECT_DOUBLE_EQ(
      snaps[1].at("counters").at("test.timeline.basic").number(), 5.0);
  counter.reset();
  std::remove(path.c_str());
}

TEST(MetricsTimeline, EightThreadHammerSnapshotsStayConsistent) {
  TimelineGuard guard;
  const std::string path = temp_timeline_path("hammer");
  TimelineOptions options;
  options.path = path;
  timeline().configure(options);

  Counter& counter = registry().counter("test.timeline.hammer");
  counter.reset();
  StreamStat& hammer_stream =
      registry().stream("test.timeline.hammer_stream");
  hammer_stream.reset();

  // 7 writer threads hammer a counter while thread 8 snapshots: every
  // line must parse, seqs must be strictly monotone, and the counter
  // value must never decrease across snapshots.
  constexpr int kWriters = 7;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  threads.emplace_back([] {
    for (int i = 0; i < 50; ++i) timeline().snapshot("hammer");
  });
  for (auto& th : threads) th.join();
  hammer_stream.record(1.0);  // streams serialize beside the counter
  timeline().snapshot("final");
  timeline().disable();

  const auto snaps = parse_timeline(path);
  ASSERT_EQ(snaps.size(), 51u);
  double prev_seq = 0.0;
  double prev_value = -1.0;
  for (const Json& snap : snaps) {
    const double seq = snap.at("seq").number();
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
    const double value =
        snap.at("counters").at("test.timeline.hammer").number();
    EXPECT_GE(value, prev_value);  // counters are monotone under load
    EXPECT_LE(value, 1.0 * kWriters * kPerThread);
    prev_value = value;
    // Structural invariants of every snapshot.
    EXPECT_TRUE(snap.has("wall_s"));
    EXPECT_TRUE(snap.has("trace"));
  }
  // After the join the final snapshot must carry the exact total.
  EXPECT_DOUBLE_EQ(
      snaps.back().at("counters").at("test.timeline.hammer").number(),
      1.0 * kWriters * kPerThread);
  EXPECT_DOUBLE_EQ(snaps.back()
                       .at("streams")
                       .at("test.timeline.hammer_stream")
                       .at("count")
                       .number(),
                   1.0);
  counter.reset();
  hammer_stream.reset();
  std::remove(path.c_str());
}

TEST(MetricsTimeline, FinalSnapshotCountersMatchCapturedReport) {
  TimelineGuard guard;
  const std::string path = temp_timeline_path("equiv");
  TimelineOptions options;
  options.path = path;
  timeline().configure(options);

  registry().counter("test.timeline.equiv").reset();
  registry().counter("test.timeline.equiv").inc(123);
  // The bench drivers snapshot("final") immediately before capturing the
  // registry into BENCH_*.json; the two views must agree exactly — the
  // snapshot bumps its own seq counter BEFORE reading the registry.
  timeline().snapshot("final");
  Report report("equiv");
  report.capture_registry();
  timeline().disable();

  const auto snaps = parse_timeline(path);
  ASSERT_EQ(snaps.size(), 1u);
  const Json report_doc = Json::parse(report.to_json());
  const Json& snap_counters = snaps.back().at("counters");
  for (const auto& [name, value] : report_doc.at("counters").object()) {
    ASSERT_TRUE(snap_counters.has(name)) << name;
    EXPECT_DOUBLE_EQ(snap_counters.at(name).number(), value.number())
        << name;
  }
  registry().counter("test.timeline.equiv").reset();
  std::remove(path.c_str());
}

TEST(ProgressTracker, ItemCadenceSnapshotsAndGauges) {
  TimelineGuard guard;
  const std::string path = temp_timeline_path("progress");
  TimelineOptions options;
  options.path = path;
  options.every_items = 10;
  timeline().configure(options);

  ProgressTracker tracker("unit_test", 25);
  for (int i = 0; i < 25; ++i) {
    if (i % 2 == 0) tracker.add_partial("even");
    tracker.on_item();
  }
  EXPECT_EQ(tracker.done(), 25u);
  const ProgressSnapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.done, 25u);
  EXPECT_EQ(snap.total, 25u);
  EXPECT_DOUBLE_EQ(snap.eta_s, 0.0);  // finished
  ASSERT_EQ(snap.partial.size(), 1u);
  EXPECT_EQ(snap.partial[0].first, "even");
  EXPECT_DOUBLE_EQ(snap.partial[0].second, 13.0);
  timeline().disable();

  // Cadence: items 10, 20 and the final 25 — three snapshots.
  const auto snaps = parse_timeline(path);
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_DOUBLE_EQ(snaps[0].at("progress").at("done").number(), 10.0);
  EXPECT_DOUBLE_EQ(snaps[1].at("progress").at("done").number(), 20.0);
  EXPECT_DOUBLE_EQ(snaps[2].at("progress").at("done").number(), 25.0);
  EXPECT_DOUBLE_EQ(
      snaps[2].at("progress").at("partial").at("even").number(), 13.0);

  // Gauges mirror the live progress for `sks-report print`.
  const Gauge* done = registry().find_gauge("progress.unit_test.done");
  ASSERT_NE(done, nullptr);
  EXPECT_DOUBLE_EQ(done->value(), 25.0);
  std::remove(path.c_str());
}

TEST(ProgressTracker, DisabledPathOnlyCounts) {
  TimelineGuard guard;
  timeline().disable();
  // With obs and the timeline both off, on_item must not create gauges.
  struct FlagGuard {
    bool saved = enabled();
    ~FlagGuard() { set_enabled(saved); }
  } flag_guard;
  set_enabled(false);
  ProgressTracker tracker("disabled_test", 5);
  for (int i = 0; i < 5; ++i) tracker.on_item();
  EXPECT_EQ(tracker.done(), 5u);
  EXPECT_EQ(registry().find_gauge("progress.disabled_test.done"), nullptr);
}

TEST(StreamStatRegistry, RecordBumpsGuardCounterAndSnapshot) {
  StreamStat& stat = registry().stream("test.stream_stat.basic");
  stat.reset();
  Counter& updates = registry().counter("obs.stream_updates");
  const std::uint64_t before = updates.value();
  stat.record(1.0);
  stat.record(3.0);
  EXPECT_EQ(updates.value(), before + 2);  // the bench-gate guard counter
  const stream::StreamSummary summary = stat.snapshot();
  EXPECT_EQ(summary.count(), 2u);
  EXPECT_DOUBLE_EQ(summary.mean(), 2.0);
  EXPECT_EQ(registry().find_stream("test.stream_stat.basic"), &stat);
  EXPECT_EQ(registry().find_stream("test.stream_stat.missing"), nullptr);
  stat.reset();
  EXPECT_EQ(stat.count(), 0u);
}

}  // namespace
}  // namespace sks::obs
