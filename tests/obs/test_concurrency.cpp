// Concurrency stress for the obs layer — the TSan target exercising the
// guarantees documented in obs/metrics.hpp and obs/trace.hpp: sharded
// counters, lock-free timer stats, the mutex-guarded registry, span timers
// and the tracer's per-thread buffers, all hammered from many threads with
// exact totals checked after the writers quiesce.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sks::obs {
namespace {

constexpr int kThreads = 8;

void hammer(int per_thread, const std::function<void(int)>& op) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([per_thread, &op] {
      for (int i = 0; i < per_thread; ++i) op(i);
    });
  }
  for (auto& th : threads) th.join();
}

TEST(ObsConcurrency, CounterTotalExactAfterJoin) {
  Counter counter;
  hammer(100000, [&](int) { counter.inc(); });
  EXPECT_EQ(counter.value(), 800000u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsConcurrency, RegistryCounterSharedAcrossThreads) {
  Counter& counter = registry().counter("test.concurrency.shared");
  counter.reset();
  hammer(50000, [&](int) { counter.inc(2); });
  EXPECT_EQ(counter.value(), 800000u);
  counter.reset();
}

TEST(ObsConcurrency, RegistryEntryCreationRaceYieldsOneEntry) {
  // All threads request the same (new) names concurrently; every caller
  // must get the same stable entry.
  std::atomic<int> round{0};
  const int r = round.fetch_add(1);
  const std::string base =
      "test.concurrency.race." + std::to_string(r) + ".";
  hammer(64, [&](int i) {
    registry().counter(base + std::to_string(i % 8)).inc();
  });
  std::uint64_t total = 0;
  for (int i = 0; i < 8; ++i) {
    total += registry().counter(base + std::to_string(i)).value();
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * 64);
  for (int i = 0; i < 8; ++i) {
    registry().counter(base + std::to_string(i)).reset();
  }
}

TEST(ObsConcurrency, TimerStatCountAndTotalExact) {
  TimerStat stat;
  hammer(10000, [&](int i) {
    stat.record_ns(static_cast<std::uint64_t>(i % 100) + 1);
  });
  EXPECT_EQ(stat.count(), static_cast<std::uint64_t>(kThreads) * 10000);
  // Per thread: sum over i of (i % 100) + 1.
  std::uint64_t per_thread = 0;
  for (int i = 0; i < 10000; ++i) per_thread += (i % 100) + 1;
  EXPECT_EQ(stat.total_ns(), per_thread * kThreads);
  EXPECT_EQ(stat.min_ns(), 1u);
  EXPECT_EQ(stat.max_ns(), 100u);
}

TEST(ObsConcurrency, ScopedTimersFromManyThreads) {
  const bool was_enabled = enabled();
  set_enabled(true);
  TimerStat& stat = registry().timer("test.concurrency.scoped");
  stat.reset();
  hammer(1000, [&](int) { Span span("test.concurrency.scoped", stat); });
  EXPECT_EQ(stat.count(), static_cast<std::uint64_t>(kThreads) * 1000);
  stat.reset();
  set_enabled(was_enabled);
}

TEST(ObsConcurrency, TracerSpansFromManyThreadsAllPublished) {
  tracer().set_enabled(false);
  tracer().set_buffer_capacity(8192);
  tracer().clear();
  tracer().set_enabled(true);
  // Each hammer thread records spans (with args) and instants into its own
  // buffer; a concurrent reader snapshots/exports throughout — the exact
  // totals after the join prove no event was torn or lost.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)tracer().event_count();
      (void)Json::parse(tracer().chrome_trace_json());
    }
  });
  hammer(1000, [&](int i) {
    {
      Span span("stress.span");
      span.arg("i", static_cast<double>(i));
    }
    if (i % 10 == 0) trace_instant("stress.marker");
  });
  stop.store(true);
  reader.join();
  const std::size_t expected =
      static_cast<std::size_t>(kThreads) * (1000 + 100);
  EXPECT_EQ(tracer().event_count(), expected);
  EXPECT_EQ(tracer().dropped(), 0u);
  // The final export is valid Chrome trace JSON with every event present:
  // metadata (1 process + one per buffer) plus the recorded events.
  const Json doc = Json::parse(tracer().chrome_trace_json());
  const std::size_t buffers = tracer().buffers().size();
  EXPECT_EQ(doc.at("traceEvents").array().size(), expected + 1 + buffers);
  tracer().set_enabled(false);
  tracer().set_buffer_capacity(65536);
  tracer().clear();
}

TEST(ObsConcurrency, TracerBufferOverflowUnderContentionIsExact) {
  tracer().set_enabled(false);
  tracer().set_buffer_capacity(64);
  tracer().clear();
  tracer().set_enabled(true);
  hammer(500, [&](int) { SKS_TRACE_SPAN("overflow.stress"); });
  // Per-thread accounting: every buffer individually holds capacity events
  // and dropped the rest — nothing is lost across threads.
  EXPECT_EQ(tracer().event_count(),
            static_cast<std::size_t>(kThreads) * 64);
  EXPECT_EQ(tracer().dropped(),
            static_cast<std::uint64_t>(kThreads) * (500 - 64));
  tracer().set_enabled(false);
  tracer().set_buffer_capacity(65536);
  tracer().clear();
}

TEST(ObsConcurrency, EnabledFlagToggledWhileTimersRun) {
  TimerStat& stat = registry().timer("test.concurrency.toggle");
  stat.reset();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int i = 0; i < 2000; ++i) set_enabled(i % 2 == 0);
    stop.store(true);
  });
  hammer(500, [&](int) { Span span("test.concurrency.toggle", stat); });
  toggler.join();
  set_enabled(false);
  // No exact count here (gating raced by design) — the assertion is that
  // TSan sees no data race and the stat stayed internally consistent.
  EXPECT_LE(stat.count(), static_cast<std::uint64_t>(kThreads) * 500);
  stat.reset();
}

}  // namespace
}  // namespace sks::obs
