// Call-tree profiles (obs/profile.hpp): golden-tree aggregation on
// synthetic spans (nested + sibling + multi-thread, self/total arithmetic
// checked exactly), collapsed-stack export, attribution ranking on a
// test-injected slowdown, the tracer round-trip, the report JSON schema,
// and an 8-thread hammer with exact event counts (the ObsConcurrency
// pattern).  Also covers obs/mem.hpp: getrusage sanity, gauge ratcheting,
// and the obs.mem_gauge_updates REQUIRED_ZERO bookkeeping.
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace sks::obs {
namespace {

// Fixture owns the global tracer's state, mirroring ObsTrace: every test
// starts cleared and enabled, and leaves the tracer off at the default
// capacity.
struct ObsProfile : ::testing::Test {
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

// The golden tree, hand-checkable:
//
//   main:         run[0, 1000)
//                   a[100, 400)   b[500, 900)
//                                   c[600, 800)
//   par.worker-0: par.task[0, 800)
//                   a[100, 200)
std::vector<ProfileSpan> golden_spans() {
  return {
      {"main", "run", 0, 1000},      {"main", "a", 100, 300},
      {"main", "b", 500, 400},       {"main", "c", 600, 200},
      {"par.worker-0", "par.task", 0, 800},
      {"par.worker-0", "a", 100, 100},
  };
}

TEST_F(ObsProfile, GoldenTreePathsDepthsAndTotals) {
  const Profile p = build_profile(golden_spans());
  ASSERT_EQ(p.nodes().size(), 6u);
  // Nodes come back sorted by path.
  const std::vector<std::string> paths = {
      "par.task", "par.task;a", "run", "run;a", "run;b", "run;b;c"};
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(p.nodes()[i].path, paths[i]) << i;
  }

  const ProfileNode* run = p.find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->name, "run");
  EXPECT_EQ(run->depth, 0u);
  EXPECT_EQ(run->count, 1u);
  EXPECT_EQ(run->total_ns, 1000u);
  // self = 1000 - (a: 300) - (b: 400); c is b's child, not run's.
  EXPECT_EQ(run->self_ns, 300u);

  const ProfileNode* b = p.find("run;b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->depth, 1u);
  EXPECT_EQ(b->total_ns, 400u);
  EXPECT_EQ(b->self_ns, 200u);  // minus c's 200

  const ProfileNode* c = p.find("run;b;c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->depth, 2u);
  EXPECT_EQ(c->self_ns, 200u);  // leaf: self == total

  // "a" under run and "a" under par.task are DIFFERENT tree positions.
  const ProfileNode* a_main = p.find("run;a");
  const ProfileNode* a_pool = p.find("par.task;a");
  ASSERT_NE(a_main, nullptr);
  ASSERT_NE(a_pool, nullptr);
  EXPECT_EQ(a_main->total_ns, 300u);
  EXPECT_EQ(a_pool->total_ns, 100u);
  EXPECT_EQ(p.find("a"), nullptr);
  EXPECT_EQ(p.find("nope"), nullptr);

  EXPECT_EQ(p.window_ns(), 1000u);  // max end 1000, min start 0
}

TEST_F(ObsProfile, GoldenTreeThreadSlicesAndWorkers) {
  const Profile p = build_profile(golden_spans());
  const ProfileNode* run = p.find("run");
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->threads.size(), 1u);
  EXPECT_EQ(run->threads.at("main").count, 1u);
  EXPECT_EQ(run->threads.at("main").total_ns, 1000u);

  // Workers sorted by thread name; util = busy / window.
  ASSERT_EQ(p.workers().size(), 2u);
  EXPECT_EQ(p.workers()[0].thread, "main");
  EXPECT_EQ(p.workers()[0].spans, 1u);
  EXPECT_EQ(p.workers()[0].busy_ns, 1000u);
  EXPECT_DOUBLE_EQ(p.workers()[0].util, 1.0);
  EXPECT_EQ(p.workers()[1].thread, "par.worker-0");
  EXPECT_EQ(p.workers()[1].busy_ns, 800u);
  EXPECT_DOUBLE_EQ(p.workers()[1].util, 0.8);
}

TEST_F(ObsProfile, SiblingRepeatsMergeWithMinMax) {
  // Three sibling calls of the same name under one root: one node,
  // count 3, min/max over the per-span durations.
  const Profile p = build_profile({
      {"main", "root", 0, 1000},
      {"main", "leaf", 0, 100},
      {"main", "leaf", 200, 300},
      {"main", "leaf", 600, 50},
  });
  const ProfileNode* leaf = p.find("root;leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 3u);
  EXPECT_EQ(leaf->total_ns, 450u);
  EXPECT_EQ(leaf->min_ns, 50u);
  EXPECT_EQ(leaf->max_ns, 300u);
  const ProfileNode* root = p.find("root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->self_ns, 550u);
}

TEST_F(ObsProfile, EmptyAndSingleSpanEdges) {
  const Profile empty = build_profile({});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.window_ns(), 0u);
  EXPECT_EQ(empty.collapsed_stacks(), "");

  // A zero-duration span still lands in the tree with zero window.
  const Profile one = build_profile({{"main", "tick", 42, 0}});
  ASSERT_EQ(one.nodes().size(), 1u);
  EXPECT_EQ(one.nodes()[0].total_ns, 0u);
  EXPECT_EQ(one.window_ns(), 0u);
}

TEST_F(ObsProfile, CollapsedStacksAreFlamegraphInput) {
  // Microsecond-scale durations so self_us is nonzero; "mid" keeps under
  // a microsecond of self time (its child covers all but 1 ns) and must
  // be skipped from the collapsed output.
  const Profile p = build_profile({
      {"main", "top", 0, 5000000},
      {"main", "mid", 1000000, 2000000},
      {"main", "leaf", 1000001, 1999999},
  });
  EXPECT_EQ(p.collapsed_stacks(),
            "top 3000\n"
            "top;mid;leaf 1999\n");
}

TEST_F(ObsProfile, BuildBumpsProfileBuildsCounter) {
  Counter& builds = registry().counter("obs.profile_builds");
  const std::uint64_t before = builds.value();
  build_profile({{"main", "x", 0, 1}});
  build_profile({});
  EXPECT_EQ(builds.value(), before + 2);
}

TEST_F(ObsProfile, TracerRoundTripNestsRealSpans) {
  {
    Span outer("outer.work");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      Span inner("inner.work");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  trace_instant("not.a.span");  // instants must be ignored
  const Profile p = profile_from_tracer();
  ASSERT_EQ(p.nodes().size(), 2u);
  const ProfileNode* outer = p.find("outer.work");
  const ProfileNode* inner = p.find("outer.work;inner.work");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  ASSERT_EQ(p.workers().size(), 1u);
  EXPECT_EQ(p.workers()[0].thread, "test-main");
  EXPECT_EQ(p.workers()[0].spans, 1u);
}

// The acceptance workload: the same span layout twice, with the victim
// slowed by a test-injected sleep in the second run.  Attribution must
// rank the victim's path first.
void attribution_workload(int victim_sleep_ms) {
  Span root("attr.run");
  for (int i = 0; i < 3; ++i) {
    Span steady("attr.steady");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    Span victim("attr.victim");
    std::this_thread::sleep_for(std::chrono::milliseconds(victim_sleep_ms));
  }
}

TEST_F(ObsProfile, AttributionRanksSlowedSpanFirst) {
  attribution_workload(1);
  const Profile base = profile_from_tracer();
  tracer().clear();
  set_trace_thread_name("test-main");
  attribution_workload(40);
  const Profile current = profile_from_tracer();

  const auto ranked = attribute_profiles(base, current);
  ASSERT_GE(ranked.size(), 3u);
  // Largest |delta| first: the root grew by the same injected sleep as the
  // victim, so the top two are {attr.run, attr.run;attr.victim} and the
  // victim's SELF delta singles it out among them.
  EXPECT_EQ(ranked[0].path.rfind("attr.run", 0), 0u) << ranked[0].path;
  const Attribution* victim = nullptr;
  for (const auto& a : ranked) {
    if (a.path == "attr.run;attr.victim") victim = &a;
  }
  ASSERT_NE(victim, nullptr);
  EXPECT_GE(victim->delta_total_s, 0.030);
  EXPECT_GE(victim->delta_self_s, 0.030);
  EXPECT_EQ(victim->base_count, 1u);
  EXPECT_EQ(victim->cur_count, 1u);
  // The victim outranks the steady sibling.
  std::size_t victim_rank = ranked.size(), steady_rank = ranked.size();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].path == "attr.run;attr.victim") victim_rank = i;
    if (ranked[i].path == "attr.run;attr.steady") steady_rank = i;
  }
  EXPECT_LT(victim_rank, steady_rank);
}

TEST_F(ObsProfile, AttributionHandlesAddedAndRemovedPaths) {
  Profile base;
  base.add_node(ProfileNode{"gone", "gone", 0, 1, 500000000, 500000000,
                            500000000, 500000000, {}});
  base.seal();
  Profile current;
  current.add_node(ProfileNode{"fresh", "fresh", 0, 2, 100000000, 100000000,
                               50000000, 50000000, {}});
  current.seal();
  const auto ranked = attribute_profiles(base, current);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].path, "gone");  // |−0.5| > |+0.1|
  EXPECT_DOUBLE_EQ(ranked[0].delta_total_s, -0.5);
  EXPECT_EQ(ranked[0].cur_count, 0u);
  EXPECT_EQ(ranked[1].path, "fresh");
  EXPECT_DOUBLE_EQ(ranked[1].delta_total_s, 0.1);
  EXPECT_EQ(ranked[1].base_count, 0u);
}

TEST_F(ObsProfile, ReportJsonCarriesProfileSection) {
  {
    Span outer("rep.outer");
    Span inner("rep.inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Report report("profile_test");
  report.capture_profile();
  ASSERT_FALSE(report.profile().empty());

  const Json doc = Json::parse(report.to_json());
  ASSERT_TRUE(doc.has("profile"));
  const Json& profile = doc.at("profile");
  EXPECT_GT(profile.at("window_s").number(), 0.0);

  const auto& nodes = profile.at("nodes").array();
  ASSERT_EQ(nodes.size(), 2u);
  bool saw_inner = false;
  for (const Json& n : nodes) {
    if (n.at("path").str() != "rep.outer;rep.inner") continue;
    saw_inner = true;
    EXPECT_EQ(n.at("name").str(), "rep.inner");
    EXPECT_DOUBLE_EQ(n.at("depth").number(), 1.0);
    EXPECT_DOUBLE_EQ(n.at("count").number(), 1.0);
    EXPECT_GE(n.at("total_s").number(), 0.001);
    EXPECT_GE(n.at("self_s").number(), n.at("min_s").number() - 1e-9);
    EXPECT_LE(n.at("min_s").number(), n.at("max_s").number());
    EXPECT_DOUBLE_EQ(n.at("threads").at("test-main").at("count").number(),
                     1.0);
    EXPECT_GT(n.at("threads").at("test-main").at("total_s").number(), 0.0);
  }
  EXPECT_TRUE(saw_inner);

  const auto& workers = profile.at("workers").array();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].at("thread").str(), "test-main");
  EXPECT_DOUBLE_EQ(workers[0].at("spans").number(), 1.0);
  EXPECT_GT(workers[0].at("util").number(), 0.0);
}

TEST_F(ObsProfile, EightThreadHammerExactCounts) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      set_trace_thread_name("hammer-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        Span outer("hammer.outer");
        Span inner("hammer.inner");
      }
    });
  }
  for (auto& th : threads) th.join();

  // 2 spans per iteration per thread, none dropped at default capacity.
  EXPECT_EQ(tracer().event_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
  EXPECT_EQ(tracer().dropped(), 0u);

  const Profile p = profile_from_tracer();
  const ProfileNode* outer = p.find("hammer.outer");
  const ProfileNode* inner = p.find("hammer.outer;hammer.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(inner->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(outer->threads.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const auto it = outer->threads.find("hammer-" + std::to_string(t));
    ASSERT_NE(it, outer->threads.end()) << t;
    EXPECT_EQ(it->second.count, static_cast<std::uint64_t>(kPerThread));
  }
  // Every hammer thread shows up as a worker track with its spans counted.
  std::uint64_t top_level = 0;
  for (const WorkerUtil& w : p.workers()) top_level += w.spans;
  EXPECT_EQ(top_level, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMem, SampleMemStatsSanity) {
  const MemStats stats = sample_mem_stats();
#if defined(__unix__) || defined(__APPLE__)
  // Any live test process has paged in megabytes.
  EXPECT_GT(stats.peak_rss_bytes, 1u << 20);
#else
  (void)stats;
#endif
}

TEST(ObsMem, RecordMemGaugesSetsRssAndBufferGauges) {
  record_mem_gauges();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(registry().gauge("mem.peak_rss_bytes").value(), 0.0);
#endif
  // The trace capacity gauge exists regardless of platform; it is the
  // only bounded telemetry buffer left to account for.
  EXPECT_NE(registry().find_gauge("mem.trace_buffer_bytes"), nullptr);
  EXPECT_EQ(registry().find_gauge("mem.journal_buffer_bytes"), nullptr);
}

TEST(ObsMem, RecordPeakBytesRatchetsAndCounts) {
  Gauge& gauge = registry().gauge("test.mem.peak");
  gauge.set(0.0);
  Counter& updates = registry().counter("obs.mem_gauge_updates");
  const std::uint64_t before = updates.value();
  record_peak_bytes(gauge, 1000.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1000.0);
  record_peak_bytes(gauge, 400.0);  // lower: gauge holds the peak
  EXPECT_DOUBLE_EQ(gauge.value(), 1000.0);
  record_peak_bytes(gauge, 2500.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2500.0);
  // Every call counts as an instrumented update, ratchet or not.
  EXPECT_EQ(updates.value(), before + 3);
  gauge.set(0.0);
}

}  // namespace
}  // namespace sks::obs
