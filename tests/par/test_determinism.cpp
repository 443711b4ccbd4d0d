// The central guarantee of the parallel execution engine: a campaign or
// Monte-Carlo population produces BIT-IDENTICAL results, aggregates and
// progress-callback sequences for every thread count, because each work
// item is share-nothing and draws from an index-addressed RNG stream while
// completion is committed in item order (par::OrderedSink).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include <set>
#include <string>

#include "fault/campaign.hpp"
#include "fault/universe.hpp"
#include "obs/trace.hpp"
#include "scheme/montecarlo.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace sks {
namespace {

using namespace sks::units;

void expect_equal_solve(const esim::SolveStats& a, const esim::SolveStats& b) {
  EXPECT_EQ(a.newton_calls, b.newton_calls);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
  EXPECT_EQ(a.newton_failures, b.newton_failures);
  EXPECT_EQ(a.lu_factorizations, b.lu_factorizations);
  EXPECT_EQ(a.dc_solves, b.dc_solves);
  EXPECT_EQ(a.dc_gmin_ladders, b.dc_gmin_ladders);
  EXPECT_EQ(a.dc_source_ladders, b.dc_source_ladders);
  EXPECT_EQ(a.steps_accepted, b.steps_accepted);
}

struct ParCampaignFixture : ::testing::Test {
  cell::Technology tech;
  cell::SensorBench bench;
  std::vector<fault::Fault> universe;
  fault::TestPlan plan;

  ParCampaignFixture() {
    cell::SensorOptions options;
    options.load_y1 = options.load_y2 = 160 * fF;
    cell::ClockPairStimulus stim;
    stim.full_clock = true;
    bench = cell::make_sensor_bench(tech, options, stim);
    // A slice of the Section-3 universe keeps the 4 runs below fast while
    // still mixing fault kinds.
    auto full = fault::sensor_fault_universe(bench.cell);
    universe.assign(full.begin(),
                    full.begin() + std::min<std::size_t>(12, full.size()));
    plan = fault::default_sensor_test_plan(
        bench, tech.interpretation_threshold(), 1);
    plan.dt = 10e-12;
  }

  fault::CampaignReport run(std::size_t threads,
                            const fault::CampaignProgress& progress = nullptr) {
    fault::CampaignOptions options;
    options.threads = threads;
    return fault::run_campaign(bench.circuit, universe, plan, options,
                               progress);
  }
};

TEST_F(ParCampaignFixture, VerdictsAndAggregatesIdenticalAcrossThreadCounts) {
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.verdicts.size(), parallel.verdicts.size());
  for (std::size_t i = 0; i < serial.verdicts.size(); ++i) {
    const auto& a = serial.verdicts[i];
    const auto& b = parallel.verdicts[i];
    EXPECT_EQ(a.fault.label(), b.fault.label()) << i;
    EXPECT_EQ(a.simulated, b.simulated) << i;
    EXPECT_EQ(a.logic_detected, b.logic_detected) << i;
    EXPECT_EQ(a.iddq_detected, b.iddq_detected) << i;
    EXPECT_DOUBLE_EQ(a.max_excess_iddq, b.max_excess_iddq) << i;
  }
  // Everything but wall times must agree exactly.
  expect_equal_solve(serial.stats.solve, parallel.stats.solve);
  EXPECT_EQ(serial.stats.unsimulated, parallel.stats.unsimulated);
  EXPECT_EQ(serial.stats.fault_seconds.count(),
            parallel.stats.fault_seconds.count());
}

TEST_F(ParCampaignFixture, ProgressFiresInUniverseOrder) {
  std::vector<std::string> labels;
  std::size_t expected_done = 0;
  const auto progress = [&](std::size_t done, std::size_t total,
                            const fault::FaultVerdict& last) {
    EXPECT_EQ(done, ++expected_done);
    EXPECT_EQ(total, universe.size());
    labels.push_back(last.fault.label());
  };
  run(4, progress);
  ASSERT_EQ(labels.size(), universe.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    EXPECT_EQ(labels[i], universe[i].label());
  }
}

TEST_F(ParCampaignFixture, ThrowingProgressPropagatesWithoutDeadlock) {
  const auto progress = [](std::size_t done, std::size_t,
                           const fault::FaultVerdict&) {
    if (done == 3) throw Error("abort campaign");
  };
  EXPECT_THROW(run(4, progress), Error);
  // The engine is healthy afterwards: a fresh run completes normally.
  const auto report = run(4);
  EXPECT_EQ(report.verdicts.size(), universe.size());
}

TEST_F(ParCampaignFixture, TracedCampaignSpansLandOnEveryWorkerTrack) {
  obs::tracer().set_enabled(true);
  // With 12 ~millisecond faults on a 4-worker pool every worker should
  // test at least one, but work stealing makes no hard promise — retry a
  // couple of times before calling a missing track a failure.
  std::set<std::uint32_t> tids;
  for (int attempt = 0; attempt < 3 && tids.size() < 4; ++attempt) {
    tids.clear();
    obs::tracer().clear();
    run(4);
    std::size_t fault_spans = 0;
    for (const auto& buffer : obs::tracer().buffers()) {
      std::uint64_t prev_ts = 0;
      bool has_fault_span = false;
      for (std::size_t i = 0; i < buffer->size(); ++i) {
        const auto& e = buffer->event(i);
        if (e.name != "fault.test") continue;
        has_fault_span = true;
        ++fault_spans;
        // A worker tests its faults sequentially: same-name spans on one
        // track start in non-decreasing time order.
        EXPECT_GE(e.ts_ns, prev_ts);
        prev_ts = e.ts_ns;
        // Every fault span carries the fault label and verdict args.
        ASSERT_FALSE(e.args.empty());
        EXPECT_EQ(e.args[0].key, "fault");
      }
      if (has_fault_span) {
        tids.insert(buffer->tid());
        EXPECT_EQ(buffer->thread_name().rfind("par.worker-", 0), 0u);
      }
    }
    // Exactly one span per fault, regardless of which worker ran it.
    EXPECT_EQ(fault_spans, universe.size());
  }
  EXPECT_EQ(tids.size(), 4u);
  obs::tracer().set_enabled(false);
  obs::tracer().clear();
}

scheme::McOptions mc_options(std::size_t threads) {
  scheme::McOptions o;
  o.samples = 10;
  o.load = 160e-15;
  o.dt = 10e-12;
  o.seed = 9;
  o.threads = threads;
  return o;
}

TEST(ParMonteCarlo, SamplesAndStatsIdenticalAcrossThreadCounts) {
  const cell::Technology tech;
  scheme::McRunStats stats1, stats4;
  const auto serial = scheme::run_vmin_montecarlo(
      tech, cell::SensorOptions{}, mc_options(1), &stats1);
  const auto parallel = scheme::run_vmin_montecarlo(
      tech, cell::SensorOptions{}, mc_options(4), &stats4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].tau, parallel[i].tau) << i;
    EXPECT_DOUBLE_EQ(serial[i].slew1, parallel[i].slew1) << i;
    EXPECT_DOUBLE_EQ(serial[i].slew2, parallel[i].slew2) << i;
    EXPECT_DOUBLE_EQ(serial[i].vmin_late, parallel[i].vmin_late) << i;
    EXPECT_EQ(serial[i].indication, parallel[i].indication) << i;
    EXPECT_EQ(serial[i].detected, parallel[i].detected) << i;
  }
  expect_equal_solve(stats1.solve, stats4.solve);
  EXPECT_EQ(stats1.detected, stats4.detected);
  EXPECT_EQ(stats1.sample_seconds.count(), stats4.sample_seconds.count());
}

TEST(ParMonteCarlo, ProgressFiresInSampleOrder) {
  const cell::Technology tech;
  std::size_t expected_done = 0;
  const auto progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(done, ++expected_done);
    EXPECT_EQ(total, 10u);
  };
  scheme::run_vmin_montecarlo(tech, cell::SensorOptions{}, mc_options(4),
                              nullptr, progress);
  EXPECT_EQ(expected_done, 10u);
}

}  // namespace
}  // namespace sks
