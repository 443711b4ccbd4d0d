// End-to-end reproduction checks of Section 3's coverage numbers.
#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/universe.hpp"
#include "util/units.hpp"

namespace sks::fault {
namespace {

using namespace sks::units;

struct CampaignFixture : ::testing::Test {
  cell::Technology tech;
  cell::SensorBench bench;
  std::vector<Fault> universe;

  CampaignFixture() {
    cell::SensorOptions options;
    options.load_y1 = options.load_y2 = 160 * fF;
    cell::ClockPairStimulus stim;
    stim.full_clock = true;
    bench = cell::make_sensor_bench(tech, options, stim);
    universe = sensor_fault_universe(bench.cell);
  }

  CampaignReport run(int cycles) {
    TestPlan plan = default_sensor_test_plan(
        bench, tech.interpretation_threshold(), cycles);
    plan.dt = 10e-12;
    return run_campaign(bench.circuit, universe, plan);
  }
};

TEST_F(CampaignFixture, SingleCycleMatchesPaperSection3) {
  const CampaignReport report = run(1);
  const auto by_kind = report.by_kind();

  // "the proposed circuit provides an error indication for each possible
  // fault, so that the sensing circuit is 100% testable" (node stuck-ats).
  EXPECT_DOUBLE_EQ(by_kind.at(FaultKind::kNodeStuckAt0).logic_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(by_kind.at(FaultKind::kNodeStuckAt1).logic_coverage(), 1.0);

  // Stuck-opens: "all faults of this kind are detected apart from those
  // affecting the transistors c and g" -> 8/10.
  EXPECT_DOUBLE_EQ(by_kind.at(FaultKind::kStuckOpen).logic_coverage(), 0.8);

  // Stuck-ons: "only the 60% of all the stuck-on faults are detected", and
  // the escapes are exactly the parallel pull-ups b, c, g, h.
  EXPECT_DOUBLE_EQ(by_kind.at(FaultKind::kStuckOn).combined_coverage(), 0.6);
  const auto escapes = report.escapes(true);
  for (const char* dev : {"SON(b)", "SON(c)", "SON(g)", "SON(h)"}) {
    EXPECT_NE(std::find(escapes.begin(), escapes.end(), dev), escapes.end())
        << dev;
  }

  // Bridging: the paper reports 75% conventional coverage; our netlist
  // granularity lands within a few points of that.
  const double bridge_cov = by_kind.at(FaultKind::kBridge).logic_coverage();
  EXPECT_GT(bridge_cov, 0.60);
  EXPECT_LT(bridge_cov, 0.90);

  // The symmetric-pair bridges carry no differential current under
  // identical clocks: y1-y2 (the paper's example) and phi1-phi2 escape.
  for (const char* br : {"BR(phi1,phi2)", "BR(y1,y2)"}) {
    EXPECT_NE(std::find(escapes.begin(), escapes.end(), br), escapes.end())
        << br;
  }

  // Everything simulated.
  EXPECT_EQ(report.overall().unsimulated, 0u);
}

TEST_F(CampaignFixture, TwoCycleTestStrictlyImproves) {
  const CampaignReport one = run(1);
  const CampaignReport two = run(2);
  EXPECT_GE(two.overall().logic_detected, one.overall().logic_detected);
  // The feedback loop amplifies stuck-on asymmetries across cycles: the
  // second observed cycle catches ALL stuck-ons.
  EXPECT_DOUBLE_EQ(two.by_kind().at(FaultKind::kStuckOn).logic_coverage(),
                   1.0);
}

TEST_F(CampaignFixture, SummaryTableHasAllKindsPlusTotal) {
  const CampaignReport report = run(1);
  const auto table = report.summary_table();
  EXPECT_EQ(table.rows(), 6u);  // 5 kinds + ALL
}

TEST_F(CampaignFixture, VerdictsPreserveUniverseOrder) {
  const CampaignReport report = run(1);
  ASSERT_EQ(report.verdicts.size(), universe.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    EXPECT_EQ(report.verdicts[i].fault.label(), universe[i].label());
  }
}

TEST(CampaignResistiveBridges, ResistanceSweepTrends) {
  // Resistive-bridge behaviour: the excess quiescent current falls
  // monotonically with the bridge resistance, and a very resistive bridge
  // degenerates into a small-delay defect that neither the logic criterion
  // nor IDDQ sees (the regime the authors' follow-up work on pulse
  // propagation for small delay defects targets).  Notably there is NO
  // IDDQ-only window for this sensor: its feedback loop amplifies any
  // bridge strong enough to matter into a logic-visible quasi-skew error —
  // a stronger self-testing result than the paper's 75%-to-89% IDDQ gain
  // (see EXPERIMENTS.md).
  cell::Technology tech;
  cell::SensorOptions options;
  options.load_y1 = options.load_y2 = 160 * fF;
  cell::ClockPairStimulus stim;
  stim.full_clock = true;
  const auto bench = cell::make_sensor_bench(tech, options, stim);
  TestPlan plan =
      default_sensor_test_plan(bench, tech.interpretation_threshold(), 1);
  plan.dt = 10e-12;
  const Observation good = observe(bench.circuit, plan);

  double previous_excess = 1e9;
  for (const double r : {100.0, 2e3, 30e3}) {
    const FaultVerdict v = test_fault(bench.circuit, good,
                                      Fault::bridge("y1", "n2", r), plan);
    EXPECT_TRUE(v.simulated) << r;
    EXPECT_TRUE(v.logic_detected) << r;
    EXPECT_LT(v.max_excess_iddq, previous_excess) << r;
    previous_excess = v.max_excess_iddq;
  }
  const FaultVerdict weak = test_fault(
      bench.circuit, good, Fault::bridge("y1", "n2", 200e3), plan);
  EXPECT_FALSE(weak.logic_detected);
  EXPECT_FALSE(weak.iddq_detected);
}

}  // namespace
}  // namespace sks::fault
