// Timestep refinement for Section 3: the shipped adaptive observation
// transient against a fixed-step reference at half the base step.  The
// campaign's verdicts, both escape sets and every fault's excess IDDQ must
// not depend on the step policy.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "esim/engine.hpp"
#include "fault/campaign.hpp"
#include "fault/universe.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace sks::fault {
namespace {

using namespace sks::units;

// Largest tolerated |adaptive - reference| on a fault's max_excess_iddq,
// relative to the reference value.  Measured: 2.7e-4 (SON(b), 1- and
// 2-cycle plans); the fixed 5 ps step the adaptive schedule replaced sits
// at 5.0e-5 from the same reference on the 1-cycle plan.
constexpr double kIddqRelTol = 1e-3;
// Absolute floor for faults with (near-)zero excess current [A], far below
// the 50 uA IDDQ threshold.
constexpr double kIddqAbsTol = 1e-9;

// The fixed 2.5 ps reference: the plan's observation transient with
// adaptive steps off and half the base step.
esim::TransientOptions reference_options(const TestPlan& plan) {
  esim::TransientOptions options = observation_options(plan);
  options.adaptive = false;
  options.dt = 0.5 * plan.dt;
  return options;
}

// A fault's verdict on the reference transient, classified exactly like
// the campaign classifies its own transients.
FaultVerdict reference_verdict(const esim::Circuit& good,
                               const Observation& good_reference,
                               const Fault& fault, const TestPlan& plan) {
  const esim::Circuit faulty = inject(good, fault);
  try {
    const auto result = esim::simulate(faulty, reference_options(plan));
    return classify_fault(fault, good_reference,
                          interpret_observation(result, faulty, plan), plan);
  } catch (const ConvergenceError& e) {
    FaultVerdict unsimulated;
    unsimulated.fault = fault;
    unsimulated.failure = e.what();
    return unsimulated;
  }
}

// The shipped campaign on the full Sec. 3 universe of the nominal 160 fF
// sensor against the reference, for a `cycles`-cycle plan at a 5 ps base
// step.
void expect_campaign_matches_reference(int cycles) {
  const cell::Technology tech;
  cell::SensorOptions sensor;
  sensor.load_y1 = sensor.load_y2 = 160 * fF;
  cell::ClockPairStimulus stim;
  stim.full_clock = true;
  const auto bench = cell::make_sensor_bench(tech, sensor, stim);
  const auto universe = sensor_fault_universe(bench.cell);
  TestPlan plan =
      default_sensor_test_plan(bench, tech.interpretation_threshold(), cycles);
  plan.dt = 5e-12;

  const CampaignReport shipped = run_campaign(bench.circuit, universe, plan);

  const Observation good_reference = interpret_observation(
      esim::simulate(bench.circuit, reference_options(plan)), bench.circuit,
      plan);
  CampaignReport reference;
  for (const Fault& f : universe) {
    reference.verdicts.push_back(
        reference_verdict(bench.circuit, good_reference, f, plan));
  }

  ASSERT_EQ(shipped.verdicts.size(), reference.verdicts.size());
  std::size_t flips = 0;
  std::ostringstream flipped;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const FaultVerdict& a = shipped.verdicts[i];
    const FaultVerdict& r = reference.verdicts[i];
    ASSERT_EQ(a.fault.label(), r.fault.label());
    if (a.simulated != r.simulated || a.logic_detected != r.logic_detected ||
        a.iddq_detected != r.iddq_detected) {
      ++flips;
      flipped << ' ' << a.fault.label();
    }
    const double diff = std::fabs(a.max_excess_iddq - r.max_excess_iddq);
    EXPECT_LE(diff, kIddqAbsTol + kIddqRelTol * std::fabs(r.max_excess_iddq))
        << a.fault.label() << ": adaptive " << a.max_excess_iddq
        << " A, reference " << r.max_excess_iddq << " A";
  }
  EXPECT_EQ(flips, 0u) << flips << " of " << universe.size()
                       << " verdicts flip against the fixed "
                       << 0.5 * plan.dt * 1e12 << " ps reference:"
                       << flipped.str();
  EXPECT_EQ(shipped.escapes(false), reference.escapes(false));
  EXPECT_EQ(shipped.escapes(true), reference.escapes(true));
}

TEST(CampaignAccuracy, OneCyclePlanMatchesHalfStepReference) {
  expect_campaign_matches_reference(1);
}

TEST(CampaignAccuracy, TwoCyclePlanMatchesHalfStepReference) {
  expect_campaign_matches_reference(2);
}

}  // namespace
}  // namespace sks::fault
