// Adaptive-timestep transient: accuracy against the fixed-step reference
// and actual step savings.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cell/measure.hpp"
#include "esim/engine.hpp"
#include "esim/trace.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace sks::esim {
namespace {

Circuit rc_step() {
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("V1", in, c.ground(), Waveform::pwl({0.0, 1e-12}, {0.0, 1.0}));
  c.add_resistor("R1", in, out, 1000.0);
  c.add_capacitor("C1", out, c.ground(), 1e-12);
  return c;
}

TEST(AdaptiveTransient, MatchesAnalyticRcResponse) {
  TransientOptions options;
  options.t_end = 5e-9;
  options.dt = 5e-12;
  options.adaptive = true;
  options.dv_max = 0.05;
  options.dt_max = 200e-12;
  const auto result = simulate(rc_step(), options);
  const Circuit c = rc_step();
  const auto trace = Trace::node_voltage(result, c, "out");
  for (const double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-(t - 1e-12) / 1e-9);
    EXPECT_NEAR(trace.value_at(t), expected, 0.02) << t;
  }
}

TEST(AdaptiveTransient, UsesFewerStepsThanFixed) {
  TransientOptions fixed;
  fixed.t_end = 20e-9;
  fixed.dt = 2e-12;
  TransientOptions adaptive = fixed;
  adaptive.adaptive = true;
  adaptive.dv_max = 0.2;
  adaptive.dt_max = 100e-12;
  const auto fixed_result = simulate(rc_step(), fixed);
  const auto adaptive_result = simulate(rc_step(), adaptive);
  EXPECT_LT(adaptive_result.steps(), fixed_result.steps() / 4);
}

TEST(AdaptiveTransient, StepsShrinkDuringFastEdges) {
  // The step history must show small steps around the edge at 1 ps and
  // large ones in the flat tail.
  TransientOptions options;
  options.t_end = 10e-9;
  options.dt = 2e-12;
  options.adaptive = true;
  options.dv_max = 0.05;
  options.dt_max = 500e-12;
  const auto result = simulate(rc_step(), options);
  double tail_step = 0.0;
  for (std::size_t i = 1; i < result.time.size(); ++i) {
    if (result.time[i] > 8e-9) {
      tail_step = std::max(tail_step, result.time[i] - result.time[i - 1]);
    }
  }
  EXPECT_GT(tail_step, 100e-12);  // recovered in the quiet tail
}

TEST(AdaptiveTransient, SensorMeasurementAgreesWithFixedStep) {
  // The figure-generating measurement must be timestep-policy independent.
  const cell::Technology tech;
  cell::SensorOptions sensor;
  sensor.load_y1 = sensor.load_y2 = 160e-15;
  cell::ClockPairStimulus stim;
  stim.skew = 0.2e-9;
  const auto bench = cell::make_sensor_bench(tech, sensor, stim);

  TransientOptions fixed = cell::sensor_sim_options(stim, 2e-12);
  TransientOptions adaptive = fixed;
  adaptive.adaptive = true;
  adaptive.dv_max = 0.1;
  adaptive.dt_max = 25e-12;

  const auto rf = simulate(bench.circuit, fixed);
  const auto ra = simulate(bench.circuit, adaptive);
  const auto yf = Trace::node_voltage(rf, bench.circuit, "y2");
  const auto ya = Trace::node_voltage(ra, bench.circuit, "y2");
  const double t0 = stim.edge_time;
  const double t1 = stim.strobe_time();
  EXPECT_NEAR(ya.min_in(t0, t1), yf.min_in(t0, t1), 0.05);
  EXPECT_LT(ra.steps(), rf.steps());
}

TEST(AdaptiveTransient, NewtonFailureShrinksTheAdaptiveStep) {
  // An inverter slammed by a near-vertical input edge with a starved
  // Newton budget: the solve at the grown step fails and dt is halved.
  // The halving must feed back into the adaptive controller (dt_current)
  // exactly like a dv_max rejection does — the trace pins it: the first
  // full step after the last dt_halved marker must start from the halved
  // size (regrowth is at most 1.5x per quiet step), not from the large
  // pre-failure step.
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("VDD", vdd, c.ground(), Waveform::dc(5.0));
  c.add_vsource("VIN", in, c.ground(),
                Waveform::pwl({1e-9, 1.05e-9}, {0.0, 5.0}));
  MosParams nmos;  // level-1 defaults are the 1.2 um flavour
  MosParams pmos = nmos;
  pmos.type = MosType::kPmos;
  pmos.vt = 0.9;
  pmos.kprime = 20e-6;
  pmos.w = 2.0 * nmos.w;
  c.add_mosfet("mp", pmos, in, out, vdd);
  c.add_mosfet("mn", nmos, in, out, c.ground());
  c.add_capacitor("CL", out, c.ground(), 100e-15);

  TransientOptions options;
  options.t_end = 2e-9;
  options.dt = 5e-12;
  options.adaptive = true;
  options.dv_max = 100.0;  // never reject on slope: isolate the NR path
  options.dt_max = 80e-12;
  options.newton.max_iterations = 3;
  options.newton.max_step = 0.25;

  obs::tracer().set_enabled(false);
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  const auto result = simulate(c, options);
  obs::tracer().set_enabled(false);

  ASSERT_GT(result.stats.dt_halvings, 0u) << "the edge must defeat 3-iter NR";
  // The dt_halved markers in recording order, as (t, value = halved dt).
  std::vector<std::pair<double, double>> halvings;
  for (const auto& buffer : obs::tracer().buffers()) {
    for (std::size_t i = 0; i < buffer->size(); ++i) {
      const obs::TraceEvent& e = buffer->event(i);
      if (e.phase != 'i' || e.name != "dt_halved") continue;
      ASSERT_GE(e.args.size(), 2u);
      halvings.emplace_back(std::stod(e.args[0].json),
                            std::stod(e.args[1].json));
    }
  }
  obs::tracer().clear();
  EXPECT_EQ(halvings.size(), result.stats.dt_halvings);
  // The first failure burst: consecutive dt_halved markers at the same
  // interval start, while the controller was still proposing the large
  // pre-edge step.  `halved` is the size that finally converged.
  ASSERT_FALSE(halvings.empty());
  const double t0 = halvings.front().first;
  double halved = 0.0;
  for (const auto& [t, dt] : halvings) {
    if (t != t0) break;
    halved = dt;
  }

  // Locate the two recorded steps after the failure: the in-interval retry
  // and then the first step proposed from dt_current.
  std::size_t s = 0;
  while (s < result.time.size() && result.time[s] <= t0 + 1e-21) {
    ++s;
  }
  ASSERT_LT(s + 1, result.time.size());
  const double retry_delta = result.time[s] - t0;
  const double next_delta = result.time[s + 1] - result.time[s];
  EXPECT_LE(retry_delta, halved * (1.0 + 1e-9));
  EXPECT_LE(next_delta, 1.5 * halved * (1.0 + 1e-9))
      << "dt_current must shrink with the halving, not stay at the "
         "pre-failure step";
  // The test only discriminates if the step before the failure was well
  // above the post-failure one.
  ASSERT_GT(s, 1u);
  EXPECT_GT(result.time[s - 1] - result.time[s - 2], 3.0 * halved);
}

TEST(AdaptiveTransient, BreakpointsStillHonoured) {
  TransientOptions options;
  options.t_end = 5e-9;
  options.dt = 2e-12;
  options.adaptive = true;
  options.dt_max = 1e-9;  // huge: would step over the edge if unguarded
  const Circuit c = rc_step();
  const auto result = simulate(c, options);
  bool found = false;
  for (const double t : result.time) {
    if (std::fabs(t - 1e-12) < 1e-18) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(AdaptiveTransient, RejectsNonPositiveDvMax) {
  // A dv_max <= 0 would reject every step down to the dt floor.
  TransientOptions options;
  options.t_end = 1e-9;
  options.dt = 5e-12;
  options.adaptive = true;
  options.dt_max = 50e-12;
  for (const double dv_max : {0.0, -0.1}) {
    options.dv_max = dv_max;
    EXPECT_THROW(simulate(rc_step(), options), Error) << dv_max;
  }
  options.adaptive = false;  // the bound only binds adaptive runs
  EXPECT_NO_THROW(simulate(rc_step(), options));
}

TEST(AdaptiveTransient, RejectsDtMaxBelowDt) {
  // The first step is dt: with dt > dt_max it would exceed the bound.
  TransientOptions options;
  options.t_end = 1e-9;
  options.dt = 20e-12;
  options.adaptive = true;
  options.dt_max = 10e-12;
  EXPECT_THROW(simulate(rc_step(), options), Error);
  options.dt_max = options.dt;  // the bound may equal the first step
  EXPECT_NO_THROW(simulate(rc_step(), options));
  options.adaptive = false;
  options.dt_max = 10e-12;
  EXPECT_NO_THROW(simulate(rc_step(), options));
}

}  // namespace
}  // namespace sks::esim
