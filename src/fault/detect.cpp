#include "fault/detect.hpp"

#include <algorithm>
#include <cmath>

#include "cell/measure.hpp"
#include "esim/engine.hpp"
#include "esim/trace.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace sks::fault {

TestPlan default_sensor_test_plan(const cell::SensorBench& bench, double vth,
                                  int cycles) {
  sks::check(cycles >= 1, "default_sensor_test_plan: need >= 1 cycle");
  TestPlan plan;
  plan.stimulus = bench.stimulus;
  plan.stimulus.full_clock = true;
  plan.stimulus.skew = 0.0;  // fault-free clocks: the inputs move together
  plan.vth = vth;
  plan.observed_nodes = {bench.cell.qualified("y1"),
                         bench.cell.qualified("y2")};
  plan.supply_name = bench.cell.options.prefix + "Vdd";

  const double t0 = plan.stimulus.edge_time;
  const double period = plan.stimulus.period;
  const double high = plan.stimulus.duty * period;
  // High-phase and low-phase strobes in each cycle: dynamic faults
  // (floating nodes holding stale charge, feedback-amplified asymmetries)
  // may need later cycles to show.
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const double base = t0 + cycle * period;
    plan.logic_strobes.push_back(base + 0.6 * high);          // high phase
    plan.logic_strobes.push_back(base + period - 0.1 * period);  // low phase
  }
  plan.iddq_strobes = plan.logic_strobes;
  plan.t_end = t0 + cycles * period;
  return plan;
}

esim::TransientOptions observation_options(const TestPlan& plan) {
  esim::TransientOptions options;
  // Adaptive steps from the plan's base step: the quiet stretches between
  // clock edges grow to dt_max, the edges shrink until no node moves more
  // than dv_max per step.  dt_max stays a small multiple of the base step:
  // the IDDQ strobes sample currents whose error follows dt_max (at 50 ps
  // they drift up to ~3e-6 relative from the fixed-step values, at 3x the
  // 5 ps base step ~4e-7), while dv_max barely moves them.
  options.dt = plan.dt;
  options.adaptive = true;
  options.dv_max = 0.1;
  options.dt_max = 3.0 * plan.dt;
  options.t_end = plan.t_end > 0.0
                      ? plan.t_end
                      : *std::max_element(plan.logic_strobes.begin(),
                                          plan.logic_strobes.end()) +
                            1e-9;
  return options;
}

Observation observe(const esim::Circuit& circuit, const TestPlan& plan) {
  const auto result = esim::simulate(circuit, observation_options(plan));
  return interpret_observation(result, circuit, plan);
}

Observation interpret_observation(const esim::TransientResult& result,
                                  const esim::Circuit& circuit,
                                  const TestPlan& plan) {
  Observation obs;
  obs.stats = result.stats;
  obs.values.reserve(plan.logic_strobes.size());
  std::vector<esim::Trace> traces;
  traces.reserve(plan.observed_nodes.size());
  for (const auto& node : plan.observed_nodes) {
    traces.push_back(esim::Trace::node_voltage(result, circuit, node));
  }
  for (double t : plan.logic_strobes) {
    std::vector<double> row;
    row.reserve(traces.size());
    for (const auto& trace : traces) row.push_back(trace.value_at(t));
    obs.values.push_back(std::move(row));
  }
  const auto supply =
      esim::Trace::supply_current(result, circuit, plan.supply_name);
  for (double t : plan.iddq_strobes) {
    obs.iddq.push_back(std::fabs(supply.value_at(t)));
  }
  return obs;
}

FaultVerdict test_fault(const esim::Circuit& good_circuit,
                        const Observation& good_observation,
                        const Fault& fault_to_test, const TestPlan& plan,
                        const InjectOptions& inject_options) {
  FaultVerdict verdict;
  verdict.fault = fault_to_test;
  const obs::Stopwatch stopwatch;

  esim::Circuit faulty = inject(good_circuit, fault_to_test, inject_options);
  Observation faulty_observation;
  try {
    faulty_observation = observe(faulty, plan);
  } catch (const ConvergenceError& e) {
    // A defect that defeats the solver is reported unsimulated (counted as
    // undetected, the conservative choice).  The error context (phase,
    // time, worst-residual node) is preserved on the verdict so campaign
    // reports can say *why* coverage was lost.
    verdict.seconds = stopwatch.seconds();
    verdict.failure = e.what();
    verdict.bundle = e.bundle_path();
    if (obs::tracer().enabled()) {
      obs::trace_marker(obs::Marker::kFaultVerdict, e.sim_time(), 0.0,
                        static_cast<int>(e.iterations()),
                        fault_to_test.label() + ": unsimulated");
    }
    return verdict;
  }
  verdict = classify_fault(fault_to_test, good_observation,
                           faulty_observation, plan);
  verdict.seconds = stopwatch.seconds();
  return verdict;
}

FaultVerdict classify_fault(const Fault& fault_to_test,
                            const Observation& good_observation,
                            const Observation& faulty_observation,
                            const TestPlan& plan) {
  FaultVerdict verdict;
  verdict.fault = fault_to_test;
  verdict.simulated = true;
  verdict.stats = faulty_observation.stats;

  for (std::size_t s = 0; s < plan.logic_strobes.size(); ++s) {
    for (std::size_t n = 0; n < plan.observed_nodes.size(); ++n) {
      const bool good_high = good_observation.values[s][n] > plan.vth;
      const bool faulty_high = faulty_observation.values[s][n] > plan.vth;
      if (good_high != faulty_high) verdict.logic_detected = true;
    }
  }
  for (std::size_t s = 0; s < plan.iddq_strobes.size(); ++s) {
    const double excess = faulty_observation.iddq[s] - good_observation.iddq[s];
    verdict.max_excess_iddq = std::max(verdict.max_excess_iddq, excess);
  }
  verdict.iddq_detected = verdict.max_excess_iddq > plan.iddq_threshold;
  if (obs::tracer().enabled()) {
    const char* outcome = verdict.logic_detected  ? ": logic"
                          : verdict.iddq_detected ? ": iddq"
                                                  : ": escape";
    obs::trace_marker(obs::Marker::kFaultVerdict, 0.0, verdict.max_excess_iddq,
                      0, fault_to_test.label() + outcome);
  }
  return verdict;
}

bool sensor_detects_skew_under_fault(const cell::Technology& tech,
                                     const cell::SensorOptions& options,
                                     const cell::ClockPairStimulus& stimulus,
                                     const Fault& fault_to_test,
                                     const InjectOptions& inject_options,
                                     double dt) {
  cell::SensorBench bench = cell::make_sensor_bench(tech, options, stimulus);
  InjectOptions inj = inject_options;
  inj.vdd_node = options.prefix + "vdd";
  bench.circuit = inject(bench.circuit, fault_to_test, inj);
  try {
    const auto m =
        cell::measure_bench(bench, tech.interpretation_threshold(), dt);
    return m.error();
  } catch (const ConvergenceError&) {
    return false;
  }
}

}  // namespace sks::fault
