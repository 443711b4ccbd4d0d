// Fault detection criteria and single-fault electrical test execution.
//
// Off-line test of the sensing circuit (paper Sec. 3): the clock inputs
// "cannot be controlled independently from each other", so the test stimulus
// is just the fault-free clock pair; detection relies on the circuit's
// self-testing behaviour.  A fault is
//
//  * logic-detected when, at any strobe instant, an observed node's voltage
//    is interpreted (against V_th) as the opposite logic value of the
//    fault-free circuit's ("the faulty voltage lies from the opposite side
//    of V_th with respect to the fault-free value");
//  * IDDQ-detected when the quiescent supply current at a measurement
//    instant exceeds the fault-free value by more than the IDDQ threshold
//    (Malaiya & Su's classical criterion the paper points to).
#pragma once

#include <string>
#include <vector>

#include "cell/stimuli.hpp"
#include "esim/engine.hpp"
#include "esim/netlist.hpp"
#include "fault/fault.hpp"
#include "fault/inject.hpp"

namespace sks::fault {

struct TestPlan {
  cell::ClockPairStimulus stimulus;     // fault-free clocks (full_clock)
  std::vector<std::string> observed_nodes;
  std::vector<double> logic_strobes;    // [s]
  std::vector<double> iddq_strobes;     // [s]
  double vth = 2.75;                    // logic interpretation threshold [V]
  double iddq_threshold = 50e-6;        // excess quiescent current [A]
  std::string supply_name = "Vdd";
  // Base step of the observation transient [s]: its first step, and the
  // unit of its adaptive step bound (steps grow to 3 x dt in quiet
  // stretches, see observation_options).
  double dt = 5e-12;
  double t_end = 0.0;                   // 0 => derived from the strobes
};

// The standard test plan for a sensor bench: observe y1/y2 in the high
// phase and in the low phase of each clock cycle; measure IDDQ at the same
// instants.  `cycles = 1` reproduces the paper's single-cycle test;
// `cycles = 2` (default) additionally catches faults whose effect builds up
// across cycles — the sensing circuit amplifies fault-induced asymmetries
// through its feedback loop, so a second observed cycle strictly improves
// stuck-on coverage (see bench/sec3_testability).
TestPlan default_sensor_test_plan(const cell::SensorBench& bench, double vth,
                                  int cycles = 2);

struct Observation {
  // values[strobe_index][node_index], voltages at the logic strobes.
  std::vector<std::vector<double>> values;
  // Supply current magnitude at each IDDQ strobe.
  std::vector<double> iddq;
  // Solver telemetry of the underlying transient run.
  esim::SolveStats stats;
};

// Simulate the circuit under the plan's stimulus and sample it.
Observation observe(const esim::Circuit& circuit, const TestPlan& plan);

// The transient options observe() runs: adaptive steps starting at
// plan.dt, bounded by dt_max = 3 x plan.dt and dv_max = 0.1 V per step.
// Exposed so callers that drive esim themselves observe the same schedule.
esim::TransientOptions observation_options(const TestPlan& plan);

// Sample an already-computed transient of `circuit` (the second half of
// observe()); callers running their own transient (a fixed-step reference,
// say) classify it through this and classify_fault.
Observation interpret_observation(const esim::TransientResult& result,
                                  const esim::Circuit& circuit,
                                  const TestPlan& plan);

struct FaultVerdict {
  Fault fault;
  bool simulated = false;       // electrical simulation converged
  bool logic_detected = false;
  bool iddq_detected = false;
  double max_excess_iddq = 0.0;  // [A]
  // Telemetry: wall time spent testing this fault and the solver stats of
  // its (possibly failed) transient run.
  double seconds = 0.0;
  esim::SolveStats stats;
  // Why the simulation was abandoned ("" when `simulated`).
  std::string failure;
  // Postmortem bundle directory for the failed run ("" unless postmortems
  // are enabled on the engine, see Simulator::set_postmortem_dir).
  std::string bundle;

  bool detected(bool with_iddq) const {
    return logic_detected || (with_iddq && iddq_detected);
  }
};

// Test one fault against a fault-free reference observation.
FaultVerdict test_fault(const esim::Circuit& good_circuit,
                        const Observation& good_observation,
                        const Fault& fault_to_test, const TestPlan& plan,
                        const InjectOptions& inject_options = {});

// Classify an already-observed faulty circuit against the fault-free
// reference: the detection-criteria half of test_fault (including the
// fault_verdict trace marker).  The returned verdict carries the fault, the
// detection flags and the solver stats of `faulty_observation`; the caller
// fills `seconds`.
FaultVerdict classify_fault(const Fault& fault_to_test,
                            const Observation& good_observation,
                            const Observation& faulty_observation,
                            const TestPlan& plan);

// Does the (possibly faulty) sensor still flag an abnormal skew?  Used to
// check the paper's claim that stuck-opens on c/g "do not mask the presence
// of abnormal skews".  Builds a fresh bench with the given skewed stimulus,
// injects the fault, and returns true when an error indication appears.
bool sensor_detects_skew_under_fault(const cell::Technology& tech,
                                     const cell::SensorOptions& options,
                                     const cell::ClockPairStimulus& stimulus,
                                     const Fault& fault_to_test,
                                     const InjectOptions& inject_options = {},
                                     double dt = 5e-12);

}  // namespace sks::fault
