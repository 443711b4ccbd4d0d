#include "scheme/scheme.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sks::scheme {

TestingScheme::TestingScheme(clocktree::ClockTree tree,
                             clocktree::AnalysisOptions analysis_options,
                             SensorCalibration calibration,
                             SchemeOptions options)
    : tree_(std::move(tree)),
      analysis_options_(std::move(analysis_options)),
      calibration_(std::move(calibration)),
      options_(std::move(options)),
      placement_(place_sensors(tree_, analysis_options_, options_.placement,
                               calibration_)),
      prng_(options_.seed) {}

TestingScheme::TestingScheme(clocktree::ClockTree tree,
                             clocktree::AnalysisOptions analysis_options,
                             SensorCalibration calibration,
                             SchemeOptions options, Placement placement)
    : tree_(std::move(tree)),
      analysis_options_(std::move(analysis_options)),
      calibration_(std::move(calibration)),
      options_(std::move(options)),
      placement_(std::move(placement)),
      prng_(options_.seed) {}

CampaignResult TestingScheme::run(
    const std::vector<clocktree::TreeDefect>& defects, std::size_t cycles) {
  static obs::TimerStat& run_timer = obs::registry().timer("scheme.run");
  obs::Span span("scheme.run", run_timer);
  static obs::Counter& cycle_counter = obs::registry().counter("scheme.cycles");
  static obs::Counter& indication_counter =
      obs::registry().counter("scheme.indication_cycles");
  cycle_counter.inc(cycles);
  CampaignResult result;
  result.cycles = cycles;
  const std::size_t n_sensors = placement_.sensors.size();
  ScanChain scan(n_sensors);
  OnlineChecker checker(n_sensors);

  // Split defects into permanent and transient.
  clocktree::AnalysisOptions permanent = analysis_options_;
  std::vector<const clocktree::TreeDefect*> transient;
  for (const auto& d : defects) {
    if (d.transient) {
      transient.push_back(&d);
    } else {
      permanent = clocktree::apply_defect(tree_, permanent, d);
    }
  }
  const clocktree::ArrivalAnalysis base_analysis =
      clocktree::analyze(tree_, permanent);

  std::vector<cell::Indication> indications(n_sensors);
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    // Activate transient defects for this cycle.
    const clocktree::ArrivalAnalysis* analysis = &base_analysis;
    clocktree::ArrivalAnalysis cycle_analysis;
    bool any_transient = false;
    clocktree::AnalysisOptions cycle_options = permanent;
    for (const auto* d : transient) {
      if (prng_.uniform01() < d->activation_probability) {
        cycle_options = clocktree::apply_defect(tree_, cycle_options, *d);
        any_transient = true;
      }
    }
    if (any_transient) {
      cycle_analysis = clocktree::analyze(tree_, cycle_options);
      analysis = &cycle_analysis;
    }

    bool any_indication = false;
    for (std::size_t s = 0; s < n_sensors; ++s) {
      const PlacedSensor& sensor = placement_.sensors[s];
      const double jitter =
          options_.cycle_jitter_sigma > 0.0
              ? prng_.normal(0.0, options_.cycle_jitter_sigma) -
                    prng_.normal(0.0, options_.cycle_jitter_sigma)
              : 0.0;
      // Sensor convention: positive = phi2 (wire b) late.
      const double skew =
          analysis->arrival[sensor.sink_b] - analysis->arrival[sensor.sink_a] +
          jitter;
      result.max_true_skew = std::max(result.max_true_skew, std::fabs(skew));
      indications[s] = sensor.model.classify(skew, &prng_);
      scan.latch(s).observe(indications[s]);
      if (indications[s] != cell::Indication::kNone) any_indication = true;
    }
    checker.observe_cycle(indications);
    if (any_indication) ++result.indication_cycles;
  }

  indication_counter.inc(result.indication_cycles);
  result.detected = scan.any_latched();
  result.first_detection_cycle = checker.alarm_cycle();
  result.detecting_sensor = checker.alarm_sensor();
  result.scan_out = scan.scan_out();
  return result;
}

double TestingScheme::false_alarm_rate(std::size_t cycles) {
  const CampaignResult r = run({}, cycles);
  return cycles == 0 ? 0.0
                     : static_cast<double>(r.indication_cycles) /
                           static_cast<double>(cycles);
}

}  // namespace sks::scheme
