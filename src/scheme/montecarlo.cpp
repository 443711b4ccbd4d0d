#include "scheme/montecarlo.hpp"

#include <algorithm>

#include "esim/batch.hpp"
#include "esim/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "par/pool.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace sks::scheme {

namespace {

// One measured sample plus its telemetry, produced entirely on one worker.
// Per-sample solver stats come straight from the transient result (via the
// measure_bench out-param), never from global counter deltas — those
// interleave across threads.
struct SampleResult {
  McSample sample;
  double seconds = 0.0;
  esim::SolveStats solve;
};

// A drawn sample and its ready-to-simulate bench.  Splitting the draw from
// the measurement lets the scalar path and the batched path share one
// randomness protocol: sample i's circuit and stimulus depend only on
// (options.seed, i), never on the execution schedule or the lane width.
struct PreparedSample {
  McSample sample;
  cell::SensorBench bench;
};

PreparedSample prepare_one(const cell::Technology& tech,
                           const cell::SensorOptions& base,
                           const McOptions& options, std::size_t index) {
  // Index-addressed stream: sample i's randomness depends only on
  // (options.seed, i), so any schedule across any thread count draws the
  // exact same circuits and stimuli.
  util::Prng prng(util::derive_seed(options.seed, index));

  PreparedSample out;
  McSample& s = out.sample;
  s.tau = prng.uniform(options.tau_lo, options.tau_hi);
  s.slew1 = prng.uniform(options.slew_lo, options.slew_hi);
  s.slew2 = options.common_slew
                ? s.slew1
                : prng.uniform(options.slew_lo, options.slew_hi);

  cell::SensorOptions opt = base;
  opt.load_y1 = opt.load_y2 = options.load;
  cell::ClockPairStimulus stimulus;
  stimulus.vdd = tech.vdd;
  stimulus.skew = s.tau;
  stimulus.slew1 = s.slew1;
  stimulus.slew2 = s.slew2;

  out.bench = cell::make_sensor_bench(tech, opt, stimulus);
  cell::VariationSpec spec;
  spec.rel = options.rel;
  cell::apply_random_variation(out.bench.circuit, spec, prng);
  return out;
}

void fill_measurement(McSample& s, const cell::SensorMeasurement& m) {
  // Positive tau delays phi2, so the late output is y2.
  s.vmin_late = m.vmin_y2;
  s.indication = m.indication;
  s.detected = m.error();
}

SampleResult measure_one(const cell::Technology& tech,
                         const cell::SensorOptions& base,
                         const McOptions& options, std::size_t index) {
  const obs::Stopwatch sample_wall;
  obs::Span span("scheme.mc_sample");
  span.arg("index", static_cast<double>(index));
  PreparedSample prepared = prepare_one(tech, base, options, index);

  SampleResult out;
  out.sample = prepared.sample;
  McSample& s = out.sample;
  try {
    const cell::SensorMeasurement m =
        cell::measure_bench(prepared.bench, tech.interpretation_threshold(),
                            options.dt, &out.solve);
    fill_measurement(s, m);
  } catch (const ConvergenceError& e) {
    // A pathological random draw must not abort the whole population: mark
    // the sample unsimulated and keep the failure context (plus the
    // postmortem bundle path when bundles are enabled) for the report.
    s.simulated = false;
    s.failure = e.what();
    s.bundle = e.bundle_path();
  }
  out.seconds = sample_wall.seconds();
  span.arg("tau", s.tau)
      .arg("vmin_late", s.vmin_late)
      .arg("detected", static_cast<double>(s.detected))
      .arg("nr_iters", static_cast<double>(out.solve.newton_iterations));
  return out;
}

// Measure samples [lo, hi) as one BatchSimulator run (the SoA fast path).
// A lane the batch retires is re-run on the scalar Simulator inside
// run_transients, so the verdicts here match the scalar path sample for
// sample; per-sample seconds are the block's wall time split evenly (the
// lanes advance in lockstep, so there is no meaningful per-lane split).
void measure_block(const cell::Technology& tech,
                   const cell::SensorOptions& base, const McOptions& options,
                   std::size_t lo, std::size_t hi,
                   std::vector<SampleResult>& results) {
  const obs::Stopwatch block_wall;
  const std::size_t lanes = hi - lo;
  obs::Span span("scheme.mc_block");
  span.arg("first", static_cast<double>(lo))
      .arg("lanes", static_cast<double>(lanes));

  std::vector<PreparedSample> prepared;
  prepared.reserve(lanes);
  std::vector<esim::Circuit> circuits;
  circuits.reserve(lanes);
  std::vector<esim::TransientOptions> sim_options;
  sim_options.reserve(lanes);
  for (std::size_t i = lo; i < hi; ++i) {
    prepared.push_back(prepare_one(tech, base, options, i));
    circuits.push_back(prepared.back().bench.circuit);
    sim_options.push_back(
        cell::sensor_sim_options(prepared.back().bench.stimulus, options.dt));
  }

  esim::BatchSimulator batch(std::move(circuits));
  const auto outcomes = batch.run_transients(sim_options);
  for (std::size_t l = 0; l < lanes; ++l) {
    SampleResult out;
    out.sample = prepared[l].sample;
    McSample& s = out.sample;
    const esim::BatchLaneOutcome& oc = outcomes[l];
    if (oc.simulated) {
      out.solve = oc.result.stats;
      fill_measurement(
          s, cell::measure_result(prepared[l].bench, oc.result,
                                  tech.interpretation_threshold()));
    } else {
      s.simulated = false;
      s.failure = oc.failure;
      s.bundle = oc.bundle;
    }
    results[lo + l] = std::move(out);
  }
  // Split the block's wall time evenly across its samples so the
  // mc.sample_seconds stream and McRunStats keep their meaning.
  const double per_sample = block_wall.seconds() / static_cast<double>(lanes);
  for (std::size_t i = lo; i < hi; ++i) results[i].seconds = per_sample;
  span.arg("fallbacks",
           static_cast<double>(batch.last_batch_stats().fallbacks));
}

}  // namespace

obs::Report McRunStats::run_report(const std::string& name) const {
  obs::Report report(name);
  report.set_value("samples", static_cast<double>(sample_seconds.count()));
  report.set_value("detected", static_cast<double>(detected));
  report.set_value("unsimulated", static_cast<double>(unsimulated));
  report.set_value("wall_seconds", wall_seconds);
  if (sample_seconds.count() > 0) {
    report.set_value("sample_seconds.mean", sample_seconds.mean());
    report.set_value("sample_seconds.max", sample_seconds.max());
  }
  report.set_value("solve.newton_iterations",
                   static_cast<double>(solve.newton_iterations));
  report.set_value("solve.newton_failures",
                   static_cast<double>(solve.newton_failures));
  report.set_value("solve.lu_factorizations",
                   static_cast<double>(solve.lu_factorizations));
  report.set_value("solve.steps_accepted",
                   static_cast<double>(solve.steps_accepted));
  report.set_value("solve.dt_halvings",
                   static_cast<double>(solve.dt_halvings));
  report.set_value("solve.be_fallbacks",
                   static_cast<double>(solve.be_fallbacks));
  report.set_value("solve.dc_gmin_ladders",
                   static_cast<double>(solve.dc_gmin_ladders));
  report.set_value("solve.dc_source_ladders",
                   static_cast<double>(solve.dc_source_ladders));
  return report;
}

std::vector<McSample> run_vmin_montecarlo(const cell::Technology& tech,
                                          const cell::SensorOptions& base,
                                          const McOptions& options,
                                          McRunStats* stats,
                                          const McProgress& progress) {
  const obs::Stopwatch wall;
  static obs::TimerStat& mc_timer =
      obs::registry().timer("scheme.vmin_montecarlo");
  obs::Span mc_span("scheme.run_vmin_montecarlo", mc_timer);
  mc_span.arg("samples", static_cast<double>(options.samples));

  std::vector<SampleResult> results(options.samples);
  // Telemetry aggregation and progress fire strictly in sample order so the
  // RunningStats sums (and the callback sequence) match the serial run
  // bit-for-bit.  Registry streams and the live progress tracker ride the
  // same commit order, so their content is thread-count-invariant too.
  static obs::StreamStat& seconds_stream =
      obs::registry().stream("mc.sample_seconds");
  static obs::StreamStat& vmin_stream = obs::registry().stream("mc.vmin");
  static obs::StreamStat& tau_stream = obs::registry().stream("mc.tau");
  obs::ProgressTracker tracker("vmin_montecarlo", options.samples);
  par::OrderedSink sink(options.samples, [&](std::size_t i) {
    if (stats != nullptr) {
      stats->sample_seconds.add(results[i].seconds);
      stats->solve.merge(results[i].solve);
      if (results[i].sample.detected) ++stats->detected;
      if (!results[i].sample.simulated) ++stats->unsimulated;
    }
    const McSample& s = results[i].sample;
    seconds_stream.record(results[i].seconds);
    if (s.simulated) {
      vmin_stream.record(s.vmin_late);
      tau_stream.record(s.tau);
    }
    if (s.detected) tracker.add_partial("detected");
    if (!s.simulated) tracker.add_partial("unsimulated");
    tracker.on_item();
    if (progress) progress(i + 1, options.samples);
  });
  const std::size_t threads =
      options.threads == 0 ? par::default_threads() : options.threads;
  const std::size_t lanes =
      esim::resolve_batch_lanes(options.batch, esim::kDefaultBatchLanes);
  mc_span.arg("threads", static_cast<double>(threads))
      .arg("batch_lanes", static_cast<double>(lanes));
  if (lanes <= 1) {
    // Scalar golden path: one Simulator per sample.
    auto run_one = [&](std::size_t i) {
      results[i] = measure_one(tech, base, options, i);
      sink.complete(i);
    };
    if (threads <= 1 || options.samples <= 1) {
      for (std::size_t i = 0; i < options.samples; ++i) run_one(i);
    } else {
      par::ThreadPool pool(std::min(threads, options.samples));
      par::parallel_for(pool, 0, options.samples, run_one);
    }
  } else {
    // Batched fast path: consecutive index blocks share one BatchSimulator.
    // Draws are still per-index, and the sink still commits per sample, so
    // the population and every aggregate are lane-width-invariant.
    const std::size_t blocks = (options.samples + lanes - 1) / lanes;
    auto run_block = [&](std::size_t b) {
      const std::size_t lo = b * lanes;
      const std::size_t hi = std::min(lo + lanes, options.samples);
      measure_block(tech, base, options, lo, hi, results);
      for (std::size_t i = lo; i < hi; ++i) sink.complete(i);
    };
    if (threads <= 1 || blocks <= 1) {
      for (std::size_t b = 0; b < blocks; ++b) run_block(b);
    } else {
      par::ThreadPool pool(std::min(threads, blocks));
      par::parallel_for(pool, 0, blocks, run_block);
    }
  }

  std::vector<McSample> samples;
  samples.reserve(options.samples);
  for (const SampleResult& r : results) samples.push_back(r.sample);
  if (stats != nullptr) stats->wall_seconds = wall.seconds();
  return samples;
}

ProbabilityEstimates estimate_probabilities(const std::vector<McSample>& mc,
                                            double tau_min_nominal,
                                            double vth) {
  ProbabilityEstimates est;
  est.tau_min_nominal = tau_min_nominal;
  for (const McSample& s : mc) {
    if (!s.simulated) continue;  // no measurement to classify
    ++est.loose_joint.trials;
    ++est.false_alarm_joint.trials;
    if (s.tau > tau_min_nominal) {
      ++est.loose.trials;
      if (s.vmin_late < vth) {
        ++est.loose.successes;
        ++est.loose_joint.successes;
      }
    } else {
      ++est.false_alarm.trials;
      if (s.vmin_late > vth) {
        ++est.false_alarm.successes;
        ++est.false_alarm_joint.successes;
      }
    }
  }
  return est;
}

}  // namespace sks::scheme
