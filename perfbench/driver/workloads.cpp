#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>

#include "cell/measure.hpp"
#include "cell/stimuli.hpp"
#include "cell/technology.hpp"
#include "clocktree/electrical.hpp"
#include "esim/batch.hpp"
#include "esim/trace.hpp"
#include "fault/campaign.hpp"
#include "fault/detect.hpp"
#include "fault/inject.hpp"
#include "fault/universe.hpp"
#include "par/pool.hpp"
#include "scheme/behavioral_sensor.hpp"
#include "scheme/montecarlo.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace perfbench {

using namespace sks;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Recorder::open(const char* name, std::size_t item) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, 0.0, 0.0, parent, item});
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  spans_.back().start = now_s();
}

void Recorder::close() {
  spans_[static_cast<std::size_t>(stack_.back())].end = now_s();
  stack_.pop_back();
}

namespace {

constexpr std::array<double, 3> kLoads = {80e-15, 160e-15, 240e-15};
constexpr std::array<double, 3> kSlews = {0.1e-9, 0.2e-9, 0.4e-9};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Seed of pool input `index` of a workload: fixed per (workload, index), so
// the goldens recorded for the pool hold for every run seed.
std::uint64_t pool_seed(const char* workload, std::size_t index) {
  return util::derive_seed(fnv1a(workload), index);
}

std::string unit_id(std::size_t round, std::size_t unit) {
  return "r" + std::to_string(round) + "u" + std::to_string(unit);
}

char indication_char(cell::Indication ind) {
  switch (ind) {
    case cell::Indication::k01:
      return '1';
    case cell::Indication::k10:
      return '2';
    case cell::Indication::kNone:
      break;
  }
  return '0';
}

void count_window_steps(const esim::TransientResult& result,
                        const cell::ClockPairStimulus& stimulus, Tally& tally) {
  const double t0 = stimulus.edge_time;
  const double t1 = stimulus.strobe_time();
  for (std::size_t i = 1; i < result.time.size(); ++i) {
    ++tally.steps;
    if (result.time[i] >= t0 && result.time[i] <= t1) ++tally.window_steps;
  }
}

void tally_batch(const esim::BatchRunStats& stats, Tally& tally) {
  tally.batch_lanes += stats.lanes;
  tally.batch_fallbacks += stats.fallbacks;
  tally.batch_refactor_passes += stats.refactor_passes;
}

// ---------------------------------------------------------------------------
// mc_population: Fig. 5 / Tab. 1 Monte-Carlo populations.

class McPopulation final : public Workload {
 public:
  static constexpr std::size_t kSamples = 512;
  static constexpr double kDt = 5e-12;

  std::size_t pool_rounds() const override { return 48; }
  std::size_t units_per_round() const override { return 2; }
  std::size_t trace_rounds() const override { return cycle_rounds(); }
  std::size_t cycle_rounds() const override { return kLoads.size(); }

  void setup(std::size_t first, std::size_t n, Recorder* rec) override {
    {
      // Nominal sensitivities: the Tab. 1 split point per load.
      Scope s(rec, "scheme.calibrate");
      calibration_ = scheme::SensorCalibration::from_simulation(
          tech_, {}, {kLoads.begin(), kLoads.end()}, kDt);
    }
    rounds_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = (first + i) % pool_rounds();
      std::array<Input, 2> round;
      for (std::size_t u = 0; u < 2; ++u) {
        Input& in = round[u];
        in.id = unit_id(r, u);
        in.options.load = kLoads[r % kLoads.size()];
        in.options.samples = kSamples;
        in.options.common_slew = u == 0;
        in.options.dt = kDt;
        in.options.seed = pool_seed("mc_population", 2 * r + u);
      }
      rounds_.push_back(std::move(round));
    }
  }

  UnitResult run_unit(std::size_t k, std::size_t u,
                      std::size_t threads) override {
    const Input& in = rounds_[k % rounds_.size()][u];
    scheme::McOptions options = in.options;
    options.threads = threads;
    options.batch = 0;
    scheme::McRunStats stats;
    const double t0 = now_s();
    const auto samples =
        scheme::run_vmin_montecarlo(tech_, {}, options, &stats);
    UnitResult out = outputs(in, samples);
    out.wall = now_s() - t0;
    out.busy = stats.sample_seconds.mean() *
               static_cast<double>(stats.sample_seconds.count());
    return out;
  }

  UnitResult replay_unit(std::size_t k, std::size_t u, Recorder& rec,
                         Tally& tally) override {
    const Input& in = rounds_[k % rounds_.size()][u];
    const scheme::McOptions& options = in.options;
    const double vth = tech_.interpretation_threshold();
    const std::size_t lanes =
        esim::resolve_batch_lanes(0, esim::kDefaultBatchLanes);
    std::vector<scheme::McSample> samples(options.samples);
    const double t0 = now_s();
    Scope call(&rec, "scheme.population");
    for (std::size_t lo = 0; lo < options.samples; lo += lanes) {
      const std::size_t hi = std::min(lo + lanes, options.samples);
      std::vector<cell::SensorBench> benches;
      std::vector<double> latency;
      for (std::size_t i = lo; i < hi; ++i) {
        const double b0 = now_s();
        Scope s(&rec, "cell.bench_build", i);
        benches.push_back(prepare(options, i, samples[i]));
        latency.push_back(now_s() - b0);
      }
      const double s0 = now_s();
      std::vector<esim::BatchLaneOutcome> outcomes;
      {
        Scope s(&rec, "esim.batch_transient", lo);
        std::vector<esim::Circuit> circuits;
        std::vector<esim::TransientOptions> sim_options;
        for (const auto& b : benches) {
          circuits.push_back(b.circuit);
          sim_options.push_back(
              cell::sensor_sim_options(b.stimulus, options.dt));
        }
        esim::BatchSimulator batch(std::move(circuits));
        outcomes = batch.run_transients(sim_options);
        tally_batch(batch.last_batch_stats(), tally);
      }
      const double per_lane = (now_s() - s0) / static_cast<double>(hi - lo);
      for (std::size_t l = 0; l < hi - lo; ++l) {
        scheme::McSample& smp = samples[lo + l];
        const esim::BatchLaneOutcome& oc = outcomes[l];
        if (!oc.simulated) {
          smp.simulated = false;
          continue;
        }
        tally.solve.merge(oc.result.stats);
        count_window_steps(oc.result, benches[l].stimulus, tally);
        const double i0 = now_s();
        Scope s(&rec, "cell.interpret", lo + l);
        const auto m = cell::measure_result(benches[l], oc.result, vth);
        smp.vmin_late = m.vmin_y2;
        smp.indication = m.indication;
        smp.detected = m.error();
        tally.measure_s.push_back(latency[l] + per_lane + (now_s() - i0));
      }
    }
    UnitResult out = outputs(in, samples);
    out.wall = now_s() - t0;
    return out;
  }

 private:
  struct Input {
    std::string id;
    scheme::McOptions options;
  };

  // Mirror of the driver's per-sample draw: sample i's stimulus and process
  // variation come from Prng(derive_seed(seed, i)) in this exact order.
  cell::SensorBench prepare(const scheme::McOptions& options, std::size_t i,
                            scheme::McSample& s) const {
    util::Prng prng(util::derive_seed(options.seed, i));
    s.tau = prng.uniform(options.tau_lo, options.tau_hi);
    s.slew1 = prng.uniform(options.slew_lo, options.slew_hi);
    s.slew2 = options.common_slew
                  ? s.slew1
                  : prng.uniform(options.slew_lo, options.slew_hi);
    cell::SensorOptions opt;
    opt.load_y1 = opt.load_y2 = options.load;
    cell::ClockPairStimulus stimulus;
    stimulus.vdd = tech_.vdd;
    stimulus.skew = s.tau;
    stimulus.slew1 = s.slew1;
    stimulus.slew2 = s.slew2;
    cell::SensorBench bench = cell::make_sensor_bench(tech_, opt, stimulus);
    cell::VariationSpec spec;
    spec.rel = options.rel;
    cell::apply_random_variation(bench.circuit, spec, prng);
    return bench;
  }

  UnitResult outputs(const Input& in,
                     const std::vector<scheme::McSample>& samples) const {
    UnitResult out;
    out.id = in.id;
    out.items = samples.size();
    std::string ind;
    std::size_t unsimulated = 0, n01 = 0, n10 = 0;
    double sum = 0.0, lo = 1e300, hi = -1e300;
    for (const auto& s : samples) {
      if (!s.simulated) {
        ind += 'U';
        ++unsimulated;
        continue;
      }
      ind += indication_char(s.indication);
      n01 += s.indication == cell::Indication::k01;
      n10 += s.indication == cell::Indication::k10;
      sum += s.vmin_late;
      lo = std::min(lo, s.vmin_late);
      hi = std::max(hi, s.vmin_late);
    }
    const auto est = scheme::estimate_probabilities(
        samples, calibration_.tau_min(in.options.load),
        tech_.interpretation_threshold());
    out.digest = "ind=" + hex(fnv1a(ind)) + " n01=" + std::to_string(n01) +
                 " n10=" + std::to_string(n10) +
                 " unsim=" + std::to_string(unsimulated) +
                 " loose=" + std::to_string(est.loose.successes) + "/" +
                 std::to_string(est.loose.trials) +
                 " false=" + std::to_string(est.false_alarm.successes) + "/" +
                 std::to_string(est.false_alarm.trials);
    const double simulated =
        static_cast<double>(samples.size() - unsimulated);
    out.values = {{"vmin_mean", simulated > 0 ? sum / simulated : 0.0},
                  {"vmin_min", lo},
                  {"vmin_max", hi}};
    return out;
  }

  cell::Technology tech_;
  scheme::SensorCalibration calibration_;
  std::vector<std::array<Input, 2>> rounds_;
};

// ---------------------------------------------------------------------------
// fault_campaign: the Sec. 3 universe on process-varied sensors.

class FaultCampaign final : public Workload {
 public:
  static constexpr double kDt = 5e-12;

  std::size_t pool_rounds() const override { return 48; }
  std::size_t units_per_round() const override { return 2; }
  std::size_t trace_rounds() const override { return cycle_rounds(); }
  std::size_t cycle_rounds() const override { return kLoads.size(); }

  void setup(std::size_t first, std::size_t n, Recorder* rec) override {
    const double vth = tech_.interpretation_threshold();
    {
      // Nominal benches: the fault-free reference response per load.
      for (const double load : kLoads) {
        cell::SensorBench bench;
        {
          Scope s(rec, "cell.bench_build");
          bench = cell::make_sensor_bench(tech_, options_for(load), clocks());
        }
        Scope s(rec, "fault.observe");
        fault::observe(bench.circuit,
                       fault::default_sensor_test_plan(bench, vth, 2));
      }
    }
    rounds_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = (first + i) % pool_rounds();
      Round round;
      round.round = r;
      {
        Scope s(rec, "cell.bench_build");
        round.bench = cell::make_sensor_bench(
            tech_, options_for(kLoads[r % kLoads.size()]), clocks());
        util::Prng prng(pool_seed("fault_campaign", r));
        // k' and capacitances vary; V_t variation makes some faulty
        // circuits' DC operating points unsolvable, and every fault test
        // must simulate.
        cell::VariationSpec spec;
        spec.vary_threshold = false;
        cell::apply_random_variation(round.bench.circuit, spec, prng);
      }
      {
        Scope s(rec, "fault.universe");
        round.universe = fault::sensor_fault_universe(round.bench.cell);
      }
      for (int cycles = 1; cycles <= 2; ++cycles) {
        fault::TestPlan plan =
            fault::default_sensor_test_plan(round.bench, vth, cycles);
        plan.dt = kDt;
        round.plans.push_back(std::move(plan));
      }
      rounds_.push_back(std::move(round));
    }
  }

  UnitResult run_unit(std::size_t k, std::size_t u,
                      std::size_t threads) override {
    const Round& round = rounds_[k % rounds_.size()];
    fault::CampaignOptions options;
    options.threads = threads;
    options.batch = 0;
    const double t0 = now_s();
    const auto report = fault::run_campaign(round.bench.circuit, round.universe,
                                            round.plans[u], options);
    UnitResult out = outputs(round, u, report.verdicts);
    out.wall = now_s() - t0;
    out.busy = report.stats.good_sim_seconds;
    for (const auto& v : report.verdicts) {
      out.busy += v.seconds;
      out.item_seconds.push_back(v.seconds);
    }
    return out;
  }

  UnitResult replay_unit(std::size_t k, std::size_t u, Recorder& rec,
                         Tally& tally) override {
    const Round& round = rounds_[k % rounds_.size()];
    const fault::TestPlan& plan = round.plans[u];
    const esim::Circuit& good = round.bench.circuit;
    const auto& universe = round.universe;
    const std::size_t lanes =
        esim::resolve_batch_lanes(0, esim::kDefaultBatchLanes);
    const auto sim_options = fault::observation_options(plan);
    const double t0 = now_s();
    Scope call(&rec, "fault.campaign");

    esim::TransientResult good_result;
    {
      Scope s(&rec, "esim.transient");
      esim::Simulator sim(good);
      good_result = sim.run_transient(sim_options);
    }
    tally.solve.merge(good_result.stats);
    fault::Observation good_obs;
    {
      Scope s(&rec, "fault.classify");
      good_obs = fault::interpret_observation(good_result, good, plan);
    }

    std::vector<esim::Circuit> faulty;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      Scope s(&rec, "fault.inject", i);
      faulty.push_back(fault::inject(good, universe[i]));
    }
    // Operating point of every faulty circuit on the scalar DC ladder -- the
    // call a campaign would seed its batch lanes from.
    for (std::size_t i = 0; i < faulty.size(); ++i) {
      Scope s(&rec, "esim.dc", i);
      try {
        esim::Simulator sim(faulty[i]);
        sim.dc_solution();
      } catch (const ConvergenceError&) {
      }
    }

    std::vector<fault::FaultVerdict> verdicts(universe.size());
    // Same grouping as the campaign driver: consecutive structure-compatible
    // faulty circuits, at most `lanes` per group.
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    for (std::size_t i = 0; i < faulty.size(); ++i) {
      if (groups.empty() ||
          groups.back().second - groups.back().first >= lanes ||
          !esim::BatchSimulator::structure_compatible(
              faulty[groups.back().first], faulty[i])) {
        groups.push_back({i, i + 1});
      } else {
        groups.back().second = i + 1;
      }
    }
    for (const auto& [lo, hi] : groups) {
      std::vector<esim::BatchLaneOutcome> outcomes;
      {
        Scope s(&rec, "esim.batch_transient", lo);
        esim::BatchSimulator batch(std::vector<esim::Circuit>(
            faulty.begin() + static_cast<std::ptrdiff_t>(lo),
            faulty.begin() + static_cast<std::ptrdiff_t>(hi)));
        outcomes = batch.run_transients({sim_options});
        tally_batch(batch.last_batch_stats(), tally);
      }
      for (std::size_t l = 0; l < outcomes.size(); ++l) {
        const std::size_t i = lo + l;
        if (!outcomes[l].simulated) {
          verdicts[i].fault = universe[i];
          continue;
        }
        tally.solve.merge(outcomes[l].result.stats);
        Scope s(&rec, "fault.classify", i);
        verdicts[i] = fault::classify_fault(
            universe[i], good_obs,
            fault::interpret_observation(outcomes[l].result, faulty[i], plan),
            plan);
      }
    }
    UnitResult out = outputs(round, u, verdicts);
    out.wall = now_s() - t0;
    return out;
  }

 private:
  struct Round {
    std::size_t round = 0;
    cell::SensorBench bench;
    std::vector<fault::Fault> universe;
    std::vector<fault::TestPlan> plans;  // 1- and 2-cycle
  };

  static cell::SensorOptions options_for(double load) {
    cell::SensorOptions o;
    o.load_y1 = o.load_y2 = load;
    return o;
  }
  static cell::ClockPairStimulus clocks() {
    cell::ClockPairStimulus stim;
    stim.full_clock = true;
    return stim;
  }

  static UnitResult outputs(const Round& round, std::size_t u,
                            const std::vector<fault::FaultVerdict>& verdicts) {
    UnitResult out;
    out.id = unit_id(round.round, u);
    out.items = verdicts.size();
    double iddq = 0.0;
    for (const auto& v : verdicts) {
      out.digest += !v.simulated        ? 'U'
                    : v.logic_detected ? 'L'
                    : v.iddq_detected  ? 'I'
                                       : '.';
      if (v.simulated) iddq += v.max_excess_iddq;
    }
    out.values = {{"iddq_sum", iddq}};
    return out;
  }

  cell::Technology tech_;
  std::vector<Round> rounds_;
};

// ---------------------------------------------------------------------------
// skew_sweep: the Fig. 4 grid of V_min(tau) points and tau_min bisections.

class SkewSweep final : public Workload {
 public:
  static constexpr std::size_t kSkews = 8;
  static constexpr double kDt = 5e-12;
  static constexpr double kTol = 5e-13;

  std::size_t pool_rounds() const override { return 32; }
  std::size_t units_per_round() const override {
    return kLoads.size() * kSlews.size();
  }
  // Enough measurements that cell.measure_p99_ms has >= 10 beyond it.
  std::size_t trace_rounds() const override { return 6; }

  void setup(std::size_t first, std::size_t n, Recorder* rec) override {
    // Nominal sensitivities: the seeded bisection brackets below assume
    // every tau_min of the grid lies inside (0.02 ns, 0.6 ns).
    for (const double load : kLoads) {
      Scope s(rec, "cell.find_tau_min");
      cell::SensorOptions opt;
      opt.load_y1 = opt.load_y2 = load;
      const double tau =
          cell::find_tau_min(tech_, opt, {}, 0.0, 1e-9, kTol, kDt);
      sks::check(tau > 0.02e-9 && tau < 0.6e-9, "skew_sweep: nominal tau_min ",
                 tau, " s outside the bisection brackets");
    }
    rounds_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = (first + i) % pool_rounds();
      std::vector<Unit> round;
      for (std::size_t u = 0; u < units_per_round(); ++u) {
        util::Prng prng(pool_seed("skew_sweep", r * units_per_round() + u));
        Unit unit;
        unit.id = unit_id(r, u);
        unit.options.load_y1 = unit.options.load_y2 =
            kLoads[u / kSlews.size()];
        unit.stimulus.slew1 = unit.stimulus.slew2 = kSlews[u % kSlews.size()];
        for (std::size_t j = 0; j < kSkews; ++j) {
          unit.skews.push_back(prng.uniform(0.0, 0.3e-9));
        }
        // Bracket strictly around every tau_min of the grid (0.05-0.2 ns),
        // so the bisection runs 2 end probes plus its halvings.
        unit.lo = prng.uniform(0.0, 0.02e-9);
        unit.hi = prng.uniform(0.6e-9, 1.0e-9);
        unit.probes = 2;
        for (double a = unit.lo, b = unit.hi; b - a > kTol; b = 0.5 * (a + b)) {
          ++unit.probes;
        }
        round.push_back(std::move(unit));
      }
      rounds_.push_back(std::move(round));
    }
  }

  UnitResult run_unit(std::size_t k, std::size_t u, std::size_t) override {
    const Unit& unit = rounds_[k % rounds_.size()][u];
    UnitResult out = blank(unit);
    const double t0 = now_s();
    cell::ClockPairStimulus stim = unit.stimulus;
    for (std::size_t j = 0; j < unit.skews.size(); ++j) {
      stim.skew = unit.skews[j];
      const auto m = cell::measure_sensor(tech_, unit.options, stim, kDt);
      record(out, j, m);
    }
    const double tau = cell::find_tau_min(tech_, unit.options, unit.stimulus,
                                          unit.lo, unit.hi, kTol, kDt);
    out.wall = now_s() - t0;
    out.busy = out.wall;
    out.values.push_back({"tau_min", tau});
    return out;
  }

  UnitResult replay_unit(std::size_t k, std::size_t u, Recorder& rec,
                         Tally& tally) override {
    const Unit& unit = rounds_[k % rounds_.size()][u];
    const double vth = tech_.interpretation_threshold();
    UnitResult out = blank(unit);
    std::size_t item = 0;
    auto measure = [&](double skew) {
      const double m0 = now_s();
      Scope span(&rec, "cell.measure", item++);
      cell::ClockPairStimulus stim = unit.stimulus;
      stim.skew = skew;
      cell::SensorBench bench;
      {
        Scope s(&rec, "cell.bench_build");
        bench = cell::make_sensor_bench(tech_, unit.options, stim);
      }
      esim::TransientResult result;
      {
        Scope s(&rec, "esim.transient");
        esim::Simulator sim(bench.circuit);
        result = sim.run_transient(cell::sensor_sim_options(stim, kDt));
      }
      tally.solve.merge(result.stats);
      count_window_steps(result, stim, tally);
      cell::SensorMeasurement m;
      {
        Scope s(&rec, "cell.interpret");
        m = cell::measure_result(bench, result, vth);
      }
      tally.measure_s.push_back(now_s() - m0);
      return m;
    };
    const double t0 = now_s();
    Scope call(&rec, "cell.sweep");
    for (std::size_t j = 0; j < unit.skews.size(); ++j) {
      record(out, j, measure(unit.skews[j]));
    }
    // find_tau_min's bisection, probe for probe.
    double lo = unit.lo, hi = unit.hi;
    if (measure(lo).error()) {
      hi = lo;
    } else if (measure(hi).error()) {
      while (hi - lo > kTol) {
        const double mid = 0.5 * (lo + hi);
        if (measure(mid).error()) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
    }
    out.wall = now_s() - t0;
    out.values.push_back({"tau_min", hi});
    return out;
  }

 private:
  struct Unit {
    std::string id;
    cell::SensorOptions options;
    cell::ClockPairStimulus stimulus;
    std::vector<double> skews;
    double lo = 0.0, hi = 0.0;
    std::size_t probes = 0;
  };

  static UnitResult blank(const Unit& unit) {
    UnitResult out;
    out.id = unit.id;
    out.items = unit.skews.size() + unit.probes;
    return out;
  }

  static void record(UnitResult& out, std::size_t j,
                     const cell::SensorMeasurement& m) {
    out.digest += indication_char(m.indication);
    out.values.push_back({"vmin" + std::to_string(j), m.vmin_y2});
  }

  cell::Technology tech_;
  std::vector<std::vector<Unit>> rounds_;
};

// ---------------------------------------------------------------------------
// clocktree_transient: defective big H-trees on the hierarchical path.

class ClocktreeTransient final : public Workload {
 public:
  static constexpr std::size_t kLevels = 5;  // ~8k MNA unknowns
  static constexpr std::size_t kDefectDepth = 4;

  std::size_t pool_rounds() const override { return 8; }
  std::size_t slice_rounds() const override { return 2; }
  std::size_t units_per_round() const override { return 1; }
  std::size_t trace_rounds() const override { return cycle_rounds(); }
  std::size_t cycle_rounds() const override { return slice_rounds(); }

  void setup(std::size_t first, std::size_t n, Recorder* rec) override {
    nets_.clear();
    clocktree::BigClockTreeOptions options;
    options.levels = kLevels;
    // Defect sites: edges within kDefectDepth of the root, the ones the
    // clock edge crosses inside the simulated window.
    std::vector<std::size_t> sites;
    {
      Scope s(rec, "clocktree.build");
      const auto pristine = clocktree::make_big_clock_tree(options);
      for (std::size_t i = 1; i < pristine.tree.size(); ++i) {
        std::size_t depth = 1;
        for (std::size_t p = pristine.tree.node(i).parent; p != 0;
             p = pristine.tree.node(p).parent) {
          ++depth;
        }
        if (depth <= kDefectDepth) sites.push_back(i);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = (first + i) % pool_rounds();
      util::Prng prng(pool_seed("clocktree_transient", r));
      Net net;
      net.id = "n" + std::to_string(r);
      options.defect_node = sites[prng.below(sites.size())];
      options.defect_r_scale = prng.uniform(10.0, 40.0);
      Scope s(rec, "clocktree.build");
      net.net = clocktree::make_big_clock_tree(options);
      nets_.push_back(std::move(net));
    }
  }

  UnitResult run_unit(std::size_t k, std::size_t,
                      std::size_t threads) override {
    const Net& net = nets_[k % nets_.size()];
    if (threads > 1 && !pool_) {
      pool_ = std::make_unique<par::ThreadPool>(threads);
    }
    const double t0 = now_s();
    esim::Simulator sim(net.net.circuit);
    if (threads > 1) sim.set_pool(pool_.get());
    const auto result = sim.run_transient(options());
    UnitResult out = outputs(net, result);
    out.wall = now_s() - t0;
    out.busy = out.wall;  // the calling thread; pool workers are not visible
    return out;
  }

  UnitResult replay_unit(std::size_t k, std::size_t, Recorder& rec,
                         Tally& tally) override {
    const Net& net = nets_[k % nets_.size()];
    const double t0 = now_s();
    esim::TransientResult result;
    {
      Scope s(&rec, "esim.transient", k);
      esim::Simulator sim(net.net.circuit);
      result = sim.run_transient(options());
      tally.schur_bytes =
          std::max<std::uint64_t>(tally.schur_bytes, sim.schur_memory_bytes());
    }
    tally.solve.merge(result.stats);
    const auto& c = net.net.circuit;
    tally.unknowns = std::max<std::uint64_t>(
        tally.unknowns, c.node_count() - 1 + c.vsources().size());
    UnitResult out = outputs(net, result);
    out.wall = now_s() - t0;
    return out;
  }

 private:
  struct Net {
    std::string id;
    clocktree::ElectricalNet net;
  };

  static esim::TransientOptions options() {
    esim::TransientOptions o;
    o.t_end = 0.5e-9;
    o.dt = 10e-12;
    return o;
  }

  // The root's 50% crossing, and the first two moments of the whole net's
  // end-of-run node voltages (one edge does not reach the sinks yet, but
  // every node the edge has reached -- defect included -- enters the sums).
  static UnitResult outputs(const Net& net,
                            const esim::TransientResult& result) {
    UnitResult out;
    out.id = net.id;
    out.items = 1;
    const esim::Trace root("root", result.time,
                           result.node_v.at(net.net.root.index));
    const auto t = root.first_rising_crossing(2.5);
    out.digest = t ? "root-crossed" : "root-flat";
    double sum = 0.0, sq = 0.0;
    for (const auto& v : result.node_v) {
      sum += v.back();
      sq += v.back() * v.back();
    }
    out.values = {{"t_root", t ? *t : -1.0}, {"v_sum", sum}, {"v_sq_sum", sq}};
    return out;
  }

  std::vector<Net> nets_;
  std::unique_ptr<par::ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "mc_population") return std::make_unique<McPopulation>();
  if (name == "fault_campaign") return std::make_unique<FaultCampaign>();
  if (name == "skew_sweep") return std::make_unique<SkewSweep>();
  if (name == "clocktree_transient") {
    return std::make_unique<ClocktreeTransient>();
  }
  return nullptr;
}

}  // namespace perfbench
