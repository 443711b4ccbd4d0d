#include "fault/campaign.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "par/pool.hpp"

namespace sks::fault {

std::map<FaultKind, KindSummary> CampaignReport::by_kind() const {
  std::map<FaultKind, KindSummary> summary;
  for (const auto& v : verdicts) {
    KindSummary& s = summary[v.fault.kind];
    ++s.total;
    if (!v.simulated) ++s.unsimulated;
    if (v.logic_detected) {
      ++s.logic_detected;
    } else if (v.iddq_detected) {
      ++s.iddq_only;
    }
  }
  return summary;
}

KindSummary CampaignReport::overall() const {
  KindSummary s;
  for (const auto& [kind, ks] : by_kind()) {
    (void)kind;
    s.total += ks.total;
    s.logic_detected += ks.logic_detected;
    s.iddq_only += ks.iddq_only;
    s.unsimulated += ks.unsimulated;
  }
  return s;
}

std::vector<std::string> CampaignReport::escapes(bool with_iddq) const {
  std::vector<std::string> out;
  for (const auto& v : verdicts) {
    if (!v.detected(with_iddq)) out.push_back(v.fault.label());
  }
  return out;
}

util::TextTable CampaignReport::summary_table() const {
  util::TextTable table({"fault kind", "total", "logic cov.", "+IDDQ cov.",
                         "unsimulated"});
  const auto summary = by_kind();
  for (const auto& [kind, s] : summary) {
    table.add_row({to_string(kind), std::to_string(s.total),
                   util::fmt_percent(s.logic_coverage(), 1),
                   util::fmt_percent(s.combined_coverage(), 1),
                   std::to_string(s.unsimulated)});
  }
  const KindSummary all = overall();
  table.add_row({"ALL", std::to_string(all.total),
                 util::fmt_percent(all.logic_coverage(), 1),
                 util::fmt_percent(all.combined_coverage(), 1),
                 std::to_string(all.unsimulated)});
  return table;
}

obs::Report CampaignReport::run_report(const std::string& name) const {
  obs::Report report(name);
  const KindSummary all = overall();
  report.set_value("faults.total", static_cast<double>(all.total));
  report.set_value("faults.logic_detected",
                   static_cast<double>(all.logic_detected));
  report.set_value("faults.iddq_only", static_cast<double>(all.iddq_only));
  report.set_value("faults.unsimulated", static_cast<double>(all.unsimulated));
  report.set_value("coverage.logic", all.logic_coverage());
  report.set_value("coverage.combined", all.combined_coverage());
  report.set_value("wall_seconds", stats.wall_seconds);
  report.set_value("good_sim_seconds", stats.good_sim_seconds);
  if (stats.fault_seconds.count() > 0) {
    report.set_value("fault_seconds.mean", stats.fault_seconds.mean());
    report.set_value("fault_seconds.max", stats.fault_seconds.max());
  }
  report.set_value("solve.newton_iterations",
                   static_cast<double>(stats.solve.newton_iterations));
  report.set_value("solve.newton_failures",
                   static_cast<double>(stats.solve.newton_failures));
  report.set_value("solve.lu_factorizations",
                   static_cast<double>(stats.solve.lu_factorizations));
  report.set_value("solve.dc_gmin_ladders",
                   static_cast<double>(stats.solve.dc_gmin_ladders));
  report.set_value("solve.dc_source_ladders",
                   static_cast<double>(stats.solve.dc_source_ladders));
  report.set_value("solve.dt_halvings",
                   static_cast<double>(stats.solve.dt_halvings));
  report.set_value("solve.be_fallbacks",
                   static_cast<double>(stats.solve.be_fallbacks));
  report.set_value("solve.min_dt_used", stats.solve.min_dt_used);
  return report;
}

CampaignReport run_campaign(const esim::Circuit& good_circuit,
                            const std::vector<Fault>& universe,
                            const TestPlan& plan,
                            const CampaignOptions& options,
                            const CampaignProgress& progress) {
  const obs::Stopwatch wall;
  static obs::TimerStat& campaign_timer =
      obs::registry().timer("fault.run_campaign");
  obs::Span campaign_span("fault.run_campaign", campaign_timer);
  const std::size_t threads =
      options.threads == 0 ? par::default_threads() : options.threads;
  campaign_span.arg("faults", static_cast<double>(universe.size()))
      .arg("threads", static_cast<double>(threads));
  const obs::Stopwatch good_wall;
  const Observation good_observation = observe(good_circuit, plan);
  CampaignReport report;
  report.stats.good_sim_seconds = good_wall.seconds();
  report.verdicts.resize(universe.size());

  // Aggregation and the progress callback run strictly in universe order
  // (via OrderedSink), so every CampaignStats field — including the
  // floating-point RunningStats sums — is bit-identical for any thread
  // count.  The same ordering makes the live progress tracker and the
  // registry stream deterministic at any thread count.
  static obs::StreamStat& seconds_stream =
      obs::registry().stream("fault.seconds");
  obs::ProgressTracker tracker("fault_campaign", universe.size());
  par::OrderedSink sink(universe.size(), [&](std::size_t i) {
    const FaultVerdict& v = report.verdicts[i];
    report.stats.fault_seconds.add(v.seconds);
    report.stats.solve.merge(v.stats);
    if (!v.simulated) ++report.stats.unsimulated;
    seconds_stream.record(v.seconds);
    if (v.logic_detected) {
      tracker.add_partial("logic_detected");
    } else if (v.iddq_detected) {
      tracker.add_partial("iddq_only");
    }
    if (!v.simulated) tracker.add_partial("unsimulated");
    tracker.on_item();
    if (progress) progress(i + 1, universe.size(), v);
  });
  auto test_one = [&](std::size_t i) {
    obs::Span span("fault.test");
    span.arg("fault", universe[i].label())
        .arg("index", static_cast<double>(i));
    report.verdicts[i] = test_fault(good_circuit, good_observation,
                                    universe[i], plan, options.inject);
    span.arg("nr_iters",
             static_cast<double>(report.verdicts[i].stats.newton_iterations))
        .arg("detected",
             static_cast<double>(report.verdicts[i].detected(true)));
    sink.complete(i);
  };

  // One Simulator per fault.  Observation transients step adaptively, and
  // esim::BatchSimulator retires adaptive lanes to the scalar path at once,
  // so batching faults would only add injection and grouping overhead.
  if (threads <= 1 || universe.size() <= 1) {
    for (std::size_t i = 0; i < universe.size(); ++i) test_one(i);
  } else {
    par::ThreadPool pool(std::min(threads, universe.size()));
    par::parallel_for(pool, 0, universe.size(), test_one);
  }
  report.stats.wall_seconds = wall.seconds();
  return report;
}

CampaignReport run_campaign(const esim::Circuit& good_circuit,
                            const std::vector<Fault>& universe,
                            const TestPlan& plan,
                            const InjectOptions& inject_options,
                            const CampaignProgress& progress) {
  CampaignOptions options;
  options.inject = inject_options;
  return run_campaign(good_circuit, universe, plan, options, progress);
}

}  // namespace sks::fault
