#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "fault/campaign.hpp"
#include "fault/universe.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace sks::obs {
namespace {

using namespace sks::units;

TEST(JsonHelpers, EscapeAndNumber) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(0.5), "0.5");
  // Non-finite values must not poison the document.
  const std::string nan = json_number(std::nan(""));
  EXPECT_NE(Json::parse(nan).kind(), Json::Kind::kNull);
}

TEST(JsonParse, Basics) {
  const Json doc = Json::parse(
      R"({"s": "hi", "n": -1.5e2, "b": true, "z": null, "a": [1, 2]})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("s").str(), "hi");
  EXPECT_DOUBLE_EQ(doc.at("n").number(), -150.0);
  EXPECT_TRUE(doc.at("b").boolean());
  EXPECT_TRUE(doc.at("z").is_null());
  ASSERT_EQ(doc.at("a").array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("a").array()[1].number(), 2.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Error);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(Json::parse("'single'"), Error);
  // Deep nesting fails with a positioned error at the 513th level instead
  // of overflowing the parser's stack.
  for (const char open : {'[', '{'}) {
    std::string deep(100000, open);
    if (open == '{') {
      deep.clear();
      for (int i = 0; i < 100000; ++i) deep += "{\"a\":";
    }
    try {
      (void)Json::parse(deep);
      ADD_FAILURE() << "accepted 100000 levels of '" << open << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 512 levels"),
                std::string::npos)
          << e.what();
    }
  }
  // The limit itself still parses.
  const Json at_limit =
      Json::parse(std::string(512, '[') + std::string(512, ']'));
  EXPECT_TRUE(at_limit.is_array());
}

TEST(ReportTest, JsonRoundTripOfAllSections) {
  // Local registry: the test owns all metric state, nothing global leaks.
  Registry reg;
  reg.counter("runs").inc(3);
  reg.gauge("vmin").set(1.25);
  reg.timer("solve").record_ns(2000);
  reg.histogram("tau", 0.0, 1.0, 4).add(0.3);

  Report report("unit");
  report.set_meta("bench", "unit-test \"q\"");
  report.set_value("answer", 42.0);
  report.capture_registry(reg);

  const Json doc = Json::parse(report.to_json());
  EXPECT_EQ(doc.at("report").str(), "unit");
  EXPECT_DOUBLE_EQ(doc.at("schema_version").number(), 1.0);
  // The embedded quote survives the escape/parse round trip.
  EXPECT_EQ(doc.at("meta").at("bench").str(), "unit-test \"q\"");
  EXPECT_DOUBLE_EQ(doc.at("values").at("answer").number(), 42.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("runs").number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("vmin").number(), 1.25);
  const Json& solve = doc.at("timers").at("solve");
  EXPECT_DOUBLE_EQ(solve.at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(solve.at("total_s").number(), 2e-6);
  const Json& tau = doc.at("histograms").at("tau");
  EXPECT_DOUBLE_EQ(tau.at("hi").number(), 1.0);
  EXPECT_EQ(tau.at("counts").array().size(), 4u);
}

// The process-wide tracer is the only one the markers record into; a test
// that captures it owns it for its duration and leaves it off and empty.
void reset_tracer(std::size_t capacity) {
  tracer().set_enabled(false);
  tracer().set_buffer_capacity(capacity);
  tracer().clear();
}

TEST(ReportTest, TraceSectionCountsInstantsByName) {
  reset_tracer(64);
  tracer().set_enabled(true);
  { Span span("unit.solve"); }
  for (int i = 0; i < 3; ++i) trace_marker(Marker::kDtHalved, i * 1e-9, 5e-12);
  trace_marker(Marker::kNewtonFallback, 0.0, 0.0, 0, "gmin stepping");
  trace_marker(Marker::kFaultVerdict, 0.0, 0.0, 0, "SON(b): escape \"q\"");
  tracer().set_enabled(false);

  Report report("traced");
  report.capture_trace();
  reset_tracer(65536);

  const Json doc = Json::parse(report.to_json());
  const Json& trace = doc.at("trace");
  EXPECT_DOUBLE_EQ(trace.at("events").number(), 6.0);
  EXPECT_DOUBLE_EQ(trace.at("dropped").number(), 0.0);
  const Json& instants = trace.at("instants");
  EXPECT_DOUBLE_EQ(instants.at("dt_halved").number(), 3.0);
  EXPECT_DOUBLE_EQ(instants.at("newton_fallback").number(), 1.0);
  EXPECT_DOUBLE_EQ(instants.at("fault_verdict").number(), 1.0);
  EXPECT_EQ(instants.find("step_rejected"), nullptr) << "never recorded";
  EXPECT_EQ(instants.find("unit.solve"), nullptr) << "spans are not instants";
  EXPECT_FALSE(doc.has("journal"));
  EXPECT_NE(report.to_csv().find("trace,dt_halved,count,3"), std::string::npos);
}

TEST(ReportTest, TraceSectionCountsDroppedInJson) {
  // Push an 8-event buffer well past capacity: the newest 12 of 20
  // markers are dropped, the drop is counted, and the instant counts in
  // the JSON report cover only the survivors.
  reset_tracer(8);
  tracer().set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    trace_marker(i < 6 ? Marker::kDtHalved : Marker::kStepRejected, i * 1e-9,
                 0.0, i);
  }
  tracer().set_enabled(false);
  EXPECT_EQ(tracer().event_count(), 8u);
  EXPECT_EQ(tracer().dropped(), 12u);

  Report report("overflow");
  report.capture_trace();
  reset_tracer(65536);

  const Json doc = Json::parse(report.to_json());
  const Json& trace = doc.at("trace");
  EXPECT_DOUBLE_EQ(trace.at("events").number(), 8.0);
  EXPECT_DOUBLE_EQ(trace.at("dropped").number(), 12.0);
  const Json& instants = trace.at("instants");
  EXPECT_DOUBLE_EQ(instants.at("dt_halved").number(), 6.0);
  EXPECT_DOUBLE_EQ(instants.at("step_rejected").number(), 2.0);
}

TEST(ReportTest, EmptySectionsAreOmitted) {
  Report report("empty");
  const Json doc = Json::parse(report.to_json());
  EXPECT_EQ(doc.at("report").str(), "empty");
  EXPECT_FALSE(doc.has("counters"));
  EXPECT_FALSE(doc.has("timers"));
  EXPECT_FALSE(doc.has("trace"));
}

TEST(ReportTest, CsvHasOneRowPerMetric) {
  Registry reg;
  reg.counter("runs").inc(3);
  Report report("unit");
  report.set_value("answer", 42.0);
  report.capture_registry(reg);
  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("section,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,runs,value,3"), std::string::npos);
  EXPECT_NE(csv.find("value,answer,value,42"), std::string::npos);
}

// Acceptance check: a real (tiny) fault campaign produces a JSON report
// that parses and carries the documented keys with sane values.
TEST(ReportTest, CampaignRunReportMatchesSchema) {
  cell::Technology tech;
  cell::SensorOptions options;
  options.load_y1 = options.load_y2 = 160 * fF;
  cell::ClockPairStimulus stim;
  stim.full_clock = true;
  const auto bench = cell::make_sensor_bench(tech, options, stim);
  // Three node stuck-ats keep the electrical work small.
  std::vector<fault::Fault> universe = {
      fault::Fault::stuck_at1("y1"),
      fault::Fault::stuck_at0("y2"),
      fault::Fault::stuck_at1("n1"),
  };
  fault::TestPlan plan = fault::default_sensor_test_plan(
      bench, tech.interpretation_threshold(), 1);
  plan.dt = 20e-12;
  const auto campaign = fault::run_campaign(bench.circuit, universe, plan);

  const Json doc = Json::parse(campaign.run_report().to_json());
  EXPECT_EQ(doc.at("report").str(), "fault_campaign");
  EXPECT_DOUBLE_EQ(doc.at("schema_version").number(), 1.0);
  const Json& values = doc.at("values");
  EXPECT_DOUBLE_EQ(values.at("faults.total").number(), 3.0);
  EXPECT_GE(values.at("coverage.logic").number(), 0.0);
  EXPECT_LE(values.at("coverage.combined").number(), 1.0);
  EXPECT_GT(values.at("wall_seconds").number(), 0.0);
  EXPECT_GT(values.at("solve.newton_iterations").number(), 0.0);
  EXPECT_GT(values.at("solve.lu_factorizations").number(), 0.0);
  EXPECT_DOUBLE_EQ(values.at("faults.unsimulated").number(), 0.0);
}

}  // namespace
}  // namespace sks::obs
