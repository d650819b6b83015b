// Span-tracing suite: the wrsn.spans v2 contract (frozen meta record, one
// terminal state per request lifecycle, tour/leg nesting), fault-injection
// annotations, the Chrome trace exporter, the flight recorder's post-mortem
// dump, and the Heisenberg rule — attaching spans, a Chrome sink, and a
// flight recorder must leave the simulated physics byte-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/json.hpp"
#include "obs/flight.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

// A parsed wrsn.spans JSONL record, extracted textually (the file format is
// pinned elsewhere in this suite; the emitter writes one flat object per
// line with the frozen field order).
struct ParsedSpan {
  std::uint64_t id = 0, parent = 0, root = 0, subject = 0;
  std::string track, name, outcome;
  double t0 = 0.0, t1 = 0.0, value = 0.0;
  bool mark = false;
};

double number_field(const std::string& line, const std::string& key) {
  const auto pos = line.find('"' + key + "\":");
  EXPECT_NE(pos, std::string::npos) << "missing field " << key << ": " << line;
  if (pos == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
}

std::string string_field(const std::string& line, const std::string& key) {
  const auto pos = line.find('"' + key + "\":\"");
  EXPECT_NE(pos, std::string::npos) << "missing field " << key << ": " << line;
  if (pos == std::string::npos) return {};
  const auto begin = pos + key.size() + 4;
  return line.substr(begin, line.find('"', begin) - begin);
}

std::vector<ParsedSpan> parse_spans(const std::string& jsonl) {
  std::vector<ParsedSpan> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"record\":\"span\"") == std::string::npos) continue;
    ParsedSpan s;
    s.id = static_cast<std::uint64_t>(number_field(line, "id"));
    s.parent = static_cast<std::uint64_t>(number_field(line, "parent"));
    s.root = static_cast<std::uint64_t>(number_field(line, "root"));
    s.subject = static_cast<std::uint64_t>(number_field(line, "subject"));
    s.track = string_field(line, "track");
    s.name = string_field(line, "name");
    s.outcome = string_field(line, "outcome");
    s.t0 = number_field(line, "t0_s");
    s.t1 = number_field(line, "t1_s");
    s.value = number_field(line, "value");
    s.mark = line.find("\"mark\":true") != std::string::npos;
    out.push_back(std::move(s));
  }
  return out;
}

// Battery-stressed fault scenario: enough recharge traffic in two simulated
// days to exercise every lifecycle stage, plus uplink loss and a pinned
// RV-0 breakdown so degraded-mode annotations appear deterministically.
SimConfig span_config() {
  SimConfig cfg;
  cfg.num_sensors = 40;
  cfg.num_targets = 5;
  cfg.num_rvs = 2;
  cfg.field_side = meters(100.0);
  cfg.sim_duration = days(2.0);
  cfg.battery.capacity = Joule{200.0};
  cfg.seed = 60601;
  cfg.fault.enabled = true;
  cfg.fault.request_loss_prob = 0.3;
  cfg.fault.rv_breakdown_at = hours(6.0);
  cfg.fault.rv_repair_duration = hours(2.0);
  return cfg;
}

struct SpanRun {
  MetricsReport report;
  std::vector<ParsedSpan> spans;
  std::string jsonl;
};

SpanRun run_with_spans(const SimConfig& cfg) {
  std::ostringstream out;
  obs::JsonlSpanSink sink(out);
  obs::SpanLog log(&sink);
  World world(cfg);
  world.set_span_log(&log);
  SpanRun run;
  run.report = world.run();
  log.finish(world.now().value());
  run.jsonl = out.str();
  run.spans = parse_spans(run.jsonl);
  return run;
}

TEST(SpanLog, MetaRecordIsFrozen) {
  // The v2 schema contract: field list and order are load-bearing for
  // downstream parsers, so the exact meta line is pinned.
  std::ostringstream out;
  obs::JsonlSpanSink sink(out);
  EXPECT_EQ(out.str(),
            "{\"record\":\"meta\",\"schema\":\"wrsn.spans\",\"version\":2,"
            "\"fields\":[\"id\",\"parent\",\"root\",\"track\",\"subject\","
            "\"name\",\"t0_s\",\"t1_s\",\"outcome\",\"value\",\"mark\"]}\n");
}

TEST(SpanLog, ChildrenInheritRootAndMarksAttach) {
  std::ostringstream out;
  obs::JsonlSpanSink sink(out);
  obs::SpanLog log(&sink);
  const auto tour = log.begin("rv", 0, "tour", 10.0);
  const auto leg = log.begin("rv", 0, "travel", 10.0, tour);
  log.mark(leg, "note", 12.0);
  log.end(leg, 15.0, "arrived");
  log.end(tour, 20.0, "completed");
  log.finish(20.0);
  const auto spans = parse_spans(out.str());
  ASSERT_EQ(spans.size(), 3u);  // mark, leg, tour (in emit order)
  for (const ParsedSpan& s : spans) EXPECT_EQ(s.root, tour);
  EXPECT_TRUE(spans[0].mark);
  EXPECT_EQ(spans[0].parent, leg);
  EXPECT_EQ(spans[0].track, "rv");  // inherited from the open parent
  EXPECT_EQ(log.open_spans(), 0u);
}

TEST(SpanLog, FinishClosesOpenSpansDeepestFirst) {
  std::ostringstream out;
  obs::JsonlSpanSink sink(out);
  obs::SpanLog log(&sink);
  const auto root = log.begin("request", 7, "request", 0.0);
  log.begin("request", 7, "phase", 1.0, root);
  log.finish(5.0, "sim-end");
  const auto spans = parse_spans(out.str());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "phase");  // deepest (latest begun) closes first
  EXPECT_EQ(spans[1].name, "request");
  for (const ParsedSpan& s : spans) {
    EXPECT_EQ(s.outcome, "sim-end");
    EXPECT_DOUBLE_EQ(s.t1, 5.0);
  }
}

TEST(Spans, EveryRequestReachesExactlyOneTerminalState) {
  const SpanRun run = run_with_spans(span_config());
  const std::set<std::string> terminal = {"served", "expired", "died-waiting",
                                          "unserved"};
  std::size_t roots = 0;
  for (const ParsedSpan& s : run.spans) {
    if (s.track != "request" || s.mark || s.id != s.root) continue;
    ++roots;
    EXPECT_TRUE(terminal.count(s.outcome))
        << "request span ended with non-terminal outcome '" << s.outcome << "'";
    EXPECT_GE(s.t1, s.t0);
  }
  // Span records are emitted exactly once, at end time — so one root record
  // per request means one terminal state per request.
  EXPECT_EQ(roots, run.report.recharge_requests);
  EXPECT_GT(roots, 50u) << "scenario should generate substantial traffic";
}

TEST(Spans, TourSpansNestTheirLegs) {
  const SpanRun run = run_with_spans(span_config());
  std::map<std::uint64_t, const ParsedSpan*> by_id;
  for (const ParsedSpan& s : run.spans) by_id[s.id] = &s;
  std::size_t legs = 0;
  for (const ParsedSpan& s : run.spans) {
    if (s.track != "rv" || s.mark || s.parent == 0) continue;
    ++legs;
    const auto parent = by_id.find(s.parent);
    ASSERT_NE(parent, by_id.end()) << "leg '" << s.name << "' has no parent";
    EXPECT_EQ(parent->second->name, "tour");
    EXPECT_EQ(parent->second->subject, s.subject);
    // Time containment: a leg lives inside its tour.
    EXPECT_GE(s.t0, parent->second->t0);
    EXPECT_LE(s.t1, parent->second->t1);
  }
  EXPECT_GT(legs, 10u);
  EXPECT_GT(run.report.rv_tours, 0u);
}

TEST(Spans, FaultInjectionShowsUpAsAnnotations) {
  const SpanRun run = run_with_spans(span_config());
  std::size_t drops = 0, breakdowns = 0;
  for (const ParsedSpan& s : run.spans) {
    if (s.mark && s.name == "uplink-drop") ++drops;
    if (!s.mark && s.name == "breakdown") ++breakdowns;
  }
  EXPECT_EQ(drops, run.report.requests_lost);
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(breakdowns, run.report.rv_breakdowns);
  EXPECT_EQ(breakdowns, 1u);  // the pinned RV-0 breakdown
}

TEST(Spans, HeisenbergRuleReportByteIdentical) {
  // Physics must be byte-identical with the full instrument stack attached:
  // JSONL spans + Chrome exporter, and a JSONL event trace + flight recorder
  // fed by the one tracer.
  World bare(span_config());
  const std::string bare_json = to_json(bare.run());

  std::ostringstream jsonl, chrome;
  obs::JsonlSpanSink jsink(jsonl);
  obs::ChromeTraceSink csink(chrome);
  obs::SpanLog log(&jsink, &csink);
  std::ostringstream trace;
  obs::JsonlTraceSink tsink(trace);
  obs::FlightRecorder flight(64);
  World observed(span_config());
  observed.set_span_log(&log);
  observed.set_tracer([&](const World::TraceEvent& ev) {
    const obs::TraceRecord rec = to_trace_record(ev);
    tsink.on_event(rec);
    flight.record(rec);
  });
  const std::string observed_json = to_json(observed.run());
  log.finish(observed.now().value());

  EXPECT_EQ(bare_json, observed_json);
  EXPECT_GT(log.spans_emitted(), 100u);
  EXPECT_GT(flight.events_seen(), 100u);
  EXPECT_EQ(tsink.events_written(), flight.events_seen());
}

TEST(Spans, LatencyBreakdownDecomposesEndToEndLatency) {
  World world(span_config());
  const MetricsReport r = world.run();
  ASSERT_GT(r.sensors_recharged, 0u);
  // wait + travel + service must reconstruct the end-to-end request latency
  // (the means are over the same sample set, so they sum exactly).
  EXPECT_NEAR(r.avg_request_wait.value() + r.avg_request_travel.value() +
                  r.avg_request_service.value(),
              r.avg_request_latency.value(), 1e-6);
  EXPECT_GT(r.avg_request_service.value(), 0.0);
  EXPECT_GE(r.p99_request_wait.value(), r.p50_request_wait.value());
  // The JSON report carries the new fields.
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"avg_request_wait_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_request_service_s\":"), std::string::npos);
}

TEST(ChromeTrace, ExportIsValidJsonWithBothTrackKinds) {
  std::ostringstream out;
  {
    obs::ChromeTraceSink sink(out);
    obs::SpanLog log(&sink);
    World world(span_config());
    world.set_span_log(&log);
    world.run();
    log.finish(world.now().value());
  }
  const std::string doc = out.str();
  std::string error;
  EXPECT_TRUE(json_validate(doc, &error)) << error;
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // RV track spans
  EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos);  // async requests
  EXPECT_NE(doc.find("\"name\":\"RV 0\""), std::string::npos);
}

TEST(FlightRecorder, RingKeepsLastNOldestFirst) {
  obs::FlightRecorder flight(4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceRecord rec;
    rec.t = static_cast<double>(i);
    rec.kind = "tick";
    flight.record(rec);
  }
  EXPECT_EQ(flight.events_seen(), 10u);
  std::ostringstream out;
  flight.dump(out, "test");
  const std::string dump = out.str();
  EXPECT_NE(dump.find("last 4 of 10 events"), std::string::npos);
  EXPECT_EQ(dump.find("t=5s"), std::string::npos);  // evicted
  // Oldest surviving record first.
  EXPECT_LT(dump.find("t=6s"), dump.find("t=9s"));
}

TEST(FlightRecorder, DumpsOnAssertFailureViaHook) {
  obs::FlightRecorder flight(8);
  flight.set_label("hook-test");
  flight.set_context_provider([] { return std::string("{\"ctx\":1}"); });
  obs::TraceRecord rec;
  rec.t = 42.0;
  rec.kind = "last-event";
  flight.record(rec);

  // Route the dump to a file we can read back, then trip a WRSN_ASSERT-style
  // failure through the core hook path.
  const std::string path = ::testing::TempDir() + "flight_hook_dump.txt";
  std::remove(path.c_str());
  obs::FlightRecorder::set_dump_path(path);
  obs::FlightRecorder::arm_failure_hook();
  EXPECT_THROW(
      detail::throw_logic_error("forced", __FILE__, __LINE__, "test assert"),
      LogicError);
  set_failure_hook(nullptr);  // do not leak the hook into other tests
  obs::FlightRecorder::set_dump_path("");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("invariant failure imminent"), std::string::npos);
  EXPECT_NE(dump.find("test assert"), std::string::npos);
  EXPECT_NE(dump.find("[hook-test]"), std::string::npos);
  EXPECT_NE(dump.find("reason: assert-failure"), std::string::npos);
  EXPECT_NE(dump.find("t=42s last-event"), std::string::npos);
  EXPECT_NE(dump.find("{\"ctx\":1}"), std::string::npos);
}

TEST(FlightRecorder, DumpAllWithoutRecordersIsANoOp) {
  // Must be safe from CLI catch blocks even when nothing was attached.
  obs::FlightRecorder::dump_all("graceful-failure");
}

}  // namespace
}  // namespace wrsn
