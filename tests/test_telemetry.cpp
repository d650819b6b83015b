// The obs/ layer: registry semantics under concurrency, scoped timers,
// merge exactness, export formats, and the JSONL trace schema contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace wrsn {
namespace {

using obs::Histogram;
using obs::TelemetryRegistry;

TEST(Telemetry, CounterAndGaugeBasics) {
  TelemetryRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("a").add();
  reg.counter("a").add(4);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  reg.gauge("g").set(2.0);
  reg.gauge("g").record_max(7.0);
  reg.gauge("g").record_max(3.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 7.0);
  EXPECT_FALSE(reg.empty());
}

TEST(Telemetry, HistogramBuckets) {
  TelemetryRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 4.0, 100.0}) h.observe(v);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0 (le semantics)
  EXPECT_EQ(counts[1], 1u);      // 1.5
  EXPECT_EQ(counts[2], 1u);      // 4.0
  EXPECT_EQ(counts[3], 1u);      // 100.0 overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Telemetry, EmptyHistogramHasZeroMinMax) {
  TelemetryRegistry reg;
  Histogram& h = reg.timer("t");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

// The registry's core contract: hammered from many pool workers, totals are
// exact — no lost updates, no torn bucket counts.
TEST(Telemetry, ConcurrentHammerIsExact) {
  TelemetryRegistry reg;
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 10000;
  pool.parallel_for(kTasks, [&](std::size_t i) {
    obs::Counter& c = reg.counter("hits");
    Histogram& h = reg.histogram("vals", {10.0, 100.0, 1000.0});
    obs::Gauge& g = reg.gauge("hwm");
    for (std::size_t k = 0; k < kPerTask; ++k) {
      c.add();
      h.observe(static_cast<double>(k % 2000));
      g.record_max(static_cast<double>(i * kPerTask + k));
    }
  });
  EXPECT_EQ(reg.counter("hits").value(), kTasks * kPerTask);
  Histogram& h = reg.histogram("vals", {});
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  const auto counts = h.bucket_counts();
  // k%2000: 11 values <=10, 90 in (10,100], 900 in (100,1000], 999 overflow.
  EXPECT_EQ(counts[0], kTasks * kPerTask / 2000 * 11);
  EXPECT_EQ(counts[1], kTasks * kPerTask / 2000 * 90);
  EXPECT_EQ(counts[2], kTasks * kPerTask / 2000 * 900);
  EXPECT_EQ(counts[3], kTasks * kPerTask / 2000 * 999);
  EXPECT_DOUBLE_EQ(reg.gauge("hwm").value(),
                   static_cast<double>(kTasks * kPerTask - 1));
}

TEST(Telemetry, ScopedTimerRecordsOnlyWhenInstalled) {
  TelemetryRegistry reg;
  {
    // No registry installed on this thread: the scope must be inert.
    WRSN_OBS_SCOPE("scope/untracked");
  }
  EXPECT_TRUE(reg.empty());
  {
    const obs::TelemetryScope install(&reg);
    WRSN_OBS_SCOPE("scope/tracked");
  }
  EXPECT_EQ(reg.timer("scope/tracked").count(), 1u);
  // Installation is restored after the scope ends.
  EXPECT_EQ(obs::current_registry(), nullptr);
}

TEST(Telemetry, TimerScopesNest) {
  TelemetryRegistry reg;
  {
    const obs::TelemetryScope install(&reg);
    WRSN_OBS_SCOPE("nest/outer");
    for (int i = 0; i < 3; ++i) {
      WRSN_OBS_SCOPE("nest/inner");
    }
  }
  EXPECT_EQ(reg.timer("nest/outer").count(), 1u);
  EXPECT_EQ(reg.timer("nest/inner").count(), 3u);
  // An outer scope's elapsed time covers its children.
  EXPECT_GE(reg.timer("nest/outer").sum(), reg.timer("nest/inner").sum());
}

TEST(Telemetry, NestedInstallationRestoresPrevious) {
  TelemetryRegistry outer, inner;
  const obs::TelemetryScope a(&outer);
  {
    const obs::TelemetryScope b(&inner);
    EXPECT_EQ(obs::current_registry(), &inner);
  }
  EXPECT_EQ(obs::current_registry(), &outer);
}

TEST(Telemetry, MergeIsExact) {
  TelemetryRegistry a, b;
  a.counter("c").add(3);
  b.counter("c").add(4);
  b.counter("only-b").add(1);
  a.gauge("g").record_max(5.0);
  b.gauge("g").record_max(9.0);
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  b.histogram("h", {1.0, 2.0}).observe(1.5);
  b.histogram("h", {1.0, 2.0}).observe(10.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 7u);
  EXPECT_EQ(a.counter("only-b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);
  Histogram& h = a.histogram("h", {});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(Telemetry, TimerBoundsResolveSubMicrosecondScopes) {
  const std::vector<double> bounds = Histogram::timer_bounds_seconds();
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-8);
  EXPECT_DOUBLE_EQ(bounds.back(), 10.0);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  Histogram h(bounds);
  h.observe(0.3e-6);
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 0u);  // not floored into the first bucket
  const auto bucket = static_cast<std::size_t>(
      std::find(counts.begin(), counts.end(), 1u) - counts.begin());
  EXPECT_DOUBLE_EQ(bounds[bucket], 0.5e-6);
}

TEST(Telemetry, PrometheusBucketLabelsAreDistinct) {
  TelemetryRegistry reg;
  reg.timer("t").observe(2e-8);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("wrsn_t_seconds_bucket{le=\"1e-08\"} 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("wrsn_t_seconds_bucket{le=\"2e-08\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("wrsn_t_seconds_bucket{le=\"1e-06\"} 1"), std::string::npos)
      << text;
}

TEST(Telemetry, JsonExportIsValidAndVersioned) {
  TelemetryRegistry reg;
  reg.counter("events/popped/rv-arrival").add(2);
  reg.gauge("events/queue-high-water").record_max(17.0);
  reg.timer("planner/insertion").observe(0.001);
  const std::string doc = reg.to_json();
  std::string error;
  EXPECT_TRUE(json_validate(doc, &error)) << error;
  EXPECT_NE(doc.find("\"schema\":\"wrsn.telemetry\""), std::string::npos);
  EXPECT_NE(doc.find("\"version\":1"), std::string::npos);
  EXPECT_NE(doc.find("events/popped/rv-arrival"), std::string::npos);
  EXPECT_NE(doc.find("planner/insertion"), std::string::npos);
  // Export is a pure read: repeated calls are byte-identical.
  EXPECT_EQ(doc, reg.to_json());
}

TEST(Telemetry, PrometheusExportShape) {
  TelemetryRegistry reg;
  reg.counter("events/stale-discarded").add(5);
  reg.gauge("events/queue-high-water").set(3.0);
  reg.histogram("lat", {1.0, 2.0}).observe(1.5);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE wrsn_events_stale_discarded_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("wrsn_events_stale_discarded_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wrsn_events_queue_high_water gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE wrsn_lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("wrsn_lat_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("wrsn_lat_seconds_count 1"), std::string::npos);
}

// --- JSONL trace sink ------------------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

// The schema contract: field list and version are frozen. If this test
// breaks, bump obs::kTraceSchemaVersion and update consumers deliberately.
TEST(TraceSink, JsonlSchemaIsStable) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.on_event({12.5, "rv-arrival", 3, 7, 42});
  sink.finish();
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            R"({"record":"meta","schema":"wrsn.trace","version":1,)"
            R"("fields":["t_s","kind","subject","epoch","queue"]})");
  EXPECT_EQ(lines[1],
            R"({"record":"event","t_s":12.5,"kind":"rv-arrival",)"
            R"("subject":3,"epoch":7,"queue":42})");
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(json_validate(line, &error)) << error;
  }
  EXPECT_EQ(sink.events_written(), 1u);
  EXPECT_EQ(obs::kTraceSchemaVersion, 1);
}

TEST(TraceSink, CsvCarriesSameFields) {
  std::ostringstream os;
  obs::CsvTraceSink sink(os);
  sink.on_event({3600.0, "sensor-crossing", 11, 2, 9});
  sink.finish();
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "t_seconds,t_hours,event,subject,epoch,queue_size");
  EXPECT_EQ(lines[1], "3600,1,sensor-crossing,11,2,9");
}

}  // namespace
}  // namespace wrsn
