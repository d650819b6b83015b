// wrsn_sim — command-line driver for the WRSN simulator: runs --seeds
// replicas of one configuration and reports each metric (mean +/- 95% CI
// for several replicas). Flags: `wrsn_sim --help`, generated from the flag
// table in tools/cli.cpp and the tool's own group below.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/config_io.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/telemetry.hpp"
#include "sim/runner.hpp"
#include "sim/svg.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

struct MetricRow {
  const char* name;
  double (*get)(const MetricsReport&);
};

const MetricRow kMetrics[] = {
    {"rv travel distance (km)",
     [](const MetricsReport& r) { return r.rv_travel_distance.value() / 1e3; }},
    {"rv travel energy (MJ)",
     [](const MetricsReport& r) { return r.rv_travel_energy.value() / 1e6; }},
    {"energy recharged (MJ)",
     [](const MetricsReport& r) { return r.energy_recharged.value() / 1e6; }},
    {"objective score (MJ)",
     [](const MetricsReport& r) { return r.objective_score().value() / 1e6; }},
    {"coverage ratio (%)",
     [](const MetricsReport& r) { return 100.0 * r.coverage_ratio; }},
    {"missing rate (%)",
     [](const MetricsReport& r) { return 100.0 * r.missing_rate; }},
    {"nonfunctional (%)",
     [](const MetricsReport& r) { return r.nonfunctional_pct; }},
    {"recharging cost (m/sensor)",
     [](const MetricsReport& r) { return r.recharging_cost_m_per_sensor(); }},
    {"recharge requests",
     [](const MetricsReport& r) { return static_cast<double>(r.recharge_requests); }},
    {"sensors recharged",
     [](const MetricsReport& r) { return static_cast<double>(r.sensors_recharged); }},
    {"mean request latency (min)",
     [](const MetricsReport& r) { return r.avg_request_latency.value() / 60.0; }},
    {"sensor deaths",
     [](const MetricsReport& r) { return static_cast<double>(r.sensor_deaths); }},
    {"packets delivered (k)",
     [](const MetricsReport& r) { return r.packets_delivered / 1e3; }},
    {"delivery ratio (%)",
     [](const MetricsReport& r) { return 100.0 * r.delivery_ratio(); }},
};

void write_csv(const std::string& path, const SimConfig& cfg,
               const std::vector<MetricsReport>& reports) {
  const bool exists = static_cast<bool>(std::ifstream(path));
  std::ofstream os(path, std::ios::app);
  WRSN_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  if (!exists) {
    os << "seed,scheduler,activation,erp";
    for (const MetricRow& m : kMetrics) os << ',' << m.name;
    os << '\n';
  }
  for (std::size_t i = 0; i < reports.size(); ++i) {
    os << cfg.seed + i << ',' << cfg.scheduler << ','
       << to_string(cfg.activation) << ',' << cfg.energy_request_percentage;
    for (const MetricRow& m : kMetrics) os << ',' << m.get(reports[i]);
    os << '\n';
  }
}

void write_series(const std::string& path, const TimeSeries& series) {
  std::ofstream os(path);
  WRSN_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  os << "t_hours,alive,covered,coverable,pending_requests,rv_km\n";
  for (const TimeSeriesPoint& p : series) {
    os << p.t / 3600.0 << ',' << p.alive << ',' << p.covered << ','
       << p.coverable << ',' << p.pending_requests << ','
       << p.rv_travel_distance / 1e3 << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) try {
  cli::Options options;
  std::size_t seeds = 1;
  std::string csv_path, series_path, svg_path, json_path;
  bool print_config = false;

  cli::FlagTable table("wrsn_sim",
                       "WRSN joint charging & activity management simulator");
  cli::add_config_group(table, options);
  table.add_group(
      "wrsn_sim",
      {{"--threads", "N",
        "shorthand for --set threads=N: --seeds workers (0 = auto:\n"
        "WRSN_THREADS, else hardware concurrency)",
        [&options](const std::string& v) { config_set(options.config, "threads", v); }},
       cli::count_flag("--seeds", "N",
                       "replicas to run (seed, seed+1, ...; mean +/- 95% CI)",
                       &seeds, /*positive=*/true),
       cli::text_flag("--csv", "FILE", "append one CSV row per replica", &csv_path),
       cli::text_flag("--json", "FILE", "write all replica reports as a JSON array",
                      &json_path),
       cli::text_flag("--series", "FILE", "time series of the first replica as CSV",
                      &series_path),
       cli::text_flag("--svg", "FILE", "final state of the first replica as SVG",
                      &svg_path),
       cli::switch_flag("--print-config",
                        "print the effective configuration and exit", &print_config)});
  cli::add_observe_group(table, options, /*per_replica=*/false);
  cli::add_checkpoint_group(table, options);
  table.parse(argc, argv);

  SimConfig& cfg = options.config;
  cfg.validate();
  if (print_config) {
    std::cout << config_to_text(cfg);
    return 0;
  }
  // Resolved up front so a bad WRSN_THREADS fails before any simulation.
  const std::size_t workers = resolve_threads(cfg.threads);

  // Checkpoint/restore is a single-replica feature: a snapshot captures ONE
  // world, and replica fan-out would leave the other seeds unrecoverable.
  WRSN_REQUIRE((options.checkpoint_prefix.empty() && options.restore_path.empty()) ||
                   seeds == 1,
               "--checkpoint/--restore require a single replica (--seeds 1)");

  obs::TelemetryRegistry telemetry;
  obs::TelemetryRegistry* telemetry_ptr = options.telemetry(telemetry);
  std::vector<MetricsReport> reports;
  {
    // The first replica runs in-process with the observers and checkpoints
    // attached, so its series / final state can be dumped too; the other
    // replicas only feed telemetry. Observers never change the report.
    cli::SingleRun run("wrsn_sim", options, telemetry_ptr);
    World& world = run.world();
    world.enable_time_series(!series_path.empty());
    if (!run.run()) return cli::kStoppedBySignal;
    reports.push_back(world.report());
    if (!series_path.empty()) write_series(series_path, world.time_series());
    if (!svg_path.empty()) save_svg(svg_path, world);
  }
  if (seeds > 1) {
    SimConfig rest = cfg;
    rest.seed = cfg.seed + 1;
    ThreadPool pool(std::min(workers, seeds - 1));
    auto more = run_replicas(rest, seeds - 1, &pool, telemetry_ptr);
    reports.insert(reports.end(), more.begin(), more.end());
  }

  std::cout << "wrsn_sim: " << cfg.scheduler << " / "
            << to_string(cfg.activation)
            << ", ERP=" << cfg.energy_request_percentage << ", "
            << cfg.sim_duration.value() / 86400.0 << " days x " << seeds
            << " replica(s)\n\n";

  Table t(seeds > 1
              ? std::vector<std::string>{"metric", "mean", "+/- 95% CI", "min", "max"}
              : std::vector<std::string>{"metric", "value"});
  t.set_precision(3);
  for (const MetricRow& m : kMetrics) {
    RunningStats stats;
    for (const MetricsReport& r : reports) stats.add(m.get(r));
    if (seeds > 1) {
      t.add_row({std::string(m.name), stats.mean(), stats.ci95_halfwidth(),
                 stats.min(), stats.max()});
    } else {
      t.add_row({std::string(m.name), stats.mean()});
    }
  }
  t.print(std::cout);

  if (!csv_path.empty()) {
    write_csv(csv_path, cfg, reports);
    std::cout << "\nwrote " << reports.size() << " row(s) to " << csv_path << '\n';
  }
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    WRSN_REQUIRE(os.good(), "cannot open '" + json_path + "' for writing");
    os << '[';
    for (std::size_t i = 0; i < reports.size(); ++i) {
      os << (i ? "," : "") << '\n' << to_json(reports[i]);
    }
    os << "\n]\n";
    std::cout << "wrote JSON reports to " << json_path << '\n';
  }
  options.write_telemetry(telemetry, std::cout);
  if (!series_path.empty()) std::cout << "wrote time series to " << series_path << '\n';
  if (!svg_path.empty()) std::cout << "wrote final-state SVG to " << svg_path << '\n';
  if (!options.spans_path.empty()) {
    std::cout << "wrote spans to " << options.spans_path << '\n';
  }
  if (!options.chrome_path.empty()) {
    std::cout << "wrote Chrome trace to " << options.chrome_path
              << " (load in https://ui.perfetto.dev)\n";
  }
  return 0;
} catch (const std::exception& e) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_sim: " << e.what() << '\n';
  return 1;
} catch (...) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_sim: unknown error\n";
  return 1;
}
