// wrsn_trace — dump the discrete-event stream of a simulation (one record
// per processed event), for debugging schedules and for teaching material.
// Use short horizons: a 120-day run emits hundreds of thousands of events.
// Flags: `wrsn_trace --help` (the default horizon is 1 day).
//
// Formats (both carry the same fields; see obs/trace.hpp):
//   csv    t_seconds,t_hours,event,subject,epoch,queue_size   (default)
//   jsonl  schema-versioned JSON lines; line 1 is a meta record
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cli.hpp"
#include "core/error.hpp"
#include "obs/flight.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"

int main(int argc, char** argv) try {
  using namespace wrsn;
  cli::Options options;
  options.config.sim_duration = days(1.0);
  std::string out_path, format = "csv";

  cli::FlagTable table("wrsn_trace",
                       "one record per processed event of a simulation");
  cli::add_config_group(table, options);
  table.add_group(
      "wrsn_trace",
      {cli::text_flag("--out", "FILE", "write the trace to FILE instead of stdout",
                      &out_path),
       {"--format", "csv|jsonl",
        "csv (default) or schema-versioned JSON lines (wrsn.trace)",
        [&format](const std::string& v) {
          WRSN_REQUIRE(v == "csv" || v == "jsonl", "--format must be csv or jsonl");
          format = v;
        }}});
  cli::add_observe_group(table, options, /*per_replica=*/false);
  cli::add_checkpoint_group(table, options);
  table.parse(argc, argv);
  options.config.validate();

  obs::TelemetryRegistry registry;
  cli::SingleRun run("wrsn_trace", options, options.telemetry(registry));
  World& world = run.world();

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    WRSN_REQUIRE(file.good(), "cannot open '" + out_path + "'");
  }
  std::ostream& out = file.is_open() ? static_cast<std::ostream&>(file) : std::cout;
  std::unique_ptr<obs::TraceSink> sink;
  if (format == "jsonl") {
    sink = std::make_unique<obs::JsonlTraceSink>(out);
  } else {
    sink = std::make_unique<obs::CsvTraceSink>(out);
  }
  world.set_trace_sink(sink.get());
  std::size_t count = 0;
  world.set_tracer([&](const World::TraceEvent&) { ++count; });
  const bool finished = run.run();
  sink->finish();
  if (!finished) return cli::kStoppedBySignal;
  if (!options.spans_path.empty()) {
    std::cerr << "wrote spans to " << options.spans_path << '\n';
  }
  if (!options.chrome_path.empty()) {
    std::cerr << "wrote Chrome trace to " << options.chrome_path << '\n';
  }
  options.write_telemetry(registry, std::cerr);
  std::cerr << "traced " << count << " events over "
            << options.config.sim_duration.value() / 86400.0 << " simulated day(s)\n";
  return 0;
} catch (const std::exception& e) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_trace: " << e.what() << '\n';
  return 1;
} catch (...) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_trace: unknown error\n";
  return 1;
}
