#pragma once
// The command-line layer of wrsn_sim, wrsn_trace and wrsn_sweep. A tool's
// flag table generates its parsing, strict-number errors and --help; the
// shared groups are discover (built in), config, observe and checkpoint
// (sim and trace). Instruments observes one world; SingleRun is the
// checkpointable single-world harness of wrsn_sim and wrsn_trace.

#include <cstddef>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "obs/flight.hpp"
#include "obs/spans.hpp"
#include "obs/telemetry.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn::cli {

// Exit code after a --checkpoint-on-signal stop ("stopped but resumable").
inline constexpr int kStoppedBySignal = 75;

struct Flag {
  std::string name;
  std::string metavar;  // empty for a switch, which takes no value
  std::string help;     // may span lines with '\n'
  std::function<void(const std::string& value)> apply;
};

// Builders for the common kinds; numbers parse strictly, errors name the flag.
[[nodiscard]] Flag text_flag(std::string name, std::string metavar,
                             std::string help, std::string* out);
[[nodiscard]] Flag switch_flag(std::string name, std::string help, bool* out);
[[nodiscard]] Flag count_flag(std::string name, std::string metavar,
                              std::string help, std::size_t* out, bool positive);
// `check` (optional) runs after the value is stored.
[[nodiscard]] Flag number_flag(std::string name, std::string metavar,
                               std::string help, double* out,
                               std::function<void()> check = {});

class FlagTable {
 public:
  // The discover group is built in; `summary` heads --help.
  FlagTable(std::string tool, std::string summary);

  void add_group(std::string title, std::vector<Flag> flags);

  // Applies the flags in command-line order. A discover flag prints and
  // exits 0 on sight; an unknown flag prints one line and exits 2; a
  // handler's error is rethrown naming the flag unless it already does.
  void parse(int argc, char** argv) const;

 private:
  struct Group {
    std::string title;
    std::vector<Flag> flags;
  };
  [[nodiscard]] const Flag* find(const std::string& name) const;
  void print_help() const;

  std::string tool_, summary_;
  std::vector<Group> groups_;
};

// Values of the shared groups.
struct Options {
  SimConfig config = SimConfig::paper_defaults();
  std::string config_flag;  // first config-group flag given, "" if none
  std::string telemetry_path, spans_path, chrome_path;
  std::size_t flight_capacity = 0;
  std::string checkpoint_prefix, restore_path;
  double checkpoint_every = 0.0;
  bool checkpoint_on_signal = false;

  // `registry` under --telemetry (checked writable up front), else null.
  [[nodiscard]] obs::TelemetryRegistry* telemetry(obs::TelemetryRegistry& registry) const;
  // Writes `registry` to the --telemetry file, if any, and says so on `log`.
  void write_telemetry(const obs::TelemetryRegistry& registry, std::ostream& log) const;
};

void add_config_group(FlagTable& table, Options& options);
// `per_replica` (wrsn_sweep): --spans/--chrome-trace name a file prefix.
void add_observe_group(FlagTable& table, Options& options, bool per_replica);
void add_checkpoint_group(FlagTable& table, Options& options);

// Span/Chrome sinks over caller-owned streams (null = off), the span log
// over them and a flight recorder (capacity 0 = off). All observational:
// the report is byte-identical with or without them.
struct Instruments {
  Instruments(std::ostream* spans, std::ostream* chrome,
              std::size_t flight_capacity, std::string flight_label);
  // Attaches the span log, the flight recorder and `telemetry` (may be null).
  void attach(World& world, obs::TelemetryRegistry* telemetry) const;

  std::unique_ptr<obs::JsonlSpanSink> spans_sink;
  std::unique_ptr<obs::ChromeTraceSink> chrome_sink;
  std::unique_ptr<obs::SpanLog> span_log;
  std::unique_ptr<obs::FlightRecorder> flight;
};

// One instrumented, checkpointable world. The constructor loads a --restore
// snapshot (whose config replaces options.config), opens the span files,
// continues the snapshot's span numbering, builds and instruments the world
// and installs the periodic/signal checkpoint hook. The tool may attach
// more to world() before run().
class SingleRun {
 public:
  SingleRun(const std::string& tool, Options& options,
            obs::TelemetryRegistry* telemetry);

  [[nodiscard]] World& world() { return *world_; }

  // Runs to the horizon and closes the spans. After a signal stop it saves
  // the terminal snapshot, dumps the flight recorder and returns false.
  [[nodiscard]] bool run();

 private:
  std::string tool_;
  std::ofstream spans_file_, chrome_file_;
  std::unique_ptr<Instruments> instruments_;
  std::unique_ptr<World> world_;
  std::unique_ptr<CheckpointWriter> checkpointer_;
};

}  // namespace wrsn::cli
