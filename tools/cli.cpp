#include "cli.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <utility>

#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "core/error.hpp"
#include "sched/policy.hpp"

namespace wrsn::cli {
namespace {

// Set by the SIGINT/SIGTERM handler under --checkpoint-on-signal; the
// checkpoint hook polls it at event granularity, so the stop always lands at
// a quiescent event boundary where a snapshot is exact.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void request_stop(int) { g_stop_requested = 1; }

// Name + summary per line, names padded to one column.
void print_registry(const SchedulerRegistry& registry) {
  std::size_t width = 0;
  for (const std::string& name : registry.names()) width = std::max(width, name.size());
  for (const std::string& name : registry.names()) {
    std::cout << std::left << std::setw(static_cast<int>(width) + 2) << name
              << registry.summary(name) << '\n';
  }
}

void print_list(const std::string& knob, const std::vector<std::string>& values) {
  std::cout << knob << '=';
  for (std::size_t i = 0; i < values.size(); ++i) std::cout << (i ? "," : "") << values[i];
  std::cout << '\n';
}

// A discover flag: prints, then ends the process successfully.
Flag discover_flag(std::string name, std::string help, void (*print)()) {
  return {std::move(name), "", std::move(help), [print](const std::string&) {
            print();
            std::exit(0);
          }};
}

std::string usage_column(const Flag& flag) {
  return flag.metavar.empty() ? flag.name : flag.name + ' ' + flag.metavar;
}

}  // namespace

Flag text_flag(std::string name, std::string metavar, std::string help,
               std::string* out) {
  return {std::move(name), std::move(metavar), std::move(help),
          [out](const std::string& v) { *out = v; }};
}

Flag switch_flag(std::string name, std::string help, bool* out) {
  return {std::move(name), "", std::move(help),
          [out](const std::string&) { *out = true; }};
}

Flag count_flag(std::string name, std::string metavar, std::string help,
                std::size_t* out, bool positive) {
  return {name, std::move(metavar), std::move(help),
          [name, out, positive](const std::string& v) {
            *out = parse_u64(name, v);
            WRSN_REQUIRE(!positive || *out > 0, name + " must be positive");
          }};
}

Flag number_flag(std::string name, std::string metavar, std::string help,
                 double* out, std::function<void()> check) {
  return {name, std::move(metavar), std::move(help),
          [name, out, check = std::move(check)](const std::string& v) {
            *out = parse_double(name, v);
            if (check) check();
          }};
}

FlagTable::FlagTable(std::string tool, std::string summary)
    : tool_(std::move(tool)), summary_(std::move(summary)) {
  // --help needs the finished table, so parse() handles it by name.
  add_group("discover",
            {{"--help", "", "this text", nullptr},
             discover_flag("--list-keys", "list every recognized config key", [] {
               for (const std::string& k : config_keys()) std::cout << k << '\n';
             }),
             discover_flag("--list-schedulers",
                           "list registered scheduler policies with summaries",
                           [] { print_registry(SchedulerRegistry::instance()); }),
             // `key=v1,v2,...` lines split straight into --sweep specs.
             discover_flag("--list",
                           "list every enum-like knob as a --sweep KEY=V1,V2,... line",
                           [] {
                             print_list("scheduler", scheduler_names());
                             print_list("activation", activation_policy_names());
                             print_list("target_motion", target_motion_names());
                             print_list("rv.charge_profile", charge_profile_names());
                           })});
}

void FlagTable::add_group(std::string title, std::vector<Flag> flags) {
  for (const Flag& f : flags) {
    WRSN_ASSERT(find(f.name) == nullptr, "duplicate flag " + f.name);
  }
  groups_.push_back({std::move(title), std::move(flags)});
}

const Flag* FlagTable::find(const std::string& name) const {
  for (const Group& g : groups_) {
    for (const Flag& f : g.flags) {
      if (f.name == name) return &f;
    }
  }
  return nullptr;
}

void FlagTable::parse(int argc, char** argv) const {
  const std::vector<std::string> args(argv + 1, argv + argc);
  auto need_value = [&](std::size_t& i) -> const std::string& {
    WRSN_REQUIRE(i + 1 < args.size(), args[i] + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      print_help();
      std::exit(0);
    }
    const Flag* flag = find(a);
    if (flag == nullptr) {
      std::cerr << tool_ << ": unknown option '" << a << "' (try --help)\n";
      std::exit(2);
    }
    try {
      flag->apply(flag->metavar.empty() ? std::string() : need_value(i));
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      if (what.find(a) != std::string::npos) throw;
      throw InvalidArgument(a + ": " + what);
    }
  }
}

void FlagTable::print_help() const {
  std::size_t width = 0;
  for (const Group& g : groups_) {
    for (const Flag& f : g.flags) width = std::max(width, usage_column(f).size());
  }
  width += 2;
  std::cout << tool_ << " — " << summary_ << '\n';
  for (const Group& g : groups_) {
    std::cout << '\n' << g.title << ":\n";
    for (const Flag& f : g.flags) {
      std::cout << "  " << std::left << std::setw(static_cast<int>(width))
                << usage_column(f);
      for (const char c : f.help) {
        std::cout << c;
        if (c == '\n') std::cout << std::string(width + 2, ' ');
      }
      std::cout << '\n';
    }
  }
}

void add_config_group(FlagTable& table, Options& options) {
  // Every handler records the first config flag given: --restore takes the
  // configuration from the snapshot and refuses them.
  using Setter = std::function<void(SimConfig&, const std::string&)>;
  auto flag = [&options](std::string name, std::string metavar, std::string help,
                         Setter set) {
    return Flag{name, std::move(metavar), std::move(help),
                [&options, name, set = std::move(set)](const std::string& v) {
                  if (options.config_flag.empty()) options.config_flag = name;
                  set(options.config, v);
                }};
  };
  auto shorthand = [&flag](std::string name, std::string metavar, std::string key,
                           const std::string& see) {
    std::string help = "shorthand for --set " + key + '=' + metavar + see;
    return flag(std::move(name), std::move(metavar), std::move(help),
                [key](SimConfig& c, const std::string& v) { config_set(c, key, v); });
  };
  table.add_group(
      "config",
      {flag("--config", "FILE", "load a key=value config file",
            [](SimConfig& c, const std::string& v) { c = load_config(v, c); }),
       flag("--set", "KEY=VALUE", "override one config key (repeatable)",
            [](SimConfig& c, const std::string& kv) {
              const auto eq = kv.find('=');
              WRSN_REQUIRE(eq != std::string::npos, "--set expects KEY=VALUE");
              config_set(c, kv.substr(0, eq), kv.substr(eq + 1));
            }),
       shorthand("--days", "N", "sim_days", ""),
       shorthand("--seed", "N", "seed", ""),
       shorthand("--scheduler", "NAME", "scheduler", " (see --list-schedulers)"),
       flag("--faults", "FILE|SPEC",
            "fault injection: a file of fault.* keys, or a spec such\n"
            "as request_loss_prob=0.2,rv_breakdown_at_h=6",
            apply_fault_arg)});
}

void add_observe_group(FlagTable& table, Options& options, bool per_replica) {
  table.add_group(
      "observe",
      {text_flag("--telemetry", "FILE",
                 "aggregated telemetry as JSON (Prometheus text for *.prom)",
                 &options.telemetry_path),
       per_replica ? text_flag("--spans", "PREFIX",
                               "lifecycle spans, PREFIX.point<P>.rep<R>.jsonl",
                               &options.spans_path)
                   : text_flag("--spans", "FILE",
                               "lifecycle spans as JSONL (wrsn_sim: first replica)",
                               &options.spans_path),
       per_replica ? text_flag("--chrome-trace", "PREFIX",
                               "the same spans as Chrome trace-event JSON,\n"
                               "PREFIX.point<P>.rep<R>.json",
                               &options.chrome_path)
                   : text_flag("--chrome-trace", "FILE",
                               "the same spans as Chrome trace-event JSON\n"
                               "(load in https://ui.perfetto.dev)",
                               &options.chrome_path),
       count_flag("--flight-recorder", "N",
                  "keep the last N events; dumped to stderr on failure or Ctrl-C",
                  &options.flight_capacity, /*positive=*/true)});
}

void add_checkpoint_group(FlagTable& table, Options& options) {
  table.add_group(
      "checkpoint",
      {text_flag("--checkpoint", "PREFIX",
                 "write PREFIX.NNNNNN.snap snapshots + PREFIX.manifest.jsonl",
                 &options.checkpoint_prefix),
       number_flag("--checkpoint-every", "S",
                   "snapshot every S simulated seconds (needs --checkpoint)",
                   &options.checkpoint_every,
                   [&options] {
                     WRSN_REQUIRE(options.checkpoint_every > 0.0,
                                  "--checkpoint-every must be positive");
                   }),
       switch_flag("--checkpoint-on-signal",
                   "on SIGINT/SIGTERM save a terminal snapshot and exit 75\n"
                   "(needs --checkpoint)",
                   &options.checkpoint_on_signal),
       text_flag("--restore", "FILE",
                 "resume byte-identically from a snapshot and its embedded\n"
                 "configuration (no config flag allowed)",
                 &options.restore_path)});
}

obs::TelemetryRegistry* Options::telemetry(obs::TelemetryRegistry& registry) const {
  if (telemetry_path.empty()) return nullptr;
  obs::require_writable(telemetry_path);
  return &registry;
}

void Options::write_telemetry(const obs::TelemetryRegistry& registry,
                              std::ostream& log) const {
  if (telemetry_path.empty()) return;
  obs::write_registry_file(telemetry_path, registry);
  log << "wrote telemetry to " << telemetry_path << '\n';
}

Instruments::Instruments(std::ostream* spans, std::ostream* chrome,
                         std::size_t flight_capacity, std::string flight_label) {
  if (spans != nullptr) spans_sink = std::make_unique<obs::JsonlSpanSink>(*spans);
  if (chrome != nullptr) chrome_sink = std::make_unique<obs::ChromeTraceSink>(*chrome);
  if (spans_sink != nullptr || chrome_sink != nullptr) {
    span_log = std::make_unique<obs::SpanLog>(spans_sink.get(), chrome_sink.get());
  }
  if (flight_capacity > 0) {
    flight = std::make_unique<obs::FlightRecorder>(flight_capacity);
    flight->set_label(std::move(flight_label));
  }
}

void Instruments::attach(World& world, obs::TelemetryRegistry* telemetry) const {
  world.set_telemetry(telemetry);
  world.set_span_log(span_log.get());
  world.set_flight_recorder(flight.get());
}

SingleRun::SingleRun(const std::string& tool, Options& options,
                     obs::TelemetryRegistry* telemetry)
    : tool_(tool) {
  const bool checkpointing = !options.checkpoint_prefix.empty();
  WRSN_REQUIRE(checkpointing ||
                   (options.checkpoint_every <= 0.0 && !options.checkpoint_on_signal),
               "--checkpoint-every/--checkpoint-on-signal require --checkpoint PREFIX");

  // Restore rebuilds the world from the snapshot's own embedded config; the
  // command line must not silently fork the configuration mid-campaign.
  std::unique_ptr<WorldSnapshot> restored;
  if (!options.restore_path.empty()) {
    WRSN_REQUIRE(options.config_flag.empty(),
                 options.config_flag +
                     " cannot be combined with --restore: the snapshot carries "
                     "its own configuration");
    restored =
        std::make_unique<WorldSnapshot>(load_snapshot_file(options.restore_path));
    options.config = config_from_text(restored->config_text);
  }

  auto open = [](std::ofstream& file, const std::string& path) -> std::ostream* {
    if (path.empty()) return nullptr;
    file.open(path);
    WRSN_REQUIRE(file.good(), "cannot open '" + path + "'");
    return &file;
  };
  std::ostream* spans = open(spans_file_, options.spans_path);
  std::ostream* chrome = open(chrome_file_, options.chrome_path);
  instruments_ = std::make_unique<Instruments>(
      spans, chrome, options.flight_capacity,
      tool + " seed " + std::to_string(options.config.seed));

  // A restored run continues the snapshot's span numbering so stitched span
  // files stay consistent across the interruption.
  if (restored != nullptr && instruments_->span_log != nullptr &&
      !restored->span_state.empty()) {
    BinReader span_reader(restored->span_state);
    instruments_->span_log->deserialize(span_reader);
    span_reader.expect_end();
  }

  world_ = restored != nullptr ? std::make_unique<World>(*restored)
                               : std::make_unique<World>(options.config);
  World& world = *world_;
  instruments_->attach(world, telemetry);
  if (obs::FlightRecorder* flight = instruments_->flight.get()) {
    flight->set_context_provider([&world] { return to_json(world.report()); });
    obs::FlightRecorder::arm_failure_hook();
    // Under --checkpoint-on-signal the stop handler below owns SIGINT and
    // SIGTERM (it checkpoints instead of dumping and aborting).
    if (!options.checkpoint_on_signal) obs::FlightRecorder::arm_signal_handlers();
  }

  if (!checkpointing) return;
  checkpointer_ = std::make_unique<CheckpointWriter>(options.checkpoint_prefix);
  const bool on_signal = options.checkpoint_on_signal;
  if (on_signal) {
    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);
  }
  const double every = options.checkpoint_every;
  world.set_checkpoint_hook([writer = checkpointer_.get(), on_signal, every,
                             next = every](const World& w) mutable {
    if (on_signal && g_stop_requested != 0) return true;
    if (every > 0.0 && w.now().value() >= next) {
      writer->save(w, /*terminal=*/false);
      while (next <= w.now().value()) next += every;
    }
    return false;
  });
}

bool SingleRun::run() {
  World& world = *world_;
  world.run();
  if (!world.finished()) {
    // Stopped by SIGINT/SIGTERM at a quiescent event boundary.
    const std::string snap_path = checkpointer_->save(world, /*terminal=*/true);
    obs::FlightRecorder::dump_all("checkpoint-signal");
    std::cerr << tool_ << ": stopped by signal at t=" << world.now().value()
              << "s after " << world.events_processed()
              << " events; snapshot saved to " << snap_path
              << " (resume with --restore)\n";
    return false;
  }
  if (instruments_->span_log != nullptr) {
    instruments_->span_log->finish(world.now().value());
  }
  return true;
}

}  // namespace wrsn::cli
