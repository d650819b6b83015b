#include "core/config_io.hpp"

#include <charconv>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/error.hpp"
#include "sched/policy.hpp"

namespace wrsn {

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

struct KeyHandler {
  std::string name;
  std::function<std::string(const SimConfig&)> get;
  std::function<void(SimConfig&, const std::string&)> set;
};

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// How an error names the value's source: CLI flags as written, everything
// else as a config key.
std::string subject(const std::string& key) {
  return key.starts_with('-') ? key : "config key '" + key + "'";
}

bool parse_bool(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  throw InvalidArgument("config key '" + key + "': expected a boolean, got '" + v +
                        "'");
}

// Shortest round-trip formatting: the printed text parses back to the same
// double, bit for bit. Snapshot restore embeds the config as text, so any
// lossy formatting here would silently perturb a resumed run.
std::string fmt(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  WRSN_REQUIRE(ec == std::errc{}, "double formatting failed");
  return std::string(buf, ptr);
}

std::string parse_scheduler(const std::string& v) {
  if (!SchedulerRegistry::instance().contains(v)) {
    throw InvalidArgument("unknown scheduler '" + v +
                          "' (valid: " + join_names(scheduler_names()) + ")");
  }
  return v;
}

ActivationPolicy parse_activation(const std::string& v) {
  for (auto p : {ActivationPolicy::kFullTime, ActivationPolicy::kRoundRobin}) {
    if (to_string(p) == v) return p;
  }
  throw InvalidArgument("unknown activation policy '" + v + "' (valid: " +
                        join_names(activation_policy_names()) + ")");
}

const std::vector<KeyHandler>& handlers() {
  static const std::vector<KeyHandler> kHandlers = {
      {"num_sensors",
       [](const SimConfig& c) { return std::to_string(c.num_sensors); },
       [](SimConfig& c, const std::string& v) {
         c.num_sensors = parse_u64("num_sensors", v);
       }},
      {"num_targets",
       [](const SimConfig& c) { return std::to_string(c.num_targets); },
       [](SimConfig& c, const std::string& v) {
         c.num_targets = parse_u64("num_targets", v);
       }},
      {"num_rvs", [](const SimConfig& c) { return std::to_string(c.num_rvs); },
       [](SimConfig& c, const std::string& v) { c.num_rvs = parse_u64("num_rvs", v); }},
      {"field_side_m",
       [](const SimConfig& c) { return fmt(c.field_side.value()); },
       [](SimConfig& c, const std::string& v) {
         c.field_side = meters(parse_double("field_side_m", v));
       }},
      {"comm_range_m",
       [](const SimConfig& c) { return fmt(c.comm_range.value()); },
       [](SimConfig& c, const std::string& v) {
         c.comm_range = meters(parse_double("comm_range_m", v));
       }},
      {"sensing_range_m",
       [](const SimConfig& c) { return fmt(c.sensing_range.value()); },
       [](SimConfig& c, const std::string& v) {
         c.sensing_range = meters(parse_double("sensing_range_m", v));
       }},
      {"sim_days",
       [](const SimConfig& c) { return fmt(c.sim_duration.value() / 86400.0); },
       [](SimConfig& c, const std::string& v) {
         c.sim_duration = days(parse_double("sim_days", v));
       }},
      {"target_period_h",
       [](const SimConfig& c) { return fmt(c.target_period.value() / 3600.0); },
       [](SimConfig& c, const std::string& v) {
         c.target_period = hours(parse_double("target_period_h", v));
       }},
      {"data_rate_pkt_per_min",
       [](const SimConfig& c) { return fmt(c.data_rate_pkt_per_min); },
       [](SimConfig& c, const std::string& v) {
         c.data_rate_pkt_per_min = parse_double("data_rate_pkt_per_min", v);
       }},
      {"target_motion",
       [](const SimConfig& c) { return to_string(c.target_motion); },
       [](SimConfig& c, const std::string& v) {
         const std::string t = trim(v);
         if (t == to_string(TargetMotion::kTeleport)) {
           c.target_motion = TargetMotion::kTeleport;
         } else if (t == to_string(TargetMotion::kRandomWaypoint)) {
           c.target_motion = TargetMotion::kRandomWaypoint;
         } else {
           throw InvalidArgument("unknown target motion '" + t + "' (valid: " +
                                 join_names(target_motion_names()) + ")");
         }
       }},
      {"target_speed_m_per_s",
       [](const SimConfig& c) { return fmt(c.target_speed.value()); },
       [](SimConfig& c, const std::string& v) {
         c.target_speed = MeterPerSecond{parse_double("target_speed_m_per_s", v)};
       }},
      {"scheduler", [](const SimConfig& c) { return c.scheduler; },
       [](SimConfig& c, const std::string& v) { c.scheduler = parse_scheduler(trim(v)); }},
      {"event_queue", [](const SimConfig& c) { return c.event_queue; },
       [](SimConfig& c, const std::string& v) {
         const std::string name = trim(v);
         if (name != "auto" && name != "calendar" && name != "heap") {
           throw InvalidArgument("unknown event_queue '" + name +
                                 "' (valid: auto, calendar, heap)");
         }
         c.event_queue = name;
       }},
      {"threads", [](const SimConfig& c) { return std::to_string(c.threads); },
       [](SimConfig& c, const std::string& v) { c.threads = parse_u64("threads", v); }},
      {"activation", [](const SimConfig& c) { return to_string(c.activation); },
       [](SimConfig& c, const std::string& v) {
         c.activation = parse_activation(trim(v));
       }},
      {"two_opt_tours",
       [](const SimConfig& c) { return c.two_opt_tours ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.two_opt_tours = parse_bool("two_opt_tours", v);
       }},
      {"energy_request_control",
       [](const SimConfig& c) { return c.energy_request_control ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.energy_request_control = parse_bool("energy_request_control", v);
       }},
      {"energy_request_percentage",
       [](const SimConfig& c) { return fmt(c.energy_request_percentage); },
       [](SimConfig& c, const std::string& v) {
         c.energy_request_percentage = parse_double("energy_request_percentage", v);
       }},
      {"activation_slot_min",
       [](const SimConfig& c) { return fmt(c.activation_slot.value() / 60.0); },
       [](SimConfig& c, const std::string& v) {
         c.activation_slot = minutes(parse_double("activation_slot_min", v));
       }},
      {"critical_fraction",
       [](const SimConfig& c) { return fmt(c.critical_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.critical_fraction = parse_double("critical_fraction", v);
       }},
      {"radio.listen_duty_cycle",
       [](const SimConfig& c) { return fmt(c.radio.listen_duty_cycle); },
       [](SimConfig& c, const std::string& v) {
         c.radio.listen_duty_cycle = parse_double("radio.listen_duty_cycle", v);
       }},
      {"battery.capacity_j",
       [](const SimConfig& c) { return fmt(c.battery.capacity.value()); },
       [](SimConfig& c, const std::string& v) {
         c.battery.capacity = joules(parse_double("battery.capacity_j", v));
       }},
      {"battery.self_discharge_per_day",
       [](const SimConfig& c) { return fmt(c.battery.self_discharge_per_day); },
       [](SimConfig& c, const std::string& v) {
         c.battery.self_discharge_per_day =
             parse_double("battery.self_discharge_per_day", v);
       }},
      {"battery.threshold_fraction",
       [](const SimConfig& c) { return fmt(c.battery.threshold_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.battery.threshold_fraction = parse_double("battery.threshold_fraction", v);
       }},
      {"rv.capacity_j",
       [](const SimConfig& c) { return fmt(c.rv.capacity.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.capacity = joules(parse_double("rv.capacity_j", v));
       }},
      {"rv.move_cost_j_per_m",
       [](const SimConfig& c) { return fmt(c.rv.move_cost.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.move_cost = JoulePerMeter{parse_double("rv.move_cost_j_per_m", v)};
       }},
      {"rv.speed_m_per_s",
       [](const SimConfig& c) { return fmt(c.rv.speed.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.speed = MeterPerSecond{parse_double("rv.speed_m_per_s", v)};
       }},
      {"rv.charge_power_w",
       [](const SimConfig& c) { return fmt(c.rv.charge_power.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.charge_power = watts(parse_double("rv.charge_power_w", v));
       }},
      {"rv.charge_profile",
       [](const SimConfig& c) { return to_string(c.rv.charge_profile); },
       [](SimConfig& c, const std::string& v) {
         const std::string t = trim(v);
         if (t == to_string(ChargeProfileKind::kConstantPower)) {
           c.rv.charge_profile = ChargeProfileKind::kConstantPower;
         } else if (t == to_string(ChargeProfileKind::kTaperedCcCv)) {
           c.rv.charge_profile = ChargeProfileKind::kTaperedCcCv;
         } else {
           throw InvalidArgument("unknown charge profile '" + t + "' (valid: " +
                                 join_names(charge_profile_names()) + ")");
         }
       }},
      {"rv.charge_knee_soc",
       [](const SimConfig& c) { return fmt(c.rv.charge_knee_soc); },
       [](SimConfig& c, const std::string& v) {
         c.rv.charge_knee_soc = parse_double("rv.charge_knee_soc", v);
       }},
      {"rv.charge_trickle_fraction",
       [](const SimConfig& c) { return fmt(c.rv.charge_trickle_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.rv.charge_trickle_fraction =
             parse_double("rv.charge_trickle_fraction", v);
       }},
      {"rv.base_recharge_power_w",
       [](const SimConfig& c) { return fmt(c.rv.base_recharge_power.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.base_recharge_power =
             watts(parse_double("rv.base_recharge_power_w", v));
       }},
      {"rv.reserve_fraction",
       [](const SimConfig& c) { return fmt(c.rv.reserve_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.rv.reserve_fraction = parse_double("rv.reserve_fraction", v);
       }},
      {"rv.self_recharge_fraction",
       [](const SimConfig& c) { return fmt(c.rv.self_recharge_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.rv.self_recharge_fraction =
             parse_double("rv.self_recharge_fraction", v);
       }},
      {"metrics_sample_min",
       [](const SimConfig& c) { return fmt(c.metrics_sample_period.value() / 60.0); },
       [](SimConfig& c, const std::string& v) {
         c.metrics_sample_period = minutes(parse_double("metrics_sample_min", v));
       }},
      {"fault.enabled",
       [](const SimConfig& c) { return c.fault.enabled ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.fault.enabled = parse_bool("fault.enabled", v);
       }},
      {"fault.request_loss_prob",
       [](const SimConfig& c) { return fmt(c.fault.request_loss_prob); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_loss_prob = parse_double("fault.request_loss_prob", v);
       }},
      {"fault.request_delay_prob",
       [](const SimConfig& c) { return fmt(c.fault.request_delay_prob); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_delay_prob = parse_double("fault.request_delay_prob", v);
       }},
      {"fault.request_delay_max_min",
       [](const SimConfig& c) { return fmt(c.fault.request_delay_max.value() / 60.0); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_delay_max =
             minutes(parse_double("fault.request_delay_max_min", v));
       }},
      {"fault.request_retry_timeout_min",
       [](const SimConfig& c) {
         return fmt(c.fault.request_retry_timeout.value() / 60.0);
       },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_retry_timeout =
             minutes(parse_double("fault.request_retry_timeout_min", v));
       }},
      {"fault.request_retry_backoff",
       [](const SimConfig& c) { return fmt(c.fault.request_retry_backoff); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_retry_backoff =
             parse_double("fault.request_retry_backoff", v);
       }},
      {"fault.request_max_retries",
       [](const SimConfig& c) { return std::to_string(c.fault.request_max_retries); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_max_retries = parse_u64("fault.request_max_retries", v);
       }},
      {"fault.rv_mtbf_hours",
       [](const SimConfig& c) { return fmt(c.fault.rv_mtbf_hours); },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_mtbf_hours = parse_double("fault.rv_mtbf_hours", v);
       }},
      {"fault.rv_repair_duration_h",
       [](const SimConfig& c) { return fmt(c.fault.rv_repair_duration.value() / 3600.0); },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_repair_duration =
             hours(parse_double("fault.rv_repair_duration_h", v));
       }},
      {"fault.rv_breakdown_at_h",
       [](const SimConfig& c) { return fmt(c.fault.rv_breakdown_at.value() / 3600.0); },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_breakdown_at = hours(parse_double("fault.rv_breakdown_at_h", v));
       }},
      {"fault.rv_failover",
       [](const SimConfig& c) { return c.fault.rv_failover ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_failover = parse_bool("fault.rv_failover", v);
       }},
      {"fault.sensor_fault_rate_per_day",
       [](const SimConfig& c) { return fmt(c.fault.sensor_fault_rate_per_day); },
       [](SimConfig& c, const std::string& v) {
         c.fault.sensor_fault_rate_per_day =
             parse_double("fault.sensor_fault_rate_per_day", v);
       }},
      {"fault.sensor_fault_duration_h",
       [](const SimConfig& c) {
         return fmt(c.fault.sensor_fault_duration.value() / 3600.0);
       },
       [](SimConfig& c, const std::string& v) {
         c.fault.sensor_fault_duration =
             hours(parse_double("fault.sensor_fault_duration_h", v));
       }},
      {"fault.battery_noise_per_day",
       [](const SimConfig& c) { return fmt(c.fault.battery_noise_per_day); },
       [](SimConfig& c, const std::string& v) {
         c.fault.battery_noise_per_day =
             parse_double("fault.battery_noise_per_day", v);
       }},
      {"seed", [](const SimConfig& c) { return std::to_string(c.seed); },
       [](SimConfig& c, const std::string& v) { c.seed = parse_u64("seed", v); }},
  };
  return kHandlers;
}

const KeyHandler& find_handler(const std::string& key) {
  for (const KeyHandler& h : handlers()) {
    if (h.name == key) return h;
  }
  throw InvalidArgument("unknown config key '" + key + "'");
}

}  // namespace

double parse_double(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  std::size_t consumed = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &consumed);
  } catch (const std::exception&) {
    throw InvalidArgument(subject(key) + ": cannot parse number '" + v + "'");
  }
  WRSN_REQUIRE(consumed == v.size(), subject(key) + ": trailing junk in '" + v + "'");
  return out;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const double d = parse_double(key, value);
  // 2^64 bounds the cast, which is undefined for out-of-range values.
  WRSN_REQUIRE(d >= 0.0 && d < 18446744073709551616.0 &&
                   d == static_cast<double>(static_cast<std::uint64_t>(d)),
               subject(key) + " requires a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

std::vector<std::string> config_keys() {
  std::vector<std::string> keys;
  keys.reserve(handlers().size());
  for (const KeyHandler& h : handlers()) keys.push_back(h.name);
  return keys;
}

std::string config_get(const SimConfig& config, const std::string& key) {
  return find_handler(key).get(config);
}

void config_set(SimConfig& config, const std::string& key, const std::string& value) {
  find_handler(key).set(config, value);
}

std::string config_to_text(const SimConfig& config) {
  std::ostringstream os;
  os << "# wrsn simulation configuration (Table II defaults unless noted)\n";
  for (const KeyHandler& h : handlers()) {
    os << h.name << " = " << h.get(config) << '\n';
  }
  return os.str();
}

SimConfig config_from_text(const std::string& text, const SimConfig& base) {
  SimConfig config = base;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    WRSN_REQUIRE(eq != std::string::npos,
                 "config line " + std::to_string(line_no) + " has no '='");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    config_set(config, key, value);
  }
  return config;
}

void save_config(const std::string& path, const SimConfig& config) {
  std::ofstream os(path);
  WRSN_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  os << config_to_text(config);
}

SimConfig load_config(const std::string& path, const SimConfig& base) {
  std::ifstream is(path);
  WRSN_REQUIRE(is.good(), "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return config_from_text(buffer.str(), base);
}

void apply_fault_arg(SimConfig& config, const std::string& arg) {
  const std::string spec = trim(arg);
  WRSN_REQUIRE(!spec.empty(), "--faults needs a file path or key=value spec");
  if (spec.find('=') == std::string::npos) {
    config = load_config(spec, config);
  } else {
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      const std::size_t comma = std::min(spec.find(',', pos), spec.size());
      const std::string item = trim(spec.substr(pos, comma - pos));
      pos = comma + 1;
      if (item.empty()) continue;
      const std::size_t eq = item.find('=');
      WRSN_REQUIRE(eq != std::string::npos,
                   "--faults item '" + item + "' has no '='");
      std::string key = trim(item.substr(0, eq));
      const std::string value = trim(item.substr(eq + 1));
      if (key.rfind("fault.", 0) != 0) key = "fault." + key;
      config_set(config, key, value);
    }
  }
  config.fault.enabled = true;
}

}  // namespace wrsn
