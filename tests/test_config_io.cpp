#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/config_io.hpp"
#include "core/error.hpp"
#include "net/routing.hpp"

namespace wrsn {
namespace {

TEST(ConfigIo, KeysAreNonEmptyAndUnique) {
  const auto keys = config_keys();
  EXPECT_GT(keys.size(), 20u);
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
}

TEST(ConfigIo, GetReflectsDefaults) {
  const SimConfig cfg;
  EXPECT_EQ(config_get(cfg, "num_sensors"), "500");
  EXPECT_EQ(config_get(cfg, "scheduler"), "combined");
  EXPECT_EQ(config_get(cfg, "activation"), "round-robin");
  EXPECT_EQ(config_get(cfg, "sim_days"), "120");
  EXPECT_EQ(config_get(cfg, "energy_request_control"), "true");
}

TEST(ConfigIo, SetParsesEveryKind) {
  SimConfig cfg;
  config_set(cfg, "num_sensors", "250");
  EXPECT_EQ(cfg.num_sensors, 250u);
  config_set(cfg, "field_side_m", "150.5");
  EXPECT_DOUBLE_EQ(cfg.field_side.value(), 150.5);
  config_set(cfg, "scheduler", "partition");
  EXPECT_EQ(cfg.scheduler, "partition");
  config_set(cfg, "scheduler", "fcfs");
  EXPECT_EQ(cfg.scheduler, "fcfs");
  config_set(cfg, "activation", "full-time");
  EXPECT_EQ(cfg.activation, ActivationPolicy::kFullTime);
  config_set(cfg, "energy_request_control", "off");
  EXPECT_FALSE(cfg.energy_request_control);
  config_set(cfg, "two_opt_tours", "yes");
  EXPECT_TRUE(cfg.two_opt_tours);
  config_set(cfg, "sim_days", "30");
  EXPECT_DOUBLE_EQ(cfg.sim_duration.value(), 30.0 * 86400.0);
  config_set(cfg, "seed", "12345");
  EXPECT_EQ(cfg.seed, 12345u);
}

TEST(ConfigIo, RejectsBadInput) {
  SimConfig cfg;
  EXPECT_THROW(config_set(cfg, "no_such_key", "1"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "num_sensors", "many"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "num_sensors", "-5"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "num_sensors", "1.5"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "field_side_m", "12abc"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "scheduler", "quantum"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "routing", "pigeon"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "two_opt_tours", "maybe"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "link.enabled", "maybe"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "link.max_retx", "several"), InvalidArgument);
  EXPECT_THROW((void)config_get(cfg, "no_such_key"), InvalidArgument);
}

// Configs written before the key was removed must fail loudly rather than
// have the line silently dropped.
TEST(ConfigIo, RemovedParallelThresholdKeyIsRejected) {
  try {
    (void)config_from_text("num_sensors = 40\nparallel_threshold=4096\n");
    FAIL() << "parallel_threshold was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("parallel_threshold"), std::string::npos)
        << e.what();
  }
}

// The tools parse their numeric flags with the same strict helpers; the
// error names the flag as written.
TEST(ConfigIo, StrictNumberParsersNameTheirSource) {
  EXPECT_EQ(parse_u64("--seeds", "3"), 3u);
  EXPECT_EQ(parse_double("--watchdog-s", " 2.5 "), 2.5);
  const auto error_for = [](const auto& parse, const std::string& value) {
    try {
      (void)parse(value);
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "accepted '" << value << "'";
    return std::string();
  };
  const auto seeds = [](const std::string& v) { return parse_u64("--seeds", v); };
  for (const char* bad : {"-1", "2x", "abc", "", "1.5", "1e30"}) {
    const std::string message = error_for(seeds, bad);
    EXPECT_NE(message.find("--seeds"), std::string::npos) << bad << ": " << message;
  }
  const auto backoff = [](const std::string& v) {
    return parse_double("--retry-backoff-ms", v);
  };
  EXPECT_NE(error_for(backoff, "5ms").find("--retry-backoff-ms"), std::string::npos);
  // Config keys keep their "config key '...'" phrasing.
  const auto key = [](const std::string& v) { return parse_u64("num_rvs", v); };
  EXPECT_NE(error_for(key, "-2").find("config key 'num_rvs'"), std::string::npos);
}

TEST(ConfigIo, UnknownEnumValueErrorsListValidNames) {
  // A typo in any enum-like knob must name every accepted value, so the fix
  // is readable straight off the error message.
  const auto error_for = [](const std::string& key, const std::string& value) {
    SimConfig cfg;
    try {
      config_set(cfg, key, value);
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << key << " accepted '" << value << "'";
    return std::string();
  };
  // Table-driven: each enum-like key pairs a bogus value with the full list
  // of names the error must surface. Registry-backed knobs pull the expected
  // list live from their registry, so a newly registered policy is covered
  // without touching this test.
  struct Case {
    const char* key;
    const char* bogus;
    std::vector<std::string> expected;
  };
  const std::vector<Case> cases = {
      {"scheduler", "quantum",
       {"greedy", "partition", "combined", "nearest-first", "fcfs", "edf"}},
      {"routing", "pigeon", routing_names()},
      {"activation", "psychic", {"full-time", "round-robin"}},
      {"target_motion", "warp", {"teleport", "random-waypoint"}},
      {"rv.charge_profile", "fusion", {"constant-power", "tapered-cc-cv"}},
  };
  for (const Case& c : cases) {
    const std::string message = error_for(c.key, c.bogus);
    for (const std::string& name : c.expected) {
      EXPECT_NE(message.find(name), std::string::npos)
          << c.key << ": " << message;
    }
  }
}

TEST(ConfigIo, TextRoundTrip) {
  SimConfig cfg;
  cfg.num_sensors = 321;
  cfg.scheduler = "nearest-first";
  cfg.energy_request_percentage = 0.35;
  cfg.rv.charge_power = watts(2.5);
  const std::string text = config_to_text(cfg);
  const SimConfig back = config_from_text(text);
  EXPECT_EQ(back.num_sensors, 321u);
  EXPECT_EQ(back.scheduler, "nearest-first");
  EXPECT_DOUBLE_EQ(back.energy_request_percentage, 0.35);
  EXPECT_DOUBLE_EQ(back.rv.charge_power.value(), 2.5);
}

TEST(ConfigIo, RoutingAndLinkKeysRoundTrip) {
  SimConfig cfg;
  cfg.routing = "greedy_geo";
  cfg.link.enabled = true;
  cfg.link.loss_floor = 0.02;
  cfg.link.loss_at_range = 0.4;
  cfg.link.loss_exponent = 2.5;
  cfg.link.max_retx = 5;
  cfg.link.rx_duty_tax = 0.03;
  const SimConfig back = config_from_text(config_to_text(cfg));
  EXPECT_EQ(back.routing, "greedy_geo");
  EXPECT_TRUE(back.link.enabled);
  EXPECT_DOUBLE_EQ(back.link.loss_floor, 0.02);
  EXPECT_DOUBLE_EQ(back.link.loss_at_range, 0.4);
  EXPECT_DOUBLE_EQ(back.link.loss_exponent, 2.5);
  EXPECT_EQ(back.link.max_retx, 5u);
  EXPECT_DOUBLE_EQ(back.link.rx_duty_tax, 0.03);
}

TEST(ConfigIo, ParsingSkipsCommentsAndBlanks) {
  const std::string text =
      "# a comment\n"
      "\n"
      "num_sensors = 42   # trailing comment\n"
      "  scheduler =  greedy  \n";
  const SimConfig cfg = config_from_text(text);
  EXPECT_EQ(cfg.num_sensors, 42u);
  EXPECT_EQ(cfg.scheduler, "greedy");
}

TEST(ConfigIo, ParsingOverlaysBase) {
  SimConfig base;
  base.num_targets = 7;
  const SimConfig cfg = config_from_text("num_sensors = 99\n", base);
  EXPECT_EQ(cfg.num_sensors, 99u);
  EXPECT_EQ(cfg.num_targets, 7u);  // untouched
}

TEST(ConfigIo, MalformedLinesRejected) {
  EXPECT_THROW((void)config_from_text("num_sensors 42\n"), InvalidArgument);
  EXPECT_THROW((void)config_from_text("bogus = 1\n"), InvalidArgument);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/wrsn_config_test.cfg";
  SimConfig cfg;
  cfg.num_rvs = 5;
  cfg.radio.listen_duty_cycle = 0.07;
  save_config(path, cfg);
  const SimConfig back = load_config(path);
  EXPECT_EQ(back.num_rvs, 5u);
  EXPECT_DOUBLE_EQ(back.radio.listen_duty_cycle, 0.07);
  std::remove(path.c_str());
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW((void)load_config("/no/such/dir/file.cfg"), InvalidArgument);
}

TEST(ConfigIo, EveryKeyRoundTrips) {
  // Serialize, parse back, and compare key-by-key: catches any handler whose
  // getter and setter disagree (including future additions).
  const SimConfig cfg;  // defaults
  const SimConfig back = config_from_text(config_to_text(cfg));
  for (const std::string& key : config_keys()) {
    EXPECT_EQ(config_get(cfg, key), config_get(back, key)) << "key " << key;
  }
}

TEST(ConfigIo, EverySetterIsObservableThroughItsGetter) {
  // Setting a numeric key to a distinctive value must be readable back.
  for (const std::string& key : config_keys()) {
    SimConfig cfg;
    const std::string before = config_get(cfg, key);
    // Skip enum/bool keys; they are covered by SetParsesEveryKind.
    if (before == "true" || before == "false") continue;
    bool numeric = !before.empty();
    for (char c : before) {
      if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == '-' ||
            c == '+' || c == 'e')) {
        numeric = false;
      }
    }
    if (!numeric) continue;
    try {
      config_set(cfg, key, "0.125");
      EXPECT_EQ(config_get(cfg, key), "0.125") << "key " << key;
    } catch (const InvalidArgument&) {
      // Integer-valued key: use an integer probe instead.
      config_set(cfg, key, "7");
      EXPECT_EQ(config_get(cfg, key), "7") << "key " << key;
    }
  }
}

TEST(ConfigIo, RoundTripPreservesValidation) {
  const SimConfig cfg = config_from_text(config_to_text(SimConfig{}));
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace wrsn
