#pragma once
// Textual (de)serialization of SimConfig: a flat `key = value` format with
// `#` comments, used by the wrsn_sim CLI (`--config file`, `--set k=v`) and
// by experiment scripts. Unknown keys are an error — silent typos in
// experiment configs are how wrong papers get written.

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace wrsn {

// Strict number parsing shared by the config keys and the tools' numeric
// flags: the whole (whitespace-trimmed) value must parse, so "2x" and "-1"
// (for parse_u64) throw InvalidArgument instead of truncating or wrapping.
// `key` names the value in the error: a config key, or a CLI flag such as
// "--seeds" (anything starting with '-') which is quoted as written.
[[nodiscard]] double parse_double(const std::string& key, const std::string& value);
[[nodiscard]] std::uint64_t parse_u64(const std::string& key, const std::string& value);

// All recognized keys, in serialization order.
[[nodiscard]] std::vector<std::string> config_keys();

// Current value of one key, formatted as it would be serialized.
[[nodiscard]] std::string config_get(const SimConfig& config, const std::string& key);

// Sets one key from its textual value. Throws InvalidArgument on unknown
// keys or unparsable values.
void config_set(SimConfig& config, const std::string& key, const std::string& value);

// Full round-trippable dump (every key, one per line, with a header).
[[nodiscard]] std::string config_to_text(const SimConfig& config);

// Applies `key = value` lines on top of `base`. Blank lines and lines
// starting with '#' are ignored; inline `# ...` comments are stripped.
[[nodiscard]] SimConfig config_from_text(const std::string& text,
                                         const SimConfig& base = SimConfig{});

// File variants.
void save_config(const std::string& path, const SimConfig& config);
[[nodiscard]] SimConfig load_config(const std::string& path,
                                    const SimConfig& base = SimConfig{});

// Applies a `--faults FILE|spec` CLI argument (shared by wrsn_sim,
// wrsn_sweep and wrsn_trace) and force-enables fault injection. A spec is a
// comma-separated `key=value` list using the fault.* config keys, with the
// `fault.` prefix optional:
//   --faults request_loss_prob=0.2,rv_breakdown_at_h=6
// An argument without '=' is treated as a config-file path whose keys
// overlay `config` (typically a file of fault.* lines, but any key works).
void apply_fault_arg(SimConfig& config, const std::string& arg);

}  // namespace wrsn
