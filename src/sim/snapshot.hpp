#pragma once
// Deterministic World checkpoints (schema-versioned).
//
// A WorldSnapshot captures every piece of mutable simulation state at a
// quiescent instant — pending events with their (time, seq) order, the SoA
// sensor block, RV/tour state, RNG stream positions, fault cursors, epoch
// counters, metrics accumulators, span bookkeeping — such that restoring it
// and running to the horizon is byte-identical (report JSON, traces, spans,
// battery bit patterns) to never having stopped. The equivalence suite
// (tests/test_snapshot_equivalence.cpp) pins this across both engines, both
// queue implementations and fault injection.
//
// The config rides inside the snapshot as its canonical text dump
// (core/config_io.hpp, shortest-round-trip doubles), so a snapshot file is
// self-contained: restore needs no side-channel.
//
// File format ("WRSNSNAP"):
//   magic[8] | u32 schema version | binio header (config text, engine, now,
//   events processed, span state) | opaque binary body | u64 FNV-1a trailer
// The trailer covers everything before it; load rejects truncated or
// bit-rotten files before any deserialization happens.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/atomic_file.hpp"
#include "sim/world.hpp"

namespace wrsn {

// v2: routing policy knob + link-quality layer (traffic flows carry per-hop
// ETX/success captures, the integrator tracks packets_offered).
// v3: the embedded config text drops the removed shard-executor threshold
// key; v2 snapshots are rejected rather than restored.
// v4: routing is always the Dijkstra tree over lossless links — the config
// text drops the routing and link.* keys and traffic flows drop their
// per-hop ETX/success captures; v3 snapshots are rejected.
inline constexpr std::uint32_t kSnapshotSchemaVersion = 4;

struct WorldSnapshot {
  std::uint32_t version = kSnapshotSchemaVersion;
  std::string config_text;           // full config dump, round-trippable
  std::uint8_t engine = 0;           // WorldEngine at capture time
  double now = 0.0;                  // simulated seconds at capture
  std::uint64_t events_processed = 0;
  std::string state;                 // opaque binary body (SnapshotAccess)
  // SpanLog bookkeeping (obs/spans.hpp) when a span log was attached at
  // capture; empty otherwise. The World does not own its SpanLog, so the
  // restoring tool deserializes this into a fresh log and re-attaches it.
  std::string span_state;
};

// Whole-file codec (magic + version + checksum around the snapshot).
// deserialize throws InvalidArgument on bad magic, unsupported version,
// truncation or checksum mismatch.
[[nodiscard]] std::string serialize_snapshot(const WorldSnapshot& snap);
[[nodiscard]] WorldSnapshot deserialize_snapshot(std::string_view bytes);

// File variants: save writes atomically (temp file + rename) so a crash
// mid-write never leaves a truncated snapshot under the final name.
void save_snapshot_file(const std::string& path, const WorldSnapshot& snap);
[[nodiscard]] WorldSnapshot load_snapshot_file(const std::string& path);

// --- snapshot manifest (JSONL, schema "wrsn.snapshot") -------------------
// Periodic checkpointing appends one record per snapshot written, so a
// supervisor can find the newest valid checkpoint without parsing binaries:
//   {"record":"meta","schema":"wrsn.snapshot","version":1,...}
//   {"record":"snapshot","id":1,"file":"...","t_s":...,"events":...,
//    "bytes":...,"terminal":false}
// `terminal` marks the final snapshot of a run that reached its horizon (or
// was stopped by a signal) — exactly one record may carry it.

struct SnapshotManifestRecord {
  std::uint64_t id = 0;       // 1-based, strictly increasing per manifest
  std::string file;           // snapshot filename (relative to the manifest)
  double t_s = 0.0;           // simulated time of the snapshot
  std::uint64_t events = 0;   // events processed at capture
  std::uint64_t bytes = 0;    // serialized snapshot size
  bool terminal = false;      // last snapshot of the run
};

[[nodiscard]] std::string snapshot_manifest_meta_line();
[[nodiscard]] std::string snapshot_manifest_line(const SnapshotManifestRecord& rec);

// Numbered-checkpoint writer shared by the CLI tools: each save() snapshots
// the world into PREFIX.NNNNNN.snap (atomic temp+rename) and appends one
// manifest record to PREFIX.manifest.jsonl (fsync'd journal; the meta line
// is written only when the manifest is new, so interrupted runs keep
// appending to one journal).
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string prefix);

  // Returns the path of the snapshot file written.
  std::string save(const World& world, bool terminal);

  [[nodiscard]] const std::string& manifest_path() const { return manifest_path_; }

 private:
  std::string prefix_;
  std::string manifest_path_;
  std::unique_ptr<JournalWriter> manifest_;
  std::uint64_t next_id_ = 1;
};

}  // namespace wrsn
