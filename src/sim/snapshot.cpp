#include "sim/snapshot.hpp"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "core/error.hpp"
#include "core/json.hpp"

namespace wrsn {

namespace {

constexpr std::string_view kMagic{"WRSNSNAP"};

template <typename Ar>
inline constexpr bool kLoading = std::is_same_v<Ar, BinReader>;

// --- field helpers -------------------------------------------------------
// Each helper is one symmetric save/load pair behind `if constexpr`, so a
// field listed once in SnapshotAccess::io is encoded and decoded by the same
// statement — the two directions cannot drift apart.

template <typename Ar, typename Rng>
void io_rng(Ar& ar, Rng& rng) {
  if constexpr (kLoading<Ar>) {
    std::array<std::uint64_t, 4> s{};
    for (auto& v : s) ar.u64(v);
    rng = Xoshiro256(s);
  } else {
    for (const std::uint64_t v : rng.state()) ar.u64(v);
  }
}

// Index scalar (SensorId / TargetId / std::size_t) through u64, so the
// encoding never depends on the platform's size_t flavour.
template <typename Ar, typename T>
void io_index(Ar& ar, T& v) {
  if constexpr (kLoading<Ar>) {
    std::uint64_t e = 0;
    ar.u64(e);
    v = static_cast<std::decay_t<T>>(e);
  } else {
    ar.u64(static_cast<std::uint64_t>(v));
  }
}

template <typename Ar, typename V>
void io_index_vec(Ar& ar, V& v) {
  if constexpr (kLoading<Ar>) {
    const std::size_t n = ar.count(8);
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t e = 0;
      ar.u64(e);
      v.push_back(static_cast<typename V::value_type>(e));
    }
  } else {
    ar.u64(v.size());
    for (const auto e : v) ar.u64(static_cast<std::uint64_t>(e));
  }
}

template <typename Ar, typename V>
void io_bool_vec(Ar& ar, V& v) {
  if constexpr (kLoading<Ar>) {
    const std::size_t n = ar.count(1);
    v.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      bool b = false;
      ar.boolean(b);
      v[i] = b;
    }
  } else {
    ar.u64(v.size());
    for (const bool b : v) ar.boolean(b);
  }
}

template <typename Ar, typename E>
void io_enum8(Ar& ar, E& v) {
  if constexpr (kLoading<Ar>) {
    std::uint8_t b = 0;
    ar.u8(b);
    v = static_cast<std::decay_t<E>>(b);
  } else {
    ar.u8(static_cast<std::uint8_t>(v));
  }
}

template <typename Ar, typename V>
void io_enum8_vec(Ar& ar, V& v) {
  if constexpr (kLoading<Ar>) {
    v.assign(ar.count(1), typename V::value_type{});
    for (auto& e : v) {
      std::uint8_t b = 0;
      ar.u8(b);
      e = static_cast<typename V::value_type>(b);
    }
  } else {
    ar.u64(v.size());
    for (const auto e : v) ar.u8(static_cast<std::uint8_t>(e));
  }
}

template <typename Ar, typename V>
void io_vec2_vec(Ar& ar, V& v) {
  if constexpr (kLoading<Ar>) {
    v.assign(ar.count(16), Vec2{});
  } else {
    ar.u64(v.size());
  }
  for (auto& p : v) {
    ar.f64(p.x);
    ar.f64(p.y);
  }
}

template <typename Ar, typename B>
void io_battery_level(Ar& ar, B& battery) {
  if constexpr (kLoading<Ar>) {
    double level = 0.0;
    ar.f64(level);
    battery.set_level(Joule{level});
  } else {
    ar.f64(battery.level().value());
  }
}

// One queued event; shared by the save loop (on a by-value copy) and the
// load loop (on a default-constructed Event).
template <typename Ar>
void io_event(Ar& ar, Event& e) {
  ar.f64(e.time);
  ar.u64(e.seq);
  io_enum8(ar, e.kind);
  io_index(ar, e.subject);
  ar.u64(e.epoch);
}

template <typename Ar, typename P>
void io_series_point(Ar& ar, P& p) {
  ar.f64(p.t);
  ar.size(p.alive);
  ar.size(p.covered);
  ar.size(p.coverable);
  ar.size(p.pending_requests);
  ar.f64(p.rv_travel_distance);
}

void require_schema_version(std::uint32_t version) {
  WRSN_REQUIRE(version == kSnapshotSchemaVersion,
               "unsupported snapshot schema version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kSnapshotSchemaVersion) + ")");
}

}  // namespace

// The one place that walks World's mutable members. Instantiated twice:
// (const World&, BinWriter&) to save, (World&, BinReader&) to load. Members
// rebuilt deterministically by the World(config, engine) constructor — the
// deployment, comm graph, sensing grid, SoA capacity/positions, fault plan,
// scheduler policy, executor, scratch buffers — are deliberately absent;
// the target bucket grid is re-initialized from the restored target
// positions at the end (its query results are order-insensitive).
struct SnapshotAccess {
  template <typename W, typename Ar>
  static void io(W& w, Ar& ar) {
    constexpr bool kLoad = kLoading<Ar>;
    const std::size_t num_sensors = w.config_.num_sensors;
    const std::size_t num_targets = w.config_.num_targets;

    // --- clock, counters, RNG positions ---------------------------------
    ar.f64(w.now_);
    ar.f64(w.end_);
    ar.boolean(w.finished_);
    ar.u64(w.events_processed_);
    ar.size(w.queue_hwm_);
    ar.f64(w.sensor_energy_consumed_);
    io_rng(ar, w.target_rng_);
    io_rng(ar, w.sched_rng_);

    // --- sensor hot state (SoA) + battery mirrors ------------------------
    ar.vec(w.soa_.level);
    ar.vec(w.soa_.drain);
    ar.vec(w.soa_.last_settle);
    ar.vec(w.soa_.epoch);
    ar.vec(w.soa_.crossing_time);
    ar.vec(w.soa_.crossing_to_death);
    ar.vec(w.soa_.death_processed);
    ar.vec(w.soa_.hw_fault);
    if constexpr (kLoad) {
      WRSN_REQUIRE(w.soa_.level.size() == num_sensors,
                   "snapshot sensor count does not match its config");
      for (SensorId s = 0; s < num_sensors; ++s) {
        w.net_.sensor(s).battery.set_level(Joule{w.soa_.level[s]});
      }
    }

    // --- network mirrors & routing ---------------------------------------
    for (std::size_t s = 0; s < num_sensors; ++s) {
      auto& sensor = w.net_.sensor(s);
      io_index(ar, sensor.assigned_target);
      ar.boolean(sensor.monitoring);
      ar.boolean(sensor.recharge_requested);
    }
    for (TargetId t = 0; t < num_targets; ++t) {
      if constexpr (kLoad) {
        Vec2 p;
        ar.f64(p.x);
        ar.f64(p.y);
        w.net_.set_target_position(t, p);
      } else {
        Vec2 p = w.net_.target(t).pos;
        ar.f64(p.x);
        ar.f64(p.y);
      }
    }
    {
      // The mask the routing tree was built from can lag the alive flags (a
      // death crossing may still be queued), so routing is restored from the
      // serialized mask — never recomputed from the restored sensors.
      std::vector<bool> mask;
      if constexpr (!kLoad) mask = w.net_.last_alive_mask();
      io_bool_vec(ar, mask);
      if constexpr (kLoad) w.net_.restore_routing(mask);
    }
    if constexpr (kLoad) {
      w.traffic_.deserialize(ar);
    } else {
      w.traffic_.serialize(ar);
    }

    // --- clustering & activation -----------------------------------------
    if constexpr (kLoad) {
      w.clusters_.members.assign(ar.count(8), std::vector<SensorId>{});
    } else {
      ar.u64(w.clusters_.members.size());
    }
    for (auto& members : w.clusters_.members) io_index_vec(ar, members);
    io_index_vec(ar, w.clusters_.assignment);
    io_index_vec(ar, w.clusters_.loads);
    if constexpr (kLoad) {
      w.rotors_.assign(ar.count(16), ClusterRotor{});
      for (auto& rotor : w.rotors_) {
        std::vector<SensorId> members;
        io_index_vec(ar, members);
        std::size_t cursor = 0;
        ar.size(cursor);
        rotor.restore(std::move(members), cursor);
      }
    } else {
      ar.u64(w.rotors_.size());
      for (const auto& rotor : w.rotors_) {
        io_index_vec(ar, rotor.members());
        ar.size(rotor.cursor());
      }
    }
    io_index_vec(ar, w.active_monitor_);
    io_bool_vec(ar, w.coverable_);
    io_bool_vec(ar, w.covered_);
    io_index_vec(ar, w.alive_members_);
    ar.size(w.alive_count_);
    ar.size(w.coverable_count_);
    ar.size(w.covered_count_);

    // --- recharge requests & claims --------------------------------------
    if constexpr (kLoad) {
      w.requests_.clear();
      std::uint64_t n = 0;
      ar.u64(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        RechargeRequest req;
        io_index(ar, req.sensor);
        io_index(ar, req.cluster);
        ar.f64(req.pos.x);
        ar.f64(req.pos.y);
        double demand = 0.0;
        ar.f64(demand);
        req.demand = Joule{demand};
        ar.boolean(req.critical);
        ar.f64(req.fraction);
        w.requests_.add(req);  // arrival order rebuilds the slot index
      }
    } else {
      const auto& reqs = w.requests_.requests();
      ar.u64(reqs.size());
      for (const RechargeRequest& req : reqs) {
        io_index(ar, req.sensor);
        io_index(ar, req.cluster);
        ar.f64(req.pos.x);
        ar.f64(req.pos.y);
        ar.f64(req.demand.value());
        ar.boolean(req.critical);
        ar.f64(req.fraction);
      }
    }
    ar.vec(w.request_time_);
    {
      // Claims as ascending sensor ids (the requests above are written
      // without their claim bits); claim() refuses an id with no pending
      // request or one listed twice.
      std::vector<SensorId> claimed;
      if constexpr (!kLoad) {
        for (SensorId s = 0; s < num_sensors; ++s) {
          if (w.requests_.contains(s) && w.requests_.request(s).claimed) {
            claimed.push_back(s);
          }
        }
      }
      io_index_vec(ar, claimed);
      if constexpr (kLoad) {
        for (const SensorId s : claimed) w.requests_.claim(s);
      }
    }

    // --- RV fleet ---------------------------------------------------------
    if constexpr (kLoad) {
      std::uint64_t n = 0;
      ar.u64(n);
      WRSN_REQUIRE(n == w.rvs_.size(),
                   "snapshot RV count does not match its config");
    } else {
      ar.u64(w.rvs_.size());
    }
    for (auto& rv : w.rvs_) {
      io_index(ar, rv.id);
      ar.f64(rv.pos.x);
      ar.f64(rv.pos.y);
      io_battery_level(ar, rv.battery);
      io_enum8(ar, rv.state);
      ar.boolean(rv.in_field);
      {
        std::vector<SensorId> queue;
        if constexpr (!kLoad) queue.assign(rv.service_queue.begin(),
                                           rv.service_queue.end());
        io_index_vec(ar, queue);
        if constexpr (kLoad) rv.service_queue.assign(queue.begin(), queue.end());
      }
      ar.u64(rv.epoch);
      ar.f64(rv.distance_traveled);
      ar.f64(rv.energy_delivered);
      ar.size(rv.nodes_served);
    }

    // --- fault-injection cursors & uplink state machine -------------------
    ar.vec(w.uplink_epoch_);
    ar.vec(w.uplink_attempt_);
    io_enum8_vec(ar, w.uplink_pending_);
    ar.vec(w.stranded_since_);
    io_index_vec(ar, w.rv_breakdown_idx_);
    ar.vec(w.breakdown_began_);

    // --- target motion ----------------------------------------------------
    io_vec2_vec(ar, w.target_waypoint_);
    io_bool_vec(ar, w.target_dwelling_);

    // --- event queue (canonical (time, seq) order) ------------------------
    if constexpr (kLoad) {
      std::uint64_t next_seq = 0;
      ar.u64(next_seq);
      const std::size_t n = ar.count(33);  // bytes per io_event
      std::vector<Event> events;
      events.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        Event e;
        io_event(ar, e);
        events.push_back(e);
      }
      w.queue_.restore(events, next_seq);
    } else {
      ar.u64(w.queue_.next_seq());
      const std::vector<Event> events = w.queue_.sorted_events();
      ar.u64(events.size());
      for (Event e : events) io_event(ar, e);
    }

    // --- pending drain marks (insertion order) ----------------------------
    if constexpr (kLoad) {
      std::vector<std::size_t> marks;
      io_index_vec(ar, marks);
      w.drain_marks_.reset(num_sensors);
      for (const std::size_t id : marks) w.drain_marks_.add(id);
    } else {
      io_index_vec(ar, w.drain_marks_.ids());
    }

    // --- metrics accumulators & time series -------------------------------
    if constexpr (kLoad) {
      w.metrics_.deserialize(ar);
    } else {
      w.metrics_.serialize(ar);
    }
    ar.boolean(w.record_series_);
    if constexpr (kLoad) {
      w.series_.assign(ar.count(48), TimeSeriesPoint{});  // bytes per point
    } else {
      ar.u64(w.series_.size());
    }
    for (auto& point : w.series_) io_series_point(ar, point);

    // --- span bookkeeping & latency stamps --------------------------------
    ar.boolean(w.spans_closed_);
    ar.vec(w.request_span_);
    ar.vec(w.rv_tour_span_);
    ar.vec(w.rv_leg_span_);
    ar.vec(w.rv_breakdown_span_);
    ar.vec(w.req_travel_accum_);
    ar.vec(w.leg_began_);
    ar.vec(w.charge_began_);

    // --- post-load fixups -------------------------------------------------
    if constexpr (kLoad) {
      // Rebuilt, not serialized: candidates() sorts its output, so the
      // grid's internal cell order is unobservable.
      w.target_index_.init(w.config_.field_side.value(),
                           w.config_.sensing_range.value(),
                           w.current_target_positions());
    }
  }
};

WorldSnapshot World::checkpoint() const {
  WorldSnapshot snap;
  snap.version = kSnapshotSchemaVersion;
  snap.config_text = config_to_text(config_);
  snap.engine = static_cast<std::uint8_t>(engine_);
  snap.now = now_;
  snap.events_processed = events_processed_;
  BinWriter w;
  SnapshotAccess::io(*this, w);
  snap.state = w.take();
  if (spans_ != nullptr) {
    BinWriter spans;
    spans_->serialize(spans);
    snap.span_state = spans.take();
  }
  return snap;
}

World::World(const WorldSnapshot& snap)
    : World(config_from_text(snap.config_text),
            static_cast<WorldEngine>(snap.engine)) {
  load_state(snap);
}

void World::load_state(const WorldSnapshot& snap) {
  require_schema_version(snap.version);
  BinReader r(snap.state);
  SnapshotAccess::io(*this, r);
  r.expect_end();
}

std::string serialize_snapshot(const WorldSnapshot& snap) {
  BinWriter w;
  w.u32(snap.version);
  w.str(snap.config_text);
  w.u8(snap.engine);
  w.f64(snap.now);
  w.u64(snap.events_processed);
  w.str(snap.span_state);
  w.str(snap.state);
  std::string out{kMagic};
  out += w.bytes();
  BinWriter trailer;
  trailer.u64(fnv1a64(out));
  out += trailer.bytes();
  return out;
}

WorldSnapshot deserialize_snapshot(std::string_view bytes) {
  WRSN_REQUIRE(bytes.size() >= kMagic.size() + 8, "snapshot file too short");
  WRSN_REQUIRE(bytes.substr(0, kMagic.size()) == kMagic,
               "not a WRSN snapshot (bad magic)");
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  BinReader trailer(bytes.substr(bytes.size() - 8));
  std::uint64_t stored = 0;
  trailer.u64(stored);
  WRSN_REQUIRE(stored == fnv1a64(payload),
               "snapshot checksum mismatch (truncated or corrupt)");
  BinReader r(payload.substr(kMagic.size()));
  WorldSnapshot snap;
  r.u32(snap.version);
  require_schema_version(snap.version);
  r.str(snap.config_text);
  r.u8(snap.engine);
  r.f64(snap.now);
  r.u64(snap.events_processed);
  r.str(snap.span_state);
  r.str(snap.state);
  r.expect_end();
  return snap;
}

void save_snapshot_file(const std::string& path, const WorldSnapshot& snap) {
  write_file_atomic(path, serialize_snapshot(snap));
}

WorldSnapshot load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  WRSN_REQUIRE(in.is_open(), "cannot open snapshot file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize_snapshot(buf.str());
}

std::string snapshot_manifest_meta_line() {
  JsonWriter w;
  w.begin_object()
      .field("record", "meta")
      .field("schema", "wrsn.snapshot")
      .field("version", std::int64_t{1});
  w.key("fields").begin_array();
  for (const char* f : {"id", "file", "t_s", "events", "bytes", "terminal"}) {
    w.value(f);
  }
  w.end_array().end_object();
  return w.str();
}

std::string snapshot_manifest_line(const SnapshotManifestRecord& rec) {
  JsonWriter w;
  w.begin_object()
      .field("record", "snapshot")
      .field("id", rec.id)
      .field("file", rec.file)
      .field("t_s", rec.t_s)
      .field("events", rec.events)
      .field("bytes", rec.bytes)
      .field("terminal", rec.terminal)
      .end_object();
  return w.str();
}

CheckpointWriter::CheckpointWriter(std::string prefix)
    : prefix_(std::move(prefix)), manifest_path_(prefix_ + ".manifest.jsonl") {
  // `--checkpoint runs/exp1/ck` should just work: create the parent dirs.
  const auto parent = std::filesystem::path(prefix_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const bool fresh = !static_cast<bool>(std::ifstream(manifest_path_));
  manifest_ = std::make_unique<JournalWriter>(manifest_path_);
  if (fresh) manifest_->append(snapshot_manifest_meta_line());
}

std::string CheckpointWriter::save(const World& world, bool terminal) {
  const WorldSnapshot snap = world.checkpoint();
  const std::string bytes = serialize_snapshot(snap);
  char tag[16];
  std::snprintf(tag, sizeof tag, ".%06llu.snap",
                static_cast<unsigned long long>(next_id_));
  const std::string path = prefix_ + tag;
  write_file_atomic(path, bytes);
  SnapshotManifestRecord rec;
  rec.id = next_id_++;
  rec.file = path;
  rec.t_s = snap.now;
  rec.events = snap.events_processed;
  rec.bytes = bytes.size();
  rec.terminal = terminal;
  manifest_->append(snapshot_manifest_line(rec));
  return path;
}

}  // namespace wrsn
