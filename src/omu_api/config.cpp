// MapperConfig validation: every rejection names the offending field and
// the value it held, so a misconfigured session is diagnosed at build
// time instead of via a deep crash in a subsystem.
#include "omu/config.hpp"

#include <cmath>
#include <memory>
#include <sstream>

#include "accel/omu_config.hpp"
#include "map/ockey.hpp"

namespace omu {

namespace {

/// Default-precision numeric formatting ("0.2", not "0.200000").
template <typename T>
std::string fmt(T value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

bool is_power_of_two(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Rejects a `field` holding no BackendKind enumerator (a value cast from
/// a wire byte or an integer may name none), naming the value it held.
Status validate_backend_kind(const char* field, BackendKind kind) {
  switch (kind) {
    case BackendKind::kOctree:
    case BackendKind::kAccelerator:
    case BackendKind::kTiledWorld:
    case BackendKind::kHybrid: return Status();
  }
  return Status::invalid_argument(std::string(field) + ": unknown backend kind " +
                                  fmt(static_cast<int>(kind)) +
                                  " (expected kOctree=0, kAccelerator=1, kTiledWorld=3 or "
                                  "kHybrid=4)");
}

/// Range/sanity checks shared by AcceleratorOptions and a full OmuConfig
/// (`field` is the builder-field prefix for the error message).
Status validate_accel_shape(const std::string& field, std::size_t pe_count,
                            std::size_t banks_per_pe, std::size_t rows_per_bank,
                            double clock_hz) {
  if (pe_count < 1 || pe_count > 8) {
    return Status::invalid_argument(field + ".pe_count: must be in [1, 8] (the scheduler routes "
                                    "by first-level branch), got " +
                                    fmt(pe_count));
  }
  if (banks_per_pe == 0) {
    return Status::invalid_argument(field + ".banks_per_pe: must be >= 1, got 0");
  }
  if (rows_per_bank == 0) {
    return Status::invalid_argument(field + ".rows_per_bank: must be >= 1, got 0");
  }
  if (!(clock_hz > 0.0) || !std::isfinite(clock_hz)) {
    return Status::invalid_argument(field + ".clock_hz: must be a positive finite frequency, got " +
                                    fmt(clock_hz));
  }
  return Status();
}

}  // namespace

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kOctree: return "octree";
    case BackendKind::kAccelerator: return "accelerator";
    case BackendKind::kTiledWorld: return "tiled-world";
    case BackendKind::kHybrid: return "hybrid";
  }
  return "?";
}

MapperConfig& MapperConfig::accelerator_config(const accel::OmuConfig& config) {
  accel_config_ = std::make_shared<const accel::OmuConfig>(config);
  return *this;
}

// ---- Validation -------------------------------------------------------------

Status MapperConfig::validate() const {
  if (Status s = validate_backend_kind("backend", backend_); !s.ok()) return s;
  if (Status s = validate_backend_kind("hybrid.back_backend", hybrid_.back_backend); !s.ok()) {
    return s;
  }
  if (!(resolution_ > 0.0) || !std::isfinite(resolution_)) {
    return Status::invalid_argument(
        "resolution: must be a positive finite voxel edge length in metres, got " +
        fmt(resolution_));
  }

  const SensorModel& sm = sensor_model_;
  if (!(sm.log_hit > 0.0f)) {
    return Status::invalid_argument("sensor_model.log_hit: must be > 0 (an endpoint hit raises "
                                    "occupancy), got " +
                                    fmt(sm.log_hit));
  }
  if (!(sm.log_miss < 0.0f)) {
    return Status::invalid_argument("sensor_model.log_miss: must be < 0 (a pass-through lowers "
                                    "occupancy), got " +
                                    fmt(sm.log_miss));
  }
  if (!(sm.clamp_min < sm.clamp_max)) {
    return Status::invalid_argument("sensor_model.clamp_min: must be below clamp_max, got "
                                    "clamp_min=" +
                                    fmt(sm.clamp_min) + " clamp_max=" + fmt(sm.clamp_max));
  }

  // The backend kinds that actually integrate updates in this session:
  // for hybrid, the back backend's knobs apply.
  const bool is_hybrid = backend_ == BackendKind::kHybrid;
  const BackendKind effective = is_hybrid ? hybrid_.back_backend : backend_;

  const bool wants_world = !world_.directory.empty() || world_.resident_byte_budget > 0;
  if (wants_world && effective != BackendKind::kTiledWorld) {
    const std::string field =
        !world_.directory.empty() ? "world.directory" : "world.resident_byte_budget";
    const std::string value = !world_.directory.empty()
                                  ? "\"" + world_.directory + "\""
                                  : fmt(world_.resident_byte_budget) + " bytes";
    if (effective == BackendKind::kAccelerator) {
      return Status::invalid_argument(
          field + ": " + value + " is unsupported with the accelerator backend (its map lives in "
          "modeled TreeMem and cannot page to disk); use backend(BackendKind::kTiledWorld) for "
          "out-of-core mapping");
    }
    return Status::invalid_argument(
        field + ": " + value + " only applies to a tiled-world engine "
        "(backend(BackendKind::kTiledWorld), or a hybrid session whose back_backend is "
        "kTiledWorld); for a single-file map of the " + std::string(to_string(effective)) +
        " backend use Mapper::save_map");
  }
  if (effective == BackendKind::kTiledWorld) {
    if (world_.resident_byte_budget > 0 && world_.directory.empty()) {
      return Status::invalid_argument(
          "world.resident_byte_budget: " + fmt(world_.resident_byte_budget) +
          " bytes requires world.directory — cold tiles need a directory to be evicted to");
    }
    if (world_.tile_shift < 1 || world_.tile_shift > map::kTreeDepth) {
      return Status::invalid_argument("world.tile_shift: must be in [1, " + fmt(map::kTreeDepth) +
                                      "] (log2 voxels per tile axis), got " +
                                      fmt(world_.tile_shift));
    }
  }

  if (hybrid_set_ && !is_hybrid) {
    return Status::invalid_argument(
        "hybrid: HybridOptions were set but backend is " + std::string(to_string(backend_)) +
        "; they only apply to backend(BackendKind::kHybrid)");
  }
  if (is_hybrid) {
    if (hybrid_.back_backend == BackendKind::kAccelerator) {
      return Status::invalid_argument(
          "hybrid.back_backend: kAccelerator cannot sit behind the hybrid window — the "
          "accelerator model integrates raw per-ray updates in modeled TreeMem and does not "
          "accept aggregated voxel deltas");
    }
    if (hybrid_.back_backend == BackendKind::kHybrid) {
      return Status::invalid_argument(
          "hybrid.back_backend: kHybrid cannot nest inside itself; pick the durable map kind "
          "(kOctree or kTiledWorld)");
    }
    if (!is_power_of_two(hybrid_.window_voxels) || hybrid_.window_voxels < 2 ||
        hybrid_.window_voxels > 256) {
      return Status::invalid_argument(
          "hybrid.window_voxels: must be a power of two in [2, 256] (toroidal addressing masks "
          "key bits), got " + fmt(hybrid_.window_voxels));
    }
    const std::size_t capacity = static_cast<std::size_t>(hybrid_.window_voxels) *
                                 hybrid_.window_voxels * hybrid_.window_voxels;
    if (hybrid_.flush_high_water > capacity) {
      return Status::invalid_argument(
          "hybrid.flush_high_water: " + fmt(hybrid_.flush_high_water) +
          " exceeds the window capacity " + fmt(capacity) + " (window_voxels^3 = " +
          fmt(hybrid_.window_voxels) + "^3); the dirty count can never reach it");
    }
    if (!sm.quantized) {
      return Status::invalid_argument(
          "sensor_model.quantized: false is incompatible with backend(BackendKind::kHybrid) — "
          "the write absorber's aggregated deltas are bit-exact only on the Q5.10 fixed-point "
          "lattice");
    }
  }

  if (telemetry_.journal && telemetry_.journal_capacity == 0) {
    return Status::invalid_argument(
        "telemetry.journal_capacity: must be >= 1 events when the trace journal is enabled, "
        "got 0");
  }
  if (telemetry_.journal_capacity > (std::size_t{1} << 24)) {
    return Status::invalid_argument(
        "telemetry.journal_capacity: " + fmt(telemetry_.journal_capacity) +
        " events exceeds the 2^24 bound (the journal is a bounded debugging ring, not a full "
        "trace store)");
  }
  if ((accelerator_.has_value() || accel_config_) && backend_ != BackendKind::kAccelerator) {
    return Status::invalid_argument(
        std::string(accel_config_ ? "accelerator_config" : "accelerator") +
        ": accelerator options were set but backend is " + std::string(to_string(backend_)) +
        "; they only apply to backend(BackendKind::kAccelerator)");
  }
  if (accel_config_) {
    const accel::OmuConfig& c = *accel_config_;
    if (Status s = validate_accel_shape("accelerator_config", c.pe_count, c.banks_per_pe,
                                        c.rows_per_bank, c.clock_hz);
        !s.ok()) {
      return s;
    }
  } else if (accelerator_.has_value()) {
    const AcceleratorOptions& o = *accelerator_;
    if (Status s = validate_accel_shape("accelerator", o.pe_count, o.banks_per_pe,
                                        o.rows_per_bank, o.clock_hz);
        !s.ok()) {
      return s;
    }
  }

  return Status();
}

}  // namespace omu
