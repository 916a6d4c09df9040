// omu::MapperConfig — the one builder that configures every mapping mode.
//
// A MapperConfig describes a whole mapping session: metric resolution,
// sensor model, which backend integrates updates (serial octree, the OMU
// accelerator model, the tiled out-of-core world map, or the hybrid
// dense-front write absorber), and the mode-specific knobs grouped into
// one options struct per backend (WorldOptions, HybridOptions,
// AcceleratorOptions).
// Mapper::create validates the combination up front and returns an
// actionable Status::invalid_argument naming the offending field and
// value — a misconfiguration is told at build time, never via a deep
// crash later.
//
//   auto mapper = omu::Mapper::create(
//       omu::MapperConfig()
//           .resolution(0.2)
//           .backend(omu::BackendKind::kTiledWorld)
//           .world({.directory = "campus_world", .resident_byte_budget = 64 << 20}));
//
// This header is part of the installed public API and must stay
// self-contained: it may include only the C++ standard library and other
// include/omu/ headers (internal types appear as forward declarations
// only).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "omu/status.hpp"
#include "omu/telemetry.hpp"

namespace omu::accel {
struct OmuConfig;  // internal accelerator model configuration (src/accel)
}

namespace omu {

/// Which engine integrates the voxel-update stream. The values travel
/// on the wire (service SessionSpec); 2 is retired and never reused.
enum class BackendKind {
  kOctree = 0,       ///< serial software octree (the reference implementation)
  kAccelerator = 1,  ///< cycle-level OMU accelerator model
  kTiledWorld = 3,   ///< tiled out-of-core world map (disk paging, bounded RAM)
  kHybrid = 4,       ///< dense scrolling-window write absorber over a back backend
};

/// Short stable name of a backend kind ("octree", "accelerator", ...).
const char* to_string(BackendKind kind);

/// The log-odds sensor model (OctoMap semantics, OctoMap defaults): an
/// endpoint hit adds `log_hit`, a ray pass-through adds `log_miss`, values
/// clamp into [clamp_min, clamp_max], occupied iff above `occ_threshold`.
struct SensorModel {
  float log_hit = 0.85f;     ///< endpoint-hit increment (must be > 0)
  float log_miss = -0.4f;    ///< pass-through increment (must be < 0)
  float clamp_min = -2.0f;   ///< lower clamp (must be < clamp_max)
  float clamp_max = 3.5f;    ///< upper clamp
  float occ_threshold = 0.0f;  ///< occupied iff log-odds > threshold
  /// Snap values/updates to the accelerator's Q5.10 fixed-point grid so
  /// software and accelerator maps agree bit-exactly (default on).
  bool quantized = true;
  /// Rays longer than this integrate as free space only, like OctoMap's
  /// maxrange. Non-positive = unlimited.
  double max_range = -1.0;
  /// De-duplicate voxel updates within a scan (OctoMap insertPointCloud
  /// semantics). Default off: raw per-ray updates, the paper's accounting.
  bool deduplicate = false;
};

/// Common accelerator-model knobs (BackendKind::kAccelerator). For the
/// full cycle-cost surface use MapperConfig::accelerator_config.
struct AcceleratorOptions {
  std::size_t pe_count = 8;          ///< parallel PE units (1..8)
  std::size_t banks_per_pe = 8;      ///< TreeMem banks per PE
  std::size_t rows_per_bank = 4096;  ///< 64-bit rows per bank (4096 = 32 KiB)
  double clock_hz = 1.0e9;           ///< modeled clock
  bool reuse_pruned_rows = true;     ///< prune address manager row recycling
};

/// Options of the tiled out-of-core world map (BackendKind::kTiledWorld,
/// or the back backend of a hybrid session).
struct WorldOptions {
  /// Manifest + tiles/ directory. Empty = purely in-memory world.
  std::string directory;
  /// Hard resident-tile byte budget (0 = unbounded; a nonzero budget
  /// requires `directory` so cold tiles have somewhere to go).
  std::size_t resident_byte_budget = 0;
  /// log2 tile span in finest voxels per axis (1..16).
  int tile_shift = 12;
};

/// Options of the hybrid dense-front write absorber
/// (BackendKind::kHybrid): a fixed-size scrolling voxel window absorbs
/// the update stream near the sensor and flushes per-voxel aggregated
/// deltas into `back_backend` — bit-identical to inserting directly, but
/// each hot voxel costs one tree edit per flush instead of one per ray.
struct HybridOptions {
  /// Dense window edge length in voxels (power of two in [2, 256]).
  uint32_t window_voxels = 64;
  /// Flush the window into the back backend once this many distinct
  /// voxels are dirty (0 = only at scrolls and explicit flush boundaries,
  /// i.e. a high water of window_voxels^3).
  std::size_t flush_high_water = 0;
  /// The durable map behind the window. Any kind except kAccelerator
  /// (its map lives in modeled TreeMem and cannot absorb aggregated
  /// deltas) and kHybrid (no nesting). Configure a kTiledWorld back
  /// through world() as usual.
  BackendKind back_backend = BackendKind::kOctree;
};

/// Fluent builder for a Mapper session. Setters return *this so a whole
/// configuration reads as one expression; validate() (also run by
/// Mapper::create) reports the first offending field by name and value.
class MapperConfig {
 public:
  MapperConfig() = default;

  // ---- Fluent setters ----------------------------------------------------

  /// Voxel edge length in metres (default 0.2, the paper's resolution).
  MapperConfig& resolution(double metres) {
    resolution_ = metres;
    return *this;
  }

  /// Which engine integrates updates (default kOctree).
  MapperConfig& backend(BackendKind kind) {
    backend_ = kind;
    return *this;
  }

  /// Log-odds sensor model + insertion policy.
  MapperConfig& sensor_model(const SensorModel& model) {
    sensor_model_ = model;
    return *this;
  }

  /// Tiled-world options (kTiledWorld sessions, or hybrid sessions whose
  /// back_backend is kTiledWorld).
  MapperConfig& world(const WorldOptions& options) {
    world_ = options;
    return *this;
  }

  /// Hybrid write-absorber options (kHybrid only).
  MapperConfig& hybrid(const HybridOptions& options) {
    hybrid_ = options;
    hybrid_set_ = true;
    return *this;
  }

  /// Common accelerator knobs (kAccelerator only).
  MapperConfig& accelerator(const AcceleratorOptions& options) {
    accelerator_ = options;
    return *this;
  }

  /// Telemetry options (any backend): timing metrics default on, the
  /// trace journal default off (see omu/telemetry.hpp).
  MapperConfig& telemetry(const TelemetryOptions& options) {
    telemetry_ = options;
    return *this;
  }

  /// Advanced: a complete internal accel::OmuConfig (cycle costs, queue
  /// depths, issue rates — everything). Takes precedence over
  /// accelerator(); its resolution/params fields are overridden by this
  /// config's resolution() and sensor_model(). Requires internal headers
  /// to *construct* the argument, so it lives behind the same stability
  /// caveat as Mapper's internal_*() accessors.
  MapperConfig& accelerator_config(const accel::OmuConfig& config);

  // ---- Getters -----------------------------------------------------------

  double resolution() const { return resolution_; }
  BackendKind backend() const { return backend_; }
  const SensorModel& sensor_model() const { return sensor_model_; }
  const WorldOptions& world() const { return world_; }
  const HybridOptions& hybrid() const { return hybrid_; }
  const TelemetryOptions& telemetry() const { return telemetry_; }
  const std::optional<AcceleratorOptions>& accelerator() const { return accelerator_; }
  /// Non-null when accelerator_config() was used.
  const accel::OmuConfig* accelerator_config() const { return accel_config_.get(); }

  /// Checks the whole configuration; the returned error names the first
  /// offending field and the value it held. Mapper::create calls this.
  Status validate() const;

 private:
  double resolution_ = 0.2;
  BackendKind backend_ = BackendKind::kOctree;
  SensorModel sensor_model_{};
  WorldOptions world_{};
  HybridOptions hybrid_{};
  TelemetryOptions telemetry_{};
  std::optional<AcceleratorOptions> accelerator_;
  // shared_ptr so MapperConfig stays copyable with only a forward
  // declaration of the internal type (the control block owns the deleter).
  std::shared_ptr<const accel::OmuConfig> accel_config_;
  bool hybrid_set_ = false;  ///< hybrid({...}) was called
};

}  // namespace omu
