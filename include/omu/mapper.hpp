// omu::Mapper — the public session facade over every mapping backend.
//
// One API for the whole library: a Mapper is created from a MapperConfig
// (or opened from a saved world directory), integrates sensor scans,
// publishes immutable MapViews at flush boundaries, answers live queries,
// and persists its map — whichever engine the config selected:
//
//   create/open -> insert -> flush -> snapshot()/classify
//               -> save/save_map -> close
//
// Internally the facade composes the existing subsystems — the serial
// octree, the OMU accelerator model, the tiled out-of-core world map, the
// hybrid dense-front write absorber
// (a scrolling voxel window that follows the sensor origin and flushes
// aggregated per-voxel deltas into a back backend), and the concurrent
// query/view services —
// so every combination the config can express routes through one code
// path, and maps built through the facade are bit-identical to hand-wired
// sessions of the same backend (tests/facade enforces this).
//
// Error handling: every fallible call returns Status/Result — no internal
// exception escapes the facade. Queries on an immutable MapView cannot
// fail and return plain values.
//
// Stability contract: include/omu/ headers are the supported API surface;
// everything under src/ is internal and may change in any release. The
// internal_*() accessors below deliberately pierce the facade (returning
// pointers to internal types that require src/ headers to use) for
// benchmarking and instrumentation; code using them opts out of the
// stability contract.
//
// This header is part of the installed public API and must stay
// self-contained: it may include only the C++ standard library and other
// include/omu/ headers (internal types appear as forward declarations
// only).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "omu/config.hpp"
#include "omu/map_view.hpp"
#include "omu/status.hpp"
#include "omu/telemetry.hpp"
#include "omu/types.hpp"

// Internal subsystem types reachable through the internal_*() escape
// hatches; using them requires the src/ headers and voids the stability
// contract.
namespace omu::map {
class MapBackend;
class OccupancyOctree;
}  // namespace omu::map
namespace omu::accel {
class OmuAccelerator;
}
namespace omu::world {
class TiledWorldMap;
}
namespace omu::query {
class QueryService;
}
namespace omu::localgrid {
class HybridMapBackend;
}

namespace omu {

/// A mapping session (move-only; owns its backend, inserter and query
/// services). Thread safety matches the underlying backend: one inserting
/// thread; snapshot() and MapView queries are safe from any thread while
/// the session is open. close() and destruction must not race other
/// calls on the same Mapper (synchronize externally, as with any C++
/// object's destruction) — MapViews already handed out stay valid and
/// lock-free forever.
class Mapper {
 public:
  /// Builds a session from a validated configuration. A non-ok result
  /// names the offending config field (validation) or the failure
  /// (e.g. the world directory already holds a world — reopen via open()).
  static Result<Mapper> create(const MapperConfig& config);

  /// Session-side options for reopening a saved world. The occupancy
  /// model is stored in the world manifest and restored from there; the
  /// ray *policy* (max_range, deduplicate) is per-session and not
  /// persisted — pass the original values here when the saving session
  /// used a non-default policy, or the reopened session integrates new
  /// scans under the defaults.
  struct OpenOptions {
    std::size_t resident_byte_budget = 0;  ///< 0 = unbounded
    double max_range = -1.0;               ///< see SensorModel::max_range
    bool deduplicate = false;              ///< see SensorModel::deduplicate
  };

  /// Reopens a tiled world persisted by save(): resumes mapping and
  /// querying under the given options. kNotFound when the directory holds
  /// no world manifest; kDataLoss/kIoError when the manifest or a tile
  /// fails validation (the message names the culprit).
  static Result<Mapper> open(const std::string& world_directory, const OpenOptions& options);
  static Result<Mapper> open(const std::string& world_directory,
                             std::size_t resident_byte_budget = 0) {
    OpenOptions options;
    options.resident_byte_budget = resident_byte_budget;
    return open(world_directory, options);
  }

  Mapper(Mapper&&) noexcept;
  Mapper& operator=(Mapper&&) noexcept;
  Mapper(const Mapper&) = delete;
  Mapper& operator=(const Mapper&) = delete;
  /// Destruction closes the session (without saving; call save() first
  /// for persistence beyond what eviction already wrote).
  ~Mapper();

  // ---- Ingest ------------------------------------------------------------

  /// Integrates one scan described by a non-owning ScanView: endpoints
  /// ray-cast from the shared origin, or — when scan.ray_origins is set —
  /// from each ray's own origin (consecutive rays sharing an origin are
  /// integrated as one scan, so a sorted ray stream costs the same as a
  /// plain scan). This is the one ingest entry point; every other insert
  /// overload and the legacy insert_scan/insert_rays names funnel here.
  Status insert(const ScanView& scan);

  /// Integrates `point_count` world-frame float32 endpoints as packed xyz
  /// triples, ray-cast from `origin`.
  Status insert(const float* xyz, std::size_t point_count, const Vec3& origin);

  /// Same, from a vector of Points.
  Status insert(const std::vector<Point>& points, const Vec3& origin) {
    ScanView scan;
    scan.points = points.empty() ? nullptr : points.data();
    scan.point_count = points.size();
    scan.origin = origin;
    return insert(scan);
  }

  /// Integrates explicit rays (free space along each ray + occupied
  /// endpoint), each from its own origin.
  Status insert(const Ray* rays, std::size_t ray_count);
  Status insert(const std::vector<Ray>& rays) {
    return insert(rays.empty() ? nullptr : rays.data(), rays.size());
  }

  /// Retires any pending backlog (accelerator pipeline, absorber window,
  /// dirty tiles) and publishes a fresh snapshot/view — the
  /// epoch boundary snapshot() readers observe.
  Status flush();

  // ---- Read path ---------------------------------------------------------

  /// The most recently published immutable view (create() publishes an
  /// initial empty one, so this never fails on an open session). Content
  /// is as of the last flush(); hold one view per query batch.
  Result<MapView> snapshot() const;

  /// Classifies a position against the *live* map (reflects updates
  /// applied so far, which for asynchronous backends may trail the last
  /// insert until flush()). Concurrent readers should prefer snapshot().
  Result<Occupancy> classify(const Vec3& position);

  // ---- Persistence -------------------------------------------------------

  /// Persists a tiled world into its configured world_directory (manifest
  /// + tile files; the session stays usable). kFailedPrecondition for
  /// non-world sessions — use save_map().
  Status save();

  /// Writes the merged map as one checksummed octree file (octree_io v2)
  /// — any backend except kTiledWorld, whose out-of-core content belongs
  /// in a world directory (use save()).
  Status save_map(const std::string& path);

  /// Flushes and releases the session; every later call fails with
  /// kFailedPrecondition. Idempotent. The destructor closes implicitly.
  Status close();

  /// False after close() (or on a moved-from mapper).
  bool is_open() const;

  // ---- Introspection -----------------------------------------------------

  /// The validated configuration the session was built from.
  const MapperConfig& config() const;
  BackendKind backend() const;
  /// Backend's human-readable name ("octree", "omu-accelerator",
  /// "tiled-world/shift:12", "hybrid[...]").
  std::string backend_name() const;
  double resolution() const;

  /// Cheap cumulative session counters, grouped per subsystem:
  /// stats()->ingest / .publication / .paging / .absorber. The groups are
  /// views over the session's named telemetry metrics (the same numbers
  /// telemetry() exports as counters). kFailedPrecondition after close().
  Result<MapperStats> stats() const;

  /// Full telemetry export: every named counter, gauge and latency
  /// histogram the session's subsystems recorded, plus the trace journal
  /// when TelemetryOptions::journal is on (see omu/telemetry.hpp for the
  /// metric catalog and the JSON/Prometheus serializations).
  /// kFailedPrecondition after close().
  Result<TelemetrySnapshot> telemetry() const;

  /// Paging counters (sessions with a tiled world — kTiledWorld or
  /// hybrid-over-world; kFailedPrecondition otherwise). The same numbers
  /// appear in stats().paging.
  Result<WorldPagingStats> paging_stats() const;

  /// Hash of the canonical merged leaf content — equal hashes mean
  /// bit-identical maps across any two sessions/backends. Flushes first.
  Result<uint64_t> content_hash();

  // ---- Internal access (voids the stability contract) --------------------

  /// The live backend, or nullptr when closed. Using the returned object
  /// requires internal src/ headers.
  map::MapBackend* internal_backend();
  /// Mode-specific engines; nullptr when the session runs another backend.
  map::OccupancyOctree* internal_octree();
  accel::OmuAccelerator* internal_accelerator();
  world::TiledWorldMap* internal_world();
  /// The hybrid write absorber (kHybrid sessions). The back backend is
  /// still reachable through the engine accessors above (e.g.
  /// internal_world() for a hybrid-over-world session).
  localgrid::HybridMapBackend* internal_hybrid();
  /// The snapshot publication service (non-world sessions; nullptr for
  /// kTiledWorld, whose views publish through its internal view service).
  query::QueryService* internal_query_service();

 private:
  struct Impl;
  explicit Mapper(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace omu
