// Scan integration: turns one point cloud plus its sensor origin into a
// stream of voxel updates against a map backend.
//
// The inserter is the composition of the three explicit ingest stages:
//   1. ray generation (ray_generator.hpp) — DDA over the voxel grid,
//      per-ray free cells plus occupied endpoint;
//   2. dedup policy (dedup_policy.hpp) — kRayByRay streams raw updates,
//      kDiscretized de-duplicates within the scan (see insert_policy.hpp);
//   3. dispatch (map_backend.hpp) — the resulting UpdateBatch is applied
//      to a MapBackend: the serial octree, the accelerator model or the
//      tiled world.
// Both insert modes produce the same kind of UpdateBatch, and any backend
// consumes it, so one ray-cast scan can drive every platform with
// bit-identical work.
#pragma once

#include <memory>

#include "geom/pointcloud.hpp"
#include "geom/pose.hpp"
#include "geom/vec3.hpp"
#include "map/dedup_policy.hpp"
#include "map/insert_policy.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "map/ray_generator.hpp"
#include "map/update_batch.hpp"
#include "obs/telemetry.hpp"

namespace omu::map {

/// Integrates scans into a map backend.
class ScanInserter {
 public:
  /// Serial-octree convenience: wraps `tree` in an OctreeBackend owned by
  /// the inserter (the classic OctoMap-style usage).
  explicit ScanInserter(OccupancyOctree& tree, InsertPolicy policy = InsertPolicy{});

  /// Dispatches to an arbitrary backend (accelerator, tiled world, ...).
  explicit ScanInserter(MapBackend& backend, InsertPolicy policy = InsertPolicy{});

  ScanInserter(const ScanInserter&) = delete;
  ScanInserter& operator=(const ScanInserter&) = delete;

  const InsertPolicy& policy() const { return policy_; }
  MapBackend& backend() { return *backend_; }

  /// Resolves the ingest instrumentation handles ("ingest.insert_ns",
  /// "ingest.prepare_ns", "ingest.apply_ns") against `telemetry`. Null
  /// detaches; handles are resolved once here, so record sites stay a
  /// null-check when telemetry is off.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Integrates a world-frame point cloud captured from `origin`.
  ScanInsertResult insert_scan(const geom::PointCloud& world_points, const geom::Vec3d& origin);

  /// Integrates a sensor-frame point cloud captured at `pose` (the common
  /// robot-driver interface): points are transformed into the world frame
  /// and the ray origin is the pose translation.
  ScanInsertResult insert_scan(const geom::PointCloud& sensor_points, const geom::Pose& pose);

  /// Computes the update stream for a scan without applying it — the
  /// free/occupied voxel queues the OMU ray-casting unit would emit —
  /// appending to `out`. Returns the same summary as insert_scan.
  ScanInsertResult collect_updates(const geom::PointCloud& world_points,
                                   const geom::Vec3d& origin, UpdateBatch& out);

  /// Applies a precomputed update stream to the backend (used to feed
  /// identical work to several platforms).
  void apply_updates(const UpdateBatch& updates);

 private:
  std::unique_ptr<OctreeBackend> owned_backend_;  // set in octree mode only
  MapBackend* backend_;
  PhaseStats* ray_stats_;       // backend's counters, or local_ray_stats_
  PhaseStats local_ray_stats_;  // used when the backend keeps none
  InsertPolicy policy_;
  RayUpdateGenerator generator_;
  UpdateDeduper deduper_;
  UpdateBatch scratch_;
  std::size_t last_scan_updates_ = 0;  // reserve hint for the next scan
  obs::Histogram* insert_ns_ = nullptr;  // "ingest.insert_ns"
  obs::Histogram* apply_ns_ = nullptr;   // "ingest.apply_ns"
  obs::TraceJournal* journal_ = nullptr;
};

}  // namespace omu::map
