// The map backend abstraction: one interface for every consumer of the
// voxel-update stream.
//
// Stage 3 of the scan-ingest pipeline dispatches UpdateBatches to a
// MapBackend; today's implementations are the serial software octree
// (OctreeBackend below), the OMU accelerator model
// (accel::AcceleratorBackend), the tiled out-of-core world map
// (world::TiledWorldMap) and the hybrid write absorber
// (localgrid::HybridMapBackend). All of them integrate the same batches
// and export the same canonical leaf records, so maps built on any backend
// can be compared bit for bit — the property every equivalence suite in
// tests/ leans on.
//
// apply() may be deferred (the accelerator streams, the hybrid window
// absorbs); flush() is the barrier that retires any backlog. classify() and
// the leaf exports reflect the updates applied so far — call flush() first
// when an exact point-in-time snapshot is needed.
#pragma once

#include <string>
#include <vector>

#include "geom/vec3.hpp"
#include "map/aggregated_delta.hpp"
#include "map/occupancy_octree.hpp"
#include "map/ockey.hpp"
#include "map/update_batch.hpp"

namespace omu::obs {
class Telemetry;  // obs/telemetry.hpp
}

namespace omu::map {

/// Everything a backend exports to build an immutable map snapshot (see
/// query::MapSnapshot): the leaf list plus the metric and sensor-model
/// parameters needed to answer queries against it. Kept in the map layer
/// so backends don't depend on the query layer.
struct MapSnapshotData {
  /// Any order. export_snapshot_data() gives canonical (packed-key, depth)
  /// order; MapSnapshot::build folds Morton order without a sort.
  std::vector<LeafRecord> leaves;
  double resolution = 0.2;
  OccupancyParams params{};
};

/// Delta form of the snapshot export (incremental flush): either the whole
/// map (`full`), or only the leaves of the first-level branches whose
/// content changed since the caller's previous export — the input of
/// query::MapSnapshot::build_incremental, which splices these onto the
/// unchanged branches' chunks shared from the previous snapshot. A delta
/// with `!full` and an empty dirty_mask means "nothing changed": the
/// caller can skip publication entirely.
struct MapSnapshotDelta {
  bool full = true;
  /// When !full: bit b set = branch b's complete leaf set is in `leaves`
  /// (an empty branch contributes no records but still counts as dirty).
  uint8_t dirty_mask = 0xFF;
  /// The whole map (full) or the dirty branches' leaves. The octree
  /// exports Morton (DFS) order, branch by branch; the default export is
  /// canonical order. MapSnapshot accepts either.
  std::vector<LeafRecord> leaves;
  double resolution = 0.2;
  OccupancyParams params{};
  /// Harvest tag to pass back as since_generation on the next export; 0 =
  /// this backend does not track deltas (every export is full).
  uint64_t generation = 0;
};

/// Abstract consumer of voxel-update batches.
class MapBackend {
 public:
  virtual ~MapBackend() = default;

  /// Short human-readable backend name (for bench tables and logs).
  virtual std::string name() const = 0;

  /// The key<->metric coder of the backend's map.
  virtual const KeyCoder& coder() const = 0;

  /// The sensor-model parameters the backend classifies against.
  virtual OccupancyParams occupancy_params() const = 0;

  /// Integrates one batch of voxel updates (possibly asynchronously).
  virtual void apply(const UpdateBatch& batch) = 0;

  /// Integrates a batch of aggregated per-voxel deltas — the flush unit of
  /// the hybrid dense-front absorber (localgrid/hybrid_backend.hpp). Each
  /// record carries the exact composition of one voxel's pending update
  /// sequence (aggregated_delta.hpp); applying it leaves the map
  /// bit-identical to replaying that sequence through apply(). Callers
  /// pass records in ascending packed-key order (the defined deterministic
  /// flush order) and follow the same single-producer contract as apply().
  /// Applied synchronously: asynchronous backends first retire any queued
  /// apply() backlog so per-voxel ordering holds. The default throws
  /// std::logic_error — backends that cannot replay an aggregated sequence
  /// (the accelerator stream) are rejected as hybrid back ends at
  /// configuration time instead of silently diverging.
  virtual void apply_aggregated(const std::vector<AggregatedVoxelDelta>& deltas);

  /// Retires any asynchronous backlog; no-op for synchronous backends.
  virtual void flush() {}

  /// Classifies the voxel at `key` (the Voxel Query service, paper Sec. V).
  virtual Occupancy classify(const OcKey& key) = 0;

  /// Classifies a metric position (out-of-range -> unknown).
  Occupancy classify(const geom::Vec3d& position);

  /// Canonical (packed-key, depth)-sorted leaf export of the map content.
  virtual std::vector<LeafRecord> leaves_sorted() const = 0;

  /// Hash of the canonical leaf export; equal hashes mean identical maps
  /// (up to hash collision). Backends with a native hash may override.
  virtual uint64_t content_hash() const;

  /// Full snapshot export: the canonical leaf list plus query parameters,
  /// the input of query::MapSnapshot::build. Reflects the updates applied
  /// so far — flush() first for a point-in-time snapshot. Composes the
  /// virtuals above; a backend whose leaf export must be safe against a
  /// concurrent apply() makes leaves_sorted() so.
  MapSnapshotData export_snapshot_data() const {
    return MapSnapshotData{leaves_sorted(), coder().resolution(), occupancy_params()};
  }

  /// Incremental snapshot export: the changes since the harvest tagged
  /// `since_generation` (0 = no previous harvest; always answered full).
  /// Non-const — backends that track dirtiness drain their accumulator.
  /// The default has no tracking and degrades to a full export tagged
  /// generation 0, so every backend stays a valid delta source. Callers
  /// serialize exports per backend (the QueryService publish mutex); a
  /// second independent consumer simply forces full exports via the
  /// generation mismatch.
  virtual MapSnapshotDelta export_snapshot_delta(uint64_t since_generation) {
    (void)since_generation;
    MapSnapshotData data = export_snapshot_data();
    MapSnapshotDelta delta;
    delta.full = true;
    delta.dirty_mask = 0xFF;
    delta.leaves = std::move(data.leaves);
    delta.resolution = data.resolution;
    delta.params = data.params;
    delta.generation = 0;
    return delta;
  }

  /// Where the ray-casting front-end should record its PhaseStats, or
  /// nullptr when the backend keeps no software-side counters (the caller
  /// then uses its own).
  virtual PhaseStats* ray_stats() { return nullptr; }
};

/// MapBackend adapter over the serial software octree — the reference
/// implementation every other backend is verified against.
class OctreeBackend final : public MapBackend {
 public:
  explicit OctreeBackend(OccupancyOctree& tree) : tree_(&tree) {}

  using MapBackend::classify;

  std::string name() const override { return "octree"; }
  const KeyCoder& coder() const override { return tree_->coder(); }
  OccupancyParams occupancy_params() const override { return tree_->params(); }
  void apply(const UpdateBatch& batch) override;
  void apply_aggregated(const std::vector<AggregatedVoxelDelta>& deltas) override;
  Occupancy classify(const OcKey& key) override { return tree_->classify(key); }
  std::vector<LeafRecord> leaves_sorted() const override { return tree_->leaves_sorted(); }
  uint64_t content_hash() const override { return tree_->content_hash(); }
  MapSnapshotDelta export_snapshot_delta(uint64_t since_generation) override;
  PhaseStats* ray_stats() override { return &tree_->stats(); }

  /// Telemetry hook: wires the tree's prune-latency histogram
  /// ("ingest.prune_ns"). Null detaches.
  void set_telemetry(obs::Telemetry* telemetry);

  OccupancyOctree& tree() { return *tree_; }
  const OccupancyOctree& tree() const { return *tree_; }

 private:
  OccupancyOctree* tree_;
};

}  // namespace omu::map
