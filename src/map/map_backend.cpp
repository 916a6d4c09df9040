#include "map/map_backend.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"

namespace omu::map {

void MapBackend::apply_aggregated(const std::vector<AggregatedVoxelDelta>& deltas) {
  (void)deltas;
  throw std::logic_error("MapBackend '" + name() + "' does not accept aggregated deltas");
}

Occupancy MapBackend::classify(const geom::Vec3d& position) {
  const auto key = coder().key_for(position);
  if (!key) return Occupancy::kUnknown;
  return classify(*key);
}

uint64_t MapBackend::content_hash() const { return hash_leaf_records(leaves_sorted()); }

void OctreeBackend::apply(const UpdateBatch& batch) {
  for (const VoxelUpdate& u : batch) tree_->update_node(u.key, u.occupied);
}

void OctreeBackend::apply_aggregated(const std::vector<AggregatedVoxelDelta>& deltas) {
  for (const AggregatedVoxelDelta& d : deltas) apply_aggregated_to_tree(*tree_, d);
}

void OctreeBackend::set_telemetry(obs::Telemetry* telemetry) {
  tree_->set_prune_histogram(telemetry != nullptr ? telemetry->histogram("ingest.prune_ns")
                                                  : nullptr);
}

MapSnapshotDelta OctreeBackend::export_snapshot_delta(uint64_t since_generation) {
  const DirtyHarvest harvest = tree_->harvest_dirty_branches(since_generation);
  MapSnapshotDelta delta;
  delta.full = harvest.full;
  delta.dirty_mask = harvest.dirty_mask;
  delta.resolution = tree_->resolution();
  delta.params = tree_->params();
  delta.generation = harvest.generation;
  if (harvest.full && tree_->root_collapsed()) {
    // A collapsed map has no branch runs: its export is one depth-0 record.
    delta.leaves = tree_->leaves_sorted();
    return delta;
  }
  // The dirty branches' DFS runs, in branch order: Morton order, which is
  // what MapSnapshot folds without sorting. A full export is all eight.
  if (harvest.full) delta.leaves.reserve(tree_->leaf_reserve_hint());
  for (int b = 0; b < 8; ++b) {
    if (harvest.dirty_mask & (1u << b)) tree_->collect_branch_leaves(b, delta.leaves);
  }
  return delta;
}

}  // namespace omu::map
