#include "world/tiled_world_map.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"
#include "world/world_manifest.hpp"

namespace omu::world {

TiledWorldMap::TiledWorldMap(TiledWorldConfig config, OpenTag)
    : cfg_(std::move(config)),
      grid_(cfg_.resolution, cfg_.tile_shift),
      coder_(cfg_.resolution),
      params_(cfg_.params.quantized ? cfg_.params.snapped_to_fixed_point() : cfg_.params),
      factory_(std::make_unique<map::OctreeTileBackendFactory>(cfg_.resolution, cfg_.params)),
      pager_(TilePagerConfig{cfg_.directory, cfg_.resident_byte_budget}, *factory_, grid_) {}

TiledWorldMap::TiledWorldMap(TiledWorldConfig config)
    : TiledWorldMap(std::move(config), OpenTag{}) {
  if (!cfg_.directory.empty() &&
      std::filesystem::exists(WorldManifest::manifest_path(cfg_.directory))) {
    throw std::invalid_argument(
        "TiledWorldMap: " + cfg_.directory +
        " already holds a world manifest; use TiledWorldMap::open to resume it");
  }
}

std::unique_ptr<TiledWorldMap> TiledWorldMap::open(const std::string& directory,
                                                   std::size_t resident_byte_budget) {
  const WorldManifest manifest = WorldManifest::read_file(directory);
  TiledWorldConfig cfg;
  cfg.resolution = manifest.resolution;
  cfg.params = manifest.params;
  cfg.tile_shift = manifest.tile_shift;
  cfg.resident_byte_budget = resident_byte_budget;
  cfg.directory = directory;
  // Not the public constructor: it rejects a directory that holds a
  // manifest, which is exactly the case here.
  std::unique_ptr<TiledWorldMap> world(new TiledWorldMap(std::move(cfg), OpenTag{}));
  for (const WorldManifest::TileEntry& tile : manifest.tiles) {
    world->pager_.register_on_disk(
        pack_tile(tile.coord), TilePager::SavedInfo{tile.checksum, tile.leaf_count});
  }
  world->manifest_on_disk_ = true;
  world->manifest_synced_writes_ = 0;
  return world;
}

std::string TiledWorldMap::name() const {
  return "tiled-world/shift:" + std::to_string(cfg_.tile_shift);
}

void TiledWorldMap::apply(const map::UpdateBatch& batch) {
  if (batch.empty()) return;
  std::lock_guard lock(mutex_);

  // Split per tile, preserving arrival order within each tile: a voxel
  // always routes to the same tile, so its updates stay in order, which is
  // what the bit-for-bit equivalence with the monolithic tree rests on.
  // split_ keeps its sub-batches' capacity across calls.
  route_index_.clear();
  split_ids_.clear();
  for (map::UpdateBatch& sub : split_) sub.clear();
  for (const map::VoxelUpdate& u : batch) {
    const TileId id = grid_.tile_id(u.key);
    const auto [it, inserted] = route_index_.try_emplace(id, split_ids_.size());
    if (inserted) split_ids_.push_back(id);
    if (it->second >= split_.size()) split_.resize(it->second + 1);
    split_[it->second].push(u.key, u.occupied);
  }

  // The tiles still to be applied stay pinned, so making room for one never
  // evicts another the batch has not reached yet while any other tile can
  // go instead.
  const TilePager::PinnedBatch pins = pager_.pin_batch(split_ids_);
  for (std::size_t i = 0; i < split_ids_.size(); ++i) {
    const TileId id = split_ids_[i];
    pager_.acquire(id).backend().apply(split_[i]);
    pager_.mark_dirty(id);
    pager_.unpin(id);
    // Enforce the byte budget at the sub-batch boundary; the tile just
    // written is the one tile never evicted under itself.
    pager_.rebalance(id);
  }
  updates_applied_ += batch.size();
  sync_manifest_locked();
}

void TiledWorldMap::flush() {
  std::lock_guard lock(mutex_);
  for (const TileId id : pager_.known_tiles()) {
    if (map::TileBackend* tile = pager_.resident_backend(id)) tile->backend().flush();
  }
  sync_manifest_locked();
  if (view_service_ == nullptr) return;
  if (published_once_ && updates_applied_ == published_updates_) {
    // No update landed since the last published view: publish-free no-op
    // — readers keep the current view and its epoch.
    view_stats_.noop_flushes++;
    return;
  }
  view_service_->publish(capture_view_locked());
  published_once_ = true;
  published_updates_ = updates_applied_;
}

map::Occupancy TiledWorldMap::classify(const map::OcKey& key) {
  std::lock_guard lock(mutex_);
  const TileId id = grid_.tile_id(key);
  if (!pager_.known(id)) return map::Occupancy::kUnknown;
  // On-demand synchronous page-in of an evicted tile.
  map::TileBackend& tile = pager_.acquire(id);
  const map::Occupancy occ = tile.backend().classify(key);
  sync_manifest_locked();
  return occ;
}

std::vector<map::LeafRecord> TiledWorldMap::leaves_sorted() const {
  std::lock_guard lock(mutex_);
  std::vector<map::LeafRecord> all;
  for (const TileId id : pager_.known_tiles()) {
    std::vector<map::LeafRecord> leaves;
    if (const map::TileBackend* tile = pager_.resident_backend(id)) {
      leaves = tile->backend().leaves_sorted();
    } else {
      leaves = pager_.read_transient(id)->backend().leaves_sorted();
    }
    all.insert(all.end(), leaves.begin(), leaves.end());
  }
  map::sort_canonical(all);
  return all;
}

uint64_t TiledWorldMap::content_hash() const {
  return map::hash_leaf_records(map::normalize_to_depth1(leaves_sorted()));
}

std::shared_ptr<const WorldQueryView> TiledWorldMap::capture_view() {
  std::lock_guard lock(mutex_);
  return capture_view_locked();
}

void TiledWorldMap::set_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard lock(mutex_);
  pager_.set_telemetry(telemetry);
  view_build_ns_ = telemetry != nullptr ? telemetry->histogram("publish.view_build_ns") : nullptr;
}

TiledWorldMap::~TiledWorldMap() {
  std::lock_guard lock(mutex_);
  if (arbiter_ != nullptr) {
    pager_.attach_arbiter(nullptr, 0);
    arbiter_->remove_participant(arbiter_id_);
    arbiter_ = nullptr;
  }
}

void TiledWorldMap::attach_budget_arbiter(BudgetArbiter* arbiter, const std::string& name) {
  std::lock_guard lock(mutex_);
  if (arbiter != nullptr && cfg_.directory.empty()) {
    throw std::invalid_argument(
        "TiledWorldMap: a shared budget requires a world directory to evict into");
  }
  if (arbiter_ != nullptr) {
    pager_.attach_arbiter(nullptr, 0);
    arbiter_->remove_participant(arbiter_id_);
    arbiter_ = nullptr;
  }
  if (arbiter == nullptr) return;
  arbiter_ = arbiter;
  arbiter_id_ = arbiter->add_participant(name, this);
  pager_.attach_arbiter(arbiter_, arbiter_id_);
}

std::size_t TiledWorldMap::arbiter_resident_bytes() const {
  std::lock_guard lock(mutex_);
  return arbiter_ != nullptr ? arbiter_->participant_bytes(arbiter_id_) : 0;
}

std::size_t TiledWorldMap::try_shed(std::size_t want_bytes) {
  // Never blocks: a world busy in its own operation simply declines (it
  // re-checks the shared budget at its own operation boundary).
  std::unique_lock lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return 0;
  const std::size_t freed = pager_.shed(want_bytes);
  if (freed > 0) sync_manifest_locked();
  return freed;
}

std::shared_ptr<const WorldQueryView> TiledWorldMap::capture_view_locked() {
  obs::TraceSpan span(view_build_ns_, "publish.view_build");
  std::vector<std::pair<TileId, std::shared_ptr<const query::MapSnapshot>>> tiles;
  const std::vector<TileId> known = pager_.known_tiles();
  tiles.reserve(known.size());
  for (const TileId id : known) {
    const uint64_t version = pager_.version(id);
    const auto cached = snapshot_cache_.find(id);
    std::shared_ptr<const query::MapSnapshot> prev;
    uint64_t prev_generation = 0;
    if (cached != snapshot_cache_.end()) {
      prev = cached->second.snapshot.lock();  // null if no view holds it anymore
      prev_generation = cached->second.delta_generation;
    }

    std::shared_ptr<const query::MapSnapshot> snapshot;
    if (prev != nullptr && cached->second.version == version) {
      // Unchanged tile still alive through some view: share it outright.
      snapshot = prev;
      view_stats_.tiles_reused++;
      view_stats_.bytes_reused += snapshot->memory_bytes();
    } else if (map::TileBackend* tile = pager_.resident_backend(id)) {
      tile->backend().flush();
      // Branch-level splice within the changed tile: export only the
      // first-level branches touched since the cached snapshot's harvest.
      // An evicted-and-reloaded tile has a fresh backend whose generation
      // cannot match, so it answers full — eviction forces a rebuild.
      map::MapSnapshotDelta delta =
          tile->backend().export_snapshot_delta(prev != nullptr ? prev_generation : 0);
      const uint64_t generation = delta.generation;
      if (!delta.full && delta.dirty_mask == 0 && prev != nullptr) {
        // The tile's version moved but its content did not (saturated
        // updates): keep sharing the previous snapshot.
        snapshot = prev;
        view_stats_.tiles_reused++;
        view_stats_.bytes_reused += snapshot->memory_bytes();
      } else if (!delta.full && prev != nullptr) {
        query::MapSnapshot::BuildStats bstats;
        snapshot = query::MapSnapshot::build_incremental(*prev, std::move(delta), version, &bstats);
        view_stats_.tiles_spliced++;
        view_stats_.bytes_reused += bstats.bytes_reused;
        view_stats_.bytes_rebuilt += bstats.bytes_rebuilt;
      } else {
        snapshot = query::MapSnapshot::build(
            map::MapSnapshotData{std::move(delta.leaves), delta.resolution, delta.params},
            version);
        view_stats_.tiles_rebuilt++;
        view_stats_.bytes_rebuilt += snapshot->memory_bytes();
      }
      snapshot_cache_[id] = CachedSnapshot{snapshot, version, generation};
    } else {
      // On-demand load of an evicted tile, off-residency: the snapshot is
      // read-side memory, not a paged-in tile. Full export — a transient
      // copy has no dirty accumulator history, so generation 0 answers
      // full (in DFS order, which the build folds without a sort) and
      // forces the next resident export to answer full too.
      const std::unique_ptr<map::TileBackend> tile_copy = pager_.read_transient(id);
      map::MapSnapshotDelta delta = tile_copy->backend().export_snapshot_delta(0);
      snapshot = query::MapSnapshot::build(
          map::MapSnapshotData{std::move(delta.leaves), delta.resolution, delta.params},
          version);
      view_stats_.tiles_rebuilt++;
      view_stats_.bytes_rebuilt += snapshot->memory_bytes();
      snapshot_cache_[id] = CachedSnapshot{snapshot, version, 0};
    }
    tiles.emplace_back(id, std::move(snapshot));
  }
  view_stats_.views_built++;
  return WorldQueryView::build(grid_, params_, std::move(tiles), ++view_epoch_);
}

void TiledWorldMap::attach_view_service(WorldViewService* service) {
  std::lock_guard lock(mutex_);
  view_service_ = service;
  // Publish immediately so an attached service never hands out nullptr.
  if (view_service_ != nullptr) {
    view_service_->publish(capture_view_locked());
    published_once_ = true;
    published_updates_ = updates_applied_;
  }
}

void TiledWorldMap::save() {
  std::lock_guard lock(mutex_);
  if (cfg_.directory.empty()) {
    throw std::invalid_argument("TiledWorldMap::save: world has no directory");
  }
  pager_.write_back_all();
  write_manifest_locked();
}

void TiledWorldMap::write_manifest_locked() {
  WorldManifest manifest;
  manifest.resolution = cfg_.resolution;
  manifest.params = params_;
  manifest.tile_shift = cfg_.tile_shift;
  // Only tiles with a file behind them: a dirty resident tile that was
  // never written yet has no on-disk content for a manifest to promise.
  for (const TileId id : pager_.known_tiles()) {
    if (!pager_.on_disk(id)) continue;
    const TilePager::SavedInfo info = pager_.saved_info(id);
    manifest.tiles.push_back(
        WorldManifest::TileEntry{unpack_tile(id), info.checksum, info.leaf_count});
  }
  manifest.write_file(cfg_.directory);
  manifest_on_disk_ = true;
  manifest_synced_writes_ = pager_.stats().tile_writes;
}

void TiledWorldMap::sync_manifest_locked() {
  // Once a manifest exists, evictions rewriting tile files must not leave
  // it stale — a reopened world that pages but never save()s again would
  // otherwise fail its own tile-file verification on the next open.
  if (!manifest_on_disk_) return;
  if (pager_.stats().tile_writes == manifest_synced_writes_) return;
  write_manifest_locked();
}

std::size_t TiledWorldMap::tile_count() const {
  std::lock_guard lock(mutex_);
  return pager_.stats().known_tiles;
}

TilePagerStats TiledWorldMap::pager_stats() const {
  std::lock_guard lock(mutex_);
  return pager_.stats();
}

uint64_t TiledWorldMap::updates_applied() const {
  std::lock_guard lock(mutex_);
  return updates_applied_;
}

WorldViewBuildStats TiledWorldMap::view_build_stats() const {
  std::lock_guard lock(mutex_);
  return view_stats_;
}

}  // namespace omu::world
