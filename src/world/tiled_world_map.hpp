// The tiled out-of-core world map: city-scale occupancy mapping on a
// bounded memory footprint.
//
// A TiledWorldMap partitions key space into fixed-span tiles (tile_grid),
// each backed by an independent MapBackend created through a
// map::TileBackendFactory, with an LRU TilePager that persists cold tiles
// into a world directory (octree_io v2 files + checksummed manifest) and
// reloads them transparently on access — map extent stops being bounded
// by RAM, the scaling ceiling every single-octree backend in this repo
// has. This is the chunk/region paging route OpenVDB-based global mapping
// and OHM take, layered over this repo's backends.
//
// It *is* a map::MapBackend: ScanInserter drives it directly, and a ray's
// update batch is split per tile, preserving per-voxel arrival order.
//
// Equivalence contract (tests/world enforce it): replaying a scan stream
// through a TiledWorldMap — including under forced eviction — yields
// query results bit-identical to the same stream into one monolithic
// octree. Tiles keep global keys and tile spans are aligned subtrees, so
// each tile's private tree matches the monolithic subtree below its tile
// root bit for bit: same update order per voxel (the split preserves it),
// same values, same prune state (pruning inside a tile depends only on
// that subtree; a tile's own tree can never prune above its root since
// the root's siblings are unknown there). The only structural divergence
// is a monolithic tree merging eight equal *tiles* above the tile-root
// depth, which value-level queries cannot observe; leaf-list comparisons
// use map::normalize_to_min_depth at the tile-root depth.
//
// Read path: capture_view() federates immutable per-tile MapSnapshots
// into a WorldQueryView (evicted tiles are loaded on demand — a cached
// snapshot is reused when the tile hasn't changed since, which an evicted
// tile by definition hasn't). attach_view_service() publishes a fresh
// view at every flush() boundary for concurrent readers. View/snapshot
// memory is read-side and deliberately outside the pager's resident-tile
// budget.
//
// Thread safety: all backend methods and capture/save serialize on an
// internal mutex (one writer plus occasional maintenance callers);
// published WorldQueryViews are immutable and lock-free for any number of
// readers racing the writer and the pager (TSan-covered in
// tests/world/test_world_concurrency.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "map/backend_factory.hpp"
#include "map/map_backend.hpp"
#include "map/phase_stats.hpp"
#include "world/budget_arbiter.hpp"
#include "world/tile_grid.hpp"
#include "world/tile_pager.hpp"
#include "world/world_query_view.hpp"

namespace omu::world {

/// Construction parameters of a tiled world.
struct TiledWorldConfig {
  double resolution = 0.2;
  map::OccupancyParams params{};
  /// log2 tile span in finest voxels per axis (see TileGrid); 12 gives
  /// 4096-voxel (819 m at 0.2 m) tiles, 16 tiles per axis world-wide.
  int tile_shift = 12;
  /// Hard resident-tile byte budget (0 = unbounded, no eviction). Requires
  /// `directory`. Enforced at update/query boundaries; the one hot tile is
  /// always kept resident, so budgets below a single tile's footprint
  /// degrade to one-tile residency.
  std::size_t resident_byte_budget = 0;
  /// World directory (manifest + tiles/). Empty = purely in-memory;
  /// required for a byte budget, save() and open().
  std::string directory;
};

/// Cumulative counters of the world's view-publication side: how many
/// views were built, how many flush boundaries published nothing because
/// no update had landed, and — per tile snapshot — whether a capture
/// shared the previous epoch's snapshot outright, spliced only its dirty
/// branches, or rebuilt it from scratch (eviction/reload always forces a
/// rebuild: the reloaded backend's dirty accumulator starts over).
struct WorldViewBuildStats {
  uint64_t views_built = 0;    ///< views actually constructed and published
  uint64_t noop_flushes = 0;   ///< flush() boundaries skipped: no new epoch
  uint64_t tiles_reused = 0;   ///< tile snapshots shared by pointer
  uint64_t tiles_spliced = 0;  ///< tile snapshots rebuilt only in dirty branches
  uint64_t tiles_rebuilt = 0;  ///< tile snapshots rebuilt in full
  std::size_t bytes_reused = 0;   ///< snapshot bytes shared from previous epochs
  std::size_t bytes_rebuilt = 0;  ///< snapshot bytes freshly built
};

/// The tiled out-of-core world map (a map::MapBackend, and — when
/// enrolled in a shared budget — a cooperative BudgetArbiter shedder).
class TiledWorldMap final : public map::MapBackend, private BudgetArbiter::Shedder {
 public:
  /// Creates a fresh world. Throws std::invalid_argument when
  /// config.directory already holds a world manifest — reopening an
  /// existing world goes through open(), never through a fresh
  /// constructor that would silently shadow it.
  explicit TiledWorldMap(TiledWorldConfig config);

  /// Reopens a world persisted by save(): reads the manifest, registers
  /// every tile as on-disk (nothing is loaded until touched) and resumes
  /// mapping/querying under `resident_byte_budget`. Throws
  /// std::runtime_error on a missing/corrupt manifest or missing tile
  /// files (the message names the culprit).
  static std::unique_ptr<TiledWorldMap> open(const std::string& directory,
                                             std::size_t resident_byte_budget = 0);

  TiledWorldMap(const TiledWorldMap&) = delete;
  TiledWorldMap& operator=(const TiledWorldMap&) = delete;
  ~TiledWorldMap() override;

  const TiledWorldConfig& config() const { return cfg_; }
  const TileGrid& grid() const { return grid_; }

  using map::MapBackend::classify;

  // ---- MapBackend --------------------------------------------------------

  std::string name() const override;
  const map::KeyCoder& coder() const override { return coder_; }
  map::OccupancyParams occupancy_params() const override { return params_; }

  /// Splits the batch per tile (preserving per-voxel order) and applies
  /// each sub-batch to its tile's backend, paging tiles in and out as the
  /// byte budget requires.
  void apply(const map::UpdateBatch& batch) override;

  /// Flushes every resident tile backend, then publishes a fresh
  /// WorldQueryView to the attached view service (if any) — the epoch
  /// boundary concurrent readers observe. Publication is O(changed):
  /// unchanged tiles share their snapshot with the previous view, changed
  /// resident tiles splice only their dirty first-level branches, and a
  /// flush with no updates since the last published view publishes no
  /// epoch at all.
  void flush() override;

  /// Classifies a voxel against the live map, synchronously reloading the
  /// owning tile if it was evicted. Concurrent readers should prefer an
  /// immutable view (capture_view / WorldViewService).
  map::Occupancy classify(const map::OcKey& key) override;

  /// Canonical merged leaf export across all tiles, resident or not
  /// (evicted tiles are read transiently; residency is not disturbed).
  std::vector<map::LeafRecord> leaves_sorted() const override;

  /// Hash of the merged map, normalized like OccupancyOctree::content_hash.
  uint64_t content_hash() const override;

  map::PhaseStats* ray_stats() override { return &ray_stats_; }

  // ---- World-map surface -------------------------------------------------

  /// Captures an immutable federated view of the current map state.
  /// Evicted tiles are loaded on demand; per-tile snapshots are cached and
  /// reused while a tile's content is unchanged (evict/reload cycles keep
  /// the cache valid). Snapshot memory is read-side: it lives as long as
  /// captured views do and is not counted against the pager budget.
  std::shared_ptr<const WorldQueryView> capture_view();

  /// Attaches a service that receives a fresh view now and at every
  /// flush() boundary; nullptr detaches.
  void attach_view_service(WorldViewService* service);

  /// Persists the world: writes every dirty resident tile and the
  /// checksummed manifest into config().directory. The map stays usable
  /// (tiles remain resident). Throws std::invalid_argument without a
  /// directory, std::runtime_error on I/O failure.
  void save();

  std::size_t tile_count() const;
  TilePagerStats pager_stats() const;

  /// Resolves world-layer instrumentation: forwards paging handles to the
  /// pager and wires "publish.view_build_ns" around each view capture.
  /// Null detaches. Takes the world mutex; safe any time.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Enrolls this world in a shared cross-tenant resident-byte budget
  /// (the map service's governor; see world/budget_arbiter.hpp): registers
  /// as `name`, reports every residency change, self-evicts first when the
  /// *global* budget is exceeded, and accepts cooperative shed requests
  /// from other participants whenever no operation of its own is in
  /// flight. Requires a world directory (shed targets must be evictable).
  /// The arbiter must outlive this map (the destructor unregisters).
  void attach_budget_arbiter(BudgetArbiter* arbiter, const std::string& name);

  /// This world's bytes as accounted by the attached arbiter (0 without
  /// one) — the per-tenant number the service's quota checks read.
  std::size_t arbiter_resident_bytes() const;
  /// Voxel updates applied so far.
  uint64_t updates_applied() const;
  /// View-publication counters (see WorldViewBuildStats).
  WorldViewBuildStats view_build_stats() const;

 private:
  /// Tag for the open() path, which must skip the fresh-constructor guard
  /// against shadowing an existing manifest.
  struct OpenTag {};
  TiledWorldMap(TiledWorldConfig config, OpenTag);

  std::shared_ptr<const WorldQueryView> capture_view_locked();
  void write_manifest_locked();
  void sync_manifest_locked();

  /// BudgetArbiter::Shedder: evict LRU tiles if idle (try_lock), else 0.
  std::size_t try_shed(std::size_t want_bytes) override;

  TiledWorldConfig cfg_;
  TileGrid grid_;
  map::KeyCoder coder_;
  map::OccupancyParams params_;
  std::unique_ptr<map::TileBackendFactory> factory_;
  mutable std::mutex mutex_;      ///< serializes map state + pager access
  mutable TilePager pager_;       ///< guarded by mutex_ (const exports read transiently)
  map::PhaseStats ray_stats_;
  WorldViewService* view_service_ = nullptr;  ///< guarded by mutex_
  BudgetArbiter* arbiter_ = nullptr;          ///< guarded by mutex_
  uint64_t arbiter_id_ = 0;                   ///< guarded by mutex_
  uint64_t view_epoch_ = 0;                   ///< guarded by mutex_
  obs::Histogram* view_build_ns_ = nullptr;   ///< "publish.view_build_ns"; guarded by mutex_
  uint64_t updates_applied_ = 0;              ///< guarded by mutex_
  /// Manifest freshness: once a manifest exists on disk (open()/save()),
  /// it is rewritten whenever evictions touch tile files, so the on-disk
  /// world stays reopenable even if the process never calls save() again.
  bool manifest_on_disk_ = false;             ///< guarded by mutex_
  uint64_t manifest_synced_writes_ = 0;       ///< guarded by mutex_

  /// Per-tile snapshot cache keyed on the pager's content version. Weak
  /// references: snapshot memory is owned solely by live WorldQueryViews
  /// (captures reuse an unchanged tile's snapshot while any view still
  /// holds it; once the last view dies the flattened copies are freed and
  /// the next capture rebuilds on demand) — so captured-view reuse never
  /// pins the whole map in RAM behind the pager's back.
  struct CachedSnapshot {
    std::weak_ptr<const query::MapSnapshot> snapshot;
    uint64_t version = 0;
    /// Generation of the tile backend's dirty harvest the snapshot was
    /// built from; pairs the snapshot with export_snapshot_delta so a
    /// changed tile splices only its dirty branches onto it.
    uint64_t delta_generation = 0;
  };
  std::unordered_map<TileId, CachedSnapshot> snapshot_cache_;  ///< guarded by mutex_

  WorldViewBuildStats view_stats_;     ///< guarded by mutex_
  bool published_once_ = false;        ///< guarded by mutex_
  uint64_t published_updates_ = 0;     ///< updates_applied_ at last publish

  // Routing scratch, reused batch over batch (guarded by mutex_).
  std::vector<map::UpdateBatch> split_;
  std::vector<TileId> split_ids_;
  std::unordered_map<TileId, std::size_t> route_index_;
};

}  // namespace omu::world
