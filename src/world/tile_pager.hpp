// The LRU tile pager: bounded-memory residency for the tiled world map.
//
// Every tile the world has ever touched is *known*; a known tile is either
// *resident* (its TileBackend lives in memory) or *evicted* (its content
// sits in the world directory as an octree_io v2 file). acquire() is the
// only way in: it creates a fresh tile, returns the resident one, or
// transparently reloads an evicted one from disk — the synchronous paging
// path both updates and live queries go through. rebalance() writes back
// and drops resident tiles until resident bytes fit the budget again (the
// caller's hot tile is never evicted under it).
//
// Victim policy: least recently used, except for the tiles an apply batch
// still has to update. The world pins a batch's tiles (pin_batch) and
// unpins each once it is applied; victims come from the unpinned tiles
// first, LRU among them, and only when nothing unpinned is resident from
// the pinned ones, LRU again. Without the pins, plain LRU picks exactly
// the tiles the batch has not reached yet (last touched one batch ago),
// and each of them pays a write and a reload within the same batch. All
// pins expire when the batch's PinnedBatch scope ends, also by exception.
//
// Persistence integrity: a tile file has one identity, the FNV-1a
// checksum of its frame, plus the leaf count its node stream holds. Every
// tile write records both, and the world manifest stores them per tile.
// Every read back — a reload, a transient read, or the first touch of a
// tile open() registered from a manifest — decodes the file (which
// verifies the frame's checksum against its payload) and then requires
// the checksum and leaf count to equal the recorded ones: a corrupt,
// truncated, stale or swapped tile file fails with a clean
// std::runtime_error naming the tile, never a silently different map.
// Writing and reading a tile is one linear pass over one buffer; no
// canonical re-hash of the tile's leaves is needed to identify it.
//
// Not internally synchronized: the owning TiledWorldMap serializes all
// access under its own mutex (immutable WorldQueryViews are the
// concurrent read path; see world_query_view.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "map/backend_factory.hpp"
#include "world/tile_grid.hpp"

namespace omu::obs {
class Telemetry;  // obs/telemetry.hpp
class Histogram;  // obs/metrics.hpp
}

namespace omu::world {

class BudgetArbiter;  // world/budget_arbiter.hpp

/// Pager construction parameters.
struct TilePagerConfig {
  /// World directory (tiles live in <dir>/tiles/). Empty = in-memory only:
  /// no eviction possible, so byte_budget must be 0.
  std::string directory;
  /// Hard resident-tile byte budget enforced at rebalance boundaries
  /// (0 = unbounded). The single most-recently-touched tile is always kept,
  /// so the effective floor is one tile's footprint.
  std::size_t byte_budget = 0;
};

/// Observability counters (the bench family's domain counters).
struct TilePagerStats {
  uint64_t evictions = 0;        ///< resident tiles dropped (written back first if dirty)
  uint64_t reloads = 0;          ///< evicted tiles paged back in by acquire()
  uint64_t tile_writes = 0;      ///< tile files written (evictions + write_back_all)
  uint64_t transient_reads = 0;  ///< off-residency disk reads (exports, view capture)
  std::size_t known_tiles = 0;
  std::size_t resident_tiles = 0;
  std::size_t resident_bytes = 0;
  /// Continuous high-water of resident_bytes (every accounting step is
  /// sampled, not just enforcement boundaries).
  std::size_t peak_resident_bytes = 0;
  /// Largest single residency increase (one tile paged in, or one tile's
  /// growth across one applied sub-batch). The pager's guarantee, given no
  /// single tile outgrows the budget: resident_bytes <= byte_budget at
  /// operation boundaries, and peak_resident_bytes <= byte_budget +
  /// max_residency_step_bytes at every instant — demand paging cannot
  /// evict ahead of growth it has not seen yet, so one step of transient
  /// overshoot is the honest bound (and what the acceptance checks
  /// assert).
  std::size_t max_residency_step_bytes = 0;
};

/// LRU pager over per-tile MapBackends.
class TilePager {
 public:
  /// The pins of one apply batch (see pin_batch()); they all expire when
  /// this scope ends, normally or by exception.
  class [[nodiscard]] PinnedBatch {
   public:
    explicit PinnedBatch(TilePager& pager) : pager_(pager) {}
    ~PinnedBatch() { pager_.open_batch_ = 0; }
    PinnedBatch(const PinnedBatch&) = delete;
    PinnedBatch& operator=(const PinnedBatch&) = delete;

   private:
    TilePager& pager_;
  };

  /// The identity of a tile file (frame checksum and leaf count), recorded
  /// at each tile write and reproduced in the world manifest; every read
  /// back of the file is verified against it.
  using SavedInfo = map::OctreeIo::FrameInfo;

  TilePager(TilePagerConfig config, const map::TileBackendFactory& factory, TileGrid grid);

  TilePager(const TilePager&) = delete;
  TilePager& operator=(const TilePager&) = delete;

  const TileGrid& grid() const { return grid_; }
  const TilePagerConfig& config() const { return cfg_; }

  bool known(TileId id) const { return slots_.find(id) != slots_.end(); }
  bool resident(TileId id) const;
  /// All known tile ids in ascending order (deterministic iteration).
  std::vector<TileId> known_tiles() const;

  /// Resident backend for the tile, creating or reloading as needed, and
  /// bumping its LRU recency. Throws std::runtime_error (naming the tile)
  /// when a reload fails.
  map::TileBackend& acquire(TileId id);

  /// The tile's resident backend without touching LRU recency (nullptr
  /// when evicted or unknown) — for exports and view capture, which must
  /// not reorder the eviction queue by scanning every tile.
  map::TileBackend* resident_backend(TileId id);
  const map::TileBackend* resident_backend(TileId id) const;

  /// Marks a tile mutated: refreshes its byte accounting, flags it dirty
  /// and bumps its content version (see version()).
  void mark_dirty(TileId id);

  /// Evicts resident tiles — writing dirty ones back, unpinned ones first,
  /// least recently used first within each — until resident bytes fit the
  /// budget; `keep` is never evicted. Updates peak_resident_bytes. No-op
  /// when unbounded.
  void rebalance(TileId keep);

  /// Opens a batch and pins its known tiles in `pending` (a batch's tile
  /// list) until each is unpin()ed or the returned scope ends.
  PinnedBatch pin_batch(const std::vector<TileId>& pending);

  /// Releases one tile's pin (its part of the batch is applied).
  void unpin(TileId id);

  /// Monotonic per-tile content version (bumped by mark_dirty); lets view
  /// capture reuse cached per-tile snapshots across evict/reload cycles,
  /// since an evicted tile's content cannot change.
  uint64_t version(TileId id) const;

  /// Loads an evicted tile from disk without making it resident (verified
  /// like a reload). Precondition: known(id) && !resident(id).
  std::unique_ptr<map::TileBackend> read_transient(TileId id);

  /// Writes every dirty resident tile to disk (keeping it resident).
  void write_back_all();

  /// Registers a tile known to live on disk (reopening a world from its
  /// manifest) with the identity its manifest entry records; its reads
  /// are verified against `info` like any reload. Throws
  /// std::runtime_error naming the tile if the file is missing.
  void register_on_disk(TileId id, const SavedInfo& info);

  /// True when a tile file exists for the tile (its saved_info describes
  /// that file) — the set a world manifest must enumerate.
  bool on_disk(TileId id) const;

  /// Last-written info of a tile; valid when every tile has been written
  /// (after write_back_all) or for registered/evicted tiles.
  SavedInfo saved_info(TileId id) const;

  TilePagerStats stats() const;

  /// Resolves the paging instrumentation handles ("paging.evict_ns" around
  /// each eviction write-back+drop, "paging.reload_ns" around each paged-in
  /// reload). Null detaches. The pager is externally serialized by its
  /// owning TiledWorldMap, so wiring any time before use is safe.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Joins a shared cross-pager budget (see world/budget_arbiter.hpp):
  /// every residency change is reported under `participant_id`, and
  /// rebalance() additionally enforces the arbiter's *global* budget —
  /// self-evicting first (grower pays), then asking the arbiter to shed
  /// other participants. Requires a directory (evictions need somewhere
  /// to go); the local byte_budget stays independently enforced (0 =
  /// governed by the shared budget alone). Null detaches.
  void attach_arbiter(BudgetArbiter* arbiter, uint64_t participant_id);

  /// Evicts least-recently-used unpinned tiles until `want_bytes` are
  /// freed or none is resident; returns the bytes freed. The arbiter's
  /// cross-participant eviction path (the owner is idle when this runs —
  /// TiledWorldMap::try_shed holds the world mutex — so no batch is open
  /// and no tile is pinned).
  std::size_t shed(std::size_t want_bytes);

 private:
  struct Slot {
    std::unique_ptr<map::TileBackend> handle;  ///< null when evicted
    bool dirty = false;      ///< resident content newer than the file
    bool on_disk = false;    ///< a tile file exists
    uint64_t lru_tick = 0;   ///< recency (higher = more recent)
    uint64_t version = 1;    ///< content version (mark_dirty bumps)
    uint64_t pinned_in = 0;  ///< batch that pinned it; pinned while that batch is open
    std::size_t bytes = 0;   ///< counted toward resident_bytes
    SavedInfo saved{};       ///< identity of the tile file (when on_disk)
  };

  /// Never a packed tile id (those use 48 bits): lru_victim's "keep none".
  static constexpr TileId kNoTile = ~TileId{0};

  std::string tile_file(TileId id) const;
  std::unique_ptr<map::TileBackend> load_file(TileId id, const Slot& slot);
  void write_file(TileId id, Slot& slot);
  void evict(TileId id, Slot& slot);
  void set_resident_bytes(Slot& slot, std::size_t bytes);
  bool pinned(const Slot& slot) const { return open_batch_ != 0 && slot.pinned_in == open_batch_; }

  TilePagerConfig cfg_;
  const map::TileBackendFactory* factory_;
  TileGrid grid_;
  std::unordered_map<TileId, Slot> slots_;
  /// The resident tile to evict next other than `keep` (nullptr when
  /// none): the least recently used unpinned tile, else — when
  /// `allow_pinned` — the least recently used pinned one.
  Slot* lru_victim(TileId keep, bool allow_pinned, TileId* victim_id);

  uint64_t lru_clock_ = 0;
  uint64_t open_batch_ = 0;  ///< id of the open batch; 0 when none is open
  uint64_t last_batch_ = 0;  ///< ids increase, so a stale pin never matches
  std::size_t resident_bytes_ = 0;
  BudgetArbiter* arbiter_ = nullptr;
  uint64_t arbiter_id_ = 0;
  std::size_t resident_tiles_ = 0;
  mutable TilePagerStats counters_{};  // evictions/reloads/writes/transient
  /// The bytes of the tile file being written or read; every write and
  /// read reuses its capacity.
  std::string frame_buf_;
  obs::Histogram* evict_ns_ = nullptr;   // "paging.evict_ns"
  obs::Histogram* reload_ns_ = nullptr;  // "paging.reload_ns"
};

}  // namespace omu::world
