// The concurrent Voxel Query service (paper Sec. V): snapshot publication
// and the lock-free read path.
//
// Downstream consumers — collision checking, planners — hammer the map
// with reads while scans stream in. The service decouples them from the
// writer with immutable MapSnapshots published double-buffer style: the
// writer builds the next snapshot off to the side and swaps it in; the
// shared_ptr refcount keeps a superseded snapshot alive until its last
// reader drops it.
//
// Read path: each reader thread caches the shared_ptr of the snapshot it
// last saw, validated by a single atomic version load per snapshot()
// call. In steady state a snapshot() call costs that version load plus
// one refcount increment on the snapshot's control block (shared across
// readers — batch queries against one returned pointer to avoid even
// that), and never a lock. Only when a new
// epoch has been published does the calling thread refresh its cached
// reference under a brief pointer-swap mutex (once per publication per
// thread; snapshot *construction* happens outside that mutex, so readers
// never wait on a build). We deliberately avoid std::atomic<shared_ptr>:
// libstdc++'s lock-bit implementation unlocks its reader side with a
// relaxed RMW, which ThreadSanitizer (correctly, per the letter of the
// memory model) reports as a data race against the writer's pointer swap.
//
// Staleness bound: readers see exactly the map content as of the epoch's
// flush boundary; updates applied after the latest publish are invisible
// until the next one. Epochs increase by one per publication, so a reader
// can detect how far behind its snapshot is. A thread that stops calling
// snapshot() keeps at most a few superseded snapshots alive through its
// cache (one per service in its cache slots).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "map/map_backend.hpp"
#include "query/map_snapshot.hpp"

namespace omu::obs {
class Telemetry;     // obs/telemetry.hpp
class Histogram;     // obs/metrics.hpp
class TraceJournal;  // obs/trace.hpp
}

namespace omu::query {

/// Cumulative counters of the service's publication side: how many epochs
/// were published, how many were incremental splices, how many refreshes
/// were skipped outright because nothing changed, and how much chunk
/// memory the incremental builds shared vs. allocated. Snapshot-consistent
/// (copied under the publish mutex).
struct SnapshotPublishStats {
  uint64_t publications = 0;              ///< epochs actually published
  uint64_t incremental_publications = 0;  ///< of which spliced onto the previous epoch
  uint64_t noop_refreshes = 0;            ///< refreshes skipped: empty delta, no new epoch
  uint64_t chunks_reused = 0;
  uint64_t chunks_rebuilt = 0;
  std::size_t bytes_reused = 0;   ///< chunk bytes shared from previous epochs
  std::size_t bytes_rebuilt = 0;  ///< chunk bytes freshly built
};

/// Publishes immutable map snapshots to concurrent readers.
class QueryService {
 public:
  /// Starts with an empty (all-unknown) placeholder snapshot at epoch 0,
  /// so readers never observe a null snapshot.
  QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // ---- Read path (lock-free in steady state, any thread) ----------------

  /// The current snapshot. One atomic version check against the calling
  /// thread's cached reference; hold the returned pointer for as many
  /// queries as the read batch needs — every query against one snapshot
  /// sees one consistent map state.
  std::shared_ptr<const MapSnapshot> snapshot() const;

  /// One-shot conveniences forwarding to the current snapshot.
  map::Occupancy classify(const map::OcKey& key, int max_depth = map::kTreeDepth) const {
    return snapshot()->classify(key, max_depth);
  }
  map::Occupancy classify(const geom::Vec3d& position) const {
    return snapshot()->classify(position);
  }
  void classify_batch(const std::vector<map::OcKey>& keys, std::vector<map::Occupancy>& out,
                      int max_depth = map::kTreeDepth) const {
    snapshot()->classify_batch(keys, out, max_depth);
  }
  bool any_occupied_in_box(const geom::Aabb& box, bool treat_unknown_as_occupied = false) const {
    return snapshot()->any_occupied_in_box(box, treat_unknown_as_occupied);
  }

  // ---- Write path (publishers serialize on a writer mutex) --------------

  /// The one publication path. Flushes the backend and publishes its
  /// changes since this service's previous refresh of the same backend
  /// under the next epoch, splicing unchanged branch chunks from that
  /// epoch's snapshot (O(changed) build). The build runs outside the
  /// reader-visible swap mutex; only the pointer swap itself excludes
  /// readers. When nothing changed, no epoch is published at all —
  /// readers keep the current snapshot, and its epoch is returned. Falls
  /// back to a full rebuild on the first refresh, on a source change, and
  /// whenever the backend reports it (whole-tree mutations, collapsed
  /// root, no tracking).
  uint64_t refresh_from(map::MapBackend& backend);

  // ---- Introspection -----------------------------------------------------

  /// Epoch of the current snapshot (0 = the construction placeholder).
  uint64_t epoch() const { return snapshot()->epoch(); }

  /// Total snapshots published (excluding the placeholder).
  uint64_t publications() const { return publications_.load(std::memory_order_relaxed); }

  /// Publication-side counters (see SnapshotPublishStats).
  SnapshotPublishStats publish_stats() const;

  /// Resolves the publication instrumentation handles: "publish.refresh_ns"
  /// around each refresh_from publication (export + build + swap, after
  /// the backend flush), "publish.splice_ns" around each partial delta's
  /// build (a splice, or a no-op when nothing changed), and
  /// "publish.build_ns" around each full rebuild. Null
  /// detaches. Takes the publish mutex; safe any time.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  /// Per-thread cache of the last snapshots a thread observed, a few
  /// services wide so a thread reading several maps (local costmap +
  /// global map) keeps the lock-free fast path on each. `service` is only
  /// ever compared, never dereferenced, and `version` values are
  /// process-globally unique, so a stale entry (even one naming a
  /// destroyed service whose address was reused) can never validate.
  struct ReaderCacheEntry {
    const QueryService* service = nullptr;
    uint64_t version = 0;
    std::shared_ptr<const MapSnapshot> snapshot;
  };
  struct ReaderCache {
    std::array<ReaderCacheEntry, 4> entries;
    std::size_t next_evict = 0;  ///< round-robin victim on a miss
  };
  ReaderCacheEntry& reader_cache_entry() const;

  void swap_in(std::shared_ptr<const MapSnapshot> next);

  /// Publishes `delta`, exported by `source`, under publish_mutex_: an
  /// incremental delta splices onto the snapshot built from that source's
  /// previous delta.
  uint64_t publish_locked(map::MapSnapshotDelta delta, const void* source);

  std::shared_ptr<const MapSnapshot> current_;  ///< guarded by swap_mutex_
  mutable std::mutex swap_mutex_;  ///< guards current_; held only across pointer swaps
  std::atomic<uint64_t> current_version_{0};  ///< globally unique per publication
  mutable std::mutex publish_mutex_;  ///< serializes publishers (and their builds)
  std::atomic<uint64_t> publications_{0};

  // Incremental splice state, guarded by publish_mutex_: the snapshot
  // built from delta_source_'s last delta (generation delta_generation_).
  // An incremental delta from the same source splices onto delta_base_; a
  // refresh from another backend resets the pairing, so the next refresh
  // of the source is a full rebuild. delta_base_ == current_ in the
  // supported single-publisher flow, but correctness only needs the
  // pairing: base + delta is the source backend's full state regardless
  // of current_.
  const void* delta_source_ = nullptr;
  uint64_t delta_generation_ = 0;
  std::shared_ptr<const MapSnapshot> delta_base_;
  SnapshotPublishStats publish_stats_;  ///< guarded by publish_mutex_

  // Telemetry handles, guarded by publish_mutex_ (null = off).
  obs::Histogram* refresh_ns_ = nullptr;  ///< "publish.refresh_ns"
  obs::Histogram* splice_ns_ = nullptr;   ///< "publish.splice_ns"
  obs::Histogram* build_ns_ = nullptr;    ///< "publish.build_ns"
  obs::TraceJournal* journal_ = nullptr;

  static std::atomic<uint64_t> next_version_;
};

}  // namespace omu::query
