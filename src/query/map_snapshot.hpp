// Immutable, flattened snapshot of an occupancy map — the read side of the
// concurrent Voxel Query service (paper Sec. V, Fig. 4).
//
// A MapSnapshot is built from any MapBackend's leaf export and never
// mutated afterwards, so any number of reader threads can answer point,
// batch, multi-resolution and AABB queries against it with no
// synchronization at all while the writer keeps integrating scans into the
// live map. This is the same reader/writer decoupling OHM and the OpenVDB
// mapping pipeline get from immutable/flattened map views.
//
// Representation: eight refcounted immutable *chunks*, one per first-level
// branch (the root child octant the OMU voxel scheduler routes by). Each
// chunk holds its branch's leaf run in Morton (DFS) order plus per-depth
// flat sorted arrays of Morton-coded aligned keys. Morton order is the
// order the octree already stores children in (child i in bank i, paper
// Fig. 5), so a depth-first export arrives sorted and one depth-stack fold
// over it produces every level's arrays sorted, with no sort and no hash
// map. Reconstructed inner-node values are the max over descendant leaves,
// which is bit-identical to the octree's parent max-propagation (max over
// the same floats is associative), so snapshot answers match a flushed
// serial classify()/search() exactly — the property
// tests/query/test_snapshot_equivalence.cpp enforces across all backends.
// Every query is a short chain of binary searches inside one chunk.
//
// The canonical (packed key, depth) order — the order of leaves(),
// content_hash() and every file format — is computed on demand only.
//
// The chunk split is what makes publication O(changed): build_incremental
// rebuilds only the branches a MapSnapshotDelta marks dirty and shares
// the remaining chunks — by shared_ptr, no copy — with the previous
// epoch. A reader holding an old snapshot keeps exactly the chunks that
// epoch referenced alive; chunks die when the last snapshot referencing
// them does.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "map/map_backend.hpp"
#include "map/ockey.hpp"
#include "map/occupancy_octree.hpp"
#include "map/occupancy_params.hpp"

namespace omu::query {

/// Read-only view of the node a snapshot query terminated at (the
/// flattened analogue of map::NodeView).
struct SnapshotNodeView {
  float log_odds = 0.0f;
  int depth = 0;
  bool is_leaf = true;
};

/// Kind of the node an exact probe() lands on.
enum class SnapshotNodeKind : uint8_t {
  kUnknown,  ///< no node at exactly (key, depth)
  kLeaf,     ///< a leaf record (value = its log-odds)
  kInner,    ///< reconstructed inner node (value = max over descendant leaves)
};

/// Result of probing the node at exactly (key truncated to depth, depth).
struct SnapshotNodeProbe {
  SnapshotNodeKind kind = SnapshotNodeKind::kUnknown;
  float value = 0.0f;
};

/// The immutable flattened map snapshot. Construction is the only mutation;
/// all query methods are const and safe to call from any number of threads
/// concurrently. Always held by shared_ptr (see build) so readers keep a
/// snapshot alive across a concurrent publication of its successor.
class MapSnapshot {
 public:
  /// One depth level of one first-level branch: parallel arrays of node
  /// keys and values. A key is geom::kernels::morton48 of the node's
  /// depth-aligned OcKey (the low 3*(16-depth) bits are zero), and each key
  /// array is strictly ascending.
  struct Level {
    std::vector<uint64_t> leaf_keys;
    std::vector<float> leaf_values;
    std::vector<uint64_t> inner_keys;
    std::vector<float> inner_max;  ///< max log-odds over descendant leaves
  };

  /// The immutable flattened content of one first-level branch. Built
  /// once, then shared read-only between every snapshot epoch in which the
  /// branch did not change; freed when the last snapshot referencing it is
  /// dropped. Exposed (read-only) so tests can assert the sharing and
  /// lifetime properties directly.
  class Chunk {
   public:
    /// This branch's leaves in Morton order: the depth-first run
    /// OccupancyOctree::collect_branch_leaves exports. Not canonical order;
    /// MapSnapshot::leaves() is.
    const std::vector<map::LeafRecord>& leaves() const { return leaves_; }
    /// The node arrays of depth `depth` (1..16).
    const Level& level(int depth) const { return levels_[static_cast<std::size_t>(depth)]; }
    std::size_t leaf_count() const { return leaves_.size(); }
    /// Max log-odds over the branch's leaves (feeds the root's value).
    float max_log_odds() const { return max_log_odds_; }
    std::size_t memory_bytes() const;

   private:
    friend class MapSnapshot;
    std::array<Level, map::kTreeDepth + 1> levels_;  ///< index 0 unused
    std::vector<map::LeafRecord> leaves_;
    float max_log_odds_ = 0.0f;
  };

  /// What an incremental build reused vs. rebuilt (facade stats surface
  /// this as reused-vs-rebuilt bytes per flush).
  struct BuildStats {
    bool incremental = false;  ///< false = the build was a full rebuild
    uint32_t chunks_reused = 0;
    uint32_t chunks_rebuilt = 0;
    std::size_t bytes_reused = 0;   ///< memory shared from the previous epoch
    std::size_t bytes_rebuilt = 0;  ///< fresh memory allocated by this build
  };

  /// Builds a snapshot from a backend's export, in any leaf order. A
  /// Morton-ordered export (a full export_snapshot_delta of the octree)
  /// is folded as it comes; any other order is Morton-sorted once first.
  /// The flat canonical form is left lazy (see leaves()), except for a
  /// collapsed depth-0 map. `epoch` tags the snapshot with its
  /// publication sequence number (see QueryService).
  static std::shared_ptr<const MapSnapshot> build(map::MapSnapshotData data, uint64_t epoch = 0);

  /// Incremental build: rebuilds only the branches `delta` marks dirty and
  /// shares every other chunk with `prev` — O(changed) time and fresh
  /// memory. `prev` must be the snapshot built from the delta source's
  /// previous harvest (the QueryService tracks this pairing). A full delta
  /// degrades to build(). Produces bit-identical query answers and
  /// flattened arrays to a full rebuild of the same backend state,
  /// including the backend's root-collapse normalization: when all eight
  /// spliced branches are a single equal-valued depth-1 leaf — the state
  /// in which the octree's export prunes to one depth-0 record — the
  /// result collapses the same way.
  static std::shared_ptr<const MapSnapshot> build_incremental(
      const MapSnapshot& prev, map::MapSnapshotDelta delta, uint64_t epoch,
      BuildStats* stats = nullptr);

  /// Convenience: flushes the backend and snapshots its current content.
  static std::shared_ptr<const MapSnapshot> capture(map::MapBackend& backend, uint64_t epoch = 0);

  // ---- Point queries -----------------------------------------------------

  /// Finds the deepest node covering `key`, descending at most to
  /// `max_depth` — identical semantics to OccupancyOctree::search.
  std::optional<SnapshotNodeView> search(const map::OcKey& key,
                                         int max_depth = map::kTreeDepth) const;

  /// Classifies the voxel at `key`; `max_depth` < 16 answers at coarser
  /// resolution from the reconstructed inner-node max values.
  map::Occupancy classify(const map::OcKey& key, int max_depth = map::kTreeDepth) const;

  /// Classifies a metric position (out-of-range -> unknown).
  map::Occupancy classify(const geom::Vec3d& position) const;

  // ---- Batch / box queries ----------------------------------------------

  /// Classifies a batch of keys (collision-checking a whole trajectory in
  /// one call); out[i] corresponds to keys[i].
  void classify_batch(const std::vector<map::OcKey>& keys,
                      std::vector<map::Occupancy>& out,
                      int max_depth = map::kTreeDepth) const;

  /// True if any voxel intersecting the metric box is occupied — identical
  /// semantics to OccupancyOctree::any_occupied_in_box, including the
  /// conservative treat-unknown-as-occupied mode.
  bool any_occupied_in_box(const geom::Aabb& box, bool treat_unknown_as_occupied = false) const;

  // ---- Structural probes -------------------------------------------------

  /// The node at exactly (key truncated to `depth`, `depth`): a leaf with
  /// its value, a reconstructed inner node with its subtree max, or
  /// unknown — including unknown when a *shallower* leaf covers the
  /// region (probe is an exact-level lookup, not a search). This is the
  /// building block the tiled world's query federation recurses on
  /// (world::WorldQueryView): it lets a multi-snapshot view reproduce the
  /// octree's descent bit for bit across tile boundaries.
  SnapshotNodeProbe probe(const map::OcKey& key, int depth) const;

  // ---- Introspection -----------------------------------------------------

  const map::KeyCoder& coder() const { return coder_; }
  const map::OccupancyParams& params() const { return params_; }
  double resolution() const { return coder_.resolution(); }
  uint64_t epoch() const { return epoch_; }
  std::size_t leaf_count() const;
  bool empty() const { return root_.kind == NodeKind::kUnknown; }

  /// The canonical (packed key, depth) sorted leaf array of the whole map.
  /// Materialized lazily on first use (merging and sorting the chunk runs,
  /// O(map log map), cached and thread-safe) — the query paths never need
  /// it, so a flush stays free of it unless a consumer asks for the flat
  /// form.
  const std::vector<map::LeafRecord>& leaves() const;

  /// Hash of the canonical leaf content, comparable with the backends'
  /// content_hash() (same depth>=1 normalization). Lazily computed with
  /// leaves(), then cached.
  uint64_t content_hash() const;

  /// The refcounted chunk of first-level branch `branch` (0..7); null when
  /// the branch is unknown or the map is a collapsed depth-0 leaf. Two
  /// consecutive epochs returning the same pointer shared the branch.
  std::shared_ptr<const Chunk> branch_chunk(int branch) const {
    return chunks_[static_cast<std::size_t>(branch)];
  }

  /// Approximate memory footprint in bytes. Chunks are counted fully even
  /// when shared with other epochs (each snapshot answers for everything
  /// it keeps alive); materialized lazy caches are included.
  std::size_t memory_bytes() const;

 private:
  enum class NodeKind : uint8_t { kUnknown, kLeaf, kInner };
  struct NodeLookup {
    NodeKind kind = NodeKind::kUnknown;
    float value = 0.0f;
  };

  MapSnapshot(double resolution, const map::OccupancyParams& params, uint64_t epoch)
      : coder_(resolution),
        params_(params.quantized ? params.snapped_to_fixed_point() : params),
        epoch_(epoch) {}

  /// Builds the immutable chunk of one branch from its leaf run, Morton-
  /// sorting it first if it is not in Morton order. Returns null for an
  /// empty run (unknown branch).
  static std::shared_ptr<const Chunk> build_chunk(std::vector<map::LeafRecord> branch_leaves);

  /// Node at depth `depth` on the path of the key whose morton48 code is
  /// `morton` — kLeaf with its value, kInner with the subtree max, or
  /// kUnknown.
  NodeLookup node_at(uint64_t morton, int depth) const;

  /// `morton` is morton48 of `base`.
  bool box_recurs(const map::OcKey& base, uint64_t morton, int depth, const geom::Aabb& box,
                  bool unknown_occupied) const;

  /// Fills leaves_cache_/content_hash_cache_ under lazy_mutex_ (double-
  /// checked via lazy_ready_). Only a collapsed depth-0 map pre-fills it.
  void ensure_flat() const;

  /// Marks a collapsed depth-0 map of value `value`: no chunks, the root
  /// leaf answers everything, and the one-record flat form is filled.
  void set_collapsed(float value);

  map::KeyCoder coder_;
  map::OccupancyParams params_;
  uint64_t epoch_ = 0;
  NodeLookup root_;  ///< the depth-0 node
  std::array<std::shared_ptr<const Chunk>, 8> chunks_;  ///< null = unknown branch

  // Lazily materialized flat form (leaves() / content_hash()).
  mutable std::mutex lazy_mutex_;
  mutable std::atomic<bool> lazy_ready_{false};
  mutable std::vector<map::LeafRecord> leaves_cache_;
  mutable uint64_t content_hash_cache_ = 0;
};

}  // namespace omu::query
