// Probabilistic occupancy octree — a from-scratch reimplementation of the
// OctoMap data structure (Hornung et al. 2013) that the OMU paper
// accelerates.
//
// Differences from the original pointer-per-child implementation, chosen
// to keep the software baseline honest but analyzable:
//  * Nodes are packed 8-byte records (node_arena.hpp) in a 64-byte-aligned
//    arena; children are allocated as contiguous blocks of 8 — one cache
//    line per block — mirroring the row-of-8-children layout of the
//    accelerator's TreeMem and making prune/expand an O(1) block
//    free/alloc. Child links are 32-bit arena offsets, not pointers.
//  * Unknown children are represented explicitly (a children-field
//    sentinel) instead of null pointers, since a block always holds 8
//    slots.
//  * The root-to-leaf descent consumes a precomputed 48-bit Morton
//    interleave of the key (3 bits per level) and the bottom-up parent
//    update runs an SSE2 kernel over each one-line child block when the
//    build enables OMU_SIMD (portable scalar fallback otherwise; both
//    paths produce identical trees and identical PhaseStats).
// The update/prune/expand semantics — log-odds addition with clamping,
// parent = max(children), prune when all 8 children are equal leaves,
// early abort on saturated leaves — follow OctoMap exactly, and are
// verified bit-for-bit against the accelerator model in the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "map/node_arena.hpp"
#include "map/ockey.hpp"
#include "map/occupancy_params.hpp"
#include "map/phase_stats.hpp"

namespace omu::obs {
class Histogram;  // obs/metrics.hpp; kept a forward declaration so the
                  // hottest map header stays free of the obs includes
}

namespace omu::map {

/// Read-only view of a node returned by queries.
struct NodeView {
  float log_odds = 0.0f;
  int depth = 0;          ///< tree depth of the node (16 = finest voxel)
  bool is_leaf = true;    ///< false if the query stopped at an inner node
};

/// Result of draining the dirty-branch accumulator (the producer side of
/// incremental snapshot export, see MapBackend::export_snapshot_delta).
struct DirtyHarvest {
  /// Per-branch collection is unusable — export the whole map. Set on the
  /// first harvest, on a generation mismatch (another consumer harvested in
  /// between), after whole-tree mutations (clear/prune/expand/merge/load),
  /// and whenever the root is a collapsed leaf (a depth-0 record has no
  /// branch bucket).
  bool full = true;
  uint8_t dirty_mask = 0xFF;  ///< bit b set = first-level branch b changed
  uint64_t generation = 0;    ///< pass back as since_generation next time
};

/// The probabilistic occupancy octree (software baseline of the paper).
class OccupancyOctree {
 public:
  /// Creates an empty map. `resolution` is the finest voxel edge length in
  /// metres (the paper's experiments use 0.2 m).
  explicit OccupancyOctree(double resolution, OccupancyParams params = OccupancyParams{});

  const KeyCoder& coder() const { return coder_; }
  const OccupancyParams& params() const { return params_; }
  double resolution() const { return coder_.resolution(); }

  // ---- Map update -------------------------------------------------------

  /// Integrates one measurement for the voxel at `key`: adds log_hit if
  /// `occupied`, else log_miss, clamps, updates ancestors bottom-up and
  /// prunes/expands as needed (paper Fig. 2).
  void update_node(const OcKey& key, bool occupied) {
    // params_ is pre-snapped to the fixed-point grid at construction, so
    // the hot path skips the per-update quantization of the generic entry.
    update_node_snapped(key, occupied ? params_.log_hit : params_.log_miss);
  }

  /// Convenience overload taking a metric coordinate; out-of-range
  /// coordinates are ignored (counted in stats as neither update nor abort).
  void update_node(const geom::Vec3d& position, bool occupied);

  /// Adds an arbitrary log-odds increment to the voxel at `key`
  /// (generalization used by tests and by sensor models with non-default
  /// weights).
  void update_node_log_odds(const OcKey& key, float log_odds_delta);

  /// Sets a voxel to an exact log-odds value, bypassing the sensor model
  /// but still maintaining parents/pruning. Intended for map editing and
  /// tests.
  void set_node_log_odds(const OcKey& key, float log_odds);

  /// Installs a leaf at an arbitrary depth (a pruned subtree covering
  /// 2^(3*(16-depth)) voxels), replacing anything below it. This is the
  /// import primitive for reconstructing a map from leaf records (e.g.
  /// reading the accelerator's TreeMem back over DMA); ancestors are
  /// maintained. Precondition: 0 < depth <= kTreeDepth.
  void set_leaf_at_depth(const OcKey& key, int depth, float log_odds);

  // ---- Queries ----------------------------------------------------------

  /// Finds the deepest node covering `key`, descending at most to
  /// `max_depth`. Returns std::nullopt for unknown space.
  std::optional<NodeView> search(const OcKey& key, int max_depth = kTreeDepth) const;

  /// Classifies the voxel at `key` as occupied / free / unknown
  /// (the accelerator's Voxel Query service, paper Sec. V).
  Occupancy classify(const OcKey& key) const;

  /// Classifies a metric position (out-of-range -> unknown).
  Occupancy classify(const geom::Vec3d& position) const;

  /// Occupancy probability in [0, 1] of the voxel at `key`, or
  /// std::nullopt for unknown space (paper Eq. 1 inverted).
  std::optional<double> occupancy_probability(const OcKey& key) const {
    const auto view = search(key);
    if (!view) return std::nullopt;
    return static_cast<double>(geom::probability_from_log_odds(view->log_odds));
  }

  /// True if any voxel intersecting the metric box is occupied; used for
  /// collision detection queries. Unknown space is not considered occupied
  /// unless `treat_unknown_as_occupied` is set (conservative planning).
  bool any_occupied_in_box(const geom::Aabb& box, bool treat_unknown_as_occupied = false) const;

  /// Result of casting a ray into the map (see cast_ray).
  struct RayHit {
    geom::Vec3d position;  ///< center of the terminating voxel
    OcKey key;             ///< its key
    Occupancy cell = Occupancy::kOccupied;  ///< kOccupied, or kUnknown when
                                            ///< unknown cells block the ray
    double distance = 0.0;  ///< metres from the origin to the voxel center
  };

  /// Casts a ray from `origin` along `direction` (need not be normalized)
  /// and returns the first blocking voxel within `max_range`: an occupied
  /// voxel, or — when `ignore_unknown` is false — the first unknown voxel
  /// (conservative visibility). Returns std::nullopt when the ray exits
  /// `max_range` or the map bounds without blocking. Mirrors OctoMap's
  /// castRay; used for visibility checks and map-based localization.
  std::optional<RayHit> cast_ray(const geom::Vec3d& origin, const geom::Vec3d& direction,
                                 double max_range, bool ignore_unknown = true) const;

  /// Visits every known leaf whose voxel region intersects the metric box:
  /// callback(depth-aligned key, depth, log_odds).
  void for_each_leaf_in_box(const geom::Aabb& box,
                            const std::function<void(const OcKey&, int, float)>& fn) const;

  /// Merges another map into this one by log-odds addition (clamped), the
  /// standard fusion of two independent occupancy maps over the same
  /// frame. Unknown cells adopt the other map's value. Resolutions must
  /// match (throws std::invalid_argument otherwise).
  void merge(const OccupancyOctree& other);

  // ---- Structure / maintenance ------------------------------------------

  /// Full-tree prune pass (OctoMap's `prune()`); update_node already prunes
  /// incrementally along the updated path, so this is mostly for tests and
  /// for maps edited via set_node_log_odds.
  void prune();

  /// Telemetry hook: pass latency of prune() ("ingest.prune_ns"). Null
  /// (the default) records nothing.
  void set_prune_histogram(obs::Histogram* histogram) { prune_ns_ = histogram; }

  /// Expands every pruned leaf above the finest level into explicit
  /// children (OctoMap's `expand()`); inverse of prune() for testing.
  void expand_all();

  /// Number of known leaf nodes (pruned subtrees count once).
  std::size_t leaf_count() const;
  /// Number of inner nodes.
  std::size_t inner_count() const;
  /// Known nodes = leaves + inner nodes.
  std::size_t node_count() const { return leaf_count() + inner_count(); }

  /// Allocated pool slots (including unknown placeholders, the root line's
  /// 7 alignment pads, and free blocks); proxy for peak memory of the
  /// arena allocator.
  std::size_t pool_slots() const { return pool_.slots(); }
  /// Currently free (reusable) child blocks.
  std::size_t free_blocks() const { return pool_.free_block_count(); }
  /// Approximate memory footprint of the map structure in bytes.
  std::size_t memory_bytes() const { return pool_.memory_bytes() + sizeof(*this); }

  /// O(1) upper bound on leaf_count() derived from arena occupancy (every
  /// leaf lives in one of the live blocks, or is the root). Snapshot
  /// export and leaf collection use it as a reserve hint so flushing a
  /// large map does not re-grow the output vector log(n) times.
  std::size_t leaf_reserve_hint() const { return 8 * pool_.live_blocks() + 1; }

  /// Iterates over all known leaves: callback(key_of_leaf_origin, depth,
  /// log_odds). The key passed is aligned to the leaf's depth (low bits 0).
  void for_each_leaf(const std::function<void(const OcKey&, int, float)>& fn) const;

  /// Collects (key, depth, log_odds) triples for all leaves, sorted by
  /// packed key then depth — a canonical form used by equivalence tests.
  struct LeafRecord {
    OcKey key;
    int depth;
    float log_odds;
    bool operator==(const LeafRecord&) const = default;
  };
  std::vector<LeafRecord> leaves_sorted() const;

  // ---- Dirty-branch tracking (incremental snapshot export) ---------------
  //
  // Every mutation cheaply records which first-level branches (root child
  // octants) it touched; a snapshot publisher drains the accumulator at
  // flush and re-exports only those branches' leaves, splicing the rest
  // from the previous epoch (query::MapSnapshot::build_incremental). The
  // tracking is conservative: a marked branch may be content-identical
  // (e.g. a set_node_log_odds writing the value already there), but an
  // unmarked branch is guaranteed unchanged since the last harvest.

  /// Drains the dirty accumulator. `since_generation` is the generation of
  /// the caller's previous harvest (0 = none); a mismatch — first call, or
  /// another consumer harvested in between — forces a full export, as do
  /// whole-tree mutations and a collapsed (root-leaf) map. Returns the new
  /// generation and clears the accumulator.
  DirtyHarvest harvest_dirty_branches(uint64_t since_generation);

  /// Collects the leaves under first-level branch `branch` (0..7), appended
  /// to `out` in DFS order, which is Morton order (ascending
  /// geom::kernels::morton48 of the leaf key): children are visited in
  /// child-index order, and the child index is the key's 3-bit Morton
  /// group at that level. It is NOT canonical (packed key) order.
  /// Branches collected in ascending order concatenate into one Morton-
  /// ordered list. A collapsed (root-leaf) or empty map contributes
  /// nothing; harvest_dirty_branches reports `full` for the collapsed case
  /// so callers never depend on per-branch collection there.
  void collect_branch_leaves(int branch, std::vector<LeafRecord>& out) const;

  /// True when the whole map is one pruned depth-0 leaf (every branch
  /// equal-valued and merged at the root).
  bool root_collapsed() const { return pool_[0].is_leaf(); }

  /// FNV-1a hash over the canonical leaf list; two maps with equal hashes
  /// have identical content (up to hash collision).
  uint64_t content_hash() const;

  /// Operation counters (see PhaseStats).
  const PhaseStats& stats() const { return stats_; }
  PhaseStats& stats() { return stats_; }

  /// Removes all content, keeping resolution and parameters.
  void clear();

 private:
  friend class OctreeIo;

  using Node = OctreeNode;

  // Arena block management (blocks are 8 contiguous one-line slots).
  int32_t alloc_block() { return pool_.alloc_block(); }
  void free_block(int32_t base) { pool_.free_block(base); }

  // The hot update path: `delta` must already be on the fixed-point grid
  // when params_.quantized (params_ itself is pre-snapped; snapping is
  // idempotent, so snapped deltas pass through the generic entry
  // unchanged).
  void update_node_snapped(const OcKey& key, float delta);

  // Seeds a fresh child block for `node_idx`; children copy the parent's
  // value when the parent was a pruned leaf (expansion), else start
  // unknown. Returns the block base index.
  int32_t materialize_children(int32_t node_idx, bool& was_expand);

  // Recomputes an inner node's value (max over known children) and prunes
  // when all 8 children are equal leaves. Returns true if pruned.
  bool update_inner_and_try_prune(int32_t node_idx);

  void apply_leaf_delta(Node& leaf, float delta);

  void prune_recurs(int32_t node_idx, int depth, std::size_t& pruned);
  void expand_recurs(int32_t node_idx, int depth);
  void count_recurs(int32_t node_idx, std::size_t& leaves, std::size_t& inners) const;
  void leaves_recurs(int32_t node_idx, const OcKey& base, int depth,
                     const std::function<void(const OcKey&, int, float)>& fn) const;
  bool box_query_recurs(int32_t node_idx, const OcKey& base, int depth, const geom::Aabb& box,
                        bool unknown_occupied) const;

  KeyCoder coder_;
  OccupancyParams params_;
  NodeArena pool_;
  PhaseStats stats_;
  obs::Histogram* prune_ns_ = nullptr;  // "ingest.prune_ns" telemetry hook

  // Descent memoization for the hot update path (update_node_snapped):
  // the root-to-leaf node-index path of the last update plus how many of
  // its levels are still valid. Consecutive scan updates hit adjacent
  // voxels (ray steps; sorted discretized batches), whose Morton codes
  // share a deep prefix, so most descents resume a dozen-plus levels down
  // instead of chasing 16 dependent loads from the root. Pure memoization:
  // the resumed walk visits exactly the nodes a fresh descent would, so
  // results and PhaseStats are bit-identical with the cache disabled.
  // cache_depth_ is clamped by unwind prunes (which free cached indices
  // below the prune) and zeroed by every non-update mutation.
  std::array<int32_t, kTreeDepth + 1> path_cache_{};
  uint64_t cached_morton_ = 0;
  int cache_depth_ = 0;

  // Dirty-branch accumulator (see harvest_dirty_branches). dirty_all_
  // starts true so the first harvest is a full export; whole-tree
  // mutations and root-level expansion (a depth-0 leaf splitting into all
  // 8 branches) re-set it. A root-level *prune* needs no flag: the next
  // harvest sees the collapsed root directly.
  uint8_t dirty_branches_ = 0;
  bool dirty_all_ = true;
  uint64_t harvest_generation_ = 0;  ///< 0 = never harvested
};

/// Canonical leaf triple shared with the accelerator model.
using LeafRecord = OccupancyOctree::LeafRecord;

/// THE canonical leaf ordering — packed key, then depth — every backend
/// exports in and every bit-identity comparison in the repo relies on.
/// One definition, so the tie-break can never silently drift between the
/// octree export, snapshot build, world merge and normalization.
inline bool canonical_leaf_less(const LeafRecord& a, const LeafRecord& b) {
  if (a.key.packed() != b.key.packed()) return a.key.packed() < b.key.packed();
  return a.depth < b.depth;
}

/// Sorts a leaf list into canonical order. Every canonical sort in the
/// repo goes through this one helper: its comparator inlines into the
/// sort, where std::sort(..., canonical_leaf_less) calls through a
/// function pointer once per comparison.
void sort_canonical(std::vector<LeafRecord>& leaves);

/// FNV-1a hash over a leaf list in the order given (canonical order for a
/// content hash); equal lists hash equal — used for cheap map-content
/// comparison. Takes a span so a slice of a run hashes in place.
uint64_t hash_leaf_records(std::span<const LeafRecord> records);

/// Normalizes a leaf list to depth >= 1 by splitting any depth-0 record
/// (a fully collapsed map) into its 8 first-level octants. The accelerator
/// partitions the tree across PEs at level 1 and can never merge above it,
/// so equivalence comparisons are made in this normalized form.
std::vector<LeafRecord> normalize_to_depth1(std::vector<LeafRecord> records);

/// Generalization of normalize_to_depth1 to an arbitrary partition level:
/// splits every record shallower than `min_depth` into its equal-valued
/// depth-`min_depth` descendants (8^(min_depth - depth) records each) and
/// returns the list in canonical (packed key, depth) order. A map sharded
/// at depth d — the accelerator's PE split at d = 1, the tiled world map's
/// tile split at its tile-root depth — can never merge leaves above d, so
/// comparisons against a monolithic tree are made in this form.
std::vector<LeafRecord> normalize_to_min_depth(std::vector<LeafRecord> records, int min_depth);

}  // namespace omu::map
