#include "query/map_snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace omu::query {

namespace {

/// Binary search in a sorted packed-key array; returns the value at the
/// matching index, or nullopt.
std::optional<float> find_packed(const std::vector<uint64_t>& keys,
                                 const std::vector<float>& values, uint64_t packed) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), packed);
  if (it == keys.end() || *it != packed) return std::nullopt;
  return values[static_cast<std::size_t>(it - keys.begin())];
}

constexpr std::size_t level_bytes(const MapSnapshot::Level& level) {
  return level.leaf_keys.capacity() * sizeof(uint64_t) +
         level.leaf_values.capacity() * sizeof(float) +
         level.inner_keys.capacity() * sizeof(uint64_t) +
         level.inner_max.capacity() * sizeof(float);
}

}  // namespace

std::size_t MapSnapshot::Chunk::memory_bytes() const {
  std::size_t bytes = sizeof(*this) + leaves_.capacity() * sizeof(map::LeafRecord);
  for (const Level& level : levels_) bytes += level_bytes(level);
  return bytes;
}

std::shared_ptr<const MapSnapshot::Chunk> MapSnapshot::build_chunk(
    std::vector<map::LeafRecord> branch_leaves) {
  if (branch_leaves.empty()) return nullptr;
  auto chunk = std::make_shared<Chunk>();
  chunk->leaves_ = std::move(branch_leaves);

  // Reconstruct the branch's inner nodes by folding each leaf's value into
  // every ancestor level — the max over descendant leaves is exactly the
  // octree's parent max-propagation.
  std::array<std::unordered_map<uint64_t, float>, map::kTreeDepth + 1> inner;
  float max_value = chunk->leaves_[0].log_odds;
  for (const map::LeafRecord& leaf : chunk->leaves_) {
    max_value = std::max(max_value, leaf.log_odds);
    Level& level = chunk->levels_[static_cast<std::size_t>(leaf.depth)];
    level.leaf_keys.push_back(leaf.key.packed());
    level.leaf_values.push_back(leaf.log_odds);
    for (int d = 1; d < leaf.depth; ++d) {
      const uint64_t packed = map::key_at_depth(leaf.key, d).packed();
      auto [it, inserted] =
          inner[static_cast<std::size_t>(d)].try_emplace(packed, leaf.log_odds);
      if (!inserted) it->second = std::max(it->second, leaf.log_odds);
    }
  }
  chunk->max_log_odds_ = max_value;

  for (int d = 1; d <= map::kTreeDepth; ++d) {
    Level& level = chunk->levels_[static_cast<std::size_t>(d)];
    // Leaf arrays arrive in canonical packed order (the branch run is
    // sorted and bucketing by depth preserves relative order), so they are
    // already sorted.
    auto& agg = inner[static_cast<std::size_t>(d)];
    level.inner_keys.reserve(agg.size());
    for (const auto& [packed, value] : agg) level.inner_keys.push_back(packed);
    std::sort(level.inner_keys.begin(), level.inner_keys.end());
    level.inner_max.resize(level.inner_keys.size());
    for (std::size_t i = 0; i < level.inner_keys.size(); ++i) {
      level.inner_max[i] = agg.at(level.inner_keys[i]);
    }
  }
  return chunk;
}

std::shared_ptr<const MapSnapshot> MapSnapshot::build(map::MapSnapshotData data, uint64_t epoch) {
  auto snap = std::shared_ptr<MapSnapshot>(new MapSnapshot(data.resolution, data.params, epoch));

  // Required sort: leaves_sorted() exports are canonical already, but a
  // full export_snapshot_delta() concatenates per-branch DFS runs, which
  // are in Morton order, not packed (z-major raster) order — see
  // OccupancyOctree::collect_branch_leaves.
  std::vector<map::LeafRecord> leaves = std::move(data.leaves);
  map::sort_canonical(leaves);

  // Root node. A single depth-0 record is a fully collapsed map: no branch
  // chunks, the root leaf answers everything.
  if (leaves.empty()) {
    snap->root_ = NodeLookup{NodeKind::kUnknown, 0.0f};
  } else if (leaves.size() == 1 && leaves[0].depth == 0) {
    snap->root_ = NodeLookup{NodeKind::kLeaf, leaves[0].log_odds};
  } else {
    // Split the sorted list into per-branch runs and build each chunk.
    // Branch buckets are not contiguous in packed order (the z/y/x bits
    // interleave below the top bit), so bucket by first_level_branch.
    std::array<std::vector<map::LeafRecord>, 8> runs;
    for (const map::LeafRecord& leaf : leaves) {
      runs[static_cast<std::size_t>(map::first_level_branch(leaf.key))].push_back(leaf);
    }
    float root_max = leaves[0].log_odds;
    for (std::size_t b = 0; b < 8; ++b) {
      snap->chunks_[b] = build_chunk(std::move(runs[b]));
      if (snap->chunks_[b]) root_max = std::max(root_max, snap->chunks_[b]->max_log_odds());
    }
    snap->root_ = NodeLookup{NodeKind::kInner, root_max};
  }

  // The full build already holds the whole sorted list — keep it as the
  // materialized flat form (matches the pre-chunking eager behavior).
  snap->leaves_cache_ = std::move(leaves);
  snap->content_hash_cache_ =
      map::hash_leaf_records(map::normalize_to_depth1(snap->leaves_cache_));
  snap->lazy_ready_.store(true, std::memory_order_release);
  return snap;
}

std::shared_ptr<const MapSnapshot> MapSnapshot::build_incremental(
    const MapSnapshot& prev, map::MapSnapshotDelta delta, uint64_t epoch, BuildStats* stats) {
  if (delta.full) {
    auto snap = build(
        map::MapSnapshotData{std::move(delta.leaves), delta.resolution, delta.params}, epoch);
    if (stats) {
      *stats = BuildStats{};
      for (int b = 0; b < 8; ++b) {
        if (const auto chunk = snap->branch_chunk(b)) {
          stats->chunks_rebuilt++;
          stats->bytes_rebuilt += chunk->memory_bytes();
        }
      }
    }
    return snap;
  }
  if (prev.root_.kind == NodeKind::kLeaf && delta.dirty_mask != 0xFF) {
    // A collapsed previous epoch has no chunks to splice from; backends
    // guarantee a full (or all-dirty) export whenever the root was or is a
    // leaf, so a partial delta here is a caller bug.
    throw std::logic_error(
        "MapSnapshot::build_incremental: partial delta against a collapsed snapshot");
  }

  auto snap =
      std::shared_ptr<MapSnapshot>(new MapSnapshot(delta.resolution, delta.params, epoch));

  // Bucket the dirty branches' leaves and sort each branch run. The sort
  // is required, not defensive: collect_branch_leaves() emits a branch in
  // DFS (Morton) order, and packed() is z-major raster order, so e.g.
  // (x=0, y=h-1) arrives before (x=h, y=0) although it sorts after it.
  std::array<std::vector<map::LeafRecord>, 8> runs;
  for (map::LeafRecord& leaf : delta.leaves) {
    runs[static_cast<std::size_t>(map::first_level_branch(leaf.key))].push_back(leaf);
  }

  BuildStats local;
  local.incremental = true;
  for (int b = 0; b < 8; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (delta.dirty_mask & (1u << b)) {
      map::sort_canonical(runs[bi]);
      snap->chunks_[bi] = build_chunk(std::move(runs[bi]));
      if (snap->chunks_[bi]) {
        local.chunks_rebuilt++;
        local.bytes_rebuilt += snap->chunks_[bi]->memory_bytes();
      }
    } else {
      snap->chunks_[bi] = prev.chunks_[bi];
      if (snap->chunks_[bi]) {
        local.chunks_reused++;
        local.bytes_reused += snap->chunks_[bi]->memory_bytes();
      }
    }
  }

  // Root-collapse normalization: when every branch is a single depth-1
  // leaf and all eight values compare equal, the canonical full export of
  // the same state is one depth-0 record (the octree's root prune). Match
  // it so incremental and full builds stay bit-identical. The float ==
  // mirrors update_inner_and_try_prune's equality test.
  bool collapse = true;
  for (int b = 0; collapse && b < 8; ++b) {
    const auto& chunk = snap->chunks_[static_cast<std::size_t>(b)];
    collapse = chunk && chunk->leaf_count() == 1 && chunk->leaves()[0].depth == 1 &&
               chunk->leaves()[0].log_odds == snap->chunks_[0]->leaves()[0].log_odds;
  }
  if (collapse) {
    const float value = snap->chunks_[0]->leaves()[0].log_odds;
    snap->chunks_ = {};
    snap->root_ = NodeLookup{NodeKind::kLeaf, value};
    snap->leaves_cache_ = {map::LeafRecord{map::OcKey{}, 0, value}};
    snap->content_hash_cache_ =
        map::hash_leaf_records(map::normalize_to_depth1(snap->leaves_cache_));
    snap->lazy_ready_.store(true, std::memory_order_release);
    local = BuildStats{};
    local.incremental = true;
    local.chunks_rebuilt = 1;
    local.bytes_rebuilt = snap->leaves_cache_.capacity() * sizeof(map::LeafRecord);
    if (stats) *stats = local;
    return snap;
  }

  bool any = false;
  float root_max = 0.0f;
  for (const auto& chunk : snap->chunks_) {
    if (!chunk) continue;
    root_max = any ? std::max(root_max, chunk->max_log_odds()) : chunk->max_log_odds();
    any = true;
  }
  snap->root_ = any ? NodeLookup{NodeKind::kInner, root_max} : NodeLookup{NodeKind::kUnknown, 0.0f};
  // leaves()/content_hash() stay lazy: the O(changed) build does not touch
  // the O(map) flat form.
  if (stats) *stats = local;
  return snap;
}

std::shared_ptr<const MapSnapshot> MapSnapshot::capture(map::MapBackend& backend,
                                                        uint64_t epoch) {
  backend.flush();
  return build(backend.export_snapshot_data(), epoch);
}

void MapSnapshot::ensure_flat() const {
  if (lazy_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(lazy_mutex_);
  if (lazy_ready_.load(std::memory_order_relaxed)) return;
  std::size_t total = 0;
  for (const auto& chunk : chunks_) {
    if (chunk) total += chunk->leaf_count();
  }
  std::vector<map::LeafRecord> flat;
  flat.reserve(total);
  for (const auto& chunk : chunks_) {
    if (chunk) flat.insert(flat.end(), chunk->leaves().begin(), chunk->leaves().end());
  }
  // Branch runs interleave in global packed order (the top bit of each
  // axis is not the most significant sort bit), so one global sort merges
  // them; each run is already sorted, which keeps the pass cheap.
  map::sort_canonical(flat);
  leaves_cache_ = std::move(flat);
  content_hash_cache_ = map::hash_leaf_records(map::normalize_to_depth1(leaves_cache_));
  lazy_ready_.store(true, std::memory_order_release);
}

const std::vector<map::LeafRecord>& MapSnapshot::leaves() const {
  ensure_flat();
  return leaves_cache_;
}

uint64_t MapSnapshot::content_hash() const {
  ensure_flat();
  return content_hash_cache_;
}

std::size_t MapSnapshot::leaf_count() const {
  if (lazy_ready_.load(std::memory_order_acquire)) return leaves_cache_.size();
  std::size_t total = 0;
  for (const auto& chunk : chunks_) {
    if (chunk) total += chunk->leaf_count();
  }
  return total;
}

MapSnapshot::NodeLookup MapSnapshot::node_at(const map::OcKey& key, int depth) const {
  if (depth == 0) return root_;
  const auto& chunk = chunks_[static_cast<std::size_t>(map::first_level_branch(key))];
  if (!chunk) return NodeLookup{NodeKind::kUnknown, 0.0f};
  const Level& level = chunk->levels_[static_cast<std::size_t>(depth)];
  const uint64_t packed = map::key_at_depth(key, depth).packed();
  if (const auto leaf = find_packed(level.leaf_keys, level.leaf_values, packed)) {
    return NodeLookup{NodeKind::kLeaf, *leaf};
  }
  if (const auto max = find_packed(level.inner_keys, level.inner_max, packed)) {
    return NodeLookup{NodeKind::kInner, *max};
  }
  return NodeLookup{NodeKind::kUnknown, 0.0f};
}

SnapshotNodeProbe MapSnapshot::probe(const map::OcKey& key, int depth) const {
  const NodeLookup node = node_at(key, depth);
  switch (node.kind) {
    case NodeKind::kUnknown:
      return SnapshotNodeProbe{SnapshotNodeKind::kUnknown, 0.0f};
    case NodeKind::kLeaf:
      return SnapshotNodeProbe{SnapshotNodeKind::kLeaf, node.value};
    case NodeKind::kInner:
      return SnapshotNodeProbe{SnapshotNodeKind::kInner, node.value};
  }
  return SnapshotNodeProbe{};
}

std::optional<SnapshotNodeView> MapSnapshot::search(const map::OcKey& key, int max_depth) const {
  NodeLookup node = root_;
  if (node.kind == NodeKind::kUnknown) return std::nullopt;
  int depth = 0;
  while (depth < max_depth && node.kind == NodeKind::kInner) {
    node = node_at(key, depth + 1);
    ++depth;
    if (node.kind == NodeKind::kUnknown) return std::nullopt;
  }
  return SnapshotNodeView{node.value, depth, node.kind == NodeKind::kLeaf};
}

map::Occupancy MapSnapshot::classify(const map::OcKey& key, int max_depth) const {
  const auto view = search(key, max_depth);
  if (!view) return map::Occupancy::kUnknown;
  return params_.classify(view->log_odds);
}

map::Occupancy MapSnapshot::classify(const geom::Vec3d& position) const {
  const auto key = coder_.key_for(position);
  if (!key) return map::Occupancy::kUnknown;
  return classify(*key);
}

void MapSnapshot::classify_batch(const std::vector<map::OcKey>& keys,
                                 std::vector<map::Occupancy>& out, int max_depth) const {
  out.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = classify(keys[i], max_depth);
}

bool MapSnapshot::any_occupied_in_box(const geom::Aabb& box,
                                      bool treat_unknown_as_occupied) const {
  return box_recurs(map::OcKey{}, 0, box, treat_unknown_as_occupied);
}

bool MapSnapshot::box_recurs(const map::OcKey& base, int depth, const geom::Aabb& box,
                             bool unknown_occupied) const {
  const double res = coder_.resolution();
  const double size = coder_.node_size(depth);
  const geom::Vec3d lo{(static_cast<double>(base[0]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[1]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[2]) - map::kKeyOrigin) * res};
  if (!geom::Aabb{lo, lo + geom::Vec3d{size, size, size}}.intersects(box)) return false;

  const NodeLookup node = node_at(base, depth);
  switch (node.kind) {
    case NodeKind::kUnknown:
      return unknown_occupied;
    case NodeKind::kLeaf:
      return params_.classify(node.value) == map::Occupancy::kOccupied;
    case NodeKind::kInner:
      break;
  }
  // Max-propagation prune (the octree descends instead, with the same
  // outcome): a subtree whose max is not occupied can only answer true
  // through an unknown octant.
  if (!unknown_occupied && params_.classify(node.value) != map::Occupancy::kOccupied) {
    return false;
  }
  const int bit = map::kTreeDepth - 1 - depth;
  for (int i = 0; i < 8; ++i) {
    map::OcKey child_base = base;
    child_base[0] |= static_cast<uint16_t>((i & 1) << bit);
    child_base[1] |= static_cast<uint16_t>(((i >> 1) & 1) << bit);
    child_base[2] |= static_cast<uint16_t>(((i >> 2) & 1) << bit);
    if (box_recurs(child_base, depth + 1, box, unknown_occupied)) return true;
  }
  return false;
}

std::size_t MapSnapshot::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  // Only count the flat cache once materialized (the acquire load pairs
  // with ensure_flat's release, so the capacity read is safe).
  if (lazy_ready_.load(std::memory_order_acquire)) {
    bytes += leaves_cache_.capacity() * sizeof(map::LeafRecord);
  }
  for (const auto& chunk : chunks_) {
    if (chunk) bytes += chunk->memory_bytes();
  }
  return bytes;
}

}  // namespace omu::query
