#include "query/map_snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "geom/kernels/key_kernels.hpp"

namespace omu::query {

namespace {

uint64_t morton_of(const map::OcKey& key) {
  return geom::kernels::morton48(key[0], key[1], key[2]);
}

/// Keeps the Morton bits of the root-to-node path of a node at `depth`:
/// `morton & depth_mask(d)` is the code of the key's depth-d ancestor.
constexpr uint64_t depth_mask(int depth) {
  return ~((uint64_t{1} << (3 * (map::kTreeDepth - depth))) - 1);
}

/// Binary search in a sorted key array; returns the value at the matching
/// index, or nullopt.
std::optional<float> find_key(const std::vector<uint64_t>& keys,
                              const std::vector<float>& values, uint64_t key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return std::nullopt;
  return values[static_cast<std::size_t>(it - keys.begin())];
}

constexpr std::size_t level_bytes(const MapSnapshot::Level& level) {
  return level.leaf_keys.capacity() * sizeof(uint64_t) +
         level.leaf_values.capacity() * sizeof(float) +
         level.inner_keys.capacity() * sizeof(uint64_t) +
         level.inner_max.capacity() * sizeof(float);
}

std::vector<uint64_t> morton_codes(const std::vector<map::LeafRecord>& run) {
  std::vector<uint64_t> codes(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) codes[i] = morton_of(run[i].key);
  return codes;
}

/// Morton order: Morton code, then depth. A depth-first walk of the
/// octree emits its leaves in exactly this order.
bool is_morton_sorted(const std::vector<map::LeafRecord>& run,
                      const std::vector<uint64_t>& codes) {
  for (std::size_t i = 1; i < run.size(); ++i) {
    if (codes[i] < codes[i - 1] || (codes[i] == codes[i - 1] && run[i].depth < run[i - 1].depth)) {
      return false;
    }
  }
  return true;
}

/// Sorts `run` into Morton order; `codes` are its Morton codes and come
/// back permuted alongside.
void sort_morton(std::vector<map::LeafRecord>& run, std::vector<uint64_t>& codes) {
  std::vector<std::pair<uint64_t, map::LeafRecord>> keyed(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) keyed[i] = {codes[i], run[i]};
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second.depth < b.second.depth;
  });
  for (std::size_t i = 0; i < run.size(); ++i) {
    codes[i] = keyed[i].first;
    run[i] = keyed[i].second;
  }
}

/// Depth of the deepest ancestor a leaf at (Morton `code`, `depth`) shares
/// with the open path of the previous leaf (Morton `prev`, open down to
/// `open_depth`). Ancestors at depth d agree while the two codes agree on
/// every bit above 3*(16-d).
int shared_depth(uint64_t prev, uint64_t code, int open_depth, int depth) {
  int shared = std::min(open_depth, depth - 1);
  if (const uint64_t diff = prev ^ code; diff != 0) {
    shared = std::min(shared, map::kTreeDepth - 1 - (63 - std::countl_zero(diff)) / 3);
  }
  return shared;
}

/// Buckets leaves by first-level branch, keeping their relative order (so
/// a Morton-ordered list gives Morton-ordered runs). A list that sits in
/// one branch moves into its bucket without a copy.
std::array<std::vector<map::LeafRecord>, 8> split_by_branch(std::vector<map::LeafRecord> leaves) {
  std::array<std::size_t, 8> counts{};
  for (const map::LeafRecord& leaf : leaves) {
    counts[static_cast<std::size_t>(map::first_level_branch(leaf.key))]++;
  }
  std::array<std::vector<map::LeafRecord>, 8> runs;
  for (std::size_t b = 0; b < 8; ++b) {
    if (counts[b] == leaves.size()) {
      runs[b] = std::move(leaves);
      return runs;
    }
  }
  for (std::size_t b = 0; b < 8; ++b) runs[b].reserve(counts[b]);
  for (const map::LeafRecord& leaf : leaves) {
    runs[static_cast<std::size_t>(map::first_level_branch(leaf.key))].push_back(leaf);
  }
  return runs;
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
  std::vector<uint64_t> codes = morton_codes(branch_leaves);
  if (!is_morton_sorted(branch_leaves, codes)) sort_morton(branch_leaves, codes);
  auto chunk = std::make_shared<Chunk>();
  chunk->leaves_ = std::move(branch_leaves);
  const std::vector<map::LeafRecord>& run = chunk->leaves_;

  // Depth-stack fold. In Morton order a node's descendants are contiguous,
  // so the run keeps one open inner node per depth: the ancestors of the
  // previous leaf. A leaf closes every open node that is not its own
  // ancestor, opens the ancestors it does not share, and raises its
  // parent's max; a closing node raises its parent's max with its own.
  // Nodes close in Morton order, so every level comes out sorted. The max
  // over descendant leaves is exactly the octree's parent max-propagation.
  // A first pass sizes each level so the arrays are allocated once.
  std::array<std::size_t, map::kTreeDepth + 1> leaf_counts{};
  std::array<std::size_t, map::kTreeDepth + 1> inner_counts{};
  int open_depth = 0;
  uint64_t prev = 0;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const int depth = run[i].depth;
    assert(depth >= 1 && depth <= map::kTreeDepth);
    for (int d = shared_depth(prev, codes[i], open_depth, depth) + 1; d < depth; ++d) {
      inner_counts[static_cast<std::size_t>(d)]++;
    }
    leaf_counts[static_cast<std::size_t>(depth)]++;
    open_depth = depth - 1;
    prev = codes[i];
  }
  for (int d = 1; d <= map::kTreeDepth; ++d) {
    Level& level = chunk->levels_[static_cast<std::size_t>(d)];
    level.leaf_keys.reserve(leaf_counts[static_cast<std::size_t>(d)]);
    level.leaf_values.reserve(leaf_counts[static_cast<std::size_t>(d)]);
    level.inner_keys.reserve(inner_counts[static_cast<std::size_t>(d)]);
    level.inner_max.reserve(inner_counts[static_cast<std::size_t>(d)]);
  }

  std::array<float, map::kTreeDepth> open_max{};  // index = depth, 1..15
  const auto close = [&](int d) {
    Level& level = chunk->levels_[static_cast<std::size_t>(d)];
    const float value = open_max[static_cast<std::size_t>(d)];
    level.inner_keys.push_back(prev & depth_mask(d));
    level.inner_max.push_back(value);
    if (d > 1) {
      float& parent = open_max[static_cast<std::size_t>(d - 1)];
      parent = std::max(parent, value);
    }
  };
  float max_value = run[0].log_odds;
  open_depth = 0;
  prev = 0;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const int depth = run[i].depth;
    const float value = run[i].log_odds;
    const int shared = shared_depth(prev, codes[i], open_depth, depth);
    for (int d = open_depth; d > shared; --d) close(d);
    for (int d = shared + 1; d < depth; ++d) open_max[static_cast<std::size_t>(d)] = value;
    if (depth > 1) {
      float& parent = open_max[static_cast<std::size_t>(depth - 1)];
      parent = std::max(parent, value);
    }
    Level& level = chunk->levels_[static_cast<std::size_t>(depth)];
    level.leaf_keys.push_back(codes[i]);
    level.leaf_values.push_back(value);
    max_value = std::max(max_value, value);
    open_depth = depth - 1;
    prev = codes[i];
  }
  for (int d = open_depth; d >= 1; --d) close(d);
  chunk->max_log_odds_ = max_value;
  return chunk;
}

void MapSnapshot::set_collapsed(float value) {
  chunks_ = {};
  root_ = NodeLookup{NodeKind::kLeaf, value};
  leaves_cache_ = {map::LeafRecord{map::OcKey{}, 0, value}};
  content_hash_cache_ = map::hash_leaf_records(map::normalize_to_depth1(leaves_cache_));
  lazy_ready_.store(true, std::memory_order_release);
}

std::shared_ptr<const MapSnapshot> MapSnapshot::build(map::MapSnapshotData data, uint64_t epoch) {
  auto snap = std::shared_ptr<MapSnapshot>(new MapSnapshot(data.resolution, data.params, epoch));

  // A single depth-0 record is a fully collapsed map: no branch chunks,
  // the root leaf answers everything.
  if (data.leaves.empty()) {
    snap->root_ = NodeLookup{NodeKind::kUnknown, 0.0f};
  } else if (data.leaves.size() == 1 && data.leaves[0].depth == 0) {
    snap->set_collapsed(data.leaves[0].log_odds);
  } else {
    std::array<std::vector<map::LeafRecord>, 8> runs = split_by_branch(std::move(data.leaves));
    bool any = false;
    float root_max = 0.0f;
    for (std::size_t b = 0; b < 8; ++b) {
      snap->chunks_[b] = build_chunk(std::move(runs[b]));
      if (!snap->chunks_[b]) continue;
      const float chunk_max = snap->chunks_[b]->max_log_odds();
      root_max = any ? std::max(root_max, chunk_max) : chunk_max;
      any = true;
    }
    snap->root_ = NodeLookup{NodeKind::kInner, root_max};
  }
  // leaves()/content_hash() stay lazy: the flat canonical form is an O(map)
  // copy plus a sort that no query needs.
  return snap;
}

std::shared_ptr<const MapSnapshot> MapSnapshot::build_incremental(
    std::shared_ptr<const MapSnapshot> prev, map::MapSnapshotDelta delta, uint64_t epoch,
    BuildStats* stats) {
  if (stats) *stats = BuildStats{};
  if (delta.full) {
    auto snap = build(
        map::MapSnapshotData{std::move(delta.leaves), delta.resolution, delta.params}, epoch);
    if (stats) {
      for (int b = 0; b < 8; ++b) {
        if (const auto chunk = snap->branch_chunk(b)) {
          stats->chunks_rebuilt++;
          stats->bytes_rebuilt += chunk->memory_bytes();
        }
      }
    }
    return snap;
  }
  if (prev == nullptr) {
    throw std::logic_error("MapSnapshot::build_incremental: partial delta without a base");
  }
  if (delta.dirty_mask == 0) return prev;  // nothing changed since prev's harvest
  if (prev->root_.kind == NodeKind::kLeaf && delta.dirty_mask != 0xFF) {
    // A collapsed previous epoch has no chunks to splice from; backends
    // guarantee a full (or all-dirty) export whenever the root was or is a
    // leaf, so a partial delta here is a caller bug.
    throw std::logic_error(
        "MapSnapshot::build_incremental: partial delta against a collapsed snapshot");
  }

  auto snap =
      std::shared_ptr<MapSnapshot>(new MapSnapshot(delta.resolution, delta.params, epoch));

  // The dirty branches' runs arrive in DFS (Morton) order from
  // collect_branch_leaves(), which is the order build_chunk folds in.
  std::array<std::vector<map::LeafRecord>, 8> runs = split_by_branch(std::move(delta.leaves));

  BuildStats local;
  local.incremental = true;
  for (int b = 0; b < 8; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (delta.dirty_mask & (1u << b)) {
      snap->chunks_[bi] = build_chunk(std::move(runs[bi]));
      if (snap->chunks_[bi]) {
        local.chunks_rebuilt++;
        local.bytes_rebuilt += snap->chunks_[bi]->memory_bytes();
      }
    } else {
      snap->chunks_[bi] = prev->chunks_[bi];
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
    snap->set_collapsed(snap->chunks_[0]->leaves()[0].log_odds);
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
  // The one canonical sort on the snapshot: the chunk runs are in Morton
  // order, and the flat form is in canonical (packed key, depth) order.
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

MapSnapshot::NodeLookup MapSnapshot::node_at(uint64_t morton, int depth) const {
  if (depth == 0) return root_;
  // Morton bits 45..47 are the level-0 child index: the first-level branch.
  const auto& chunk = chunks_[static_cast<std::size_t>((morton >> 45) & 7)];
  if (!chunk) return NodeLookup{NodeKind::kUnknown, 0.0f};
  const Level& level = chunk->levels_[static_cast<std::size_t>(depth)];
  const uint64_t code = morton & depth_mask(depth);
  if (const auto leaf = find_key(level.leaf_keys, level.leaf_values, code)) {
    return NodeLookup{NodeKind::kLeaf, *leaf};
  }
  if (const auto max = find_key(level.inner_keys, level.inner_max, code)) {
    return NodeLookup{NodeKind::kInner, *max};
  }
  return NodeLookup{NodeKind::kUnknown, 0.0f};
}

SnapshotNodeProbe MapSnapshot::probe(const map::OcKey& key, int depth) const {
  const NodeLookup node = node_at(morton_of(key), depth);
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
  const uint64_t morton = morton_of(key);
  int depth = 0;
  while (depth < max_depth && node.kind == NodeKind::kInner) {
    node = node_at(morton, depth + 1);
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
  return box_recurs(map::OcKey{}, 0, 0, box, treat_unknown_as_occupied);
}

bool MapSnapshot::box_recurs(const map::OcKey& base, uint64_t morton, int depth,
                             const geom::Aabb& box, bool unknown_occupied) const {
  const double res = coder_.resolution();
  const double size = coder_.node_size(depth);
  const geom::Vec3d lo{(static_cast<double>(base[0]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[1]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[2]) - map::kKeyOrigin) * res};
  if (!geom::Aabb{lo, lo + geom::Vec3d{size, size, size}}.intersects(box)) return false;

  const NodeLookup node = node_at(morton, depth);
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
    const uint64_t child_morton = morton | (static_cast<uint64_t>(i) << (3 * bit));
    if (box_recurs(child_base, child_morton, depth + 1, box, unknown_occupied)) return true;
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
