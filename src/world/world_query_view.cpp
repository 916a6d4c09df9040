#include "world/world_query_view.hpp"

#include <algorithm>
#include <utility>

namespace omu::world {

using query::SnapshotNodeKind;
using query::SnapshotNodeProbe;

std::shared_ptr<const WorldQueryView> WorldQueryView::build(
    const TileGrid& grid, map::OccupancyParams params,
    std::vector<std::pair<TileId, std::shared_ptr<const query::MapSnapshot>>> tiles,
    uint64_t epoch) {
  return std::shared_ptr<const WorldQueryView>(
      new WorldQueryView(grid, params, std::move(tiles), epoch));
}

WorldQueryView::WorldQueryView(
    const TileGrid& grid, map::OccupancyParams params,
    std::vector<std::pair<TileId, std::shared_ptr<const query::MapSnapshot>>> tiles,
    uint64_t epoch)
    : grid_(grid),
      coder_(grid.resolution()),
      params_(params.quantized ? params.snapped_to_fixed_point() : params),
      epoch_(epoch) {
  const int tile_depth = grid_.tile_depth();
  summary_.resize(static_cast<std::size_t>(std::max(tile_depth, 1)));

  bool any = false;
  float root_max = 0.0f;
  for (auto& [id, snapshot] : tiles) {
    if (snapshot == nullptr || snapshot->empty()) continue;
    // The tile's max log-odds: its snapshot's depth-0 probe (a tile
    // snapshot only holds that tile's leaves, so the root value is the
    // tile maximum — and equals the monolithic tile-root node's value).
    const map::OcKey base = grid_.base_key(unpack_tile(id));
    const float tile_max = snapshot->probe(base, 0).value;
    root_max = any ? std::max(root_max, tile_max) : tile_max;
    any = true;
    for (int d = 1; d < tile_depth; ++d) {
      const uint64_t packed = map::key_at_depth(base, d).packed();
      auto [it, inserted] = summary_[static_cast<std::size_t>(d)].try_emplace(packed, tile_max);
      if (!inserted) it->second = std::max(it->second, tile_max);
    }
    tiles_.emplace(id, std::move(snapshot));
  }
  root_ = any ? SnapshotNodeProbe{SnapshotNodeKind::kInner, root_max}
              : SnapshotNodeProbe{SnapshotNodeKind::kUnknown, 0.0f};
}

SnapshotNodeProbe WorldQueryView::probe(const map::OcKey& key, int depth) const {
  const int tile_depth = grid_.tile_depth();
  if (depth >= tile_depth) {
    // The node fits inside one tile: delegate to the owning snapshot,
    // whose structure below the tile root is bit-identical to the
    // monolithic tree's.
    const auto it = tiles_.find(grid_.tile_id(key));
    if (it == tiles_.end()) return SnapshotNodeProbe{};
    return it->second->probe(key, depth);
  }
  if (depth == 0) return root_;
  const auto& level = summary_[static_cast<std::size_t>(depth)];
  const auto it = level.find(map::key_at_depth(key, depth).packed());
  if (it == level.end()) return SnapshotNodeProbe{};
  return SnapshotNodeProbe{SnapshotNodeKind::kInner, it->second};
}

map::Occupancy WorldQueryView::classify(const map::OcKey& key, int max_depth) const {
  if (max_depth >= grid_.tile_depth()) {
    // A descent that reaches the tile root stays inside one tile from
    // there on, and above the tile root the tile's own snapshot holds only
    // inner nodes on the key's path (it cannot prune across tiles), just
    // as the federated summary does. So the owning snapshot's search ends
    // on the same node the federated descent below would, with one tile
    // lookup and one Morton code for the whole descent.
    const auto it = tiles_.find(grid_.tile_id(key));
    if (it == tiles_.end()) return map::Occupancy::kUnknown;
    const auto node = it->second->search(key, max_depth);
    return node ? params_.classify(node->log_odds) : map::Occupancy::kUnknown;
  }
  // MapSnapshot::search's descent, over the federated probe. A monolithic
  // tree that pruned equal tiles into a coarse leaf stops earlier with the
  // same value, so the classification is identical either way.
  SnapshotNodeProbe node = root_;
  if (node.kind == SnapshotNodeKind::kUnknown) return map::Occupancy::kUnknown;
  int depth = 0;
  while (depth < max_depth && node.kind == SnapshotNodeKind::kInner) {
    node = probe(key, depth + 1);
    ++depth;
    if (node.kind == SnapshotNodeKind::kUnknown) return map::Occupancy::kUnknown;
  }
  return params_.classify(node.value);
}

map::Occupancy WorldQueryView::classify(const geom::Vec3d& position) const {
  const auto key = coder_.key_for(position);
  if (!key) return map::Occupancy::kUnknown;
  return classify(*key);
}

void WorldQueryView::classify_batch(const std::vector<map::OcKey>& keys,
                                    std::vector<map::Occupancy>& out, int max_depth) const {
  out.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = classify(keys[i], max_depth);
}

bool WorldQueryView::any_occupied_in_box(const geom::Aabb& box,
                                         bool treat_unknown_as_occupied) const {
  return box_recurs(map::OcKey{}, 0, box, treat_unknown_as_occupied);
}

bool WorldQueryView::box_recurs(const map::OcKey& base, int depth, const geom::Aabb& box,
                                bool unknown_occupied) const {
  // MapSnapshot::box_recurs verbatim, with the federated node lookup.
  const double res = coder_.resolution();
  const double size = coder_.node_size(depth);
  const geom::Vec3d lo{(static_cast<double>(base[0]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[1]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[2]) - map::kKeyOrigin) * res};
  if (!geom::Aabb{lo, lo + geom::Vec3d{size, size, size}}.intersects(box)) return false;

  const SnapshotNodeProbe node = probe(base, depth);
  switch (node.kind) {
    case SnapshotNodeKind::kUnknown:
      return unknown_occupied;
    case SnapshotNodeKind::kLeaf:
      return params_.classify(node.value) == map::Occupancy::kOccupied;
    case SnapshotNodeKind::kInner:
      break;
  }
  // Max-propagation prune: a subtree whose max is not occupied can only
  // answer true through an unknown octant.
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

std::size_t WorldQueryView::leaf_count() const {
  std::size_t n = 0;
  for (const auto& [id, snapshot] : tiles_) n += snapshot->leaf_count();
  return n;
}

std::size_t WorldQueryView::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& [id, snapshot] : tiles_) {
    bytes += sizeof(id) + snapshot->memory_bytes();
  }
  for (const auto& level : summary_) {
    bytes += level.size() * (sizeof(uint64_t) + sizeof(float) + 2 * sizeof(void*));
  }
  return bytes;
}

std::shared_ptr<const query::MapSnapshot> WorldQueryView::tile_snapshot(TileId id) const {
  const auto it = tiles_.find(id);
  return it == tiles_.end() ? nullptr : it->second;
}

std::vector<TileId> WorldQueryView::tile_ids() const {
  std::vector<TileId> ids;
  ids.reserve(tiles_.size());
  for (const auto& [id, snapshot] : tiles_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t WorldViewService::publish(std::shared_ptr<const WorldQueryView> next) {
  const uint64_t epoch = next->epoch();
  std::lock_guard lock(mutex_);
  current_ = std::move(next);
  publications_++;
  return epoch;
}

}  // namespace omu::world
