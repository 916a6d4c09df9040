#include "map/occupancy_octree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>

#include "geom/kernels/key_kernels.hpp"
#include "geom/kernels/logodds_kernels.hpp"
#include "geom/kernels/simd.hpp"
#include "io/framing.hpp"
#include "obs/trace.hpp"

namespace omu::map {

namespace kernels = geom::kernels;

OccupancyOctree::OccupancyOctree(double resolution, OccupancyParams params)
    : coder_(resolution), params_(params.quantized ? params.snapped_to_fixed_point() : params) {
  // pool_ construction seeds the unknown root (arena line 0).
}

void OccupancyOctree::clear() {
  pool_.clear();
  cache_depth_ = 0;
  dirty_all_ = true;
}

int32_t OccupancyOctree::materialize_children(int32_t node_idx, bool& was_expand) {
  const int32_t base = alloc_block();  // may reallocate the arena
  Node& node = pool_[static_cast<std::size_t>(node_idx)];
  was_expand = node.is_leaf();
  if (was_expand) {
    // Expansion of a pruned leaf: all children inherit the collapsed value
    // (paper Fig. 2b in reverse).
    for (int i = 0; i < 8; ++i) {
      pool_[static_cast<std::size_t>(base + i)].make_leaf(node.value);
    }
    stats_.expands++;
  } else {
    // Arena blocks arrive zeroed (all slots unknown) — nothing to write.
    stats_.fresh_allocs++;
  }
  node.children = base;
  return base;
}

void OccupancyOctree::apply_leaf_delta(Node& leaf, float delta) {
  // With quantized parameters every operand is an exact multiple of 2^-10
  // below 2^5 in magnitude, so this float arithmetic is bit-identical to
  // the accelerator's 16-bit fixed-point datapath. saturating_add is the
  // branchless max/min form of std::clamp(value + delta, lo, hi).
  leaf.value = kernels::saturating_add(leaf.value, delta, params_.clamp_min, params_.clamp_max);
  stats_.leaf_updates++;
}

bool OccupancyOctree::update_inner_and_try_prune(int32_t node_idx) {
  Node& node = pool_[static_cast<std::size_t>(node_idx)];
  assert(node.is_inner());
  const int32_t base = node.children;
  stats_.parent_updates++;

#if OMU_KERNELS_SSE2
  // The child block is one 64-byte-aligned cache line of 8 {float value,
  // int32 children} pairs; four aligned 128-bit loads cover it. Deinterleave
  // values/children, blend unknown lanes to -inf, and reduce: parent value,
  // the all-leaves test and the prune-equality test all come from the same
  // four registers with no per-child branches.
  const Node* blk = pool_.block(base);
  const __m128i r0 = _mm_load_si128(reinterpret_cast<const __m128i*>(blk + 0));
  const __m128i r1 = _mm_load_si128(reinterpret_cast<const __m128i*>(blk + 2));
  const __m128i r2 = _mm_load_si128(reinterpret_cast<const __m128i*>(blk + 4));
  const __m128i r3 = _mm_load_si128(reinterpret_cast<const __m128i*>(blk + 6));
  const __m128 v01 =
      _mm_shuffle_ps(_mm_castsi128_ps(r0), _mm_castsi128_ps(r1), _MM_SHUFFLE(2, 0, 2, 0));
  const __m128 v23 =
      _mm_shuffle_ps(_mm_castsi128_ps(r2), _mm_castsi128_ps(r3), _MM_SHUFFLE(2, 0, 2, 0));
  const __m128i c01 = _mm_castps_si128(
      _mm_shuffle_ps(_mm_castsi128_ps(r0), _mm_castsi128_ps(r1), _MM_SHUFFLE(3, 1, 3, 1)));
  const __m128i c23 = _mm_castps_si128(
      _mm_shuffle_ps(_mm_castsi128_ps(r2), _mm_castsi128_ps(r3), _MM_SHUFFLE(3, 1, 3, 1)));

  const __m128i unknown = _mm_set1_epi32(Node::kUnknownChild);
  const __m128 u01 = _mm_castsi128_ps(_mm_cmpeq_epi32(c01, unknown));
  const __m128 u23 = _mm_castsi128_ps(_mm_cmpeq_epi32(c23, unknown));
  const __m128 neg_inf = _mm_set1_ps(-std::numeric_limits<float>::infinity());
  const __m128 k01 = _mm_or_ps(_mm_and_ps(u01, neg_inf), _mm_andnot_ps(u01, v01));
  const __m128 k23 = _mm_or_ps(_mm_and_ps(u23, neg_inf), _mm_andnot_ps(u23, v23));
  __m128 m = _mm_max_ps(k01, k23);
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(2, 3, 0, 1)));
  // The update path guarantees at least one known child below.
  node.value = _mm_cvtss_f32(m);

  const __m128i leaf_tag = _mm_set1_epi32(Node::kLeafChild);
  const int leaf_mask =
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(c01, leaf_tag))) |
      (_mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(c23, leaf_tag))) << 4);
  if (leaf_mask != 0xFF) return false;

  stats_.prune_checks++;
  const __m128 first_splat = _mm_shuffle_ps(v01, v01, _MM_SHUFFLE(0, 0, 0, 0));
  const int eq_mask = _mm_movemask_ps(_mm_cmpeq_ps(v01, first_splat)) |
                      (_mm_movemask_ps(_mm_cmpeq_ps(v23, first_splat)) << 4);
  if (eq_mask != 0xFF) return false;
  const float first = blk[0].value;
#else
  bool all_known_leaves = true;
  float max_value = -std::numeric_limits<float>::infinity();
  for (int i = 0; i < 8; ++i) {
    const Node& child = pool_[static_cast<std::size_t>(base + i)];
    if (child.is_unknown()) {
      all_known_leaves = false;
      continue;
    }
    max_value = std::max(max_value, child.value);
    if (!child.is_leaf()) all_known_leaves = false;
  }
  // The update path guarantees at least one known child below.
  node.value = max_value;

  if (!all_known_leaves) return false;

  stats_.prune_checks++;
  const float first = pool_[static_cast<std::size_t>(base)].value;
  for (int i = 1; i < 8; ++i) {
    if (pool_[static_cast<std::size_t>(base + i)].value != first) return false;
  }
#endif
  // All eight children are identical leaves: collapse them (paper Fig. 2b).
  free_block(base);
  node.make_leaf(first);
  stats_.prunes++;
  return true;
}

void OccupancyOctree::update_node(const geom::Vec3d& position, bool occupied) {
  if (const auto key = coder_.key_for(position)) update_node(*key, occupied);
}

void OccupancyOctree::update_node_log_odds(const OcKey& key, float delta) {
  if (params_.quantized) delta = geom::Fixed16::from_float(delta).to_float();
  update_node_snapped(key, delta);
}

void OccupancyOctree::update_node_snapped(const OcKey& key, float delta) {
  stats_.voxel_updates++;

  // One Morton interleave up front turns the 16-level descent into a
  // shift+mask per level instead of three per-axis bit extracts.
  const uint64_t morton = kernels::morton48(key[0], key[1], key[2]);

  // Resume the descent from the cached path where this key's Morton prefix
  // matches the previous key's. Every skipped level is one the fresh walk
  // would have traversed identically: the cached nodes there are inner
  // (validity invariant), so no early abort or materialization is being
  // bypassed, and the skipped descend_steps/descend_reads increments are
  // exactly the ones the walk would have made (every node on a valid
  // cached path is known).
  int start = cache_depth_;
  if (start > 0) {
    const uint64_t diff = morton ^ cached_morton_;
    if (diff != 0) {
      const int highest_bit = 63 - std::countl_zero(diff);
      start = std::min(start, kTreeDepth - 1 - highest_bit / 3);
    }
  }
  stats_.descend_steps += static_cast<uint64_t>(start);
  stats_.descend_reads += static_cast<uint64_t>(start);

  std::array<int32_t, kTreeDepth + 1>& path = path_cache_;  // node index per depth
  path[0] = 0;
  int32_t idx = path[static_cast<std::size_t>(start)];
  // Shallowest path depth materialized from *unknown* this update: such a
  // node newly joins its parent's max aggregation, so the unwind below may
  // not early-exit at or below it.
  int fresh_depth = kTreeDepth + 1;
  for (int depth = start; depth < kTreeDepth; ++depth) {
    {
      Node& node = pool_[static_cast<std::size_t>(idx)];
      if (!node.is_inner()) {
        if (node.is_leaf() &&
            kernels::update_saturates(node.value, delta, params_.clamp_min, params_.clamp_max)) {
          // The pruned leaf is already clamped in the update direction; the
          // update is a no-op for the whole subtree (OctoMap early abort).
          stats_.early_aborts++;
          cached_morton_ = morton;
          cache_depth_ = depth;
          return;
        }
        bool was_expand = false;
        materialize_children(idx, was_expand);
        if (!was_expand && fresh_depth > depth) fresh_depth = depth;
        // A collapsed *root* splitting open changes the leaf set of all 8
        // branches (each gains a copy of the depth-0 value).
        if (depth == 0 && was_expand) dirty_all_ = true;
      }
    }
    stats_.descend_steps++;
    idx = pool_[static_cast<std::size_t>(idx)].children +
          static_cast<int32_t>((morton >> (3 * (kTreeDepth - 1 - depth))) & 7);
    if (!pool_[static_cast<std::size_t>(idx)].is_unknown()) {
      stats_.descend_reads++;
    }
    path[static_cast<std::size_t>(depth + 1)] = idx;
  }

  {
    Node& leaf = pool_[static_cast<std::size_t>(idx)];
    if (leaf.is_leaf() &&
        kernels::update_saturates(leaf.value, delta, params_.clamp_min, params_.clamp_max)) {
      stats_.early_aborts++;
      cached_morton_ = morton;
      cache_depth_ = kTreeDepth;
      return;
    }
    if (leaf.is_unknown()) leaf.make_leaf(0.0f);
    apply_leaf_delta(leaf, delta);
  }
  // Content changed (every early abort returned above): mark the key's
  // first-level branch dirty. Morton bits 45..47 are the level-0 child
  // index, i.e. exactly first_level_branch(key).
  dirty_branches_ |= static_cast<uint8_t>(1u << ((morton >> 45) & 7));

  // Unwind: refresh ancestors bottom-up, pruning where possible. OctoMap
  // updates every ancestor on the path and we keep its operation counts
  // (they feed the CPU cost model) — but once a step neither prunes nor
  // changes its node's value bits, and that node was known before this
  // update, every remaining ancestor's refresh is provably a pure no-op:
  // its only touched child kept value and known-ness, so its max is
  // unchanged, and its child is still inner so its all-leaves prune check
  // cannot trigger. Those steps are replaced by their exact counter
  // arithmetic (one parent_update each, nothing else). A prune at depth d
  // frees the cached path below d, so the cache is clamped there.
  int valid = kTreeDepth;
  for (int depth = kTreeDepth - 1; depth >= 0; --depth) {
    Node& node = pool_[static_cast<std::size_t>(path[static_cast<std::size_t>(depth)])];
    const float old_value = node.value;
    if (update_inner_and_try_prune(path[static_cast<std::size_t>(depth)])) {
      valid = depth;
      continue;
    }
    if (depth < fresh_depth &&
        std::bit_cast<uint32_t>(node.value) == std::bit_cast<uint32_t>(old_value)) {
      stats_.parent_updates += static_cast<uint64_t>(depth);
      break;
    }
  }
  cached_morton_ = morton;
  cache_depth_ = valid;
}

void OccupancyOctree::set_node_log_odds(const OcKey& key, float log_odds) {
  if (params_.quantized) log_odds = geom::Fixed16::from_float(log_odds).to_float();
  stats_.voxel_updates++;
  const uint64_t morton = kernels::morton48(key[0], key[1], key[2]);

  std::array<int32_t, kTreeDepth + 1> path;
  int32_t idx = 0;
  path[0] = idx;
  for (int depth = 0; depth < kTreeDepth; ++depth) {
    if (!pool_[static_cast<std::size_t>(idx)].is_inner()) {
      bool was_expand = false;
      materialize_children(idx, was_expand);
      if (depth == 0 && was_expand) dirty_all_ = true;
    }
    stats_.descend_steps++;
    idx = pool_[static_cast<std::size_t>(idx)].children +
          static_cast<int32_t>((morton >> (3 * (kTreeDepth - 1 - depth))) & 7);
    path[static_cast<std::size_t>(depth + 1)] = idx;
  }
  pool_[static_cast<std::size_t>(idx)].make_leaf(log_odds);
  stats_.leaf_updates++;
  dirty_branches_ |= static_cast<uint8_t>(1u << ((morton >> 45) & 7));

  for (int depth = kTreeDepth - 1; depth >= 0; --depth) {
    update_inner_and_try_prune(path[static_cast<std::size_t>(depth)]);
  }
  cache_depth_ = 0;  // prunes above may have freed cached path indices
}

void OccupancyOctree::set_leaf_at_depth(const OcKey& key, int depth, float log_odds) {
  assert(depth > 0 && depth <= kTreeDepth);
  if (params_.quantized) log_odds = geom::Fixed16::from_float(log_odds).to_float();
  const uint64_t morton = kernels::morton48(key[0], key[1], key[2]);

  std::array<int32_t, kTreeDepth + 1> path;
  int32_t idx = 0;
  path[0] = idx;
  for (int d = 0; d < depth; ++d) {
    if (!pool_[static_cast<std::size_t>(idx)].is_inner()) {
      bool was_expand = false;
      materialize_children(idx, was_expand);
      if (d == 0 && was_expand) dirty_all_ = true;
    }
    stats_.descend_steps++;
    idx = pool_[static_cast<std::size_t>(idx)].children +
          static_cast<int32_t>((morton >> (3 * (kTreeDepth - 1 - d))) & 7);
    path[static_cast<std::size_t>(d + 1)] = idx;
  }
  if (pool_[static_cast<std::size_t>(idx)].is_inner()) {
    // Replace an existing subtree: release its blocks depth-first.
    std::vector<int32_t> stack{idx};
    // Collect blocks below (excluding `idx` itself, handled after).
    std::vector<int32_t> blocks;
    while (!stack.empty()) {
      const int32_t cur = stack.back();
      stack.pop_back();
      const Node& n = pool_[static_cast<std::size_t>(cur)];
      if (!n.is_inner()) continue;
      blocks.push_back(n.children);
      for (int i = 0; i < 8; ++i) stack.push_back(n.children + i);
    }
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) free_block(*it);
  }
  pool_[static_cast<std::size_t>(idx)].make_leaf(log_odds);
  stats_.leaf_updates++;
  dirty_branches_ |= static_cast<uint8_t>(1u << ((morton >> 45) & 7));

  for (int d = depth - 1; d >= 0; --d) {
    update_inner_and_try_prune(path[static_cast<std::size_t>(d)]);
  }
  cache_depth_ = 0;  // subtree release / prunes invalidate cached indices
}

std::optional<NodeView> OccupancyOctree::search(const OcKey& key, int max_depth) const {
  int depth = 0;
  const Node* node = &pool_[0];
  if (node->is_unknown()) return std::nullopt;
  while (depth < max_depth && node->is_inner()) {
    const int32_t idx = node->children + child_index(key, depth);
    node = &pool_[static_cast<std::size_t>(idx)];
    ++depth;
    if (node->is_unknown()) return std::nullopt;
  }
  return NodeView{node->value, depth, node->is_leaf()};
}

Occupancy OccupancyOctree::classify(const OcKey& key) const {
  const auto view = search(key);
  if (!view) return Occupancy::kUnknown;
  return params_.classify(view->log_odds);
}

Occupancy OccupancyOctree::classify(const geom::Vec3d& position) const {
  const auto key = coder_.key_for(position);
  if (!key) return Occupancy::kUnknown;
  return classify(*key);
}

bool OccupancyOctree::any_occupied_in_box(const geom::Aabb& box,
                                          bool treat_unknown_as_occupied) const {
  return box_query_recurs(0, OcKey{}, 0, box, treat_unknown_as_occupied);
}

bool OccupancyOctree::box_query_recurs(int32_t node_idx, const OcKey& base, int depth,
                                       const geom::Aabb& box, bool unknown_occupied) const {
  const double res = coder_.resolution();
  const double size = coder_.node_size(depth);
  const geom::Vec3d lo{(static_cast<double>(base[0]) - kKeyOrigin) * res,
                       (static_cast<double>(base[1]) - kKeyOrigin) * res,
                       (static_cast<double>(base[2]) - kKeyOrigin) * res};
  const geom::Aabb node_box{lo, lo + geom::Vec3d{size, size, size}};
  if (!node_box.intersects(box)) return false;

  const Node& node = pool_[static_cast<std::size_t>(node_idx)];
  if (node.is_unknown()) return unknown_occupied;
  if (node.is_leaf()) return params_.classify(node.value) == Occupancy::kOccupied;

  const int bit = kTreeDepth - 1 - depth;
  for (int i = 0; i < 8; ++i) {
    OcKey child_base = base;
    child_base[0] |= static_cast<uint16_t>((i & 1) << bit);
    child_base[1] |= static_cast<uint16_t>(((i >> 1) & 1) << bit);
    child_base[2] |= static_cast<uint16_t>(((i >> 2) & 1) << bit);
    if (box_query_recurs(node.children + i, child_base, depth + 1, box, unknown_occupied)) {
      return true;
    }
  }
  return false;
}

std::optional<OccupancyOctree::RayHit> OccupancyOctree::cast_ray(const geom::Vec3d& origin,
                                                                 const geom::Vec3d& direction,
                                                                 double max_range,
                                                                 bool ignore_unknown) const {
  const double dir_norm = direction.norm();
  if (!(dir_norm > 0.0) || !(max_range > 0.0)) return std::nullopt;
  const geom::Vec3d dir = direction / dir_norm;

  const auto start_key = coder_.key_for(origin);
  if (!start_key) return std::nullopt;

  // Amanatides-Woo walk, evaluating occupancy cell by cell.
  OcKey current = *start_key;
  int step[3];
  double t_max[3];
  double t_delta[3];
  const double res = coder_.resolution();
  for (int axis = 0; axis < 3; ++axis) {
    step[axis] = dir[axis] > 0.0 ? 1 : (dir[axis] < 0.0 ? -1 : 0);
    if (step[axis] != 0) {
      const double border = coder_.axis_coord(current[static_cast<std::size_t>(axis)]) +
                            static_cast<double>(step[axis]) * 0.5 * res;
      t_max[axis] = (border - origin[axis]) / dir[axis];
      t_delta[axis] = res / std::abs(dir[axis]);
    } else {
      t_max[axis] = std::numeric_limits<double>::infinity();
      t_delta[axis] = std::numeric_limits<double>::infinity();
    }
  }

  const auto evaluate = [this, &origin](const OcKey& key) -> std::optional<RayHit> {
    const Occupancy occ = classify(key);
    if (occ == Occupancy::kOccupied || occ == Occupancy::kUnknown) {
      RayHit hit;
      hit.key = key;
      hit.cell = occ;
      hit.position = coder_.coord_for(key);
      hit.distance = geom::distance(origin, hit.position);
      return hit;
    }
    return std::nullopt;
  };

  // The origin cell itself can block (standing inside an obstacle).
  if (auto hit = evaluate(current)) {
    if (hit->cell == Occupancy::kOccupied || !ignore_unknown) return hit;
  }

  const long max_steps = static_cast<long>(3.0 * max_range / res) + 3;
  for (long i = 0; i < max_steps; ++i) {
    int axis = 0;
    if (t_max[1] < t_max[axis]) axis = 1;
    if (t_max[2] < t_max[axis]) axis = 2;
    if (t_max[axis] > max_range) return std::nullopt;  // next crossing beyond range

    t_max[axis] += t_delta[axis];
    const int next =
        static_cast<int>(current[static_cast<std::size_t>(axis)]) + step[axis];
    if (next < 0 || next > 0xFFFF) return std::nullopt;  // left the key space
    current[static_cast<std::size_t>(axis)] = static_cast<uint16_t>(next);

    if (auto hit = evaluate(current)) {
      if (hit->cell == Occupancy::kOccupied || !ignore_unknown) return hit;
    }
  }
  return std::nullopt;
}

void OccupancyOctree::for_each_leaf_in_box(
    const geom::Aabb& box, const std::function<void(const OcKey&, int, float)>& fn) const {
  // Reuse the leaf recursion with a box filter via an explicit stack.
  struct Frame {
    int32_t idx;
    OcKey base;
    int depth;
  };
  std::vector<Frame> stack{{0, OcKey{}, 0}};
  const double res = coder_.resolution();
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& node = pool_[static_cast<std::size_t>(f.idx)];
    if (node.is_unknown()) continue;

    const double size = coder_.node_size(f.depth);
    const geom::Vec3d lo{(static_cast<double>(f.base[0]) - kKeyOrigin) * res,
                         (static_cast<double>(f.base[1]) - kKeyOrigin) * res,
                         (static_cast<double>(f.base[2]) - kKeyOrigin) * res};
    if (!geom::Aabb{lo, lo + geom::Vec3d{size, size, size}}.intersects(box)) continue;

    if (node.is_leaf()) {
      fn(f.base, f.depth, node.value);
      continue;
    }
    const int bit = kTreeDepth - 1 - f.depth;
    for (int i = 0; i < 8; ++i) {
      OcKey child_base = f.base;
      child_base[0] |= static_cast<uint16_t>((i & 1) << bit);
      child_base[1] |= static_cast<uint16_t>(((i >> 1) & 1) << bit);
      child_base[2] |= static_cast<uint16_t>(((i >> 2) & 1) << bit);
      stack.push_back(Frame{node.children + i, child_base, f.depth + 1});
    }
  }
}

void OccupancyOctree::merge(const OccupancyOctree& other) {
  if (other.resolution() != resolution()) {
    throw std::invalid_argument("OccupancyOctree::merge: resolution mismatch");
  }
  cache_depth_ = 0;  // the per-leaf walks below prune/free outside the cache bookkeeping
  dirty_all_ = true;  // a whole-map fold can touch every branch
  // Fold the other map's leaves into this one. Leaves at depth 16 are a
  // plain log-odds addition; pruned leaves apply their value across the
  // covered subtree, which set-wise is again a single update at that depth
  // when our side has no finer detail, else recurses via per-voxel
  // addition of the (uniform) value.
  other.for_each_leaf([this](const OcKey& key, int depth, float value) {
    // Walk down to `depth`, materializing as needed.
    std::array<int32_t, kTreeDepth + 1> path;
    int32_t idx = 0;
    path[0] = idx;
    for (int d = 0; d < depth; ++d) {
      if (!pool_[static_cast<std::size_t>(idx)].is_inner()) {
        bool was_expand = false;
        materialize_children(idx, was_expand);
      }
      idx = pool_[static_cast<std::size_t>(idx)].children + child_index(key, d);
      path[static_cast<std::size_t>(d + 1)] = idx;
    }
    // Add `value` to every known node of the subtree (and to the subtree
    // root itself if it is a leaf/unknown).
    std::vector<int32_t> stack{idx};
    while (!stack.empty()) {
      const int32_t cur = stack.back();
      stack.pop_back();
      Node& node = pool_[static_cast<std::size_t>(cur)];
      if (node.is_unknown()) {
        node.make_leaf(std::clamp(value, params_.clamp_min, params_.clamp_max));
      } else if (node.is_leaf()) {
        node.value = std::clamp(node.value + value, params_.clamp_min, params_.clamp_max);
      } else {
        for (int i = 0; i < 8; ++i) stack.push_back(node.children + i);
      }
    }
    // Restore inner values / pruning along the path (bottom-up). The
    // subtree interior is repaired by a local prune pass.
    if (pool_[static_cast<std::size_t>(idx)].is_inner()) {
      std::size_t pruned = 0;
      prune_recurs(idx, depth, pruned);
    }
    for (int d = depth - 1; d >= 0; --d) {
      update_inner_and_try_prune(path[static_cast<std::size_t>(d)]);
    }
  });
}

void OccupancyOctree::prune() {
  obs::TraceSpan span(prune_ns_, "ingest.prune");
  cache_depth_ = 0;  // the full-tree pass frees blocks the cache may reference
  std::size_t pruned = 0;
  if (pool_[0].is_inner()) prune_recurs(0, 0, pruned);
  // A prune rewrites the leaf list (8 fine leaves -> 1 coarse) without a
  // per-key mutation to attribute, so the whole export is dirty.
  if (pruned > 0) dirty_all_ = true;
}

void OccupancyOctree::prune_recurs(int32_t node_idx, int depth, std::size_t& pruned) {
  const int32_t base = pool_[static_cast<std::size_t>(node_idx)].children;
  for (int i = 0; i < 8; ++i) {
    if (pool_[static_cast<std::size_t>(base + i)].is_inner()) {
      prune_recurs(base + i, depth + 1, pruned);
    }
  }
  if (update_inner_and_try_prune(node_idx)) ++pruned;
}

void OccupancyOctree::expand_all() {
  cache_depth_ = 0;
  dirty_all_ = true;  // every pruned leaf splits; the leaf list changes everywhere
  if (pool_[0].is_leaf()) {
    bool was_expand = false;
    materialize_children(0, was_expand);
  }
  if (pool_[0].is_inner()) expand_recurs(0, 0);
}

void OccupancyOctree::expand_recurs(int32_t node_idx, int depth) {
  if (depth + 1 >= kTreeDepth) return;  // children are finest-level voxels
  for (int i = 0; i < 8; ++i) {
    // Re-read the child pointer every iteration: materialize_children can
    // grow the pool and move nodes.
    const int32_t child = pool_[static_cast<std::size_t>(node_idx)].children + i;
    if (pool_[static_cast<std::size_t>(child)].is_leaf()) {
      bool was_expand = false;
      materialize_children(child, was_expand);
    }
    if (pool_[static_cast<std::size_t>(child)].is_inner()) {
      expand_recurs(child, depth + 1);
    }
  }
}

std::size_t OccupancyOctree::leaf_count() const {
  std::size_t leaves = 0;
  std::size_t inners = 0;
  count_recurs(0, leaves, inners);
  return leaves;
}

std::size_t OccupancyOctree::inner_count() const {
  std::size_t leaves = 0;
  std::size_t inners = 0;
  count_recurs(0, leaves, inners);
  return inners;
}

void OccupancyOctree::count_recurs(int32_t node_idx, std::size_t& leaves,
                                   std::size_t& inners) const {
  const Node& node = pool_[static_cast<std::size_t>(node_idx)];
  if (node.is_unknown()) return;
  if (node.is_leaf()) {
    ++leaves;
    return;
  }
  ++inners;
  for (int i = 0; i < 8; ++i) count_recurs(node.children + i, leaves, inners);
}

void OccupancyOctree::for_each_leaf(
    const std::function<void(const OcKey&, int, float)>& fn) const {
  leaves_recurs(0, OcKey{}, 0, fn);
}

void OccupancyOctree::leaves_recurs(
    int32_t node_idx, const OcKey& base, int depth,
    const std::function<void(const OcKey&, int, float)>& fn) const {
  const Node& node = pool_[static_cast<std::size_t>(node_idx)];
  if (node.is_unknown()) return;
  if (node.is_leaf()) {
    fn(base, depth, node.value);
    return;
  }
  const int bit = kTreeDepth - 1 - depth;
  for (int i = 0; i < 8; ++i) {
    OcKey child_base = base;
    child_base[0] |= static_cast<uint16_t>((i & 1) << bit);
    child_base[1] |= static_cast<uint16_t>(((i >> 1) & 1) << bit);
    child_base[2] |= static_cast<uint16_t>(((i >> 2) & 1) << bit);
    leaves_recurs(node.children + i, child_base, depth + 1, fn);
  }
}

std::vector<OccupancyOctree::LeafRecord> OccupancyOctree::leaves_sorted() const {
  std::vector<LeafRecord> out;
  // Reserve from arena occupancy: one allocation instead of log(n) regrows
  // when flushing a large map.
  out.reserve(leaf_reserve_hint());
  for_each_leaf([&out](const OcKey& key, int depth, float value) {
    out.push_back(LeafRecord{key, depth, value});
  });
  sort_canonical(out);
  return out;
}

DirtyHarvest OccupancyOctree::harvest_dirty_branches(uint64_t since_generation) {
  DirtyHarvest h;
  const bool tracked = since_generation != 0 && since_generation == harvest_generation_;
  if (tracked && !dirty_all_ && dirty_branches_ == 0) {
    // Nothing changed since the caller's last harvest — even a collapsed
    // root is reported as an empty delta, so a no-op flush stays
    // publication-free.
    h.full = false;
    h.dirty_mask = 0;
  } else {
    h.full = !tracked || dirty_all_ || root_collapsed();
    h.dirty_mask = h.full ? 0xFF : dirty_branches_;
  }
  dirty_branches_ = 0;
  dirty_all_ = false;
  h.generation = ++harvest_generation_;
  return h;
}

void OccupancyOctree::collect_branch_leaves(int branch, std::vector<LeafRecord>& out) const {
  assert(branch >= 0 && branch < 8);
  const Node& root = pool_[0];
  if (!root.is_inner()) return;  // empty or collapsed map: no branch buckets
  const int bit = kTreeDepth - 1;
  OcKey base{};
  base[0] = static_cast<uint16_t>((branch & 1) << bit);
  base[1] = static_cast<uint16_t>(((branch >> 1) & 1) << bit);
  base[2] = static_cast<uint16_t>(((branch >> 2) & 1) << bit);
  // The appended run is in DFS (Morton) order, NOT canonical order:
  // packed() is z-major raster order (z<<32 | y<<16 | x), so e.g. a leaf
  // at (x=0, y=h-1) is emitted before one at (x=h, y=0) although it sorts
  // after it. query::MapSnapshot folds this order as it comes; a consumer
  // that needs canonical order sort_canonical()s the run.
  leaves_recurs(root.children + branch, base, 1,
                [&out](const OcKey& key, int depth, float value) {
                  out.push_back(LeafRecord{key, depth, value});
                });
}

uint64_t OccupancyOctree::content_hash() const {
  return hash_leaf_records(normalize_to_depth1(leaves_sorted()));
}

void sort_canonical(std::vector<LeafRecord>& leaves) {
  std::sort(leaves.begin(), leaves.end(),
            [](const LeafRecord& a, const LeafRecord& b) { return canonical_leaf_less(a, b); });
}

uint64_t hash_leaf_records(std::span<const LeafRecord> records) {
  uint64_t h = io::kFnv1aOffsetBasis;
  for (const LeafRecord& rec : records) {
    h = io::fnv1a_mix_u64(h, rec.key.packed());
    h = io::fnv1a_mix_u64(h, static_cast<uint64_t>(rec.depth));
    h = io::fnv1a_mix_u64(
        h, static_cast<uint64_t>(geom::Fixed16::from_float(rec.log_odds).raw()) & 0xFFFF);
  }
  return h;
}

std::vector<LeafRecord> normalize_to_depth1(std::vector<LeafRecord> records) {
  return normalize_to_min_depth(std::move(records), 1);
}

std::vector<LeafRecord> normalize_to_min_depth(std::vector<LeafRecord> records, int min_depth) {
  assert(min_depth >= 0 && min_depth <= kTreeDepth);
  bool any_shallow = false;
  for (const LeafRecord& rec : records) any_shallow = any_shallow || rec.depth < min_depth;
  if (!any_shallow) return records;

  std::vector<LeafRecord> out;
  out.reserve(records.size());
  for (const LeafRecord& rec : records) {
    if (rec.depth >= min_depth) {
      out.push_back(rec);
      continue;
    }
    // Enumerate the depth-aligned descendant keys of the record's subtree.
    const OcKey base = key_at_depth(rec.key, rec.depth);
    const uint32_t cells = 1u << (min_depth - rec.depth);  // per axis
    const uint32_t step = 1u << (kTreeDepth - min_depth);  // key units per cell
    for (uint32_t z = 0; z < cells; ++z) {
      for (uint32_t y = 0; y < cells; ++y) {
        for (uint32_t x = 0; x < cells; ++x) {
          const OcKey key{static_cast<uint16_t>(base[0] + x * step),
                          static_cast<uint16_t>(base[1] + y * step),
                          static_cast<uint16_t>(base[2] + z * step)};
          out.push_back(LeafRecord{key, min_depth, rec.log_odds});
        }
      }
    }
  }
  sort_canonical(out);
  return out;
}

}  // namespace omu::map
