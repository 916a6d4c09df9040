// The depth-stack fold of MapSnapshot::build against a reference: the
// per-depth hash-map fold the snapshot used before it was keyed by Morton
// code. For pruned maps with leaves at mixed depths, maps that sit in one
// first-level branch (a tile's shape), an empty map and a collapsed root,
// a snapshot built from the octree's DFS export, from its canonical export
// and from a shuffled copy must hold exactly the reference's per-level
// arrays, keep each branch's DFS run as its chunk leaves, and answer
// search()/probe() like the octree at every depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/kernels/key_kernels.hpp"
#include "geom/rng.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "query/map_snapshot.hpp"

namespace omu::query {
namespace {

using map::LeafRecord;
using map::OcKey;

uint64_t morton(const OcKey& key) { return geom::kernels::morton48(key[0], key[1], key[2]); }

struct RefLevel {
  std::vector<std::pair<uint64_t, float>> leaves;
  std::vector<std::pair<uint64_t, float>> inner;
};
using RefLevels = std::array<RefLevel, map::kTreeDepth + 1>;

/// The reference: bucket each leaf by depth, fold its value into every
/// ancestor through one hash map per depth, then sort every level by
/// Morton code. Order-independent by construction.
RefLevels reference_fold(const std::vector<LeafRecord>& branch) {
  std::array<std::unordered_map<uint64_t, float>, map::kTreeDepth + 1> inner;
  RefLevels out;
  for (const LeafRecord& leaf : branch) {
    out[static_cast<std::size_t>(leaf.depth)].leaves.emplace_back(morton(leaf.key), leaf.log_odds);
    for (int d = 1; d < leaf.depth; ++d) {
      const uint64_t code = morton(map::key_at_depth(leaf.key, d));
      auto [it, inserted] = inner[static_cast<std::size_t>(d)].try_emplace(code, leaf.log_odds);
      if (!inserted) it->second = std::max(it->second, leaf.log_odds);
    }
  }
  for (int d = 1; d <= map::kTreeDepth; ++d) {
    RefLevel& level = out[static_cast<std::size_t>(d)];
    level.inner.assign(inner[static_cast<std::size_t>(d)].begin(),
                       inner[static_cast<std::size_t>(d)].end());
    std::sort(level.leaves.begin(), level.leaves.end());
    std::sort(level.inner.begin(), level.inner.end());
  }
  return out;
}

std::vector<std::pair<uint64_t, float>> zip(const std::vector<uint64_t>& keys,
                                            const std::vector<float>& values) {
  EXPECT_EQ(keys.size(), values.size());
  std::vector<std::pair<uint64_t, float>> out;
  for (std::size_t i = 0; i < keys.size() && i < values.size(); ++i) {
    out.emplace_back(keys[i], values[i]);
  }
  return out;
}

OcKey random_key(geom::SplitMix64& rng, const OcKey& lo, int span) {
  const auto axis = [&](std::size_t a) {
    return static_cast<uint16_t>(lo[a] + rng.next_below(static_cast<uint64_t>(span)));
  };
  return OcKey{axis(0), axis(1), axis(2)};
}

/// A pruned map with leaves at mixed depths inside the cube [lo, lo+span)^3:
/// scattered single-voxel updates, saturated 4^3 and 8^3 blocks that prune
/// to depth-14 and depth-13 leaves, and coarse leaves set directly.
void fill_mixed(map::OccupancyOctree& tree, uint64_t seed, const OcKey& lo, int span) {
  geom::SplitMix64 rng(seed);
  for (int i = 0; i < 3000; ++i) tree.update_node(random_key(rng, lo, span), rng.next_below(3) == 0);
  for (int block = 0; block < 6; ++block) {
    const int size = block % 2 == 0 ? 4 : 8;
    const OcKey base = map::key_at_depth(random_key(rng, lo, span - 8), block % 2 == 0 ? 14 : 13);
    const bool occupied = block % 3 == 0;
    for (int rep = 0; rep < 12; ++rep) {
      for (int z = 0; z < size; ++z) {
        for (int y = 0; y < size; ++y) {
          for (int x = 0; x < size; ++x) {
            tree.update_node(OcKey{static_cast<uint16_t>(base[0] + x),
                                   static_cast<uint16_t>(base[1] + y),
                                   static_cast<uint16_t>(base[2] + z)},
                             occupied);
          }
        }
      }
    }
  }
  for (int i = 0; i < 20; ++i) {
    const int depth = 9 + static_cast<int>(rng.next_below(6));
    tree.set_leaf_at_depth(random_key(rng, lo, span), depth,
                           static_cast<float>(rng.uniform(-2.0, 3.5)));
  }
}

/// Whole-map checks: each branch chunk against the reference, the chunk
/// runs against the DFS export, the flat form against the octree, and
/// search()/probe() against the octree at every depth.
void expect_matches_tree(const MapSnapshot& snap, const map::OccupancyOctree& tree) {
  ASSERT_EQ(snap.leaves(), tree.leaves_sorted());
  ASSERT_EQ(snap.content_hash(), tree.content_hash());

  for (int b = 0; b < 8; ++b) {
    SCOPED_TRACE("branch " + std::to_string(b));
    std::vector<LeafRecord> run;
    tree.collect_branch_leaves(b, run);
    const auto chunk = snap.branch_chunk(b);
    if (run.empty()) {
      EXPECT_EQ(chunk, nullptr);
      continue;
    }
    ASSERT_NE(chunk, nullptr);
    EXPECT_EQ(chunk->leaves(), run);
    const RefLevels ref = reference_fold(run);
    for (int d = 1; d <= map::kTreeDepth; ++d) {
      const MapSnapshot::Level& level = chunk->level(d);
      EXPECT_EQ(zip(level.leaf_keys, level.leaf_values), ref[static_cast<std::size_t>(d)].leaves)
          << "leaf arrays at depth " << d;
      EXPECT_EQ(zip(level.inner_keys, level.inner_max), ref[static_cast<std::size_t>(d)].inner)
          << "inner arrays at depth " << d;
    }
  }

  std::vector<OcKey> keys;
  for (const LeafRecord& leaf : tree.leaves_sorted()) {
    keys.push_back(leaf.key);
    keys.push_back(OcKey{static_cast<uint16_t>(leaf.key[0] + 1), leaf.key[1],
                         static_cast<uint16_t>(leaf.key[2] + 3)});
  }
  geom::SplitMix64 rng(keys.size());
  for (int i = 0; i < 200; ++i) {
    keys.push_back(random_key(rng, OcKey{32000, 32000, 32000}, 1536));
  }
  for (const OcKey& key : keys) {
    for (int d = 0; d <= map::kTreeDepth; ++d) {
      const auto want = tree.search(key, d);
      const auto got = snap.search(key, d);
      ASSERT_EQ(got.has_value(), want.has_value()) << "key " << key.packed() << " depth " << d;
      SnapshotNodeProbe expected{};
      if (want) {
        ASSERT_EQ(got->log_odds, want->log_odds) << "key " << key.packed() << " depth " << d;
        ASSERT_EQ(got->depth, want->depth);
        ASSERT_EQ(got->is_leaf, want->is_leaf);
        if (want->depth == d) {
          expected.kind = want->is_leaf ? SnapshotNodeKind::kLeaf : SnapshotNodeKind::kInner;
          expected.value = want->log_odds;
        }
      }
      const SnapshotNodeProbe probe = snap.probe(key, d);
      ASSERT_EQ(probe.kind, expected.kind) << "key " << key.packed() << " depth " << d;
      ASSERT_EQ(probe.value, expected.value);
    }
  }
}

/// Builds the snapshot from the DFS export, the canonical export and a
/// shuffled copy, and checks each against the tree.
void expect_fold_matches_in_every_order(map::OccupancyOctree& tree, uint64_t seed) {
  map::OctreeBackend backend(tree);
  const map::MapSnapshotDelta dfs = backend.export_snapshot_delta(0);
  ASSERT_TRUE(dfs.full);
  std::vector<LeafRecord> shuffled = dfs.leaves;
  geom::SplitMix64 rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  const std::vector<std::pair<const char*, std::vector<LeafRecord>>> orders = {
      {"dfs", dfs.leaves}, {"canonical", tree.leaves_sorted()}, {"shuffled", shuffled}};
  for (const auto& [name, leaves] : orders) {
    SCOPED_TRACE(name);
    const auto snap =
        MapSnapshot::build(map::MapSnapshotData{leaves, tree.resolution(), tree.params()});
    expect_matches_tree(*snap, tree);
  }
}

TEST(MortonFold, PrunedMixedDepthMapsMatchReference) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const double resolution : {0.05, 0.2}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " res " + std::to_string(resolution));
      map::OccupancyOctree tree(resolution);
      // Straddles the key-space centre, so every first-level branch holds leaves.
      fill_mixed(tree, seed, OcKey{32700, 32700, 32700}, 136);
      std::vector<LeafRecord> dfs;
      for (int b = 0; b < 8; ++b) tree.collect_branch_leaves(b, dfs);
      ASSERT_NE(dfs, tree.leaves_sorted()) << "the DFS export must differ from canonical order";
      bool mixed = false;
      for (const LeafRecord& leaf : dfs) mixed = mixed || leaf.depth < map::kTreeDepth;
      ASSERT_TRUE(mixed) << "the map must hold pruned (coarser) leaves";
      expect_fold_matches_in_every_order(tree, seed);
    }
  }
}

TEST(MortonFold, SingleBranchTileLikeMapsMatchReference) {
  for (const uint64_t seed : {4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    map::OccupancyOctree tree(0.1);
    fill_mixed(tree, seed, OcKey{33000, 33100, 32900}, 64);
    int branches = 0;
    for (int b = 0; b < 8; ++b) {
      std::vector<LeafRecord> run;
      tree.collect_branch_leaves(b, run);
      branches += run.empty() ? 0 : 1;
    }
    ASSERT_EQ(branches, 1);
    expect_fold_matches_in_every_order(tree, seed);
  }
}

TEST(MortonFold, EmptyAndCollapsedRootMatchTree) {
  map::OccupancyOctree tree(0.2);
  expect_fold_matches_in_every_order(tree, 6);
  const auto empty = MapSnapshot::build(map::MapSnapshotData{{}, 0.2, tree.params()});
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(empty->leaf_count(), 0u);

  for (int b = 0; b < 8; ++b) {
    const uint16_t h = 1u << 15;
    tree.set_leaf_at_depth(OcKey{static_cast<uint16_t>((b & 1) ? h : 0),
                                 static_cast<uint16_t>((b & 2) ? h : 0),
                                 static_cast<uint16_t>((b & 4) ? h : 0)},
                           1, 1.25f);
  }
  ASSERT_TRUE(tree.root_collapsed());
  expect_fold_matches_in_every_order(tree, 7);
  const auto collapsed = MapSnapshot::build(
      map::MapSnapshotData{tree.leaves_sorted(), tree.resolution(), tree.params()});
  EXPECT_EQ(collapsed->leaf_count(), 1u);
  EXPECT_EQ(collapsed->search(OcKey{1, 2, 3})->depth, 0);
}

}  // namespace
}  // namespace omu::query
