// A SubscriptionMirror fed the runs a snapshot-backed session publishes:
// each shard is a snapshot chunk's leaf run, which is in Morton (DFS)
// order, not canonical order. The shard digest is taken over the exact
// run on the wire, so the mirror must report no mismatch, and its
// on-demand canonical hash must equal the octree's content_hash() every
// epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/rng.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "query/map_snapshot.hpp"
#include "service/client.hpp"
#include "service/messages.hpp"

namespace omu::service {
namespace {

using map::OcKey;

/// The event a publisher sends for `snap`: every non-empty branch chunk
/// whose pointer differs from `prev`'s as a changed shard, vanished
/// branches as removals, and the digest over all published runs.
DeltaEvent event_for(const query::MapSnapshot& snap, const query::MapSnapshot* prev,
                     uint64_t epoch) {
  DeltaEvent event;
  event.epoch = epoch;
  event.baseline = prev == nullptr ? 1 : 0;
  event.has_digest = 1;
  std::vector<ShardHash> hashes;
  for (int b = 0; b < 8; ++b) {
    const auto key = static_cast<uint64_t>(b);
    const auto chunk = snap.branch_chunk(b);
    const auto old = prev != nullptr ? prev->branch_chunk(b) : nullptr;
    if (chunk == nullptr) {
      if (old != nullptr) event.removed_shards.push_back(key);
      continue;
    }
    hashes.push_back(ShardHash{key, shard_hash(chunk->leaves())});
    if (chunk != old) event.changed_shards.push_back(DeltaShard{key, chunk->leaves()});
  }
  event.shard_digest = shard_digest(hashes);
  return event;
}

TEST(MirrorMortonRuns, MortonOrderedRunsConvergeToCanonicalHash) {
  map::OccupancyOctree tree(0.1);
  map::OctreeBackend backend(tree);
  geom::SplitMix64 rng(11);
  const auto churn = [&](uint16_t lo, int span, int n) {
    for (int i = 0; i < n; ++i) {
      tree.update_node(OcKey{static_cast<uint16_t>(lo + rng.next_below(span)),
                             static_cast<uint16_t>(lo + rng.next_below(span)),
                             static_cast<uint16_t>(lo + rng.next_below(span))},
                       rng.next_below(2) == 0);
    }
  };
  churn(32700, 136, 4000);  // straddles the key-space centre: all eight branches

  map::MapSnapshotDelta delta = backend.export_snapshot_delta(0);
  uint64_t generation = delta.generation;
  std::shared_ptr<const query::MapSnapshot> snap = query::MapSnapshot::build(
      map::MapSnapshotData{std::move(delta.leaves), delta.resolution, delta.params}, 1);

  bool non_canonical = false;
  for (int b = 0; b < 8; ++b) {
    const auto chunk = snap->branch_chunk(b);
    ASSERT_NE(chunk, nullptr);
    non_canonical = non_canonical ||
                    !std::is_sorted(chunk->leaves().begin(), chunk->leaves().end(),
                                    map::canonical_leaf_less);
  }
  ASSERT_TRUE(non_canonical) << "the published runs must exercise Morton order";

  SubscriptionMirror mirror;
  mirror.apply(event_for(*snap, nullptr, 1));
  EXPECT_EQ(mirror.hash_mismatches(), 0u);
  EXPECT_EQ(mirror.content_hash(), tree.content_hash());

  // Churn confined to the all-positive branch, then a full-map pass:
  // incremental epochs splice the other chunks, so only changed runs ship.
  for (uint64_t epoch = 2; epoch <= 5; ++epoch) {
    if (epoch == 5) {
      churn(32700, 136, 500);
    } else {
      churn(33000, 64, 300);
    }
    delta = backend.export_snapshot_delta(generation);
    generation = delta.generation;
    ASSERT_FALSE(delta.full);
    auto next = query::MapSnapshot::build_incremental(*snap, std::move(delta), epoch);
    const DeltaEvent event = event_for(*next, snap.get(), epoch);
    if (epoch < 5) EXPECT_EQ(event.changed_shards.size(), 1u);
    mirror.apply(event);
    snap = std::move(next);
    EXPECT_EQ(mirror.hash_mismatches(), 0u) << "epoch " << epoch;
    EXPECT_EQ(mirror.content_hash(), tree.content_hash()) << "epoch " << epoch;
    EXPECT_EQ(mirror.content_hash(), snap->content_hash()) << "epoch " << epoch;
  }
  EXPECT_EQ(mirror.leaf_count(), tree.leaves_sorted().size());
}

}  // namespace
}  // namespace omu::service
