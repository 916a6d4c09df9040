// SubscriptionMirror's shard-digest check against hand-built delta events:
// events that bring the mirror to the published state count no mismatch,
// and each way an event can leave the mirror holding something other than
// the published shards — a corrupted leaf, shards filed under each other's
// keys, a removal it never got, a changed shard it never got — counts
// exactly one.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "map/occupancy_octree.hpp"
#include "service/client.hpp"
#include "service/messages.hpp"

namespace omu::service {
namespace {

using LeafRun = std::vector<map::LeafRecord>;

/// `n` depth-16 leaves along x from `x0`, in canonical order.
LeafRun make_run(uint16_t x0, int n, float log_odds) {
  LeafRun run;
  for (int i = 0; i < n; ++i) {
    run.push_back(map::LeafRecord{map::OcKey{static_cast<uint16_t>(x0 + i), 100, 200}, 16,
                                  log_odds + 0.125f * static_cast<float>(i)});
  }
  return run;
}

/// The publisher's side: the shards it has published, and events stamped
/// with the digest of that state.
struct Publisher {
  std::map<uint64_t, LeafRun> shards;
  uint64_t epoch = 0;

  uint64_t digest() const {
    std::vector<ShardHash> hashes;
    for (const auto& [key, run] : shards) hashes.push_back(ShardHash{key, shard_hash(run)});
    return shard_digest(hashes);
  }

  /// An event carrying `changed` (from the published state) and `removed`.
  DeltaEvent event(const std::vector<uint64_t>& changed, const std::vector<uint64_t>& removed,
                   bool baseline = false) {
    DeltaEvent e;
    e.epoch = ++epoch;
    e.baseline = baseline ? 1 : 0;
    e.has_digest = 1;
    e.shard_digest = digest();
    e.removed_shards = removed;
    for (const uint64_t key : changed) e.changed_shards.push_back(DeltaShard{key, shards.at(key)});
    return e;
  }

  DeltaEvent baseline() {
    std::vector<uint64_t> keys;
    for (const auto& [key, run] : shards) keys.push_back(key);
    return event(keys, {}, true);
  }
};

Publisher three_shards() {
  Publisher pub;
  pub.shards[1] = make_run(10, 5, 0.85f);
  pub.shards[2] = make_run(40, 3, -0.4f);
  pub.shards[5] = make_run(900, 7, 1.7f);
  return pub;
}

TEST(SubscriptionMirror, MatchingEventsCountNoMismatch) {
  Publisher pub = three_shards();
  SubscriptionMirror mirror;
  mirror.apply(pub.baseline());
  EXPECT_EQ(mirror.hash_mismatches(), 0u);

  pub.shards[2] = make_run(40, 4, 0.2f);
  pub.shards.erase(5);
  pub.shards[9] = make_run(5000, 2, -1.0f);
  mirror.apply(pub.event({2, 9}, {5}));
  EXPECT_EQ(mirror.hash_mismatches(), 0u);
  EXPECT_TRUE(mirror.converged());
  EXPECT_EQ(mirror.shard_count(), 3u);
  EXPECT_EQ(mirror.epoch(), pub.epoch);

  // The digest agreeing means the mirror holds the published runs, so its
  // canonical hash is the published map's.
  LeafRun merged;
  for (const auto& [key, run] : pub.shards) merged.insert(merged.end(), run.begin(), run.end());
  map::sort_canonical(merged);
  EXPECT_EQ(mirror.content_hash(), map::hash_leaf_records(map::normalize_to_depth1(merged)));
}

TEST(SubscriptionMirror, FlippedLeafLogOddsCountsOneMismatch) {
  Publisher pub = three_shards();
  SubscriptionMirror mirror;
  mirror.apply(pub.baseline());

  pub.shards[2] = make_run(40, 3, 0.6f);
  DeltaEvent event = pub.event({2}, {});
  event.changed_shards.front().leaves[1].log_odds = -event.changed_shards.front().leaves[1].log_odds;
  mirror.apply(std::move(event));
  EXPECT_EQ(mirror.hash_mismatches(), 1u);
  EXPECT_FALSE(mirror.converged());
}

TEST(SubscriptionMirror, SwappedShardKeysCountOneMismatch) {
  Publisher pub = three_shards();
  SubscriptionMirror mirror;
  mirror.apply(pub.baseline());

  pub.shards[1] = make_run(11, 5, 0.9f);
  pub.shards[2] = make_run(41, 3, -0.3f);
  DeltaEvent event = pub.event({1, 2}, {});
  std::swap(event.changed_shards[0].shard_key, event.changed_shards[1].shard_key);
  mirror.apply(std::move(event));
  // Same runs, same multiset of run hashes: only which key each run sits
  // under tells the two states apart.
  EXPECT_EQ(mirror.hash_mismatches(), 1u);
}

TEST(SubscriptionMirror, MissedRemovalCountsOneMismatch) {
  Publisher pub = three_shards();
  SubscriptionMirror mirror;
  mirror.apply(pub.baseline());

  pub.shards.erase(5);
  mirror.apply(pub.event({}, {}));  // the removal of shard 5 never arrives
  EXPECT_EQ(mirror.hash_mismatches(), 1u);
  EXPECT_EQ(mirror.shard_count(), 3u);
}

TEST(SubscriptionMirror, DroppedChangedShardCountsOneMismatch) {
  Publisher pub = three_shards();
  SubscriptionMirror mirror;
  mirror.apply(pub.baseline());

  pub.shards[1] = make_run(12, 6, 0.4f);
  pub.shards[5] = make_run(901, 7, 1.1f);
  DeltaEvent event = pub.event({1, 5}, {});
  event.changed_shards.pop_back();  // shard 5's new run is lost
  mirror.apply(std::move(event));
  EXPECT_EQ(mirror.hash_mismatches(), 1u);
}

}  // namespace
}  // namespace omu::service
