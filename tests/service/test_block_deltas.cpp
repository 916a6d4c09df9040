// Subscription deltas keyed by depth-13 Morton blocks: an event carries
// only the blocks whose leaves changed since the last published epoch,
// plus the keys of blocks that vanished; a baseline carries every block;
// an epoch that changed nothing sends nothing. A hand-driven subscriber
// connection sees the raw events, and a SubscriptionMirror fed the same
// events must match the server's canonical content hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "map/ockey.hpp"
#include "map/occupancy_octree.hpp"
#include "service/client.hpp"
#include "service/messages.hpp"
#include "service_test_util.hpp"

namespace omu::service {
namespace {

using map::LeafRecord;
using map::OcKey;
using testing::LoopbackService;
using testing::make_scan;
using testing::make_sweep_scans;
using testing::TempDir;

/// A subscriber that speaks the protocol by hand so the test sees every
/// DeltaEvent the server sends (ServiceClient hands them to a mirror).
class EventTap {
 public:
  explicit EventTap(std::unique_ptr<Transport> transport) : transport_(std::move(transport)) {}

  uint64_t subscribe(uint64_t session) {
    SubscribeRequest req;
    req.session_id = session;
    SubscribeReply reply;
    const std::vector<uint8_t> payload = call(MsgType::kSubscribe, req);
    WireReader r(payload);
    reply.decode(r);
    EXPECT_TRUE(reply.status.ok()) << reply.status.message;
    return reply.subscription_id;
  }

  void unsubscribe(uint64_t session, uint64_t subscription) {
    UnsubscribeRequest req;
    req.session_id = session;
    req.subscription_id = subscription;
    StatusReply reply;
    const std::vector<uint8_t> payload = call(MsgType::kUnsubscribe, req);
    WireReader r(payload);
    reply.decode(r);
    EXPECT_TRUE(reply.status.ok()) << reply.status.message;
  }

  /// Every event the server sent since the last drain: a metrics request
  /// goes out and the events queued ahead of its reply come back.
  std::vector<DeltaEvent> drain() {
    call(MsgType::kMetrics, MetricsRequest{});
    return std::exchange(events_, {});
  }

 private:
  template <typename Request>
  std::vector<uint8_t> call(MsgType type, const Request& req) {
    Frame frame;
    frame.type = request_type(type);
    frame.request_id = next_request_id_++;
    WireWriter w;
    req.encode(w);
    frame.payload = w.take();
    write_frame(*transport_, frame);
    while (true) {
      auto reply = read_frame(*transport_);
      if (!reply) {
        ADD_FAILURE() << "connection closed mid-call";
        return {};
      }
      if (reply->type == static_cast<uint16_t>(MsgType::kDeltaEvent)) {
        DeltaEvent event;
        WireReader r(reply->payload);
        event.decode(r);
        events_.push_back(std::move(event));
        continue;
      }
      EXPECT_EQ(reply->type, reply_type(type));
      EXPECT_EQ(reply->request_id, frame.request_id);
      return std::move(reply->payload);
    }
  }

  std::unique_ptr<Transport> transport_;
  uint64_t next_request_id_ = 1;
  std::vector<DeltaEvent> events_;
};

SessionSpec octree_spec() {
  SessionSpec spec;
  spec.resolution = 0.1;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  return spec;
}

/// One hit at the centre of voxel `key`, cast from inside the same voxel:
/// the ray frees nothing, so exactly that voxel is updated.
void hit_voxel(ServiceClient& client, uint64_t session, const OcKey& key) {
  const map::KeyCoder coder(0.1);
  const geom::Vec3d c = coder.coord_for(key);
  const std::vector<float> xyz{static_cast<float>(c.x), static_cast<float>(c.y),
                               static_cast<float>(c.z)};
  const omu::Vec3 origin{xyz[0], xyz[1], xyz[2]};
  ASSERT_TRUE(client.insert(session, origin, xyz).ok());
}

/// Every slice of an event's changed shard lies in the one block its key
/// names, and no block appears twice.
void expect_one_block_per_shard(const DeltaEvent& event) {
  std::vector<uint64_t> keys;
  for (const DeltaShard& shard : event.changed_shards) {
    std::vector<uint64_t> split;
    for_each_block(shard.leaves, [&](uint64_t key, std::span<const LeafRecord>) {
      split.push_back(key);
    });
    ASSERT_EQ(split.size(), 1u) << "shard " << shard.shard_key << " spans several blocks";
    EXPECT_EQ(split.front(), shard.shard_key);
    keys.push_back(shard.shard_key);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end()) << "a block shipped twice";
}

TEST(BlockDeltas, ForEachBlockSplitsAMortonRunIntoContiguousBlocks) {
  map::OccupancyOctree tree(0.1);
  for (int i = 0; i < 600; ++i) {
    const auto k = static_cast<uint16_t>(32700 + (i * 37) % 140);
    tree.update_node(OcKey{k, static_cast<uint16_t>(32760 + (i * 11) % 20),
                           static_cast<uint16_t>(32740 + (i * 7) % 50)},
                     i % 3 != 0);
  }
  // A depth-12 leaf spans eight blocks and belongs to the first of them.
  tree.set_leaf_at_depth(OcKey{0x9000, 0x9000, 0x9000}, 12, 2.0f);
  for (int branch = 0; branch < 8; ++branch) {
    std::vector<LeafRecord> run;
    tree.collect_branch_leaves(branch, run);
    std::vector<LeafRecord> joined;
    uint64_t previous = 0;
    bool first = true;
    for_each_block(run, [&](uint64_t key, std::span<const LeafRecord> leaves) {
      EXPECT_TRUE(first || key > previous) << "block keys must ascend";
      first = false;
      previous = key;
      ASSERT_FALSE(leaves.empty());
      for (const LeafRecord& leaf : leaves) EXPECT_EQ(block_key(leaf.key), key);
      joined.insert(joined.end(), leaves.begin(), leaves.end());
    });
    EXPECT_EQ(joined, run);
  }
  EXPECT_EQ(block_key(OcKey{0x9000, 0x9000, 0x9000}),
            block_key(OcKey{0x9007, 0x9007, 0x9007}));
  EXPECT_NE(block_key(OcKey{0x9000, 0x9000, 0x9000}),
            block_key(OcKey{0x9008, 0x9000, 0x9000}));
}

TEST(BlockDeltas, OneChangedVoxelShipsOneBlock) {
  LoopbackService host;
  ServiceClient client(host.connect());
  auto session = client.create(octree_spec());
  ASSERT_TRUE(session.ok());
  EventTap tap(host.connect());
  tap.subscribe(*session);

  for (int scan = 0; scan < 4; ++scan) {
    ASSERT_TRUE(client.insert(*session, omu::Vec3{0, 0, 0}, make_scan(1, scan, 300)).ok());
  }
  // An isolated cluster of three voxels in one block, well off the scans.
  const OcKey base{32800, 32800, 32800};
  for (uint16_t dx = 0; dx < 3; ++dx) {
    hit_voxel(client, *session, OcKey{static_cast<uint16_t>(base[0] + dx), base[1], base[2]});
  }
  ASSERT_TRUE(client.flush(*session).ok());
  SubscriptionMirror mirror;
  for (DeltaEvent& event : tap.drain()) mirror.apply(std::move(event));

  // A second hit on the middle voxel raises its log-odds: one block moves.
  const OcKey target{static_cast<uint16_t>(base[0] + 1), base[1], base[2]};
  hit_voxel(client, *session, target);
  auto epoch = client.flush(*session);
  ASSERT_TRUE(epoch.ok());
  std::vector<DeltaEvent> events = tap.drain();
  ASSERT_EQ(events.size(), 1u);
  const DeltaEvent& event = events.front();
  EXPECT_EQ(event.baseline, 0);
  EXPECT_EQ(event.epoch, *epoch);
  EXPECT_TRUE(event.removed_shards.empty());
  ASSERT_EQ(event.changed_shards.size(), 1u);
  EXPECT_EQ(event.changed_shards[0].shard_key, block_key(target));
  EXPECT_LE(event.changed_shards[0].leaves.size(), 512u);
  EXPECT_EQ(event.changed_shards[0].leaves.size(), 3u);
  expect_one_block_per_shard(event);

  mirror.apply(std::move(events.front()));
  EXPECT_EQ(mirror.hash_mismatches(), 0u);
  EXPECT_TRUE(mirror.converged());
  auto server_hash = client.content_hash(*session);
  ASSERT_TRUE(server_hash.ok());
  EXPECT_EQ(mirror.content_hash(), *server_hash);
}

TEST(BlockDeltas, PruningEightBlocksIntoOneLeafRemovesSeven) {
  LoopbackService host;
  ServiceClient client(host.connect());
  SessionSpec spec = octree_spec();
  spec.clamp_max = spec.log_hit;  // one hit saturates a voxel
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok());
  EventTap tap(host.connect());
  tap.subscribe(*session);
  SubscriptionMirror mirror;

  // Saturate every voxel of one depth-12 node (16^3) but the last: seven
  // of its depth-13 blocks prune to one leaf each, the eighth stays split.
  const uint16_t origin = 32800;  // aligned to 16
  OcKey last{};
  for (uint16_t x = 0; x < 16; ++x) {
    for (uint16_t y = 0; y < 16; ++y) {
      for (uint16_t z = 0; z < 16; ++z) {
        const OcKey key{static_cast<uint16_t>(origin + x), static_cast<uint16_t>(origin + y),
                        static_cast<uint16_t>(origin + z)};
        if (x == 15 && y == 15 && z == 15) {
          last = key;
        } else {
          hit_voxel(client, *session, key);
        }
      }
    }
  }
  ASSERT_TRUE(client.flush(*session).ok());
  for (DeltaEvent& event : tap.drain()) mirror.apply(std::move(event));
  ASSERT_EQ(mirror.shard_count(), 8u);

  // The last voxel completes the node: the octree prunes the eight blocks
  // into one depth-12 leaf, keyed by the first block.
  hit_voxel(client, *session, last);
  ASSERT_TRUE(client.flush(*session).ok());
  std::vector<DeltaEvent> events = tap.drain();
  ASSERT_EQ(events.size(), 1u);
  const DeltaEvent& event = events.front();
  EXPECT_EQ(event.removed_shards.size(), 7u);
  ASSERT_EQ(event.changed_shards.size(), 1u);
  const OcKey node{origin, origin, origin};
  EXPECT_EQ(event.changed_shards[0].shard_key, block_key(node));
  ASSERT_EQ(event.changed_shards[0].leaves.size(), 1u);
  EXPECT_EQ(event.changed_shards[0].leaves[0].depth, 12);
  EXPECT_EQ(event.changed_shards[0].leaves[0].key, node);
  for (const uint64_t key : event.removed_shards) EXPECT_NE(key, block_key(node));

  mirror.apply(std::move(events.front()));
  EXPECT_EQ(mirror.shard_count(), 1u);
  EXPECT_EQ(mirror.hash_mismatches(), 0u);
  auto server_hash = client.content_hash(*session);
  ASSERT_TRUE(server_hash.ok());
  EXPECT_EQ(mirror.content_hash(), *server_hash);
}

TEST(BlockDeltas, LateSubscriberGetsEveryBlockAndBothMirrorsTrackTheServer) {
  LoopbackService host;
  ServiceClient client(host.connect());
  auto session = client.create(octree_spec());
  ASSERT_TRUE(session.ok());
  SubscriptionMirror first;
  ASSERT_TRUE(client.subscribe(*session, &first).ok());

  for (int scan = 0; scan < 4; ++scan) {
    ASSERT_TRUE(client.insert(*session, omu::Vec3{0, 0, 0}, make_scan(3, scan, 300)).ok());
    ASSERT_TRUE(client.flush(*session).ok());
  }
  const uint64_t joined_at = first.epoch();

  // The second subscriber joins at epoch N: its baseline is every block.
  EventTap tap(host.connect());
  const uint64_t sub = tap.subscribe(*session);
  SubscriptionMirror second;
  std::vector<DeltaEvent> events = tap.drain();
  ASSERT_EQ(events.size(), 1u);
  const DeltaEvent& baseline = events.front();
  EXPECT_EQ(baseline.baseline, 1);
  EXPECT_EQ(baseline.epoch, joined_at);
  EXPECT_TRUE(baseline.removed_shards.empty());
  EXPECT_EQ(baseline.changed_shards.size(), first.shard_count());
  std::size_t leaves = 0;
  for (const DeltaShard& shard : baseline.changed_shards) leaves += shard.leaves.size();
  EXPECT_EQ(leaves, first.leaf_count());
  expect_one_block_per_shard(baseline);
  second.apply(std::move(events.front()));

  for (int scan = 4; scan < 10; ++scan) {
    ASSERT_TRUE(client.insert(*session, omu::Vec3{0.3, 0, 0}, make_scan(3, scan, 300)).ok());
    auto epoch = client.flush(*session);
    ASSERT_TRUE(epoch.ok());
    for (DeltaEvent& event : tap.drain()) {
      expect_one_block_per_shard(event);
      second.apply(std::move(event));
    }
    auto server_hash = client.content_hash(*session);
    ASSERT_TRUE(server_hash.ok());
    EXPECT_EQ(first.epoch(), *epoch);
    EXPECT_EQ(second.epoch(), *epoch);
    EXPECT_EQ(first.content_hash(), *server_hash) << "first diverged at scan " << scan;
    EXPECT_EQ(second.content_hash(), *server_hash) << "second diverged at scan " << scan;
  }
  EXPECT_TRUE(first.converged());
  EXPECT_TRUE(second.converged());

  // After the second unsubscribes, the first keeps converging alone.
  tap.unsubscribe(*session, sub);
  ASSERT_TRUE(client.insert(*session, omu::Vec3{0, 0.3, 0}, make_scan(3, 10, 300)).ok());
  auto epoch = client.flush(*session);
  ASSERT_TRUE(epoch.ok());
  EXPECT_TRUE(tap.drain().empty());
  EXPECT_EQ(first.epoch(), *epoch);
  auto server_hash = client.content_hash(*session);
  ASSERT_TRUE(server_hash.ok());
  EXPECT_EQ(first.content_hash(), *server_hash);
  EXPECT_EQ(first.hash_mismatches(), 0u);
}

TEST(BlockDeltas, EpochWithNoChangedBlockStillReachesTheSubscriber) {
  LoopbackService host;
  ServiceClient client(host.connect());
  SessionSpec spec = octree_spec();
  spec.clamp_max = spec.log_hit;  // one hit saturates a voxel
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok());
  EventTap tap(host.connect());
  tap.subscribe(*session);

  // Three saturated voxels in a row along x.
  const OcKey a{32800, 32800, 32800};
  const OcKey b{32801, 32800, 32800};
  const OcKey c{32802, 32800, 32800};
  for (const OcKey& key : {a, b, c}) hit_voxel(client, *session, key);
  auto before = client.flush(*session);
  ASSERT_TRUE(before.ok());
  tap.drain();

  // A ray from a to c frees a and b; hitting them again saturates them
  // back. The branch is republished with the same leaves: the epoch
  // advances, no block changed, and the subscriber still hears of the
  // epoch, so a mirror's epoch keeps matching the flush's.
  const map::KeyCoder coder(0.1);
  const geom::Vec3d from = coder.coord_for(a);
  const geom::Vec3d to = coder.coord_for(c);
  ASSERT_TRUE(client
                  .insert(*session, omu::Vec3{from.x, from.y, from.z},
                          {static_cast<float>(to.x), static_cast<float>(to.y),
                           static_cast<float>(to.z)})
                  .ok());
  hit_voxel(client, *session, a);
  hit_voxel(client, *session, b);
  auto after = client.flush(*session);
  ASSERT_TRUE(after.ok());
  ASSERT_GT(*after, *before) << "the branch was not republished";
  std::vector<DeltaEvent> events = tap.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].epoch, *after);
  EXPECT_TRUE(events[0].changed_shards.empty());
  EXPECT_TRUE(events[0].removed_shards.empty());
}

TEST(BlockDeltas, FlushWithNothingChangedSendsNoEvent) {
  LoopbackService host;
  ServiceClient client(host.connect());
  auto session = client.create(octree_spec());
  ASSERT_TRUE(session.ok());
  EventTap tap(host.connect());
  tap.subscribe(*session);

  ASSERT_TRUE(client.insert(*session, omu::Vec3{0, 0, 0}, make_scan(4, 0, 300)).ok());
  auto epoch = client.flush(*session);
  ASSERT_TRUE(epoch.ok());
  EXPECT_FALSE(tap.drain().empty());

  auto idle = client.flush(*session);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(*idle, *epoch);
  EXPECT_TRUE(tap.drain().empty());
}

/// A world session at `tile_shift`, subscribed by a mirror on the
/// publisher's connection and by a tap that sees the raw events: every
/// epoch the mirror must equal the server's canonical content hash, and no
/// shard may hold leaves of two tiles.
void expect_world_mirror_tracks_server(int tile_shift, int scans, int points) {
  TempDir dir("block_deltas_world");
  LoopbackService host;
  ServiceClient client(host.connect());
  SessionSpec spec = octree_spec();
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kTiledWorld);
  spec.world_directory = dir.path();
  spec.tile_shift = static_cast<uint32_t>(tile_shift);
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  SubscriptionMirror mirror;
  ASSERT_TRUE(client.subscribe(*session, &mirror).ok());
  EventTap tap(host.connect());
  tap.subscribe(*session);

  const auto tile_of = [&](const LeafRecord& leaf) {
    return std::array<int, 3>{leaf.key[0] >> tile_shift, leaf.key[1] >> tile_shift,
                              leaf.key[2] >> tile_shift};
  };
  int scan_index = 0;
  for (const auto& scan : make_sweep_scans(5, scans, points, 1.0)) {
    ASSERT_TRUE(client.insert(*session, scan.origin, scan.xyz).ok());
    auto epoch = client.flush(*session);
    ASSERT_TRUE(epoch.ok());
    for (const DeltaEvent& event : tap.drain()) {
      for (const DeltaShard& shard : event.changed_shards) {
        ASSERT_FALSE(shard.leaves.empty());
        for (const LeafRecord& leaf : shard.leaves) {
          ASSERT_EQ(tile_of(leaf), tile_of(shard.leaves.front()))
              << "shard " << shard.shard_key << " spans tiles";
        }
      }
    }
    auto server_hash = client.content_hash(*session);
    ASSERT_TRUE(server_hash.ok());
    EXPECT_EQ(mirror.epoch(), *epoch);
    EXPECT_EQ(mirror.content_hash(), *server_hash) << "diverged at scan " << scan_index;
    EXPECT_EQ(mirror.hash_mismatches(), 0u) << "digest mismatch at scan " << scan_index;
    ++scan_index;
  }
  EXPECT_TRUE(mirror.converged());
}

// Tiles of 4^3 voxels are smaller than a depth-13 block: eight of them
// share one block, so the session shards by tile root and a change to
// one tile never replaces its neighbours' leaves in the mirror.
TEST(BlockDeltas, WorldTilesSmallerThanABlockShardByTile) {
  expect_world_mirror_tracks_server(2, 8, 60);
}

// One tile spanning the whole key space holds a chunk per first-level
// branch, so its leaves are Morton-sorted into one run before the split.
TEST(BlockDeltas, WorldSingleTileSpanningEveryBranch) {
  expect_world_mirror_tracks_server(map::kTreeDepth, 8, 120);
}

TEST(BlockDeltas, FirstDigestSubscriberAfterHashlessEpochsConverges) {
  LoopbackService host;
  ServiceClient client(host.connect());
  auto session = client.create(octree_spec());
  ASSERT_TRUE(session.ok());
  SubscriptionMirror hashless;
  ASSERT_TRUE(client.subscribe(*session, &hashless, /*include_hash=*/false).ok());
  for (int scan = 0; scan < 3; ++scan) {
    ASSERT_TRUE(client.insert(*session, omu::Vec3{0, 0, 0}, make_scan(6, scan, 300)).ok());
    ASSERT_TRUE(client.flush(*session).ok());
  }
  EXPECT_FALSE(hashless.converged()) << "no digest was asked for";

  // A digest subscriber joins: the publisher hashes every block once and
  // the digest it sends matches both the baseline and later deltas.
  SubscriptionMirror hashed;
  ASSERT_TRUE(client.subscribe(*session, &hashed).ok());
  for (int scan = 3; scan < 6; ++scan) {
    ASSERT_TRUE(client.insert(*session, omu::Vec3{0.2, 0, 0}, make_scan(6, scan, 300)).ok());
    ASSERT_TRUE(client.flush(*session).ok());
    auto server_hash = client.content_hash(*session);
    ASSERT_TRUE(server_hash.ok());
    EXPECT_EQ(hashed.content_hash(), *server_hash);
    EXPECT_EQ(hashless.content_hash(), *server_hash);
  }
  EXPECT_TRUE(hashed.converged());
  EXPECT_EQ(hashed.hash_mismatches(), 0u);
}

}  // namespace
}  // namespace omu::service
