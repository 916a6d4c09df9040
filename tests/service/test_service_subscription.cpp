// Streaming delta subscriptions: a mirror built purely from delta events
// matches the published shard digest and the backend's canonical content
// hash every epoch — including across forced tile eviction/reload on the
// server — deltas are incremental (changed shards only, not full-map
// rebroadcasts), and subscribers come and go without disturbing the
// session.
#include <gtest/gtest.h>

#include <string>

#include "map/ockey.hpp"
#include "obs/prom_text.hpp"
#include "service/client.hpp"
#include "service_test_util.hpp"

namespace omu::service {
namespace {

using testing::LoopbackService;
using testing::TempDir;
using testing::make_scan;
using testing::make_sweep_scans;

double counter_value(ServiceClient& client, const std::string& family) {
  auto text = client.metrics();
  if (!text.ok()) return -1.0;
  const auto scrape = obs::parse_prometheus_text(*text);
  const obs::PromFamily* found = scrape.find(family);
  if (found == nullptr || found->samples.empty()) return -1.0;
  return found->samples.front().value;
}

TEST(ServiceSubscription, MirrorConvergesEveryEpoch) {
  LoopbackService host;
  ServiceClient client(host.connect());
  SessionSpec spec;
  spec.resolution = 0.1;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok());

  SubscriptionMirror mirror;
  auto sub = client.subscribe(*session, &mirror);
  ASSERT_TRUE(sub.ok()) << sub.status().to_string();

  for (int scan = 0; scan < 10; ++scan) {
    ASSERT_TRUE(client.insert(*session, omu::Vec3{0, 0, 0}, make_scan(1, scan, 300)).ok());
    auto epoch = client.flush(*session);
    ASSERT_TRUE(epoch.ok());
    // The epoch's deltas are sent before the flush reply, so the mirror is
    // already converged here — every epoch, not just the last. The digest
    // proves mirror == published shards; the canonical hash RPC proves
    // published shards == backend.
    EXPECT_EQ(mirror.epoch(), *epoch);
    EXPECT_EQ(mirror.hash_mismatches(), 0u) << "diverged at scan " << scan;
    auto server_hash = client.content_hash(*session);
    ASSERT_TRUE(server_hash.ok());
    EXPECT_EQ(mirror.content_hash(), *server_hash) << "diverged at scan " << scan;
  }
  EXPECT_TRUE(mirror.converged());
  EXPECT_GT(mirror.leaf_count(), 0u);

  auto server_hash = client.content_hash(*session);
  ASSERT_TRUE(server_hash.ok());
  EXPECT_EQ(mirror.content_hash(), *server_hash);
}

TEST(ServiceSubscription, DeltasAreIncrementalNotFullRebroadcasts) {
  LoopbackService host;
  ServiceClient client(host.connect());
  SessionSpec spec;
  spec.resolution = 0.05;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok());

  // Build a sizeable map, then subscribe: the baseline carries it all.
  for (int scan = 0; scan < 8; ++scan) {
    ASSERT_TRUE(client.insert(*session, omu::Vec3{0, 0, 0}, make_scan(2, scan, 500)).ok());
  }
  ASSERT_TRUE(client.flush(*session).ok());

  SubscriptionMirror mirror;
  ASSERT_TRUE(client.subscribe(*session, &mirror).ok());
  ASSERT_TRUE(client.flush(*session).ok());  // forces the baseline through
  const double baseline_bytes = counter_value(client, "omu_service_delta_bytes");
  ASSERT_GT(baseline_bytes, 0.0);

  // A tiny localized update touches one first-level branch; the delta for
  // it must be far smaller than the baseline was.
  ASSERT_TRUE(client.insert(*session, omu::Vec3{1.0, 1.0, 0.2},
                            std::vector<float>{1.5f, 1.5f, 0.25f}).ok());
  ASSERT_TRUE(client.flush(*session).ok());
  const double after_bytes = counter_value(client, "omu_service_delta_bytes");
  ASSERT_GT(after_bytes, baseline_bytes);
  EXPECT_LT(after_bytes - baseline_bytes, baseline_bytes / 2)
      << "one-voxel update rebroadcast half the map";
  EXPECT_EQ(mirror.hash_mismatches(), 0u);

  // An epoch with no changes publishes nothing new.
  ASSERT_TRUE(client.flush(*session).ok());
  const double idle_bytes = counter_value(client, "omu_service_delta_bytes");
  EXPECT_EQ(idle_bytes, after_bytes);
}

TEST(ServiceSubscription, WorldMirrorSurvivesForcedEvictionAndReload) {
  TempDir dir("svc_sub_world");
  LoopbackService host;
  ServiceClient client(host.connect());

  SessionSpec spec;
  spec.resolution = 0.1;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kTiledWorld);
  spec.world_directory = dir.path();
  spec.tile_shift = 6;
  // A tight per-session pager budget: the sweep stream constantly evicts
  // and reloads tiles, so published snapshots cross eviction boundaries.
  spec.world_resident_byte_budget = 192 * 1024;
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok()) << session.status().to_string();

  SubscriptionMirror mirror;
  ASSERT_TRUE(client.subscribe(*session, &mirror).ok());

  const auto scans = make_sweep_scans(3, 24, 200);
  int scan_index = 0;
  for (const auto& scan : scans) {
    ASSERT_TRUE(client.insert_retrying(*session, scan.origin, scan.xyz, 100).ok());
    auto epoch = client.flush(*session);
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(mirror.hash_mismatches(), 0u) << "diverged at scan " << scan_index;
    auto server_hash = client.content_hash(*session);
    ASSERT_TRUE(server_hash.ok());
    EXPECT_EQ(mirror.content_hash(), *server_hash) << "diverged at scan " << scan_index;
    ++scan_index;
  }
  EXPECT_TRUE(mirror.converged());

  auto server_hash = client.content_hash(*session);
  ASSERT_TRUE(server_hash.ok());
  EXPECT_EQ(mirror.content_hash(), *server_hash);

  // The mirror equals the server's map, so the server shows what the mirror
  // holds: the sweep's two turning points, in different tiles, are mapped.
  const omu::Vec3 west = scans.front().origin;
  const omu::Vec3 east = scans[scans.size() / 2].origin;
  const map::KeyCoder coder(spec.resolution);
  ASSERT_NE(*coder.axis_key(west.x) >> spec.tile_shift, *coder.axis_key(east.x) >> spec.tile_shift);
  auto seen = client.query(*session, {west, east});
  ASSERT_TRUE(seen.ok());
  EXPECT_NE((*seen)[0], omu::Occupancy::kUnknown) << "sweep never left its first tile";
  EXPECT_NE((*seen)[1], omu::Occupancy::kUnknown) << "sweep never left its first tile";
}

TEST(ServiceSubscription, SecondSubscriberAndUnsubscribe) {
  LoopbackService host;
  ServiceClient publisher(host.connect());
  SessionSpec spec;
  spec.resolution = 0.1;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  auto session = publisher.create(spec);
  ASSERT_TRUE(session.ok());

  SubscriptionMirror mine;
  auto my_sub = publisher.subscribe(*session, &mine);
  ASSERT_TRUE(my_sub.ok());

  // A second subscriber on its own connection: its events are drained by
  // its own RPCs (here, a metrics poll after the publisher flushed).
  ServiceClient watcher(host.connect());
  SubscriptionMirror theirs;
  auto their_sub = watcher.subscribe(*session, &theirs);
  ASSERT_TRUE(their_sub.ok());

  ASSERT_TRUE(publisher.insert(*session, omu::Vec3{0, 0, 0}, make_scan(4, 0, 400)).ok());
  ASSERT_TRUE(publisher.flush(*session).ok());
  ASSERT_TRUE(watcher.metrics().ok());  // drains the watcher's pending events

  EXPECT_EQ(mine.hash_mismatches(), 0u);
  EXPECT_EQ(theirs.hash_mismatches(), 0u);
  EXPECT_TRUE(theirs.converged());
  EXPECT_EQ(mine.content_hash(), theirs.content_hash());

  // After unsubscribing, the publisher keeps flushing; the gone mirror
  // stays at its last epoch while the live one advances.
  ASSERT_TRUE(watcher.unsubscribe(*session, *their_sub).ok());
  const uint64_t frozen_epoch = theirs.epoch();
  ASSERT_TRUE(publisher.insert(*session, omu::Vec3{0, 0, 0}, make_scan(4, 1, 400)).ok());
  ASSERT_TRUE(publisher.flush(*session).ok());
  ASSERT_TRUE(watcher.metrics().ok());
  EXPECT_EQ(theirs.epoch(), frozen_epoch);
  EXPECT_GT(mine.epoch(), frozen_epoch);
}

TEST(ServiceSubscription, SubscriberConnectionDropReapsSubscription) {
  LoopbackService host;
  ServiceClient publisher(host.connect());
  SessionSpec spec;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  auto session = publisher.create(spec);
  ASSERT_TRUE(session.ok());

  {
    ServiceClient watcher(host.connect());
    SubscriptionMirror mirror;
    ASSERT_TRUE(watcher.subscribe(*session, &mirror).ok());
    // watcher's destructor shuts the connection down hard.
  }

  // The publisher's flushes must not wedge on the dead subscriber.
  for (int scan = 0; scan < 3; ++scan) {
    ASSERT_TRUE(publisher.insert(*session, omu::Vec3{0, 0, 0}, make_scan(5, scan, 200)).ok());
    ASSERT_TRUE(publisher.flush(*session).ok());
  }
  EXPECT_TRUE(publisher.close_session(*session).ok());
}

}  // namespace
}  // namespace omu::service
