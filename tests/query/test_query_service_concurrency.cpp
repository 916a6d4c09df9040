// Concurrency contract of the QueryService: N reader threads race the
// writer across snapshot publications with no locks on the read
// path. Run under ThreadSanitizer in CI (the sanitizer matrix job) — the
// assertions here check the memory-model-visible guarantees (snapshot
// immutability, epoch monotonicity, final convergence); TSan checks that
// the races the design claims are benign actually don't exist.
#include "query/query_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"

namespace omu::query {
namespace {

using map::OcKey;
using map::Occupancy;

geom::PointCloud random_cloud(geom::SplitMix64& rng, int n) {
  geom::PointCloud cloud;
  for (int i = 0; i < n; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-5, 5)),
                                static_cast<float>(rng.uniform(-5, 5)),
                                static_cast<float>(rng.uniform(-1, 1))});
  }
  return cloud;
}

TEST(QueryServiceConcurrency, StartsWithEmptyPlaceholderSnapshot) {
  QueryService service;
  ASSERT_NE(service.snapshot(), nullptr);
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.publications(), 0u);
  EXPECT_EQ(service.classify(OcKey{1, 2, 3}), Occupancy::kUnknown);
}

TEST(QueryServiceConcurrency, PublicationsBumpEpochsMonotonically) {
  QueryService service;
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  for (int i = 0; i < 5; ++i) {
    tree.update_node(OcKey{map::kKeyOrigin, map::kKeyOrigin,
                           static_cast<uint16_t>(map::kKeyOrigin + i)},
                     true);
    const uint64_t epoch = service.refresh_from(backend);
    EXPECT_EQ(epoch, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(service.epoch(), epoch);
  }
  EXPECT_EQ(service.publications(), 5u);
  EXPECT_EQ(service.snapshot()->content_hash(), tree.content_hash());
}

TEST(QueryServiceConcurrency, ReaderKeepsSupersededSnapshotAlive) {
  QueryService service;
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  tree.update_node(OcKey{map::kKeyOrigin, map::kKeyOrigin, map::kKeyOrigin}, true);
  service.refresh_from(backend);

  const auto held = service.snapshot();
  const uint64_t held_hash = held->content_hash();
  for (int i = 1; i <= 10; ++i) {
    tree.update_node(OcKey{static_cast<uint16_t>(map::kKeyOrigin + i), map::kKeyOrigin,
                           map::kKeyOrigin},
                     true);
    service.refresh_from(backend);
  }
  // The held snapshot is untouched by ten later publications.
  EXPECT_EQ(held->content_hash(), held_hash);
  EXPECT_EQ(held->epoch(), 1u);
  EXPECT_EQ(service.epoch(), 11u);
  EXPECT_NE(service.snapshot()->content_hash(), held_hash);
}

TEST(QueryServiceConcurrency, ReadersRaceOctreeWriterAcrossPublications) {
  // The flagship race: one writer streams scans into an octree backend
  // and publishes at every scan boundary while reader threads hammer the
  // service. Readers assert per-snapshot invariants; the final snapshot
  // must converge to the serial reference bit-identically.
  constexpr int kScans = 12;
  constexpr int kReaders = 4;

  QueryService service;
  map::OccupancyOctree writer_tree(0.2);
  map::OctreeBackend writer(writer_tree);

  map::OccupancyOctree serial(0.2);
  map::ScanInserter serial_inserter(serial);

  geom::SplitMix64 scan_rng(101);
  std::vector<geom::PointCloud> clouds;
  for (int s = 0; s < kScans; ++s) clouds.push_back(random_cloud(scan_rng, 250));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      geom::SplitMix64 rng(static_cast<uint64_t>(r) * 7919 + 1);
      uint64_t last_epoch = 0;
      uint64_t queries = 0;
      std::vector<OcKey> batch_keys(16);
      std::vector<Occupancy> batch_out;
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = service.snapshot();
        // Epochs never go backwards from a reader's point of view.
        ASSERT_GE(snapshot->epoch(), last_epoch);
        last_epoch = snapshot->epoch();
        // One snapshot is one consistent map: a batch answer equals the
        // pointwise answers against the same snapshot, whatever the writer
        // is doing meanwhile.
        for (auto& key : batch_keys) {
          key = OcKey{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32),
                      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32),
                      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32)};
        }
        snapshot->classify_batch(batch_keys, batch_out);
        for (std::size_t i = 0; i < batch_keys.size(); ++i) {
          ASSERT_EQ(batch_out[i], snapshot->classify(batch_keys[i]));
        }
        // Box queries race the writer too.
        snapshot->any_occupied_in_box(
            geom::Aabb::from_center_size({rng.uniform(-4, 4), rng.uniform(-4, 4), 0},
                                         {1.0, 1.0, 1.0}),
            rng.next_below(2) == 0);
        queries += batch_keys.size();
      }
      reader_queries.fetch_add(queries, std::memory_order_relaxed);
    });
  }

  {
    map::ScanInserter writer_inserter(writer);
    for (const auto& cloud : clouds) {
      serial_inserter.insert_scan(cloud, {0, 0, 0});
      writer_inserter.insert_scan(cloud, {0, 0, 0});
      service.refresh_from(writer);  // flush + publish: the epoch boundary
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(reader_queries.load(), 0u);
  EXPECT_EQ(service.publications(), static_cast<uint64_t>(kScans));
  EXPECT_EQ(service.snapshot()->content_hash(), serial.content_hash());
  EXPECT_EQ(service.snapshot()->leaves(), map::normalize_to_depth1(serial.leaves_sorted()));
}

TEST(QueryServiceConcurrency, ReadersRaceIncrementalChurnPublications) {
  // Incremental publication under readers: the writer churns one octant
  // (all-positive coordinates pin every update to a single first-level
  // branch) and publishes spliced epochs, while readers hammer the live
  // snapshot *and* force its lazy flat form (leaves()/content_hash() —
  // several threads can hit the same snapshot's first materialization at
  // once, exercising the double-checked ensure_flat path). Readers also
  // hold superseded epochs and re-verify their hashes never move while
  // later epochs splice chunks the held epoch still shares.
  constexpr int kEpochs = 24;
  constexpr int kReaders = 4;

  QueryService service;
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  map::ScanInserter inserter(backend);

  geom::SplitMix64 seed_rng(303);
  // Base content in every octant so most chunks are shareable.
  inserter.insert_scan(random_cloud(seed_rng, 400), {0.0, 0.1, 0.2});
  service.refresh_from(backend);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      geom::SplitMix64 rng(static_cast<uint64_t>(r) * 1299709 + 7);
      std::shared_ptr<const MapSnapshot> held;
      uint64_t held_hash = 0;
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = service.snapshot();
        ASSERT_GE(snapshot->epoch(), last_epoch);
        last_epoch = snapshot->epoch();
        // Race the lazy flat-form materialization with the other readers.
        const uint64_t hash = snapshot->content_hash();
        ASSERT_EQ(snapshot->leaves().size(), snapshot->leaf_count());
        ASSERT_EQ(snapshot->content_hash(), hash);  // idempotent
        // Point queries against the same immutable epoch.
        for (int i = 0; i < 32; ++i) {
          const OcKey key{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32),
                          static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32),
                          static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(16) - 8)};
          snapshot->classify(key);
        }
        if (held == nullptr) {
          held = snapshot;
          held_hash = hash;
        } else {
          // The held epoch shares chunks with snapshots the writer keeps
          // splicing; its content must never move.
          ASSERT_EQ(held->content_hash(), held_hash);
          if (rng.next_below(8) == 0) held.reset();  // rotate the held epoch
        }
      }
    });
  }

  geom::SplitMix64 churn_rng(909);
  for (int e = 0; e < kEpochs; ++e) {
    geom::PointCloud cloud;
    for (int i = 0; i < 60; ++i) {
      cloud.push_back(geom::Vec3f{static_cast<float>(churn_rng.uniform(2, 6)),
                                  static_cast<float>(churn_rng.uniform(2, 6)),
                                  static_cast<float>(churn_rng.uniform(0.3, 1.5))});
    }
    inserter.insert_scan(cloud, {2.0, 2.0, 0.5});
    service.refresh_from(backend);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  const SnapshotPublishStats stats = service.publish_stats();
  EXPECT_EQ(stats.publications, static_cast<uint64_t>(kEpochs) + 1);
  EXPECT_GT(stats.incremental_publications, 0u);
  EXPECT_GT(stats.chunks_reused, 0u);
  EXPECT_EQ(service.snapshot()->content_hash(), tree.content_hash());
}

TEST(QueryServiceConcurrency, ConcurrentPublishersSerializeWithMonotonicEpochs) {
  // Several threads publishing concurrently (e.g. two mappers refreshing):
  // epochs stay dense and monotonic, the final count is exact.
  constexpr int kPublishers = 4;
  constexpr int kPerThread = 25;
  QueryService service;
  std::vector<std::thread> publishers;
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&, t] {
      map::OccupancyOctree tree(0.2);
      map::OctreeBackend backend(tree);
      for (int i = 0; i < kPerThread; ++i) {
        tree.update_node(OcKey{static_cast<uint16_t>(map::kKeyOrigin + t),
                               static_cast<uint16_t>(map::kKeyOrigin + i), map::kKeyOrigin},
                         true);
        service.refresh_from(backend);
      }
    });
  }
  for (auto& publisher : publishers) publisher.join();
  EXPECT_EQ(service.publications(), static_cast<uint64_t>(kPublishers * kPerThread));
  EXPECT_EQ(service.epoch(), service.publications());
}

}  // namespace
}  // namespace omu::query
