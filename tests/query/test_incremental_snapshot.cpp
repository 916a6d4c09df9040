// Churn-equivalence harness for incremental snapshot publication: across
// epochs of randomized scan churn, a snapshot published by splicing
// refcounted chunks onto the previous epoch is bit-identical — point,
// batch, coarse-depth and AABB answers AND the flattened arrays — to a
// full rebuild of the same backend state. Covers the serial octree, the
// tiled world (including forced eviction) and the public facade, plus the
// boundary conditions that must degrade to a
// full rebuild (prune, root collapse) or to a publish-free no-op (empty
// flush, fully saturated updates), and the chunk refcount lifecycle:
// unchanged chunks are pointer-shared between consecutive epochs, never
// mutated after publication, and die only with the last snapshot that
// references them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <vector>

#include <omu/omu.hpp>

#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"
#include "query/map_snapshot.hpp"
#include "query/query_service.hpp"
#include "world/tiled_world_map.hpp"
#include "world/world_query_view.hpp"

namespace omu::query {
namespace {

using map::OcKey;
using map::Occupancy;

/// RAII scratch directory for the tiled-world cases.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("omu_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

geom::PointCloud random_cloud(geom::SplitMix64& rng, int n, double lo, double hi,
                              double z_half = 1.5) {
  geom::PointCloud cloud;
  for (int i = 0; i < n; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(lo, hi)),
                                static_cast<float>(rng.uniform(lo, hi)),
                                static_cast<float>(rng.uniform(-z_half, z_half))});
  }
  return cloud;
}

/// Churn confined to the all-positive octant: every freed and occupied
/// voxel of these rays has all coordinates >= kKeyOrigin, i.e. one
/// first-level branch — the localized-update pattern an O(changed) flush
/// exists for.
geom::PointCloud positive_octant_cloud(geom::SplitMix64& rng, int n) {
  geom::PointCloud cloud;
  for (int i = 0; i < n; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(2.0, 6.0)),
                                static_cast<float>(rng.uniform(2.0, 6.0)),
                                static_cast<float>(rng.uniform(0.3, 1.5))});
  }
  return cloud;
}

const geom::Vec3d kPositiveOrigin{2.0, 2.0, 0.5};

OcKey random_key(geom::SplitMix64& rng, int span) {
  return OcKey{
      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                            static_cast<uint64_t>(span) / 2),
      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                            static_cast<uint64_t>(span) / 2),
      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                            static_cast<uint64_t>(span) / 2)};
}

/// The full bit-identity contract between an incrementally published
/// snapshot and a full rebuild of the same map state: flattened arrays,
/// content hash, and sampled point / batch / coarse-depth / AABB answers.
void expect_bit_identical(const MapSnapshot& actual, const MapSnapshot& expected,
                          uint64_t seed) {
  ASSERT_EQ(actual.leaf_count(), expected.leaf_count());
  ASSERT_EQ(actual.content_hash(), expected.content_hash());
  ASSERT_EQ(actual.leaves(), expected.leaves());

  geom::SplitMix64 rng(seed);
  std::vector<OcKey> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(random_key(rng, i % 5 == 0 ? 4096 : 80));
  std::vector<Occupancy> got, want;
  for (const int depth : {map::kTreeDepth, 13, 9, 4, 1}) {
    actual.classify_batch(keys, got, depth);
    expected.classify_batch(keys, want, depth);
    ASSERT_EQ(got, want) << "depth " << depth;
    for (std::size_t i = 0; i < keys.size(); i += 7) {
      ASSERT_EQ(actual.classify(keys[i], depth), expected.classify(keys[i], depth))
          << "key " << keys[i].packed() << " depth " << depth;
      const auto a = actual.search(keys[i], depth);
      const auto e = expected.search(keys[i], depth);
      ASSERT_EQ(a.has_value(), e.has_value());
      if (e) {
        ASSERT_EQ(a->log_odds, e->log_odds);  // exact float equality
        ASSERT_EQ(a->depth, e->depth);
        ASSERT_EQ(a->is_leaf, e->is_leaf);
      }
    }
  }
  for (int i = 0; i < 120; ++i) {
    const geom::Aabb box = geom::Aabb::from_center_size(
        {rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-2, 2)},
        {rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0), rng.uniform(0.1, 2.0)});
    ASSERT_EQ(actual.any_occupied_in_box(box, false), expected.any_occupied_in_box(box, false));
    ASSERT_EQ(actual.any_occupied_in_box(box, true), expected.any_occupied_in_box(box, true));
  }
}

TEST(IncrementalSnapshotChurn, OctreeChurnMatchesFullRebuildEveryEpoch) {
  constexpr int kEpochs = 20;
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  map::ScanInserter inserter(backend);
  QueryService service;

  geom::SplitMix64 rng(1001);
  // Base scene touching every octant, so there are chunks to share.
  inserter.insert_scan(random_cloud(rng, 400, -6, 6), {0.1, -0.1, 0.0});
  service.refresh_from(backend);

  for (int e = 0; e < kEpochs; ++e) {
    // Mostly localized churn; every 5th epoch sprays the whole scene so
    // the dirty set varies from one branch to all eight.
    if (e % 5 == 4) {
      inserter.insert_scan(random_cloud(rng, 150, -6, 6), {-0.2, 0.3, 0.0});
    } else {
      inserter.insert_scan(positive_octant_cloud(rng, 150), kPositiveOrigin);
    }
    service.refresh_from(backend);
    const auto incremental = service.snapshot();
    const auto full = MapSnapshot::build(backend.export_snapshot_data(), incremental->epoch());
    expect_bit_identical(*incremental, *full, 2000 + static_cast<uint64_t>(e));
  }
  const SnapshotPublishStats stats = service.publish_stats();
  EXPECT_EQ(stats.publications, static_cast<uint64_t>(kEpochs) + 1);
  EXPECT_GE(stats.incremental_publications, static_cast<uint64_t>(kEpochs) - 1);
  EXPECT_GT(stats.chunks_reused, 0u);
  EXPECT_GT(stats.bytes_reused, 0u);
}

TEST(IncrementalSnapshotChurn, PruneForcesFullRebuildAndStaysIdentical) {
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  map::ScanInserter inserter(backend);
  QueryService service;

  geom::SplitMix64 rng(7);
  inserter.insert_scan(random_cloud(rng, 300, -5, 5), {0, 0, 0});
  service.refresh_from(backend);
  inserter.insert_scan(positive_octant_cloud(rng, 100), kPositiveOrigin);
  service.refresh_from(backend);
  const uint64_t incremental_before = service.publish_stats().incremental_publications;
  EXPECT_GT(incremental_before, 0u);

  // A whole-tree mutation invalidates branch-granular tracking: the next
  // refresh must degrade to a full rebuild and still match exactly.
  // (expand_all gives prune() real work — a bare prune() on an already
  // canonical tree merges nothing and rightly keeps tracking intact.)
  tree.expand_all();
  tree.prune();
  inserter.insert_scan(positive_octant_cloud(rng, 50), kPositiveOrigin);
  service.refresh_from(backend);
  EXPECT_EQ(service.publish_stats().incremental_publications, incremental_before);
  const auto after_prune = service.snapshot();
  expect_bit_identical(*after_prune, *MapSnapshot::build(backend.export_snapshot_data()), 11);

  // Tracking recovers: the next localized churn splices again.
  inserter.insert_scan(positive_octant_cloud(rng, 50), kPositiveOrigin);
  service.refresh_from(backend);
  EXPECT_EQ(service.publish_stats().incremental_publications, incremental_before + 1);
  expect_bit_identical(*service.snapshot(), *MapSnapshot::build(backend.export_snapshot_data()),
                       12);
}

TEST(IncrementalSnapshotChurn, EmptyFlushAndSaturatedUpdatesPublishNothing) {
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  QueryService service;

  // First refresh of an empty backend publishes the (empty) full snapshot.
  EXPECT_EQ(service.refresh_from(backend), 1u);
  // The footgun this PR removes: a flush with no updates used to bump the
  // epoch and rebuild the whole flattened form. It must publish nothing.
  const auto before = service.snapshot();
  EXPECT_EQ(service.refresh_from(backend), 1u);
  EXPECT_EQ(service.publications(), 1u);
  EXPECT_EQ(service.snapshot().get(), before.get());  // same snapshot object
  EXPECT_EQ(service.publish_stats().noop_refreshes, 1u);

  // Saturated updates: drive one voxel to the log-odds clamp, then keep
  // hitting it. Once every update in the batch is a clamped no-op, the
  // delta is empty and the refresh is publish-free too.
  const OcKey key{static_cast<uint16_t>(map::kKeyOrigin + 3),
                  static_cast<uint16_t>(map::kKeyOrigin + 3),
                  static_cast<uint16_t>(map::kKeyOrigin + 3)};
  for (int i = 0; i < 50; ++i) tree.update_node(key, true);
  const uint64_t epoch_after_saturation = service.refresh_from(backend);
  EXPECT_EQ(epoch_after_saturation, 2u);
  const uint64_t noops_before = service.publish_stats().noop_refreshes;
  for (int i = 0; i < 10; ++i) tree.update_node(key, true);  // all clamped
  EXPECT_EQ(service.refresh_from(backend), epoch_after_saturation);
  EXPECT_EQ(service.publish_stats().noop_refreshes, noops_before + 1);
  expect_bit_identical(*service.snapshot(), *MapSnapshot::build(backend.export_snapshot_data()),
                       13);
}

TEST(IncrementalSnapshotChurn, TiledWorldChurnUnderEvictionMatchesReference) {
  constexpr int kEpochs = 10;

  // One scan per epoch, origin sweeping back and forth so later epochs
  // revisit earlier tiles — the access pattern that makes an LRU pager
  // evict and reload mid-churn.
  geom::SplitMix64 rng(808);
  std::vector<geom::PointCloud> clouds;
  std::vector<geom::Vec3d> origins;
  for (int e = 0; e < kEpochs; ++e) {
    const double cx = 6.0 * ((e % 4 < 2) ? e % 2 : -(e % 2));
    geom::PointCloud cloud;
    for (int i = 0; i < 150; ++i) {
      cloud.push_back(geom::Vec3f{static_cast<float>(cx + rng.uniform(-2, 2)),
                                  static_cast<float>(rng.uniform(-2, 2)),
                                  static_cast<float>(rng.uniform(-1, 1))});
    }
    clouds.push_back(std::move(cloud));
    origins.push_back(geom::Vec3d{cx, 0.0, 0.0});
  }

  // Dry pass sizes the byte budget: half the unbounded footprint must
  // evict, but (the sweep spreading content over many small tiles) no one
  // tile can exceed the budget alone.
  world::TiledWorldConfig sizing;
  sizing.tile_shift = 5;
  std::size_t total_bytes = 0;
  {
    world::TiledWorldMap unbounded(sizing);
    map::ScanInserter inserter(unbounded);
    for (int e = 0; e < kEpochs; ++e) inserter.insert_scan(clouds[e], origins[e]);
    total_bytes = unbounded.pager_stats().resident_bytes;
    ASSERT_GT(unbounded.tile_count(), 4u);
  }

  TempDir dir("inc_world");
  world::TiledWorldConfig cfg;
  cfg.tile_shift = 5;
  cfg.directory = dir.path();
  cfg.resident_byte_budget = total_bytes / 2;
  world::TiledWorldMap world(cfg);
  world::WorldViewService view_service;
  world.attach_view_service(&view_service);

  map::OccupancyOctree reference(cfg.resolution, cfg.params);
  map::ScanInserter world_inserter(world);
  map::ScanInserter reference_inserter(reference);
  map::OctreeBackend reference_backend(reference);

  for (int e = 0; e < kEpochs; ++e) {
    world_inserter.insert_scan(clouds[e], origins[e]);
    reference_inserter.insert_scan(clouds[e], origins[e]);
    world.flush();

    // The published view answers like a full snapshot of the serial
    // reference fed the identical stream.
    const auto view = view_service.view();
    const auto full = MapSnapshot::capture(reference_backend);
    geom::SplitMix64 qrng(4000 + static_cast<uint64_t>(e));
    for (int i = 0; i < 400; ++i) {
      const OcKey key = random_key(qrng, i % 5 == 0 ? 4096 : 160);
      for (const int depth : {map::kTreeDepth, 12, 6, 2}) {
        ASSERT_EQ(view->classify(key, depth), full->classify(key, depth))
            << "epoch " << e << " key " << key.packed() << " depth " << depth;
      }
    }
    for (int i = 0; i < 80; ++i) {
      const geom::Aabb box = geom::Aabb::from_center_size(
          {qrng.uniform(-9, 9), qrng.uniform(-4, 4), qrng.uniform(-1.5, 1.5)},
          {qrng.uniform(0.2, 5.0), qrng.uniform(0.2, 3.0), qrng.uniform(0.2, 2.0)});
      ASSERT_EQ(view->any_occupied_in_box(box, false), full->any_occupied_in_box(box, false));
      ASSERT_EQ(view->any_occupied_in_box(box, true), full->any_occupied_in_box(box, true));
    }
    ASSERT_EQ(view->leaf_count(), full->leaf_count()) << "epoch " << e;
  }
  EXPECT_GT(world.pager_stats().evictions, 0u);  // the budget actually bit

  // No-op flush: publish-free, epoch unchanged — even with evicted tiles.
  const uint64_t epoch = view_service.view()->epoch();
  const uint64_t publications = view_service.publications();
  world.flush();
  EXPECT_EQ(view_service.view()->epoch(), epoch);
  EXPECT_EQ(view_service.publications(), publications);
  EXPECT_GT(world.view_build_stats().noop_flushes, 0u);
  EXPECT_GT(world.view_build_stats().tiles_reused, 0u);
}

TEST(IncrementalSnapshotChurn, FacadeChurnPublishesIncrementallyAndStaysIdentical) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  map::OccupancyOctree reference(mapper.resolution());
  map::OctreeBackend reference_backend(reference);
  map::ScanInserter reference_inserter(reference_backend);

  geom::SplitMix64 rng(321);
  for (int e = 0; e < 8; ++e) {
    const geom::PointCloud cloud =
        e == 0 ? random_cloud(rng, 300, -6, 6) : positive_octant_cloud(rng, 120);
    const geom::Vec3d origin = e == 0 ? geom::Vec3d{0, 0, 0} : kPositiveOrigin;
    std::vector<float> xyz;
    for (const geom::Vec3f& p : cloud) {
      xyz.push_back(p.x);
      xyz.push_back(p.y);
      xyz.push_back(p.z);
    }
    ASSERT_TRUE(
        mapper.insert(xyz.data(), cloud.size(), Vec3{origin.x, origin.y, origin.z}).ok());
    reference_inserter.insert_scan(cloud, origin);
    ASSERT_TRUE(mapper.flush().ok());

    const MapView view = mapper.snapshot().value();
    const auto full = MapSnapshot::capture(reference_backend);
    geom::SplitMix64 qrng(5000 + static_cast<uint64_t>(e));
    for (int i = 0; i < 500; ++i) {
      const geom::Vec3d p{qrng.uniform(-8, 8), qrng.uniform(-8, 8), qrng.uniform(-2, 2)};
      ASSERT_EQ(static_cast<int>(view.classify(Vec3{p.x, p.y, p.z})),
                static_cast<int>(full->classify(p)))
          << "epoch " << e;
    }
    ASSERT_EQ(view.leaf_count(), full->leaf_count()) << "epoch " << e;
  }

  const MapperStats stats = mapper.stats().value();
  EXPECT_EQ(stats.publication.snapshots_published, 8u);
  EXPECT_GE(stats.publication.incremental_publications, 6u);  // localized epochs spliced
  EXPECT_GT(stats.publication.chunks_reused, 0u);
  EXPECT_GT(stats.publication.bytes_reused, 0u);
  EXPECT_GT(stats.publication.bytes_rebuilt, 0u);

  // Idle facade flush: counted, but publishes nothing.
  ASSERT_TRUE(mapper.flush().ok());
  EXPECT_EQ(mapper.stats()->publication.snapshots_published, 8u);
  EXPECT_EQ(mapper.stats()->publication.noop_flushes, 1u);
}

// ---- Chunk refcount lifecycle property tests -------------------------------

TEST(ChunkRefcountLifecycle, UnchangedChunksArePointerSharedAcrossEpochs) {
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  map::ScanInserter inserter(backend);
  QueryService service;

  geom::SplitMix64 rng(42);
  inserter.insert_scan(random_cloud(rng, 500, -6, 6), {0.1, -0.2, 0.0});
  service.refresh_from(backend);
  const auto first = service.snapshot();

  inserter.insert_scan(positive_octant_cloud(rng, 100), kPositiveOrigin);
  service.refresh_from(backend);
  const auto second = service.snapshot();
  ASSERT_NE(second.get(), first.get());

  int shared = 0, replaced = 0;
  for (int b = 0; b < 8; ++b) {
    const auto before = first->branch_chunk(b);
    const auto after = second->branch_chunk(b);
    if (before != nullptr && before.get() == after.get()) ++shared;
    if (before.get() != after.get()) ++replaced;
  }
  // The positive-octant churn touched one branch: exactly one chunk was
  // rebuilt, every other non-null chunk is the same object.
  EXPECT_EQ(replaced, 1);
  EXPECT_GE(shared, 1);
}

TEST(ChunkRefcountLifecycle, ChunksDieOnlyWithTheLastSnapshotReferencingThem) {
  // Drives the splice API directly (no QueryService: its thread-local
  // reader cache deliberately keeps the last-seen snapshot alive, which
  // would mask the refcount edges this test pins down).
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  map::ScanInserter inserter(backend);

  geom::SplitMix64 rng(43);
  inserter.insert_scan(random_cloud(rng, 500, -6, 6), {0.0, 0.1, 0.0});
  map::MapSnapshotDelta d1 = backend.export_snapshot_delta(0);
  ASSERT_TRUE(d1.full);
  auto first = MapSnapshot::build(
      map::MapSnapshotData{std::move(d1.leaves), d1.resolution, d1.params}, 1);

  inserter.insert_scan(positive_octant_cloud(rng, 100), kPositiveOrigin);
  map::MapSnapshotDelta d2 = backend.export_snapshot_delta(d1.generation);
  ASSERT_FALSE(d2.full);
  MapSnapshot::BuildStats stats;
  auto second = MapSnapshot::build_incremental(*first, std::move(d2), 2, &stats);
  EXPECT_TRUE(stats.incremental);
  EXPECT_GT(stats.chunks_reused, 0u);
  EXPECT_EQ(stats.chunks_rebuilt, 1u);  // one-octant churn

  // A chunk shared by both epochs and the one unique to the first.
  std::weak_ptr<const MapSnapshot::Chunk> shared_chunk, replaced_chunk;
  for (int b = 0; b < 8; ++b) {
    const auto before = first->branch_chunk(b);
    if (before == nullptr) continue;
    if (before.get() == second->branch_chunk(b).get()) {
      shared_chunk = before;
    } else {
      replaced_chunk = before;
    }
  }
  ASSERT_FALSE(shared_chunk.expired());
  ASSERT_FALSE(replaced_chunk.expired());

  // Dropping the first snapshot kills only the chunk it alone referenced;
  // the shared chunk lives on through the second epoch, then dies with it.
  first.reset();
  EXPECT_TRUE(replaced_chunk.expired());
  EXPECT_FALSE(shared_chunk.expired());
  second.reset();
  EXPECT_TRUE(shared_chunk.expired());
}

TEST(ChunkRefcountLifecycle, PublishedChunksNeverMutate) {
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  map::ScanInserter inserter(backend);
  QueryService service;

  geom::SplitMix64 rng(44);
  inserter.insert_scan(random_cloud(rng, 400, -6, 6), {0.1, 0.1, 0.0});
  service.refresh_from(backend);
  const auto held = service.snapshot();

  // Record the held epoch's exact flattened content per chunk.
  std::array<std::vector<map::LeafRecord>, 8> held_leaves;
  for (int b = 0; b < 8; ++b) {
    if (const auto chunk = held->branch_chunk(b)) held_leaves[b] = chunk->leaves();
  }
  const uint64_t held_hash = held->content_hash();

  // Churn every octant across several epochs; the held snapshot's chunks
  // must not move even while some of them are being shared forward.
  for (int e = 0; e < 6; ++e) {
    inserter.insert_scan(random_cloud(rng, 200, -6, 6), {-0.1, 0.2, 0.0});
    service.refresh_from(backend);
  }
  EXPECT_EQ(held->content_hash(), held_hash);
  for (int b = 0; b < 8; ++b) {
    const auto chunk = held->branch_chunk(b);
    ASSERT_EQ(chunk != nullptr, !held_leaves[b].empty());
    if (chunk) EXPECT_EQ(chunk->leaves(), held_leaves[b]) << "branch " << b;
  }
}

}  // namespace
}  // namespace omu::query
