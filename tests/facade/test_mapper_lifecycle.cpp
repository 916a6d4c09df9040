// Mapper lifecycle: create/open -> insert -> flush -> snapshot ->
// save/save_map -> close, including the post-close failure mode and view
// immutability guarantees.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <omu/omu.hpp>

#include "facade_test_util.hpp"
#include "map/octree_io.hpp"

namespace omu {
namespace {

using facade_testing::TempDir;
using facade_testing::stream_into;
using facade_testing::test_scans;

TEST(MapperLifecycle, SnapshotBeforeFirstFlushIsEmpty) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  const MapView view = mapper.snapshot().value();
  EXPECT_TRUE(view.valid());
  EXPECT_EQ(view.epoch(), 0u);
  EXPECT_EQ(view.leaf_count(), 0u);
  EXPECT_EQ(static_cast<int>(view.classify(Vec3{0, 0, 0})),
            static_cast<int>(Occupancy::kUnknown));
}

TEST(MapperLifecycle, FlushPublishesNewEpochsAndCountsStats) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());
  const MapView first = mapper.snapshot().value();
  EXPECT_GT(first.leaf_count(), 0u);
  const uint64_t first_epoch = first.epoch();

  // A flush with nothing new is publish-free: readers keep the epoch.
  ASSERT_TRUE(mapper.flush().ok());
  EXPECT_EQ(mapper.snapshot().value().epoch(), first_epoch);
  EXPECT_EQ(mapper.stats()->publication.noop_flushes, 1u);

  // New content publishes a new epoch.
  const float point[] = {4.0f, 2.0f, 1.0f};
  ASSERT_TRUE(mapper.insert(point, 1, Vec3{0, 0, 0}).ok());
  ASSERT_TRUE(mapper.flush().ok());
  EXPECT_GT(mapper.snapshot().value().epoch(), first_epoch);

  const MapperStats stats = mapper.stats().value();
  EXPECT_EQ(stats.ingest.scans_inserted, test_scans().size() + 1);
  EXPECT_GT(stats.ingest.points_inserted, 0u);
  EXPECT_GT(stats.ingest.voxel_updates, stats.ingest.points_inserted);  // rays free >1 voxel
  EXPECT_EQ(stats.ingest.flushes, 3u);
  EXPECT_GT(stats.ingest.memory_bytes, 0u);
  EXPECT_EQ(stats.publication.snapshots_published, 2u);
  EXPECT_GE(stats.publication.incremental_publications, 1u);  // second publish spliced
  EXPECT_GT(stats.publication.bytes_reused, 0u);     // unchanged branches shared
}

TEST(MapperLifecycle, ViewSurvivesMapperClose) {
  MapView view;
  Vec3 probe{0, 0, 0};
  {
    Mapper mapper = Mapper::create(MapperConfig()).value();
    stream_into(mapper, test_scans());
    ASSERT_TRUE(mapper.flush().ok());
    view = mapper.snapshot().value();
    // Find a probe the live map classifies as occupied.
    bool found = false;
    for (const auto& scan : test_scans()) {
      const geom::Vec3f& p = scan.points[0];
      if (view.classify(Vec3{p.x, p.y, p.z}) == Occupancy::kOccupied) {
        probe = Vec3{p.x, p.y, p.z};
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
    ASSERT_TRUE(mapper.close().ok());
  }
  // The mapper (and its backend) are gone; the immutable view still answers.
  EXPECT_EQ(static_cast<int>(view.classify(probe)), static_cast<int>(Occupancy::kOccupied));
  EXPECT_GT(view.leaf_count(), 0u);
}

TEST(MapperLifecycle, EveryCallFailsClosedAfterClose) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  ASSERT_TRUE(mapper.is_open());
  ASSERT_TRUE(mapper.close().ok());
  EXPECT_FALSE(mapper.is_open());
  EXPECT_TRUE(mapper.close().ok());  // idempotent

  const float xyz[3] = {1.0f, 0.0f, 0.0f};
  EXPECT_EQ(mapper.insert(xyz, 1, Vec3{0, 0, 0}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.snapshot().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.classify(Vec3{0, 0, 0}).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.save_map("x.omap").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.content_hash().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.stats().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.telemetry().status().code(), StatusCode::kFailedPrecondition);
  // Introspection still answers.
  EXPECT_EQ(mapper.backend_name(), "octree");
  EXPECT_EQ(mapper.backend(), BackendKind::kOctree);
}

TEST(MapperLifecycle, InsertRejectsNullPointsWithoutThrowing) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  EXPECT_EQ(mapper.insert(nullptr, 3, Vec3{0, 0, 0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mapper.insert(nullptr, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(mapper.insert(nullptr, 0, Vec3{0, 0, 0}).ok());  // empty scan is fine
  EXPECT_TRUE(mapper.insert(nullptr, 0).ok());
}

TEST(MapperLifecycle, SaveMapRoundTripsOnFileBackends) {
  TempDir dir("facade_save_map");
  const std::string path = dir.path() + "/map.omap";

  Mapper octree = Mapper::create(MapperConfig()).value();
  stream_into(octree, test_scans());
  ASSERT_TRUE(octree.save_map(path).ok());
  const auto reloaded = map::OctreeIo::read_file(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->content_hash(), octree.content_hash().value());

  // The accelerator session's TreeMem readback writes the identical file
  // content.
  Mapper omu = Mapper::create(MapperConfig().backend(BackendKind::kAccelerator)).value();
  stream_into(omu, test_scans());
  const std::string omu_path = dir.path() + "/accelerator.omap";
  ASSERT_TRUE(omu.save_map(omu_path).ok());
  EXPECT_EQ(map::OctreeIo::read_file(omu_path)->content_hash(), octree.content_hash().value());
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(MapperLifecycle, SaveMapReplacesAnExistingMapAtomically) {
  TempDir dir("facade_save_map_replace");
  const std::string path = dir.path() + "/map.omap";
  Mapper first = Mapper::create(MapperConfig()).value();
  stream_into(first, test_scans());
  ASSERT_TRUE(first.save_map(path).ok());

  Mapper second = Mapper::create(MapperConfig()).value();
  stream_into(second, {test_scans().front()});
  ASSERT_NE(second.content_hash().value(), first.content_hash().value());
  ASSERT_TRUE(second.save_map(path).ok());
  const auto reloaded = map::OctreeIo::read_file(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->content_hash(), second.content_hash().value());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(MapperLifecycle, FailedSaveMapKeepsThePreviousFile) {
  TempDir dir("facade_save_map_fail");
  const std::string path = dir.path() + "/map.omap";
  Mapper first = Mapper::create(MapperConfig()).value();
  stream_into(first, test_scans());
  ASSERT_TRUE(first.save_map(path).ok());
  const std::string saved = read_bytes(path);

  // A directory squatting on the temp name makes the commit fail before
  // the target is touched.
  std::filesystem::create_directory(path + ".tmp");
  Mapper second = Mapper::create(MapperConfig()).value();
  stream_into(second, {test_scans().front()});
  const Status status = second.save_map(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos) << status;

  EXPECT_EQ(read_bytes(path), saved);
  const auto reloaded = map::OctreeIo::read_file(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->content_hash(), first.content_hash().value());
}

TEST(MapperLifecycle, SaveAndSaveMapAreModeChecked) {
  TempDir dir("facade_mode_check");
  Mapper octree = Mapper::create(MapperConfig()).value();
  const Status save = octree.save();
  EXPECT_EQ(save.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(save.message().find("save_map"), std::string::npos);
  EXPECT_EQ(octree.paging_stats().status().code(), StatusCode::kFailedPrecondition);

  Mapper world = Mapper::create(MapperConfig()
                                    .backend(BackendKind::kTiledWorld)
                                    .world({.directory = dir.path(), .tile_shift = 5}))
                     .value();
  const Status save_map = world.save_map(dir.path() + "/m.omap");
  EXPECT_EQ(save_map.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(save_map.message().find("save()"), std::string::npos);

  // A purely in-memory world (valid config) has no persistence path; both
  // save flavours must say why and name the missing config field.
  Mapper in_memory =
      Mapper::create(MapperConfig().backend(BackendKind::kTiledWorld).world({.tile_shift = 5}))
          .value();
  const Status mem_save = in_memory.save();
  EXPECT_EQ(mem_save.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mem_save.message().find("world.directory"), std::string::npos) << mem_save;
  EXPECT_EQ(in_memory.save_map(dir.path() + "/m2.omap").code(),
            StatusCode::kFailedPrecondition);
}

TEST(MapperLifecycle, WorldSaveOpenRoundTripAndResume) {
  TempDir dir("facade_world_roundtrip");
  uint64_t saved_hash = 0;
  {
    Mapper world = Mapper::create(MapperConfig()
                                      .backend(BackendKind::kTiledWorld)
                                      .world({.directory = dir.path(), .tile_shift = 5}))
                       .value();
    stream_into(world, test_scans());
    ASSERT_TRUE(world.flush().ok());
    saved_hash = world.content_hash().value();
    ASSERT_TRUE(world.save().ok());
    ASSERT_TRUE(world.close().ok());
  }

  Mapper reopened = Mapper::open(dir.path()).value();
  EXPECT_EQ(reopened.backend(), BackendKind::kTiledWorld);
  EXPECT_EQ(reopened.config().world().tile_shift, 5);
  EXPECT_EQ(reopened.content_hash().value(), saved_hash);

  // The reopened session keeps mapping: integrate the stream again and the
  // content changes (log-odds accumulate), then save again cleanly.
  stream_into(reopened, test_scans());
  ASSERT_TRUE(reopened.flush().ok());
  EXPECT_NE(reopened.content_hash().value(), saved_hash);
  EXPECT_TRUE(reopened.save().ok());
}

TEST(MapperLifecycle, OpenRestoresCallerSuppliedRayPolicy) {
  TempDir dir("facade_reopen_policy");
  SensorModel sm;
  sm.max_range = 4.0;  // truncates rays: genuinely changes map content

  const auto& scans = test_scans();
  const std::size_t half = scans.size() / 2;

  // Session A: first half, save, close; reopen carrying the policy over
  // and integrate the second half.
  {
    Mapper world = Mapper::create(MapperConfig()
                                      .backend(BackendKind::kTiledWorld)
                                      .sensor_model(sm)
                                      .world({.directory = dir.path(), .tile_shift = 5}))
                       .value();
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(facade_testing::insert_cloud(world, scans[i].points, scans[i].origin).ok());
    }
    ASSERT_TRUE(world.save().ok());
  }
  Mapper::OpenOptions options;
  options.max_range = sm.max_range;
  Mapper resumed = Mapper::open(dir.path(), options).value();
  EXPECT_EQ(resumed.config().sensor_model().max_range, sm.max_range);
  for (std::size_t i = half; i < scans.size(); ++i) {
    ASSERT_TRUE(facade_testing::insert_cloud(resumed, scans[i].points, scans[i].origin).ok());
  }

  // Session B: the same stream through a never-closed session.
  Mapper straight = Mapper::create(MapperConfig()
                                       .backend(BackendKind::kTiledWorld)
                                       .world({.tile_shift = 5})
                                       .sensor_model(sm))
                        .value();
  stream_into(straight, scans);

  EXPECT_EQ(resumed.content_hash().value(), straight.content_hash().value());
}

TEST(MapperLifecycle, MoveTransfersTheSession) {
  Mapper a = Mapper::create(MapperConfig()).value();
  stream_into(a, test_scans());
  const uint64_t hash = a.content_hash().value();
  Mapper b = std::move(a);
  EXPECT_FALSE(a.is_open());  // NOLINT(bugprone-use-after-move): moved-from query is the point
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.content_hash().value(), hash);
}

}  // namespace
}  // namespace omu
