// MapperConfig validation: every invalid combination is rejected with a
// non-ok Status whose message names the offending field and the value it
// held — and no exception ever escapes the facade boundary.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>

#include <omu/omu.hpp>

#include "accel/omu_config.hpp"
#include "facade_test_util.hpp"
#include "world/world_manifest.hpp"

namespace omu {
namespace {

using facade_testing::TempDir;

/// Runs create() on a config expected to be invalid; asserts the facade
/// returns (never throws) a non-ok status containing every `needle`.
Status expect_rejected(const MapperConfig& config, std::initializer_list<const char*> needles) {
  Status status = Status::internal("create did not run");
  EXPECT_NO_THROW({
    Result<Mapper> result = Mapper::create(config);
    EXPECT_FALSE(result.ok());
    status = result.status();
  });
  for (const char* needle : needles) {
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << "message does not mention '" << needle << "': " << status;
  }
  return status;
}

TEST(MapperConfigValidation, RejectsNonPositiveResolution) {
  EXPECT_EQ(expect_rejected(MapperConfig().resolution(0.0), {"resolution", "0"}).code(),
            StatusCode::kInvalidArgument);
  expect_rejected(MapperConfig().resolution(-0.5), {"resolution", "-0.5"});
  expect_rejected(MapperConfig().resolution(std::numeric_limits<double>::quiet_NaN()),
                  {"resolution"});
  expect_rejected(MapperConfig().resolution(std::numeric_limits<double>::infinity()),
                  {"resolution"});
}

TEST(MapperConfigValidation, RejectsUnknownBackendKind) {
  // A kind cast from an integer (or a wire byte) that names no enumerator
  // is rejected up front — 2 and 4 are the retired values, 9 was never
  // assigned.
  for (const int value : {2, 4, 9, 255}) {
    const auto kind = static_cast<BackendKind>(value);
    const std::string text = std::to_string(value);
    const Status s = expect_rejected(MapperConfig().backend(kind), {"backend", text.c_str()});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    // The message lists exactly the live kinds.
    EXPECT_NE(s.message().find("kOctree=0, kAccelerator=1 or kTiledWorld=3"), std::string::npos)
        << s;
    EXPECT_FALSE(MapperConfig().backend(kind).validate().ok());
  }
}

TEST(MapperConfigValidation, RejectsWorldPagingOnAccelerator) {
  const Status dir = expect_rejected(
      MapperConfig().backend(BackendKind::kAccelerator).world({.directory = "/tmp/w"}),
      {"world.directory", "/tmp/w", "accelerator", "kTiledWorld"});
  EXPECT_EQ(dir.code(), StatusCode::kInvalidArgument);
  expect_rejected(
      MapperConfig().backend(BackendKind::kAccelerator).world({.resident_byte_budget = 1 << 20}),
      {"world.resident_byte_budget", "1048576", "accelerator"});
}

TEST(MapperConfigValidation, RejectsWorldFieldsOnOctree) {
  expect_rejected(MapperConfig().world({.directory = "w"}),
                  {"world.directory", "w", "kTiledWorld"});
  expect_rejected(MapperConfig().world({.resident_byte_budget = 64}),
                  {"world.resident_byte_budget", "64", "octree"});
}

TEST(MapperConfigValidation, RejectsBudgetWithoutWorldDirectory) {
  const Status s = expect_rejected(
      MapperConfig().backend(BackendKind::kTiledWorld).world({.resident_byte_budget = 4096}),
      {"world.resident_byte_budget", "4096", "world.directory"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(MapperConfigValidation, RejectsOutOfRangeTileShift) {
  expect_rejected(MapperConfig().backend(BackendKind::kTiledWorld).world({.tile_shift = 0}),
                  {"world.tile_shift", "0"});
  expect_rejected(MapperConfig().backend(BackendKind::kTiledWorld).world({.tile_shift = 17}),
                  {"world.tile_shift", "17"});
}

TEST(MapperConfigValidation, RejectsAcceleratorOptionsOnOtherBackends) {
  expect_rejected(MapperConfig().accelerator(AcceleratorOptions{}),
                  {"accelerator", "octree", "kAccelerator"});
  accel::OmuConfig cfg;
  expect_rejected(MapperConfig().backend(BackendKind::kTiledWorld).accelerator_config(cfg),
                  {"accelerator_config", "tiled-world"});
}

TEST(MapperConfigValidation, RejectsMalformedAcceleratorShape) {
  AcceleratorOptions opts;
  opts.pe_count = 0;
  expect_rejected(MapperConfig().backend(BackendKind::kAccelerator).accelerator(opts),
                  {"accelerator.pe_count", "0"});
  opts.pe_count = 9;
  expect_rejected(MapperConfig().backend(BackendKind::kAccelerator).accelerator(opts),
                  {"accelerator.pe_count", "9"});
  opts = AcceleratorOptions{};
  opts.banks_per_pe = 0;
  expect_rejected(MapperConfig().backend(BackendKind::kAccelerator).accelerator(opts),
                  {"accelerator.banks_per_pe", "0"});
  opts = AcceleratorOptions{};
  opts.rows_per_bank = 0;
  expect_rejected(MapperConfig().backend(BackendKind::kAccelerator).accelerator(opts),
                  {"accelerator.rows_per_bank"});
  opts = AcceleratorOptions{};
  opts.clock_hz = 0.0;
  expect_rejected(MapperConfig().backend(BackendKind::kAccelerator).accelerator(opts),
                  {"accelerator.clock_hz", "0"});
  accel::OmuConfig cfg;
  cfg.pe_count = 12;
  expect_rejected(MapperConfig().backend(BackendKind::kAccelerator).accelerator_config(cfg),
                  {"accelerator_config.pe_count", "12"});
}

TEST(MapperConfigValidation, RejectsMalformedSensorModel) {
  SensorModel sm;
  sm.log_hit = -0.85f;
  expect_rejected(MapperConfig().sensor_model(sm), {"sensor_model.log_hit", "-0.85"});
  sm = SensorModel{};
  sm.log_miss = 0.4f;
  expect_rejected(MapperConfig().sensor_model(sm), {"sensor_model.log_miss", "0.4"});
  sm = SensorModel{};
  sm.clamp_min = 4.0f;
  sm.clamp_max = -4.0f;
  expect_rejected(MapperConfig().sensor_model(sm), {"sensor_model.clamp_min", "4", "-4"});
}

TEST(MapperConfigValidation, AcceptsEveryBackendKindWhenWellFormed) {
  EXPECT_TRUE(MapperConfig().validate().ok());
  EXPECT_TRUE(MapperConfig()
                  .backend(BackendKind::kAccelerator)
                  .accelerator(AcceleratorOptions{})
                  .validate()
                  .ok());
  EXPECT_TRUE(MapperConfig()
                  .backend(BackendKind::kTiledWorld)
                  .world({.directory = "some_dir",
                          .resident_byte_budget = 1 << 20,
                          .tile_shift = 5})
                  .validate()
                  .ok());
}

TEST(MapperConfigValidation, OpenMissingDirectoryIsNotFoundNotAThrow) {
  EXPECT_NO_THROW({
    Result<Mapper> r = Mapper::open("/nonexistent/omu_world_dir");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
    EXPECT_NE(r.status().message().find("/nonexistent/omu_world_dir"), std::string::npos);
  });
}

TEST(MapperConfigValidation, OpenDirectoryWithoutManifestIsNotFound) {
  TempDir dir("facade_open_empty");
  Result<Mapper> r = Mapper::open(dir.path());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("manifest"), std::string::npos);
}

TEST(MapperConfigValidation, OpenCorruptManifestFailsCleanly) {
  TempDir dir("facade_open_corrupt");
  std::ofstream(world::WorldManifest::manifest_path(dir.path())) << "not a manifest";
  EXPECT_NO_THROW({
    Result<Mapper> r = Mapper::open(dir.path());
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().code(), StatusCode::kOk);
  });
}

TEST(MapperConfigValidation, CreateOverExistingWorldIsFailedPrecondition) {
  TempDir dir("facade_create_shadow");
  const MapperConfig cfg = MapperConfig().backend(BackendKind::kTiledWorld).world(
      {.directory = dir.path(), .tile_shift = 5});
  {
    Result<Mapper> first = Mapper::create(cfg);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(first->save().ok());
  }
  Result<Mapper> second = Mapper::create(cfg);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(second.status().message().find("open"), std::string::npos) << second.status();
}

}  // namespace
}  // namespace omu
