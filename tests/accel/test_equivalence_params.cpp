// HW/SW equivalence under non-default sensor models: the accelerator's
// fixed-point datapath must track the software baseline for any quantized
// parameter set, not just the OctoMap defaults — catches hard-coded
// constants on either side.
#include <gtest/gtest.h>

#include <ostream>

#include "accel/omu_accelerator.hpp"
#include "geom/rng.hpp"
#include "map/occupancy_octree.hpp"

namespace omu::accel {
namespace {

using map::OccupancyOctree;
using map::OccupancyParams;
using map::OcKey;
using map::VoxelUpdate;

struct ParamCase {
  const char* name;
  float log_hit;
  float log_miss;
  float clamp_min;
  float clamp_max;
  float threshold;
};

// Printed into each case's test name after "# GetParam() =". Without it
// gtest dumps the struct's raw bytes, which include the name pointer and
// padding, so the names changed from build to build.
void PrintTo(const ParamCase& pc, std::ostream* os) {
  *os << pc.name << " hit=" << pc.log_hit << " miss=" << pc.log_miss << " clamp=" << pc.clamp_min
      << ".." << pc.clamp_max << " threshold=" << pc.threshold;
}

class ParamEquivalence : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ParamEquivalence, MapsAgreeBitExactly) {
  const ParamCase& pc = GetParam();
  OccupancyParams params;
  params.log_hit = pc.log_hit;
  params.log_miss = pc.log_miss;
  params.clamp_min = pc.clamp_min;
  params.clamp_max = pc.clamp_max;
  params.occ_threshold = pc.threshold;

  OccupancyOctree sw(0.2, params);
  OmuConfig cfg;
  cfg.params = params;
  OmuAccelerator hw(cfg);

  geom::SplitMix64 rng(1234);
  std::vector<VoxelUpdate> updates;
  for (int i = 0; i < 8000; ++i) {
    updates.push_back({OcKey{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(12) - 6),
                             static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(12) - 6),
                             static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(12) - 6)},
                       rng.next_below(100) < 50});
  }
  for (const auto& u : updates) sw.update_node(u.key, u.occupied);
  hw.simulate_updates(updates);

  EXPECT_EQ(map::normalize_to_depth1(sw.leaves_sorted()), hw.leaves_sorted()) << pc.name;
  // Classification must agree too (threshold handling).
  for (int i = 0; i < 300; ++i) {
    const OcKey k{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(16) - 8),
                  static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(16) - 8),
                  static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(16) - 8)};
    EXPECT_EQ(sw.classify(k), hw.query(k).occupancy) << pc.name << " sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SensorModels, ParamEquivalence,
    ::testing::Values(
        ParamCase{"octomap_defaults", 0.85f, -0.4f, -2.0f, 3.5f, 0.0f},
        ParamCase{"aggressive_hits", 1.5f, -0.2f, -2.0f, 3.5f, 0.0f},
        ParamCase{"cautious_sensor", 0.4f, -0.7f, -1.0f, 2.0f, 0.0f},
        ParamCase{"biased_threshold", 0.85f, -0.4f, -2.0f, 3.5f, 0.5f},
        ParamCase{"tight_clamps", 0.85f, -0.4f, -0.9f, 0.9f, 0.0f},
        ParamCase{"asymmetric_clamps", 0.6f, -0.3f, -4.0f, 1.2f, -0.2f}),
    [](const ::testing::TestParamInfo<ParamCase>& info) { return info.param.name; });

}  // namespace
}  // namespace omu::accel
