// Microbenchmarks: raw operation throughput of the software octree and
// the accelerator PE model on this host. These are host-performance
// numbers for development (regression tracking), not paper reproductions
// — the modeled i9/A57/OMU numbers come from the table families.
// Each repeat runs a fixed batch of operations; ns/op falls out of
// items/s. (Formerly a google-benchmark binary; benchkit removed that
// external dependency.)
#include "accel/pe_unit.hpp"
#include "bench_common.hpp"
#include "benchkit/benchmark.hpp"
#include "geom/rng.hpp"
#include "map/occupancy_octree.hpp"
#include "map/ray_keys.hpp"

namespace {

using namespace omu;

map::OcKey random_key(geom::SplitMix64& rng, int span) {
  return map::OcKey{
      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                            static_cast<uint64_t>(span) / 2),
      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                            static_cast<uint64_t>(span) / 2),
      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                            static_cast<uint64_t>(span) / 2)};
}

void micro_octree_update(benchkit::State& state) {
  const int span = static_cast<int>(state.param_int("span"));
  map::OccupancyOctree tree(0.2);
  geom::SplitMix64 rng(1);
  constexpr uint64_t kOps = 200000;
  for (uint64_t i = 0; i < kOps; ++i) {
    tree.update_node(random_key(rng, span), rng.next_below(100) < 40);
  }
  state.set_items_processed(kOps);
  state.set_counter("leaves", static_cast<double>(tree.leaf_count()));
}

void micro_octree_query(benchkit::State& state) {
  map::OccupancyOctree tree(0.2);
  geom::SplitMix64 rng(2);
  state.pause_timing();
  for (int i = 0; i < 50000; ++i) tree.update_node(random_key(rng, 256), true);
  state.resume_timing();
  constexpr uint64_t kOps = 500000;
  uint64_t occupied = 0;
  for (uint64_t i = 0; i < kOps; ++i) {
    occupied += tree.classify(random_key(rng, 256)) == map::Occupancy::kOccupied ? 1 : 0;
  }
  state.set_items_processed(kOps);
  state.set_counter("occupied_hits", static_cast<double>(occupied));
}

void micro_ray_keys(benchkit::State& state) {
  const map::KeyCoder coder(0.2);
  geom::SplitMix64 rng(3);
  std::vector<map::OcKey> buffer;
  const double len = state.param_double("len");
  constexpr uint64_t kRays = 20000;
  uint64_t keys = 0;
  for (uint64_t i = 0; i < kRays; ++i) {
    buffer.clear();
    const geom::Vec3d origin{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const geom::Vec3d end{origin.x + rng.uniform(-len, len), origin.y + rng.uniform(-len, len),
                          origin.z + rng.uniform(-1, 1)};
    map::compute_ray_keys(coder, origin, end, buffer);
    keys += buffer.size();
  }
  state.set_items_processed(kRays);
  state.set_counter("keys_per_ray", static_cast<double>(keys) / static_cast<double>(kRays));
}

void micro_pe_update(benchkit::State& state) {
  accel::OmuConfig cfg;
  cfg.rows_per_bank = 1u << 16;
  accel::PeUnit pe(0, cfg);
  geom::SplitMix64 rng(4);
  constexpr uint64_t kOps = 200000;
  uint64_t cycles = 0;
  for (uint64_t i = 0; i < kOps; ++i) {
    cycles += pe.execute_update(random_key(rng, 256), rng.next_below(2) == 0).cycles;
  }
  state.set_items_processed(kOps);
  state.set_counter("sim_cycles_per_update",
                    static_cast<double>(cycles) / static_cast<double>(kOps));
}

void micro_pe_query(benchkit::State& state) {
  accel::OmuConfig cfg;
  cfg.rows_per_bank = 1u << 16;
  accel::PeUnit pe(0, cfg);
  geom::SplitMix64 rng(5);
  state.pause_timing();
  for (int i = 0; i < 50000; ++i) pe.execute_update(random_key(rng, 256), true);
  state.resume_timing();
  constexpr uint64_t kOps = 500000;
  uint64_t cycles = 0;
  for (uint64_t i = 0; i < kOps; ++i) {
    cycles += pe.execute_query(random_key(rng, 256)).cycles;
  }
  state.set_items_processed(kOps);
  state.set_counter("sim_cycles_per_query",
                    static_cast<double>(cycles) / static_cast<double>(kOps));
}

OMU_BENCHMARK(micro_octree_update).axis("span", std::vector<int64_t>{32, 256, 2048});
OMU_BENCHMARK(micro_octree_query);
OMU_BENCHMARK(micro_ray_keys).axis("len", std::vector<std::string>{"2", "8", "30"});
OMU_BENCHMARK(micro_pe_update);
OMU_BENCHMARK(micro_pe_query);

}  // namespace
