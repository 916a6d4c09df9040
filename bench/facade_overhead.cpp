// Facade overhead characterization: the `facade` family measures what the
// public omu::Mapper session API costs over hand-wiring the same backend
// from internal headers — expected ~1.0x, since the facade composes the
// identical subsystems and only adds a float-triple copy per scan on the
// insert path and a shared_ptr hop on the query path.
//
//   facade/backend:{octree,world}
//
// Each case runs the FR-079 stream twice — once through a facade session,
// once hand-wired — then hammers both read paths (facade MapView vs the
// internal snapshot/view type) with identical metric queries. Checks
// assert the two maps are bit-identical; counters report the
// facade/hand-wired insert and query ratios the ~1.0x claim rests on.
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include <omu/omu.hpp>

#include "bench_common.hpp"
#include "benchkit/benchmark.hpp"
#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"
#include "query/map_snapshot.hpp"
#include "world/tiled_world_map.hpp"

namespace {

using namespace omu;

constexpr int kQueries = 50000;
constexpr int kTileShift = 6;

/// Classifies `n` pseudo-random metric positions inside the mapped
/// region; returns queries/second. Identical position stream for every
/// query surface.
template <typename ClassifyFn>
double measure_query_qps(int n, ClassifyFn&& classify_at) {
  geom::SplitMix64 rng(17);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    classify_at(rng.uniform(-18.0, 18.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(n) / seconds;
}

MapperConfig config_for(const std::string& backend) {
  MapperConfig cfg = MapperConfig().resolution(0.2);
  if (backend == "world") {
    cfg.backend(BackendKind::kTiledWorld).world({.tile_shift = kTileShift});
  }
  return cfg;
}

/// Hand-wired twin of config_for: the pre-facade boilerplate each
/// consumer used to carry.
std::unique_ptr<map::MapBackend> hand_wired_backend(const std::string& backend,
                                                    std::unique_ptr<map::OccupancyOctree>& tree) {
  if (backend == "octree") {
    tree = std::make_unique<map::OccupancyOctree>(0.2);
    return std::make_unique<map::OctreeBackend>(*tree);
  }
  world::TiledWorldConfig cfg;
  cfg.resolution = 0.2;
  cfg.tile_shift = kTileShift;
  return std::make_unique<world::TiledWorldMap>(cfg);
}

void facade(benchkit::State& state) {
  const std::string backend = state.param("backend");

  // ---- Reference: the hand-wired equivalent, measured first under paused
  // timing (also warms the allocator/page cache so the facade pass that
  // benchkit times doesn't eat the cold-start noise alone).
  state.pause_timing();
  const auto& scans = bench::scans_memo(data::DatasetId::kFr079Corridor);
  std::unique_ptr<map::OccupancyOctree> tree;
  std::unique_ptr<map::MapBackend> hand = hand_wired_backend(backend, tree);
  // Insert timing includes the end-of-stream snapshot/view build on both
  // sides: a facade flush() publishes one, so the hand-wired twin must
  // pay for its capture too.
  const auto hand_start = std::chrono::steady_clock::now();
  std::shared_ptr<const query::MapSnapshot> hand_snapshot;
  std::shared_ptr<const world::WorldQueryView> hand_view;
  {
    map::ScanInserter inserter(*hand);
    for (const data::DatasetScan& scan : scans) {
      inserter.insert_scan(scan.points, scan.pose.translation());
    }
    hand->flush();
    if (backend == "world") {
      hand_view = static_cast<world::TiledWorldMap&>(*hand).capture_view();
    } else {
      hand_snapshot = query::MapSnapshot::capture(*hand);
    }
  }
  const double hand_insert_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - hand_start).count();

  double hand_qps = 0.0;
  if (backend == "world") {
    hand_qps = measure_query_qps(kQueries, [&](double x, double y, double z) {
      return hand_view->classify(geom::Vec3d{x, y, z});
    });
  } else {
    hand_qps = measure_query_qps(kQueries, [&](double x, double y, double z) {
      return hand_snapshot->classify(geom::Vec3d{x, y, z});
    });
  }
  state.resume_timing();

  // ---- Timed: the facade session (insert + flush + snapshot queries) -----
  Mapper mapper = Mapper::create(config_for(backend)).value();
  const auto facade_start = std::chrono::steady_clock::now();
  for (const data::DatasetScan& scan : scans) {
    const geom::Vec3d origin = scan.pose.translation();
    const Status s = mapper.insert(&scan.points.points().front().x, scan.points.size(),
                                   Vec3{origin.x, origin.y, origin.z});
    if (!s.ok()) throw std::runtime_error("facade insert failed: " + s.to_string());
  }
  if (Status s = mapper.flush(); !s.ok()) {
    throw std::runtime_error("facade flush failed: " + s.to_string());
  }
  const double facade_insert_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - facade_start).count();

  const MapView view = mapper.snapshot().value();
  const double facade_qps = measure_query_qps(
      kQueries, [&](double x, double y, double z) { return view.classify(Vec3{x, y, z}); });

  state.pause_timing();

  // ---- Checks: the facade costs no bits and ~no time ---------------------
  state.check("bit_identical_to_handwired",
              mapper.content_hash().value() == hand->content_hash());
  // Generous band: host noise on shared runners, not a perf claim.
  state.check("insert_overhead_sane", facade_insert_s < hand_insert_s * 2.0 + 0.05);

  const MapperStats stats = mapper.stats().value();
  state.set_items_processed(stats.ingest.voxel_updates);
  state.set_counter("facade_insert_updates_per_sec",
                    static_cast<double>(stats.ingest.voxel_updates) / facade_insert_s);
  state.set_counter("vs_handwired_insert", hand_insert_s / facade_insert_s);
  state.set_counter("facade_mqps", facade_qps / 1e6);
  state.set_counter("vs_handwired_query", facade_qps / hand_qps);
  state.set_counter("snapshot_leaves", static_cast<double>(view.leaf_count()));
  state.resume_timing();
}

benchkit::Family& facade_family =
    benchkit::register_family("facade", facade)
        .axis("backend", std::vector<std::string>{"octree", "world"})
        .default_repeats(1)
        .default_warmup(0);

}  // namespace
