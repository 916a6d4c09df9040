// Voxel query characterization (paper Sec. V: "a strong requirement for
// tasks like collision detection in autonomously moving robots"). The
// paper does not evaluate query latency; three families cover it:
//
//   accel_query_outcomes        simulated cycles per query by outcome class
//   accel_query_depth/depth:N   multi-resolution queries (parent max values
//                               answer coarse queries early; monotone check)
//   query_service/readers:N/writer:{off,on}
//                               queries/second against the published
//                               MapSnapshot, quiescent and with a live
//                               octree writer republishing every scan
//
// The FR-079 map is built once (shared fixture under paused timing): one
// ray-casting pass, the identical batch applied to the software octree and
// streamed into the accelerator, plus a writer octree the QueryService
// publishes from via refresh_from.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "accel/accel_backend.hpp"
#include "bench_common.hpp"
#include "benchkit/benchmark.hpp"
#include "geom/rng.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "map/scan_inserter.hpp"
#include "query/query_service.hpp"

namespace {

using namespace omu;

/// Shared fixture: accelerator + serial octree + a writer octree feeding
/// the query service, all integrating the identical FR-079 stream.
struct QueryFixture {
  accel::OmuConfig cfg;
  std::unique_ptr<accel::OmuAccelerator> omu;
  map::OccupancyOctree tree{0.2};
  map::OccupancyOctree writer_tree{0.2};
  map::OctreeBackend writer{writer_tree};
  query::QueryService service;
  geom::Aabb region;
  bool backends_identical = false;
  bool snapshot_identical = false;

  QueryFixture() {
    const data::SyntheticDataset dataset(data::DatasetId::kFr079Corridor,
                                         bench::bench_options().scale,
                                         bench::bench_options().seed);
    region = dataset.scene().bounds();
    cfg.rows_per_bank = bench::bench_options().enlarged_rows_per_bank;
    omu = std::make_unique<accel::OmuAccelerator>(cfg);

    accel::AcceleratorBackend omu_backend(*omu);
    map::OctreeBackend tree_backend(tree);
    map::MapBackend* const backends[] = {&tree_backend, &omu_backend};
    map::ScanInserter inserter(tree_backend);
    map::UpdateBatch updates;
    map::ScanInserter writer_inserter(writer);
    for (std::size_t i = 0; i < dataset.scan_count(); ++i) {
      const data::DatasetScan scan = dataset.scan(i);
      updates.clear();
      inserter.collect_updates(scan.points, scan.pose.translation(), updates);
      for (map::MapBackend* backend : backends) backend->apply(updates);
      writer_inserter.insert_scan(scan.points, scan.pose.translation());
    }
    for (map::MapBackend* backend : backends) backend->flush();
    service.refresh_from(writer);
    backends_identical = tree.content_hash() == omu->content_hash();
    snapshot_identical = service.snapshot()->content_hash() == tree.content_hash();
  }
};

QueryFixture& fixture() {
  static QueryFixture* f = new QueryFixture();
  return *f;
}

/// Runs `readers` threads hammering the query service for `duration` and
/// returns aggregate queries/second. Each reader re-grabs the published
/// snapshot every 1024 queries (a realistic consumer holds one snapshot
/// per read batch, not per query).
double measure_read_throughput(const query::QueryService& service, const geom::Aabb& region,
                               int readers, std::chrono::milliseconds duration) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_queries{0};
  std::vector<std::thread> threads;
  // Clock starts before the spawn loop so thread-startup work is inside
  // the measured window, not free throughput.
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      geom::SplitMix64 rng(static_cast<uint64_t>(r) * 104729 + 17);
      const map::KeyCoder coder(service.snapshot()->resolution());
      uint64_t queries = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snapshot = service.snapshot();
        for (int i = 0; i < 1024; ++i) {
          const geom::Vec3d p{rng.uniform(region.min.x, region.max.x),
                              rng.uniform(region.min.y, region.max.y),
                              rng.uniform(region.min.z, region.max.z)};
          if (const auto key = coder.key_for(p)) {
            snapshot->classify(*key);
            ++queries;
          }
        }
      }
      total_queries.fetch_add(queries, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(total_queries.load()) / seconds;
}

/// Simulated accelerator query cycles bucketed by outcome class.
void accel_query_outcomes(benchkit::State& state) {
  state.pause_timing();
  QueryFixture& f = fixture();
  state.resume_timing();
  state.check("backends_bit_identical", f.backends_identical);

  geom::SplitMix64 rng(7);
  struct Bucket {
    uint64_t n = 0;
    uint64_t cycles = 0;
  };
  Bucket by_class[3];
  const map::KeyCoder coder(0.2);
  constexpr int kQueries = 50000;
  for (int i = 0; i < kQueries; ++i) {
    const geom::Vec3d p{rng.uniform(f.region.min.x, f.region.max.x),
                        rng.uniform(f.region.min.y, f.region.max.y),
                        rng.uniform(f.region.min.z, f.region.max.z)};
    const auto key = coder.key_for(p);
    if (!key) continue;
    const auto r = f.omu->query(*key);
    Bucket& b = by_class[static_cast<int>(r.occupancy)];
    b.n++;
    b.cycles += r.cycles;
  }

  state.set_items_processed(kQueries);
  const char* names[3] = {"unknown", "free", "occupied"};
  for (int c = 0; c < 3; ++c) {
    const Bucket& b = by_class[c];
    if (b.n == 0) continue;
    state.set_counter(std::string("avg_cycles_") + names[c],
                      static_cast<double>(b.cycles) / static_cast<double>(b.n));
    state.set_counter(std::string("queries_") + names[c], static_cast<double>(b.n));
  }
}

/// Per-depth cycle averages recorded for the monotonicity check (coarser
/// queries terminate earlier thanks to maintained parent max values).
std::map<int64_t, double>& depth_cycles_cache() {
  static std::map<int64_t, double> cache;
  return cache;
}

void accel_query_depth(benchkit::State& state) {
  const int64_t depth = state.param_int("depth");
  state.pause_timing();
  QueryFixture& f = fixture();
  state.resume_timing();

  const map::KeyCoder coder(0.2);
  uint64_t n = 0;
  uint64_t cycles = 0;
  geom::SplitMix64 drng(13);
  constexpr int kQueries = 20000;
  for (int i = 0; i < kQueries; ++i) {
    const geom::Vec3d p{drng.uniform(f.region.min.x, f.region.max.x),
                        drng.uniform(f.region.min.y, f.region.max.y),
                        drng.uniform(f.region.min.z, f.region.max.z)};
    const auto key = coder.key_for(p);
    if (!key) continue;
    cycles += f.omu->query(*key, static_cast<int>(depth)).cycles;
    ++n;
  }
  const double avg = static_cast<double>(cycles) / static_cast<double>(n);
  state.set_items_processed(n);
  state.set_counter("avg_cycles", avg);
  state.set_counter("voxel_edge_m", coder.node_size(static_cast<int>(depth)));
  depth_cycles_cache()[depth] = avg;

  // Coarser queries are never slower (parent values answer early). The
  // axis runs fine-to-coarse, so each case checks against all finer ones
  // recorded so far; under a filter the cache may be partial and the
  // check degenerates to trivially true.
  bool monotone = true;
  for (const auto& [finer_depth, finer_avg] : depth_cycles_cache()) {
    if (finer_depth > depth) monotone = monotone && avg <= finer_avg + 1e-9;
  }
  state.check("coarser_never_slower", monotone);
}

void query_service(benchkit::State& state) {
  const int readers = static_cast<int>(state.param_int("readers"));
  const bool live_writer = state.param_flag("writer");

  state.pause_timing();
  QueryFixture& f = fixture();
  const std::vector<data::DatasetScan>& scans =
      bench::scans_memo(data::DatasetId::kFr079Corridor);
  state.resume_timing();

  state.check("snapshot_bit_identical_to_serial", f.snapshot_identical);
  state.set_counter("snapshot_leaves", static_cast<double>(f.service.snapshot()->leaf_count()));
  state.set_counter("snapshot_mib",
                    static_cast<double>(f.service.snapshot()->memory_bytes()) / (1024.0 * 1024.0));

  const auto bench_ms =
      std::chrono::milliseconds(bench::bench_options().scale < 0.1 ? 100 : 200);

  std::atomic<bool> writer_stop{false};
  std::thread writer;
  const uint64_t pubs_before = f.service.publications();
  if (live_writer) {
    // Live writer: re-stream the dataset into the writer octree,
    // publishing a fresh snapshot after every scan.
    writer = std::thread([&] {
      map::ScanInserter writer_inserter(f.writer);
      std::size_t i = 0;
      while (!writer_stop.load(std::memory_order_acquire)) {
        const data::DatasetScan& scan = scans[i++ % scans.size()];
        writer_inserter.insert_scan(scan.points, scan.pose.translation());
        f.service.refresh_from(f.writer);
      }
    });
  }
  const double qps = measure_read_throughput(f.service, f.region, readers, bench_ms);
  if (live_writer) {
    writer_stop.store(true, std::memory_order_release);
    writer.join();
    state.set_counter("publications", static_cast<double>(f.service.publications() - pubs_before));
  }

  state.set_items_processed(static_cast<uint64_t>(qps * (static_cast<double>(bench_ms.count()) / 1e3)));
  state.set_counter("mqps", qps / 1e6);

  // Reader scaling is only assessable on a multi-core host; the lock-free
  // read path is exercised regardless.
  if (readers > 1 && std::thread::hardware_concurrency() < 2) {
    state.set_counter("single_core_host", 1.0);
  }
}

OMU_BENCHMARK(accel_query_outcomes).default_repeats(1).default_warmup(0);
OMU_BENCHMARK(accel_query_depth)
    .axis("depth", std::vector<int64_t>{16, 14, 12, 10, 8})
    .default_repeats(1).default_warmup(0);
OMU_BENCHMARK(query_service)
    .axis("readers", std::vector<int64_t>{1, 2, 4})
    .axis("writer", std::vector<std::string>{"off", "on"})
    .default_warmup(0);

}  // namespace
