// Map service overhead characterization: the `service` family measures
// what the wire protocol costs over the in-process omu::Mapper facade it
// wraps — RPC insert and query throughput over the loopback transport,
// and the subscription stream's delta bytes against what naive full-map
// rebroadcast would ship.
//
//   service/path:{insert,query,subscribe}
//
// Every case replays the FR-079 stream through a loopback RPC session and
// checks the wire-built map is bit-identical to an in-process facade fed
// the same stream — the equivalence the service's whole design rests on.
// Counters report the rpc/facade throughput ratios; `subscribe` adds the
// delta-bytes-per-epoch economy of incremental snapshot shipping.
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <omu/omu.hpp>

#include "bench_common.hpp"
#include "benchkit/benchmark.hpp"
#include "geom/rng.hpp"
#include "obs/prom_text.hpp"
#include "service/client.hpp"
#include "service/map_service.hpp"
#include "service/transport.hpp"

namespace {

using namespace omu;

constexpr int kQueries = 50000;
constexpr int kQueryBatch = 512;
constexpr int kFlushEvery = 8;

/// One scan flattened to the wire's float-triple layout.
std::vector<float> flat_xyz(const data::DatasetScan& scan) {
  std::vector<float> xyz(scan.points.size() * 3);
  std::memcpy(xyz.data(), &scan.points.points().front().x, xyz.size() * sizeof(float));
  return xyz;
}

/// In-process facade reference fed the same stream: (insert seconds,
/// content hash, mapper kept alive for query comparison).
struct FacadeReference {
  Mapper mapper;
  double insert_s = 0.0;
  uint64_t hash = 0;
};

FacadeReference build_facade_reference(const std::vector<data::DatasetScan>& scans) {
  FacadeReference ref{Mapper::create(MapperConfig().resolution(0.2)).value()};
  const auto start = std::chrono::steady_clock::now();
  for (const data::DatasetScan& scan : scans) {
    const geom::Vec3d origin = scan.pose.translation();
    const Status s = ref.mapper.insert(&scan.points.points().front().x, scan.points.size(),
                                       Vec3{origin.x, origin.y, origin.z});
    if (!s.ok()) throw std::runtime_error("facade insert failed: " + s.to_string());
  }
  if (Status s = ref.mapper.flush(); !s.ok()) {
    throw std::runtime_error("facade flush failed: " + s.to_string());
  }
  ref.insert_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ref.hash = ref.mapper.content_hash().value();
  return ref;
}

double service_counter(service::ServiceClient& client, const std::string& family) {
  const std::string text = client.metrics().value();
  const obs::PromScrape scrape = obs::parse_prometheus_text(text);
  const obs::PromFamily* found = scrape.find(family);
  if (found == nullptr || found->samples.empty()) return 0.0;
  return found->samples.front().value;
}

void service_bench(benchkit::State& state) {
  const std::string path = state.param("path");

  state.pause_timing();
  const auto& scans = omu::bench::scans_memo(data::DatasetId::kFr079Corridor);
  FacadeReference reference = build_facade_reference(scans);

  service::MapService host;
  auto listener = std::make_shared<service::LoopbackListener>();
  host.start(listener);
  service::ServiceClient client(listener->connect());

  service::SessionSpec spec;
  spec.tenant = "bench";
  spec.resolution = 0.2;
  spec.backend = static_cast<uint8_t>(BackendKind::kOctree);
  const uint64_t session = client.create(spec).value();

  service::SubscriptionMirror mirror;
  if (path == "subscribe") {
    if (!client.subscribe(session, &mirror).ok()) {
      throw std::runtime_error("subscribe failed");
    }
  }
  state.resume_timing();

  // ---- Timed: the RPC stream (insert + flush epochs) ---------------------
  const auto rpc_start = std::chrono::steady_clock::now();
  uint64_t total_points = 0;
  int since_flush = 0;
  for (const data::DatasetScan& scan : scans) {
    const geom::Vec3d origin = scan.pose.translation();
    const service::WireStatus s =
        client.insert(session, Vec3{origin.x, origin.y, origin.z}, flat_xyz(scan));
    if (!s.ok()) throw std::runtime_error("rpc insert failed: " + s.message);
    total_points += scan.points.size();
    if (++since_flush == kFlushEvery) {
      since_flush = 0;
      if (!client.flush(session).ok()) throw std::runtime_error("rpc flush failed");
    }
  }
  if (!client.flush(session).ok()) throw std::runtime_error("rpc flush failed");
  const double rpc_insert_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - rpc_start).count();

  // ---- Query path: batched RPC queries vs the facade's snapshot view -----
  double rpc_qps = 0.0;
  double facade_qps = 0.0;
  if (path == "query") {
    geom::SplitMix64 rng(17);
    std::vector<Vec3> probes(kQueries);
    for (auto& p : probes) {
      p = Vec3{rng.uniform(-18.0, 18.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)};
    }

    const auto rpc_q_start = std::chrono::steady_clock::now();
    for (int at = 0; at < kQueries; at += kQueryBatch) {
      const auto last = std::min<std::size_t>(at + kQueryBatch, probes.size());
      const std::vector<Vec3> batch(probes.begin() + at, probes.begin() + last);
      if (!client.query(session, batch).ok()) throw std::runtime_error("rpc query failed");
    }
    rpc_qps = kQueries / std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - rpc_q_start)
                             .count();

    state.pause_timing();
    const MapView view = reference.mapper.snapshot().value();
    const auto facade_q_start = std::chrono::steady_clock::now();
    for (const Vec3& p : probes) view.classify(p);
    facade_qps = kQueries / std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - facade_q_start)
                                .count();
    state.resume_timing();
  }

  state.pause_timing();

  // ---- Checks: the wire costs no bits ------------------------------------
  const uint64_t wire_hash = client.content_hash(session).value();
  state.check("bit_identical_to_facade", wire_hash == reference.hash);
  if (path == "subscribe") {
    state.check("mirror_converged",
                mirror.converged() && mirror.hash_mismatches() == 0 &&
                    mirror.content_hash() == wire_hash);
    const double delta_bytes = service_counter(client, "omu_service_delta_bytes");
    const double epochs = service_counter(client, "omu_service_delta_events");
    // What naive rebroadcast would ship: the full canonical leaf run
    // (kLeafRecordWireBytes each on the wire) once per published epoch.
    const double full_rebroadcast = static_cast<double>(mirror.leaf_count()) *
                                    static_cast<double>(service::kLeafRecordWireBytes) * epochs;
    state.set_counter("delta_bytes_total", delta_bytes);
    state.set_counter("delta_epochs", epochs);
    state.set_counter("delta_bytes_per_epoch", epochs > 0 ? delta_bytes / epochs : 0.0);
    state.set_counter("vs_full_rebroadcast",
                      delta_bytes > 0 ? full_rebroadcast / delta_bytes : 0.0);
  }

  state.set_items_processed(total_points);
  state.set_counter("rpc_insert_points_per_sec", total_points / rpc_insert_s);
  state.set_counter("vs_facade_insert", reference.insert_s / rpc_insert_s);
  if (path == "query") {
    state.set_counter("rpc_batched_qps", rpc_qps);
    state.set_counter("vs_facade_query", rpc_qps / facade_qps);
  }

  if (!client.close_session(session).ok()) throw std::runtime_error("close failed");
  host.stop();
  state.resume_timing();
}

benchkit::Family& service_family =
    benchkit::register_family("service", service_bench)
        .axis("path", std::vector<std::string>{"insert", "query", "subscribe"})
        .default_repeats(1)
        .default_warmup(0);

}  // namespace
