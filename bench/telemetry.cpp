// Telemetry overhead characterization: the `telemetry` family proves the
// observability layer's contract — timing instrumentation costs <= 2% on
// the insert hot path — and prices the opt-in surfaces (trace journal,
// export serialization).
//
//   telemetry/backend:{octree,hybrid}/mode:{off,on,journal}
//
// Each case streams FR-079 through a facade session with the given
// TelemetryOptions. The `on` cases ALSO stream an identical metrics-off
// session, interleaved min-over-repeats (the off session's handles are
// null, which is the same site cost as the OMU_TELEMETRY=OFF build: one
// pointer compare, no clock read), and CHECK the on/off insert-time ratio
// in-bench — the overhead contract fails the bench run, not a human
// eyeball. The `journal` cases additionally report to_json() /
// to_prometheus() serialization cost and export size.
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>

#include <omu/omu.hpp>

#include "bench_common.hpp"
#include "benchkit/benchmark.hpp"

namespace {

using namespace omu;

// Interleaved timing repeats: min-over-N filters scheduler noise on
// shared/single-core runners, alternation keeps thermal/cache drift from
// biasing one side.
constexpr int kRepeats = 3;
// The contract is 2%; timer jitter on a sub-second stream needs a small
// absolute allowance so the check tests overhead, not clock granularity.
constexpr double kOverheadRatio = 1.02;
constexpr double kAbsSlackSeconds = 0.05;

MapperConfig config_for(const std::string& backend, const TelemetryOptions& telemetry) {
  MapperConfig cfg = MapperConfig().resolution(0.2).telemetry(telemetry);
  if (backend == "hybrid") {
    cfg.backend(BackendKind::kHybrid).hybrid({.window_voxels = 64});
  }
  return cfg;
}

/// Streams the dataset through one facade session; returns insert+flush
/// seconds (the instrumented path the overhead contract covers).
double run_session(const std::string& backend, const TelemetryOptions& telemetry,
                   std::optional<Mapper>* keep = nullptr) {
  const auto& scans = omu::bench::scans_memo(data::DatasetId::kFr079Corridor);
  Mapper mapper = Mapper::create(config_for(backend, telemetry)).value();
  const auto start = std::chrono::steady_clock::now();
  for (const data::DatasetScan& scan : scans) {
    const geom::Vec3d origin = scan.pose.translation();
    const Status s = mapper.insert(&scan.points.points().front().x, scan.points.size(),
                                   Vec3{origin.x, origin.y, origin.z});
    if (!s.ok()) throw std::runtime_error("telemetry bench insert failed: " + s.to_string());
  }
  if (Status s = mapper.flush(); !s.ok()) {
    throw std::runtime_error("telemetry bench flush failed: " + s.to_string());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (keep != nullptr) keep->emplace(std::move(mapper));
  return seconds;
}

void telemetry_bench(benchkit::State& state) {
  const std::string backend = state.param("backend");
  const std::string mode = state.param("mode");

  TelemetryOptions options;
  options.metrics = mode != "off";
  options.journal = mode == "journal";

  state.pause_timing();
  (void)omu::bench::scans_memo(data::DatasetId::kFr079Corridor);  // materialize unpaused
  state.resume_timing();

  // ---- Timed: the session under this case's options ----------------------
  std::optional<Mapper> session;
  double seconds = run_session(backend, options, &session);

  state.pause_timing();
  const MapperStats stats = session->stats().value();

  if (mode == "on") {
    // ---- The overhead contract, measured in-bench ------------------------
    // Alternate on/off repeats and compare minima. The first `on` run is
    // already in hand; odd repeats re-run it to fill the min.
    TelemetryOptions off;
    off.metrics = false;
    double best_on = seconds;
    double best_off = run_session(backend, off);
    for (int i = 1; i < kRepeats; ++i) {
      const double on_i = run_session(backend, options);
      const double off_i = run_session(backend, off);
      best_on = on_i < best_on ? on_i : best_on;
      best_off = off_i < best_off ? off_i : best_off;
    }
    state.check("insert_overhead_within_2pct",
                best_on <= best_off * kOverheadRatio + kAbsSlackSeconds);
    state.set_counter("overhead_vs_metrics_off", best_on / best_off);
    seconds = best_on;  // report the filtered number
  }

  // ---- Export cost (priced once, under the full journal surface) ---------
  if (mode == "journal") {
    const auto json_start = std::chrono::steady_clock::now();
    const TelemetrySnapshot snap = session->telemetry().value();
    const std::string json = snap.to_json();
    const double json_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - json_start).count();
    const auto prom_start = std::chrono::steady_clock::now();
    const std::string prom = snap.to_prometheus();
    const double prom_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - prom_start).count();
    state.check("journal_captured_trace",
                !snap.journal_enabled || !snap.metrics_enabled || !snap.trace.empty());
    state.set_counter("to_json_ms", json_s * 1e3);
    state.set_counter("to_prometheus_ms", prom_s * 1e3);
    state.set_counter("json_bytes", static_cast<double>(json.size()));
    state.set_counter("prometheus_bytes", static_cast<double>(prom.size()));
  }

  // In the compiled-out build every mode degenerates to null handles; the
  // snapshot must say so instead of reporting fake timings.
  state.check("metrics_enabled_matches_build",
              session->telemetry()->metrics_enabled ==
                  (OMU_TELEMETRY_ENABLED != 0 && options.metrics));

  state.set_items_processed(stats.ingest.voxel_updates);
  state.set_counter("insert_updates_per_sec",
                    static_cast<double>(stats.ingest.voxel_updates) / seconds);
  state.set_counter("insert_seconds", seconds);
  state.resume_timing();
}

benchkit::Family& telemetry_family =
    benchkit::register_family("telemetry", telemetry_bench)
        .axis("backend", std::vector<std::string>{"octree", "hybrid"})
        .axis("mode", std::vector<std::string>{"off", "on", "journal"})
        .default_repeats(1)
        .default_warmup(0);

}  // namespace
