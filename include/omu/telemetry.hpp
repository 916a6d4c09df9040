// omu::TelemetrySnapshot — the machine-readable telemetry export of a
// Mapper session.
//
// Mapper::telemetry() returns one of these: every named counter, gauge
// and latency histogram the session's subsystems recorded (hierarchical
// dotted names — "ingest.insert_ns", "publish.splice_ns",
// "paging.evict_ns"), plus the bounded trace journal when
// TelemetryOptions::journal is on. The snapshot is a plain value:
// exporting costs the session nothing beyond relaxed loads, and the
// result can cross threads/processes freely.
//
// Two serializations ship with it:
//   - to_json(): one JSON document (the omu_top CLI renders it; the
//     benchkit JSON parser round-trips it — CI proves both);
//   - to_prometheus(): Prometheus text exposition (counters, gauges and
//     cumulative-bucket histograms under an `omu_` prefix) for scraping.
//
// Histogram buckets are powers of two: bucket 0 counts the value 0 and
// bucket i >= 1 counts values in [2^(i-1), 2^i - 1]. p50/p90/p99 are
// precomputed from the buckets (worst-case factor-2 value error; linear
// in-bucket interpolation does much better in practice) and any stored
// snapshot can re-derive them from the bucket array.
//
// When the library is built with -DOMU_TELEMETRY=OFF, timing
// instrumentation is compiled out: metrics_enabled is false, histograms
// export zero counts, and the journal is always empty — but the plain
// counters that back MapperStats keep counting, so the structural export
// (names, JSON shape) stays stable across both builds.
//
// This header is part of the installed public API and must stay
// self-contained: it may include only the C++ standard library and other
// include/omu/ headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace omu {

/// Telemetry configuration of a session (MapperConfig::telemetry()).
struct TelemetryOptions {
  /// Timing instrumentation: latency histograms + gauges + the trace
  /// spans feeding them. Off = instrumentation sites skip their clock
  /// reads entirely (the in-bench overhead baseline); counters backing
  /// MapperStats always stay on.
  bool metrics = true;
  /// Structured begin/end trace events into a bounded ring journal, so a
  /// flush timeline can be reconstructed (insert -> flush -> splice ->
  /// publish). Off by default: the journal is a debugging surface, not
  /// part of the steady-state overhead contract.
  bool journal = false;
  /// Journal ring capacity in events (newest win; the export reports how
  /// many were overwritten).
  std::size_t journal_capacity = 8192;
};

/// Point-in-time telemetry export of one Mapper session.
struct TelemetrySnapshot {
  /// Exported histogram state (log-bucketed, power-of-two buckets).
  struct Histogram {
    uint64_t count = 0;  ///< values recorded
    uint64_t sum = 0;    ///< sum of recorded values (ns for *_ns metrics)
    uint64_t max = 0;    ///< largest recorded value
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    /// buckets[0] counts value 0; buckets[i] counts [2^(i-1), 2^i - 1].
    std::vector<uint64_t> buckets;
  };

  struct Metric {
    enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

    std::string name;  ///< hierarchical dotted name
    Kind kind = Kind::kCounter;
    uint64_t counter = 0;   ///< kCounter value
    int64_t gauge = 0;      ///< kGauge value
    Histogram histogram;    ///< kHistogram state
  };

  /// One begin/end event of a traced span (journal on only).
  struct TraceEvent {
    std::string stage;    ///< e.g. "ingest.insert", "publish.splice"
    uint64_t span_id = 0; ///< pairs a begin with its end
    bool begin = false;
    uint64_t t_ns = 0;    ///< ns since the session's journal epoch
  };

  bool metrics_enabled = false;   ///< timing instrumentation was active
  bool journal_enabled = false;
  uint64_t journal_dropped = 0;   ///< events lost to the ring bound
  std::vector<Metric> metrics;    ///< name-sorted
  std::vector<TraceEvent> trace;  ///< retained journal, oldest first

  /// The metric named `name`, or nullptr.
  const Metric* find(const std::string& name) const;

  /// One JSON document (pretty-printed), stable key order.
  std::string to_json() const;

  /// Prometheus text exposition: `omu_`-prefixed metric families, dots
  /// mapped to underscores, histograms as cumulative `_bucket{le=...}`
  /// series plus `_sum`/`_count`.
  std::string to_prometheus() const;
};

/// Short name of a metric kind ("counter"/"gauge"/"histogram").
const char* to_string(TelemetrySnapshot::Metric::Kind kind);

}  // namespace omu
