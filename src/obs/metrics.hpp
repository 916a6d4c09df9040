// Low-overhead telemetry metrics: counters, gauges and log-bucketed
// latency histograms behind one hierarchically named registry.
//
// Design constraints (this sits on the insert hot path):
//   - recording is lock-free and allocation-free: one relaxed atomic add
//     for a counter, a relaxed store for a gauge, and for a histogram a
//     bit_width bucket index plus three relaxed RMWs on fixed-size arrays;
//   - names are resolved ONCE (registration walks a mutex-guarded map);
//     instrumentation sites hold the returned stable pointer and pay only
//     a null check when telemetry is disabled;
//   - snapshots are wait-free for recorders: a reader takes relaxed loads
//     of every cell, so a snapshot racing live recorders is a coherent
//     "some recent state" view (counts are monotone; count/sum may differ
//     by in-flight records) — never a lock, never a torn bucket.
//
// Histogram buckets are powers of two: bucket 0 counts the value 0 and
// bucket i >= 1 counts values in [2^(i-1), 2^i - 1]. With 64 buckets any
// uint64 nanosecond latency fits, quantiles are derivable from any
// snapshot with a worst-case factor-2 value error (linear interpolation
// inside the bucket does much better in practice), and merging two
// histograms is elementwise addition.
//
// The OMU_TELEMETRY=OFF build keeps these types compiling (telemetry.hpp
// stubs the *wiring* so no instrumentation site ever holds a non-null
// histogram/gauge/journal pointer); counters stay live in both builds —
// they back MapperStats, which predates telemetry and must keep counting.
#pragma once

#include <atomic>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace omu::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotone event counter.
class Counter {
 public:
  void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written level (queue depths, resident bytes).
class Gauge {
 public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time copy of a histogram's cells; quantiles are computed here
/// so any stored/merged snapshot can answer p50/p90/p99/max.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  /// Lower/upper value bound of bucket i (inclusive).
  static constexpr uint64_t bucket_lower(std::size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }
  static constexpr uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    if (i >= kBuckets - 1) return ~uint64_t{0};
    return (uint64_t{1} << i) - 1;
  }

  /// Elementwise merge (the aggregation primitive across sources).
  void merge(const HistogramSnapshot& other);

  /// Quantile estimate for q in [0, 1]: finds the bucket holding the
  /// rank-ceil(q*count) sample (exactly the bucket a sorted reference's
  /// sample at that rank falls in) and interpolates linearly inside it —
  /// so the estimate is always within that bucket's [lower, upper], a
  /// worst-case factor-2 value error. Returns 0 for an empty histogram.
  double quantile(double q) const;
};

/// Log-bucketed latency histogram (fixed-size, lock-free recording).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  static constexpr std::size_t bucket_index(uint64_t v) {
    // 0 -> 0; otherwise bit_width(v) in [1, 64] clamped to the last bucket.
    const int w = std::bit_width(v);
    return static_cast<std::size_t>(w) < kBuckets ? static_cast<std::size_t>(w) : kBuckets - 1;
  }

  void record(uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Wait-free for concurrent recorders (relaxed cell loads; see header
  /// comment for the consistency model).
  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> max_{0};
};

/// One exported metric (registry snapshot row).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSnapshot histogram;
};

/// Named metric registry. Registration (the only locked path) is
/// get-or-create and returns a pointer stable for the registry's lifetime;
/// hierarchical dotted names ("ingest.insert_ns", "paging.evict_ns")
/// are the export taxonomy. Registering one name as two different kinds is
/// a programmer error and throws std::logic_error.
class MetricRegistry {
 public:
  Counter* counter(const std::string& name) { return get<Counter>(name, MetricKind::kCounter); }
  Gauge* gauge(const std::string& name) { return get<Gauge>(name, MetricKind::kGauge); }
  Histogram* histogram(const std::string& name) {
    return get<Histogram>(name, MetricKind::kHistogram);
  }

  /// All metrics, name-sorted (std::map order), values sampled relaxed.
  std::vector<MetricSample> samples() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  template <typename T>
  T* get(const std::string& name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace omu::obs
