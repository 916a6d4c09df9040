// Scoped trace spans and the bounded trace journal.
//
// A TraceSpan is an RAII timer: construction reads the steady clock,
// destruction records the elapsed nanoseconds into a Histogram and — when
// a TraceJournal is attached — appends structured begin/end events so a
// full pipeline timeline (insert -> flush -> splice -> publish)
// can be reconstructed from one flush. A span built with null handles
// never reads the clock, so disabled instrumentation costs two pointer
// compares per site.
//
// The journal is a bounded ring: the newest `capacity` events win, and the
// overwrite count is reported so a truncated timeline is visible as such.
// Appends take a mutex — the journal is an opt-in debugging surface
// (default off), not a hot-path structure; the overhead contract
// (bench family `telemetry`) is measured with the journal disabled.
//
// Stage names must be string literals (or otherwise outlive the journal):
// events store the pointer, not a copy.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

// Defined PUBLIC by CMake (option OMU_TELEMETRY); default on for
// standalone parses.
#ifndef OMU_TELEMETRY_ENABLED
#define OMU_TELEMETRY_ENABLED 1
#endif

namespace omu::obs {

/// Nanoseconds on the process-wide steady clock.
inline uint64_t steady_now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// One begin/end event of a span. `t_ns` is relative to the journal's
/// construction, so timelines start near zero and diff cleanly.
struct TraceEvent {
  uint64_t t_ns = 0;
  uint64_t span_id = 0;
  const char* stage = "";
  bool begin = false;
};

#if OMU_TELEMETRY_ENABLED

/// Bounded ring of trace events (newest-wins).
class TraceJournal {
 public:
  explicit TraceJournal(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity), epoch_ns_(steady_now_ns()) {
    ring_.resize(capacity_);
  }

  uint64_t epoch_ns() const { return epoch_ns_; }

  uint64_t begin_span_id() { return next_span_id_.fetch_add(1, std::memory_order_relaxed); }

  void append(const char* stage, uint64_t span_id, bool begin, uint64_t t_ns) {
    std::lock_guard lock(mutex_);
    ring_[next_ % capacity_] = TraceEvent{t_ns, span_id, stage, begin};
    ++next_;
  }

  /// The retained events, oldest first.
  std::vector<TraceEvent> events() const {
    std::lock_guard lock(mutex_);
    std::vector<TraceEvent> out;
    const uint64_t n = next_ < capacity_ ? next_ : capacity_;
    out.reserve(n);
    for (uint64_t i = next_ - n; i < next_; ++i) out.push_back(ring_[i % capacity_]);
    return out;
  }

  /// Events overwritten by the ring bound (timeline truncation indicator).
  uint64_t dropped() const {
    std::lock_guard lock(mutex_);
    return next_ > capacity_ ? next_ - capacity_ : 0;
  }

 private:
  const std::size_t capacity_;
  const uint64_t epoch_ns_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  ///< guarded by mutex_
  uint64_t next_ = 0;             ///< guarded by mutex_
  std::atomic<uint64_t> next_span_id_{1};
};

/// RAII scoped timer recording into a histogram and/or journal.
class TraceSpan {
 public:
  TraceSpan(Histogram* histogram, TraceJournal* journal, const char* stage)
      : histogram_(histogram), journal_(journal), stage_(stage) {
    if (histogram_ == nullptr && journal_ == nullptr) return;
    start_ns_ = steady_now_ns();
    if (journal_ != nullptr) {
      span_id_ = journal_->begin_span_id();
      journal_->append(stage_, span_id_, /*begin=*/true, start_ns_ - journal_->epoch_ns());
    }
  }

  /// Histogram-only convenience (most instrumentation sites).
  explicit TraceSpan(Histogram* histogram, const char* stage = "")
      : TraceSpan(histogram, nullptr, stage) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { finish(); }

  /// Ends the span early (idempotent; the destructor is then a no-op).
  void finish() {
    if (histogram_ == nullptr && journal_ == nullptr) return;
    const uint64_t end_ns = steady_now_ns();
    if (histogram_ != nullptr) histogram_->record(end_ns - start_ns_);
    if (journal_ != nullptr) {
      journal_->append(stage_, span_id_, /*begin=*/false, end_ns - journal_->epoch_ns());
    }
    histogram_ = nullptr;
    journal_ = nullptr;
  }

 private:
  Histogram* histogram_;
  TraceJournal* journal_;
  const char* stage_;
  uint64_t start_ns_ = 0;
  uint64_t span_id_ = 0;
};

#else  // OMU_TELEMETRY_ENABLED == 0: compiled-out stubs (no clock reads)

class TraceJournal {
 public:
  explicit TraceJournal(std::size_t) {}
  uint64_t epoch_ns() const { return 0; }
  uint64_t begin_span_id() { return 0; }
  void append(const char*, uint64_t, bool, uint64_t) {}
  std::vector<TraceEvent> events() const { return {}; }
  uint64_t dropped() const { return 0; }
};

class TraceSpan {
 public:
  TraceSpan(Histogram*, TraceJournal*, const char*) {}
  explicit TraceSpan(Histogram*, const char* = "") {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  void finish() {}
};

#endif  // OMU_TELEMETRY_ENABLED

}  // namespace omu::obs
