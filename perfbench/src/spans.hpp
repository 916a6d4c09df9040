// In-memory span log of the traced run. Spans are recorded by the
// benchmark's own code around calls into each layer's public functions
// (nothing inside the library is instrumented) and written out only when
// the run ends. One log per thread; no locking.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span in the same log
  uint64_t id = 0;      ///< scan index or request id
};

class SpanLog {
 public:
  explicit SpanLog(std::string thread_name) : thread_(std::move(thread_name)) {
    spans_.reserve(1 << 16);
  }

  int32_t begin(const char* name, uint64_t id) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, id});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void end() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }
  /// Appends a span timed by the caller, under the innermost open span.
  void record(const char* name, uint64_t id, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns, open_.empty() ? -1 : open_.back(), id});
  }

  const std::string& thread_name() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for the enclosing scope; a null log records nothing, so
/// the untraced passes run the same code with tracing off.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id) : log_(log) {
    if (log_ != nullptr) log_->begin(name, id);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Per-name totals over one or more logs.
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< total minus the time covered by child spans
};

std::map<std::string, SpanTotals> summarize(const std::vector<const SpanLog*>& logs);

/// Writes every span as one tab-separated line (thread, index, parent,
/// name, id, start_ns, end_ns). Returns false when the file cannot be
/// written.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
