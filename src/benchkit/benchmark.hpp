// Benchmark registration and the per-run State handle.
//
// A *family* is a named benchmark function plus zero or more parameter
// axes; the runner expands the cartesian product of the axes into *cases*
// named `family/key:value/key2:value2` (e.g. `query_service/readers:4`).
// Registration happens at static-init time via OMU_BENCHMARK, so linking a
// bench translation unit into the runner is all it takes to enroll it.
//
// The benchmark body receives a State&:
//   - the runner times each invocation (wall + process-CPU clocks); setup
//     that must not count is wrapped in pause_timing()/resume_timing()
//   - set_items_processed()/set_bytes_processed() turn the timing into
//     throughput; set_counter() records domain metrics (fps, cycles/update)
//   - check() records named pass/fail invariants; a failed check fails the
//     whole run (the ported benches keep their old "shape check" teeth)
//   - skip() marks the case not-applicable (e.g. needs a multi-core host)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace omu::benchkit {

/// One expanded parameter assignment, e.g. {"threads", "4"}.
struct Param {
  std::string key;
  std::string value;
};

class State {
 public:
  explicit State(std::vector<Param> params) : params_(std::move(params)) {}

  // -- parameters ----------------------------------------------------------
  const std::vector<Param>& params() const { return params_; }
  /// Value of a parameter; throws std::out_of_range for unknown keys so a
  /// typo in a bench body fails loudly instead of benchmarking nonsense.
  const std::string& param(const std::string& key) const;
  int64_t param_int(const std::string& key) const;
  double param_double(const std::string& key) const;
  /// True for "on"/"true"/"1".
  bool param_flag(const std::string& key) const;

  // -- timing control (runner-managed; see runner.cpp) ---------------------
  void pause_timing();
  void resume_timing();

  // -- outputs -------------------------------------------------------------
  void set_items_processed(uint64_t n) { items_ = n; }
  void set_bytes_processed(uint64_t n) { bytes_ = n; }
  /// Records (or overwrites) a named scalar metric for this case.
  void set_counter(const std::string& name, double value) { counters_[name] = value; }
  /// Records a named invariant; `ok == false` fails the run. Re-checking
  /// the same name ANDs the results (a check can be asserted per repeat).
  void check(const std::string& name, bool ok) {
    const auto [it, inserted] = checks_.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
  /// Marks the case skipped (reported, not timed, never a failure).
  void skip(std::string reason);
  bool skipped() const { return skipped_; }

  // -- runner-side accessors ----------------------------------------------
  uint64_t items() const { return items_; }
  uint64_t bytes() const { return bytes_; }
  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, bool>& checks() const { return checks_; }
  const std::string& skip_reason() const { return skip_reason_; }
  double paused_wall_ns() const { return paused_wall_ns_; }
  double paused_cpu_ns() const { return paused_cpu_ns_; }
  /// Clears pause accounting between repeats (outputs persist: the last
  /// repeat's counters/checks are the reported ones).
  void reset_for_repeat();

 private:
  std::vector<Param> params_;
  uint64_t items_ = 0;
  uint64_t bytes_ = 0;
  std::map<std::string, double> counters_;
  std::map<std::string, bool> checks_;
  bool skipped_ = false;
  std::string skip_reason_;
  bool paused_ = false;
  double pause_started_wall_ns_ = 0.0;
  double pause_started_cpu_ns_ = 0.0;
  double paused_wall_ns_ = 0.0;
  double paused_cpu_ns_ = 0.0;
};

using BenchFn = std::function<void(State&)>;

/// A registered benchmark function with its parameter axes.
class Family {
 public:
  Family(std::string name, BenchFn fn) : name_(std::move(name)), fn_(std::move(fn)) {}

  /// Adds a parameter axis; multiple axes expand as a cartesian product in
  /// registration order.
  Family& axis(std::string key, std::vector<int64_t> values);
  Family& axis(std::string key, std::vector<std::string> values);
  /// Default repeat count for this family (overridden by an explicit
  /// --repeats on the command line). Deterministic model benches set 1.
  Family& default_repeats(int n) {
    default_repeats_ = n;
    return *this;
  }
  /// Default warmup count (-1 = adaptive steady-state detection).
  Family& default_warmup(int n) {
    default_warmup_ = n;
    return *this;
  }

  const std::string& name() const { return name_; }
  const BenchFn& fn() const { return fn_; }
  int repeats_default() const { return default_repeats_; }
  int warmup_default() const { return default_warmup_; }

  /// All expanded parameter assignments (one empty vector when no axes).
  std::vector<std::vector<Param>> expand_cases() const;

 private:
  struct Axis {
    std::string key;
    std::vector<std::string> values;
  };
  std::string name_;
  BenchFn fn_;
  std::vector<Axis> axes_;
  int default_repeats_ = -1;  // -1 = use the global default
  int default_warmup_ = -1;
};

/// Formats `family/key:value/...` for a parameter assignment.
std::string case_name(const std::string& family, const std::vector<Param>& params);

/// Global registry (static-init populated; returns registration order).
std::deque<Family>& registry();

/// Registers a family and returns it for axis chaining.
Family& register_family(std::string name, BenchFn fn);

}  // namespace omu::benchkit

#define OMU_BENCHKIT_CONCAT2(a, b) a##b
#define OMU_BENCHKIT_CONCAT(a, b) OMU_BENCHKIT_CONCAT2(a, b)

/// Registers `fn` under its own name; chain .axis()/.default_repeats().
#define OMU_BENCHMARK(fn)                                    \
  static ::omu::benchkit::Family& OMU_BENCHKIT_CONCAT(       \
      omu_benchkit_registration_, __COUNTER__) =             \
      ::omu::benchkit::register_family(#fn, fn)
