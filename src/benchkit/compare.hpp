// Baseline comparison: the perf gate. Matches current cases against a
// baseline BENCH.json by full case name and classifies the min-wall-ns
// delta per case (the fastest repeat is the one host noise disturbs least):
//   improved  delta < -warn threshold
//   ok        |delta| <= warn threshold
//   warn      warn threshold < delta <= regress threshold
//   regress   delta > regress threshold = max(max_regress, the baseline's
//             own spread stddev / min), so a noisy case needs a larger
//             slowdown to count
//   new/gone  present on only one side (never a failure)
// Checks that regressed from pass to fail are always reported as regress.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "benchkit/runner.hpp"

namespace omu::benchkit {

struct CompareOptions {
  /// Relative slowdown that counts as a regression (0.10 = +10%).
  double max_regress = 0.10;
  /// Relative slowdown that earns a warning; defaults to max_regress / 2.
  double warn_threshold = -1.0;

  double effective_warn() const {
    return warn_threshold >= 0.0 ? warn_threshold : max_regress / 2.0;
  }
};

enum class DeltaStatus { kImproved, kOk, kWarn, kRegress, kNew, kGone };

const char* to_string(DeltaStatus status);

struct CaseDelta {
  std::string name;
  DeltaStatus status = DeltaStatus::kOk;
  double baseline_min_ns = 0.0;
  double current_min_ns = 0.0;
  double delta_frac = 0.0;  ///< (current - baseline) / baseline
  std::string detail;       ///< e.g. newly failing check names
};

struct CompareReport {
  std::vector<CaseDelta> deltas;
  std::size_t improved = 0;
  std::size_t ok = 0;
  std::size_t warned = 0;
  std::size_t regressed = 0;
  std::size_t added = 0;
  std::size_t removed = 0;

  bool has_regressions() const { return regressed > 0; }
};

/// Parses "10%" or "0.1" into a fraction; throws std::runtime_error on
/// garbage or negative values.
double parse_regress_threshold(const std::string& text);

CompareReport compare_runs(const RunResult& baseline, const RunResult& current,
                           const CompareOptions& options);

/// Fixed-width console table of all deltas plus a summary line.
void print_compare_report(const CompareReport& report, const CompareOptions& options,
                          std::ostream& os);

/// GitHub-flavored markdown table (for $GITHUB_STEP_SUMMARY).
void print_compare_markdown(const CompareReport& report, const CompareOptions& options,
                            std::ostream& os);

}  // namespace omu::benchkit
