#include "benchkit/compare.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <ostream>

#include "harness/table_printer.hpp"

namespace omu::benchkit {

namespace {

std::string signed_percent(double frac) {
  const std::string pct = harness::TablePrinter::fixed(frac * 100.0, 1) + "%";
  return frac > 0.0 ? "+" + pct : pct;
}

std::string format_ms(double ns) { return harness::TablePrinter::fixed(ns / 1e6, 3); }

/// Check names failing now that passed in the baseline.
std::string newly_failing_checks(const CaseResult& baseline, const CaseResult& current) {
  std::string out;
  for (const auto& [name, ok] : current.checks) {
    if (ok) continue;
    const auto it = baseline.checks.find(name);
    if (it == baseline.checks.end() || it->second) {
      if (!out.empty()) out += ", ";
      out += name;
    }
  }
  return out;
}

}  // namespace

const char* to_string(DeltaStatus status) {
  switch (status) {
    case DeltaStatus::kImproved: return "improved";
    case DeltaStatus::kOk: return "ok";
    case DeltaStatus::kWarn: return "warn";
    case DeltaStatus::kRegress: return "REGRESS";
    case DeltaStatus::kNew: return "new";
    case DeltaStatus::kGone: return "gone";
  }
  return "?";
}

double parse_regress_threshold(const std::string& text) {
  if (text.empty()) throw std::runtime_error("empty regression threshold");
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) throw std::runtime_error("bad regression threshold: " + text);
  std::string rest(end);
  if (rest == "%") {
    value /= 100.0;
  } else if (!rest.empty()) {
    throw std::runtime_error("bad regression threshold: " + text);
  }
  if (value < 0.0) throw std::runtime_error("negative regression threshold: " + text);
  return value;
}

CompareReport compare_runs(const RunResult& baseline, const RunResult& current,
                           const CompareOptions& options) {
  CompareReport report;
  const double warn = options.effective_warn();

  std::map<std::string, const CaseResult*> base_by_name;
  for (const CaseResult& c : baseline.cases) base_by_name[c.name] = &c;

  for (const CaseResult& cur : current.cases) {
    CaseDelta d;
    d.name = cur.name;
    d.current_min_ns = cur.wall_ns.min;
    const auto it = base_by_name.find(cur.name);
    if (it == base_by_name.end()) {
      d.status = DeltaStatus::kNew;
      ++report.added;
      report.deltas.push_back(std::move(d));
      continue;
    }
    const CaseResult& base = *it->second;
    base_by_name.erase(it);
    d.baseline_min_ns = base.wall_ns.min;

    // Errors and newly failing checks are regressions even when the
    // timings are not comparable (skipped baseline, zero min).
    const bool comparable = !cur.skipped && !base.skipped && d.baseline_min_ns > 0.0;
    if (comparable) d.delta_frac = (d.current_min_ns - d.baseline_min_ns) / d.baseline_min_ns;
    d.detail = newly_failing_checks(base, cur);
    if (!cur.error.empty()) {
      d.status = DeltaStatus::kRegress;
      d.detail = "error: " + cur.error;
    } else if (!d.detail.empty()) {
      d.status = DeltaStatus::kRegress;
      d.detail = "newly failing checks: " + d.detail;
    } else if (!comparable) {
      d.status = DeltaStatus::kOk;  // nothing to gate on
    } else if (d.delta_frac >
               std::max(options.max_regress, base.wall_ns.stddev / d.baseline_min_ns)) {
      d.status = DeltaStatus::kRegress;
    } else if (d.delta_frac > warn) {
      d.status = DeltaStatus::kWarn;
    } else if (d.delta_frac < -warn) {
      d.status = DeltaStatus::kImproved;
    } else {
      d.status = DeltaStatus::kOk;
    }
    switch (d.status) {
      case DeltaStatus::kImproved: ++report.improved; break;
      case DeltaStatus::kOk: ++report.ok; break;
      case DeltaStatus::kWarn: ++report.warned; break;
      case DeltaStatus::kRegress: ++report.regressed; break;
      default: break;
    }
    report.deltas.push_back(std::move(d));
  }

  // Baseline cases that vanished from the current run.
  for (const auto& [name, base] : base_by_name) {
    CaseDelta d;
    d.name = name;
    d.status = DeltaStatus::kGone;
    d.baseline_min_ns = base->wall_ns.min;
    ++report.removed;
    report.deltas.push_back(std::move(d));
  }
  std::sort(report.deltas.begin(), report.deltas.end(),
            [](const CaseDelta& a, const CaseDelta& b) { return a.name < b.name; });
  return report;
}

void print_compare_report(const CompareReport& report, const CompareOptions& options,
                          std::ostream& os) {
  harness::TablePrinter table(
      {"benchmark", "baseline min (ms)", "current min (ms)", "delta", "status"});
  for (const CaseDelta& d : report.deltas) {
    const bool both = d.status != DeltaStatus::kNew && d.status != DeltaStatus::kGone;
    std::string status = to_string(d.status);
    if (!d.detail.empty()) status += " (" + d.detail + ")";
    table.add_row({d.name,
                   d.status != DeltaStatus::kNew ? format_ms(d.baseline_min_ns) : "-",
                   d.status != DeltaStatus::kGone ? format_ms(d.current_min_ns) : "-",
                   both ? signed_percent(d.delta_frac) : "-", status});
  }
  table.print(os);
  os << report.deltas.size() << " compared vs baseline (max regress "
     << signed_percent(options.max_regress) << "): " << report.regressed << " regressed, "
     << report.warned << " warned, " << report.improved << " improved, " << report.ok
     << " unchanged, " << report.added << " new, " << report.removed << " gone\n";
}

void print_compare_markdown(const CompareReport& report, const CompareOptions& options,
                            std::ostream& os) {
  os << "### Benchmark comparison\n\n";
  os << "| benchmark | baseline min (ms) | current min (ms) | delta | status |\n";
  os << "|---|---:|---:|---:|---|\n";
  for (const CaseDelta& d : report.deltas) {
    const bool both = d.status != DeltaStatus::kNew && d.status != DeltaStatus::kGone;
    const char* icon = "";
    if (d.status == DeltaStatus::kRegress) icon = " :red_circle:";
    if (d.status == DeltaStatus::kWarn) icon = " :warning:";
    if (d.status == DeltaStatus::kImproved) icon = " :green_circle:";
    std::string status = std::string(to_string(d.status)) + icon;
    if (!d.detail.empty()) status += " (" + d.detail + ")";
    os << "| `" << d.name << "` | "
       << (d.status != DeltaStatus::kNew ? format_ms(d.baseline_min_ns) : "-") << " | "
       << (d.status != DeltaStatus::kGone ? format_ms(d.current_min_ns) : "-") << " | "
       << (both ? signed_percent(d.delta_frac) : "-") << " | " << status << " |\n";
  }
  os << "\n**" << report.regressed << " regressed** (threshold "
     << signed_percent(options.max_regress) << "), " << report.warned << " warned, "
     << report.improved << " improved, " << report.ok << " unchanged, " << report.added
     << " new, " << report.removed << " gone.\n";
}

}  // namespace omu::benchkit
