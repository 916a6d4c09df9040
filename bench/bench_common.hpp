// Shared plumbing for the registered bench families.
//
// The model-driven families (paper tables/figures, ablations) all consume
// ExperimentRunner results. Each case *times* its own run — that is the
// host-side perf signal the baseline tracks — but cross-case shape checks
// (e.g. "8 banks beat 1 bank by >1.8x") need *other* configurations'
// results without re-simulating them inside the timed region; the memo
// caches below serve those lookups, always under paused timing.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "benchkit/benchmark.hpp"
#include "data/datasets.hpp"
#include "harness/experiment.hpp"

namespace omu::bench {

/// Axis values for the dataset parameter, in kAllDatasets order.
inline const std::vector<std::string>& dataset_axis() {
  static const std::vector<std::string> names{"fr079", "campus", "college"};
  return names;
}

inline data::DatasetId dataset_from_param(const std::string& value) {
  if (value == "fr079") return data::DatasetId::kFr079Corridor;
  if (value == "campus") return data::DatasetId::kFreiburgCampus;
  if (value == "college") return data::DatasetId::kNewCollege;
  throw std::out_of_range("unknown dataset parameter: " + value);
}

/// Dataset of the case's `dataset` parameter.
inline data::DatasetId dataset_param(const benchkit::State& state) {
  return dataset_from_param(state.param("dataset"));
}

/// Process-wide experiment options (OMU_DATASET_SCALE / OMU_SEED aware).
const harness::ExperimentOptions& bench_options();

/// Full three-platform run (the timed workload of table/figure cases).
harness::ExperimentResult full_run_timed(data::DatasetId id);

/// Memoized accelerator-only run, keyed by dataset + a caller-chosen
/// config tag (the tag must uniquely describe `config` within a family).
const harness::ExperimentResult& accel_run_memo(data::DatasetId id,
                                                const std::string& config_tag,
                                                const accel::OmuConfig& config);

/// Uncached accelerator-only run; primes the same memo.
harness::ExperimentResult accel_run_timed(data::DatasetId id, const std::string& config_tag,
                                          const accel::OmuConfig& config);

/// Memoized materialized scan stream of a dataset at bench options.
const std::vector<data::DatasetScan>& scans_memo(data::DatasetId id);

}  // namespace omu::bench
