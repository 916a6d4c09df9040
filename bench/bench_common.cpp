#include "bench_common.hpp"

#include <map>
#include <utility>

namespace omu::bench {

const harness::ExperimentOptions& bench_options() {
  static const harness::ExperimentOptions options = harness::ExperimentOptions::from_env();
  return options;
}

namespace {

const harness::ExperimentRunner& experiment_runner() {
  static const harness::ExperimentRunner runner(bench_options());
  return runner;
}

std::map<std::pair<data::DatasetId, std::string>, harness::ExperimentResult>&
accel_run_cache() {
  static std::map<std::pair<data::DatasetId, std::string>, harness::ExperimentResult> cache;
  return cache;
}

}  // namespace

harness::ExperimentResult full_run_timed(data::DatasetId id) {
  return experiment_runner().run(id);
}

const harness::ExperimentResult& accel_run_memo(data::DatasetId id,
                                                const std::string& config_tag,
                                                const accel::OmuConfig& config) {
  auto& cache = accel_run_cache();
  const auto key = std::make_pair(id, config_tag);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  return cache.emplace(key, experiment_runner().run_accelerator_only(id, config))
      .first->second;
}

harness::ExperimentResult accel_run_timed(data::DatasetId id, const std::string& config_tag,
                                          const accel::OmuConfig& config) {
  harness::ExperimentResult result = experiment_runner().run_accelerator_only(id, config);
  accel_run_cache()[std::make_pair(id, config_tag)] = result;
  return result;
}

const std::vector<data::DatasetScan>& scans_memo(data::DatasetId id) {
  static std::map<data::DatasetId, std::vector<data::DatasetScan>> cache;
  const auto it = cache.find(id);
  if (it != cache.end()) return it->second;
  const data::SyntheticDataset dataset(id, bench_options().scale, bench_options().seed);
  std::vector<data::DatasetScan> scans;
  scans.reserve(dataset.scan_count());
  for (std::size_t i = 0; i < dataset.scan_count(); ++i) scans.push_back(dataset.scan(i));
  return cache.emplace(id, std::move(scans)).first->second;
}

}  // namespace omu::bench
