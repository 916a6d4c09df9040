// omu_bench: the single benchmark runner. Every bench/*.cpp translation
// unit registers its families via OMU_BENCHMARK at static init; this main
// expands, filters, runs, reports, and optionally emits BENCH.json and
// compares against a baseline.
//
//   ./omu_bench                                 run everything, table report
//   ./omu_bench --list                          show expanded case names
//   ./omu_bench --filter '^world/' --repeats 5
//   ./omu_bench --repeats 1 --json bench.json   machine-readable output
//   ./omu_bench --json new.json --baseline old.json --max-regress 10%
//   ./omu_bench --compare new.json --baseline old.json --markdown
//
// Exit status: 0 ok; 1 failed checks / bench errors, or regressions when
// --fail-on-regress is set; 2 usage or I/O errors. Baseline comparison is
// warn-only by default (the CI perf gate stays soft until numbers on the
// shared runners prove stable).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "benchkit/compare.hpp"
#include "benchkit/runner.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: omu_bench [options]\n"
        "  --list                 print expanded benchmark case names and exit\n"
        "  --filter REGEX         run only cases whose name matches REGEX\n"
        "  --repeats N            measured repeats per case (default 3, model benches 1)\n"
        "  --warmup N             warmup runs per case (default: adaptive steady-state)\n"
        "  --scale X              dataset scale (overrides OMU_DATASET_SCALE)\n"
        "  --seed N               dataset seed (overrides OMU_SEED)\n"
        "  --json FILE            write results as BENCH.json\n"
        "  --baseline FILE        compare this run (or --compare FILE) against FILE\n"
        "  --compare FILE         compare FILE against --baseline without running\n"
        "  --max-regress P        regression threshold, e.g. 10% or 0.1 (default 10%)\n"
        "  --warn-threshold P     warning threshold (default max-regress/2)\n"
        "  --fail-on-regress      exit 1 when the comparison finds regressions\n"
        "  --markdown             render the comparison as GitHub markdown\n"
        "  --quiet                suppress per-case progress on stderr\n"
        "  -h, --help             this text\n";
}

omu::benchkit::RunResult load_results(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return omu::benchkit::from_json(omu::benchkit::Json::parse(buffer.str()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omu::benchkit;

  RunOptions run_options;
  CompareOptions compare_options;
  bool list_only = false;
  bool fail_on_regress = false;
  bool markdown = false;
  std::string json_path;
  std::string baseline_path;
  std::string compare_path;

  const auto next_arg = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "omu_bench: " << argv[i] << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--list") {
        list_only = true;
      } else if (arg == "--filter") {
        run_options.filter = next_arg(i);
      } else if (arg == "--repeats") {
        run_options.repeats = std::stoi(next_arg(i));
      } else if (arg == "--warmup") {
        run_options.warmup = std::stoi(next_arg(i));
      } else if (arg == "--scale") {
        ::setenv("OMU_DATASET_SCALE", next_arg(i).c_str(), 1);
      } else if (arg == "--seed") {
        ::setenv("OMU_SEED", next_arg(i).c_str(), 1);
      } else if (arg == "--json") {
        json_path = next_arg(i);
      } else if (arg == "--baseline") {
        baseline_path = next_arg(i);
      } else if (arg == "--compare") {
        compare_path = next_arg(i);
      } else if (arg == "--max-regress") {
        compare_options.max_regress = parse_regress_threshold(next_arg(i));
      } else if (arg == "--warn-threshold") {
        compare_options.warn_threshold = parse_regress_threshold(next_arg(i));
      } else if (arg == "--fail-on-regress") {
        fail_on_regress = true;
      } else if (arg == "--markdown") {
        markdown = true;
      } else if (arg == "--quiet") {
        run_options.verbose = false;
      } else if (arg == "-h" || arg == "--help") {
        print_usage(std::cout);
        return 0;
      } else {
        std::cerr << "omu_bench: unknown option " << arg << "\n\n";
        print_usage(std::cerr);
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "omu_bench: bad value for " << arg << ": " << e.what() << '\n';
      return 2;
    }
  }

  try {
    if (list_only) {
      for (const std::string& name : list_cases(run_options.filter)) {
        std::cout << name << '\n';
      }
      return 0;
    }

    RunResult current;
    bool run_failed = false;

    if (!compare_path.empty()) {
      // Pure file-vs-file comparison; no benchmarks execute.
      if (baseline_path.empty()) {
        std::cerr << "omu_bench: --compare needs --baseline\n";
        return 2;
      }
      current = load_results(compare_path);
    } else {
      current = run_benchmarks(run_options, std::cerr);
      print_report(current, std::cout);
      run_failed = !current.all_passed();
      if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
          std::cerr << "omu_bench: cannot write " << json_path << '\n';
          return 2;
        }
        out << to_json(current).dump(2) << '\n';
        std::cerr << "[benchkit] wrote " << json_path << '\n';
      }
    }

    bool regressed = false;
    if (!baseline_path.empty()) {
      const RunResult baseline = load_results(baseline_path);
      const CompareReport report = compare_runs(baseline, current, compare_options);
      if (markdown) {
        print_compare_markdown(report, compare_options, std::cout);
      } else {
        print_compare_report(report, compare_options, std::cout);
      }
      regressed = report.has_regressions();
    }

    if (run_failed) return 1;
    if (regressed && fail_on_regress) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "omu_bench: " << e.what() << '\n';
    return 2;
  }
}
