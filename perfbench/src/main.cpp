// scan_to_map_bench — the repository's end-to-end benchmark.
//
//   scan_to_map_bench --spec perfbench/workloads.json --workload campus_paged
//                     --seed 1 --seconds 20 --trace 0
//
// Untraced (--trace 0): repeats the workload's closed-loop stream against
// a fresh session until --seconds are used and reports the end-to-end
// metrics. Traced (--trace 1): cycles of an untraced repetition, a
// span-traced repetition and a pass that replays the same inputs layer by
// layer right after it; reports the per-layer ledger, its stage coverage
// and the tracing overhead.
// Every run checks its maps against a serial-octree reference; a failed
// check prints correct=false and no metrics. The last stdout line is the
// JSON result; the lines before it are a human-readable table.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "benchkit/env_capture.hpp"
#include "common.hpp"
#include "geom/kernels/simd.hpp"
#include "spans.hpp"
#include "workload.hpp"

extern "C" void __asan_init() __attribute__((weak));
extern "C" void __tsan_init() __attribute__((weak));
extern "C" void __ubsan_handle_add_overflow() __attribute__((weak));

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using omu::benchkit::Json;

struct Args {
  std::string spec_path = "perfbench/workloads.json";
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--spec") args.spec_path = value;
    else if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--work-dir") args.work_dir = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (args.workload.empty()) throw std::runtime_error("--workload is required");
  if (args.seconds <= 0.0) throw std::runtime_error("--seconds must be positive");
  return args;
}

/// The build this binary measures; refuses Debug and sanitizer builds,
/// which measure a different program.
std::string environment_stamp() {
  const omu::benchkit::EnvInfo env = omu::benchkit::capture_env();
  const bool sanitized = __asan_init != nullptr || __tsan_init != nullptr ||
                         __ubsan_handle_add_overflow != nullptr ||
                         env.flags.find("-fsanitize") != std::string::npos;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  if (env.build_type == "Debug" || asserts || sanitized) {
    throw std::runtime_error("refusing to report from a " + env.build_type +
                             (sanitized ? " sanitizer" : "") + " build");
  }
  std::ostringstream out;
  out << "nproc=" << env.nproc << " build_type=" << env.build_type
      << " compiler=\"" << env.compiler << "\" flags=\"" << env.flags << "\""
      << " OMU_SIMD=" << (OMU_SIMD_ENABLED ? "ON" : "OFF")
      << " simd_isa=" << omu::geom::kernels::simd_isa()
      << " OMU_TELEMETRY=" << (OMU_TELEMETRY_ENABLED ? "ON" : "OFF");
  return out.str();
}

WorkloadSpec load_spec(const Args& args) {
  std::ifstream in(args.spec_path);
  if (!in) throw std::runtime_error("cannot read " + args.spec_path);
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  const Json* workloads = doc.find("workloads");
  const Json* entry = workloads != nullptr ? workloads->find(args.workload) : nullptr;
  if (entry == nullptr) throw std::runtime_error("no workload '" + args.workload + "'");
  return WorkloadSpec::from_json(args.workload, *entry);
}

/// A scratch directory under the work dir, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent)
      : path_(fs::path(parent) / ("pid" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// A fresh, not-yet-existing path for one session's world directory.
  std::string next() { return (path_ / ("session" + std::to_string(next_++))).string(); }
  void clear_sessions() {
    for (const auto& entry : fs::directory_iterator(path_)) fs::remove_all(entry.path());
  }

 private:
  fs::path path_;
  int next_ = 0;
};

/// Generates the stream and opens a session `min_times` to 9 times (more
/// while they take under 1.5 s in total); returns the median seconds and
/// the last stream. Set-up work shows here, not in the stream metrics.
double measure_setup(const WorkloadSpec& spec, uint64_t seed, ScratchDir& scratch, int min_times,
                     Stream& stream) {
  std::vector<double> seconds;
  double spent = 0.0;
  for (int i = 0; i < min_times || (i < 9 && spent < 1.5); ++i) {
    const uint64_t t0 = now_ns();
    stream = generate_stream(spec, seed);
    std::unique_ptr<Target> target = make_target(spec, scratch.next());
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    spent += seconds.back();
    target.reset();
    scratch.clear_sessions();
  }
  return median(seconds);
}

/// Correctness gate of one repetition against the reference.
bool repetition_correct(const Repetition& rep, const Reference& ref, std::string& why) {
  if (rep.final_hash != ref.hash) why = "final content hash differs from the serial reference";
  else if (!rep.mirror_ok) why = "subscription mirror diverged from the server";
  else if (!rep.check_answers_ok || rep.check_answers != ref.answers) {
    why = "query sample answers differ from the reference view";
  } else return true;
  return false;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool in_result = true;  ///< false: table only (a ratio that is 0 when healthy)
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics, const std::string& heading) {
  std::cout << heading << '\n';
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  if (correct) {
    for (const Metric& m : metrics) {
      if (!m.in_result || !std::isfinite(m.value)) continue;
      json << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << m.value
           << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

double failed_ratio(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

int run_untraced(const WorkloadSpec& spec, const Args& args, const std::string& stamp) {
  ScratchDir scratch(args.work_dir);
  Stream stream;
  const double setup_s = measure_setup(spec, args.seed, scratch, 3, stream);

  std::vector<Repetition> reps;
  double elapsed = 0.0;
  while (reps.empty() || elapsed * (1.0 + 1.0 / static_cast<double>(reps.size())) <= args.seconds) {
    const uint64_t t0 = now_ns();
    reps.push_back(run_repetition(spec, stream, scratch.next(), nullptr, nullptr));
    elapsed += static_cast<double>(now_ns() - t0) / 1e9;
    scratch.clear_sessions();
  }

  const Reference ref = build_reference(spec, stream);
  bool correct = true;
  std::string why;
  // Latency percentiles pool every repetition's samples. Peak RSS is the
  // process peak through the first repetition: later repetitions add only
  // the heap the allocator kept from earlier ones.
  std::vector<double> scans_per_s, scan_ms, query_us;
  uint64_t attempted = 0, failed = 0;
  std::size_t peak_resident = 0;
  for (const Repetition& rep : reps) {
    peak_resident = std::max(peak_resident, rep.peak_resident_bytes);
    correct = correct && repetition_correct(rep, ref, why);
    scans_per_s.push_back(rep.scans_per_s(stream.length));
    scan_ms.insert(scan_ms.end(), rep.scan_ms.begin(), rep.scan_ms.end());
    query_us.insert(query_us.end(), rep.query_us.begin(), rep.query_us.end());
    attempted += rep.attempted;
    failed += rep.failed;
  }
  if (!correct) std::cerr << "correctness gate failed: " << why << '\n';

  const std::vector<Metric> metrics = {
      {"scans_per_s", median(scans_per_s), "1/s"},
      {"scan_to_map_p50_ms", percentile(scan_ms, 0.5), "ms"},
      {"scan_to_map_p90_ms", percentile(scan_ms, 0.9), "ms"},
      {"query_batch_p50_us", percentile(query_us, 0.5), "us"},
      {"query_batch_p90_us", percentile(query_us, 0.9), "us"},
      {"peak_rss_mib", reps.front().peak_rss_mib, "MiB"},
      {"setup_s", setup_s, "s"},
      // Reported by the result's attempted/failed counts; a bounded metric
      // must never read 0.
      {"failed_op_ratio", failed_ratio(attempted, failed), "ratio", false},
  };
  std::ostringstream heading;
  heading << spec.name << " seed=" << args.seed << " map_leaves=" << ref.leaf_count
          << " repetitions=" << reps.size()
          << " scans/repetition=" << stream.length << " scan samples=" << scan_ms.size()
          << " query samples=" << query_us.size();
  if (peak_resident > 0) heading << " paged peak_resident_bytes=" << peak_resident;
  heading << "\nscans_per_s by repetition:";
  for (const double rate : scans_per_s) heading << ' ' << rate;
  heading << '\n'
          << "env: " << stamp;
  print_result(correct, attempted, failed, metrics, heading.str());
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args, const std::string& stamp) {
  ScratchDir scratch(args.work_dir);
  Stream stream;
  measure_setup(spec, args.seed, scratch, 1, stream);
  const Reference ref = build_reference(spec, stream);

  // Cycles of one untraced repetition and one traced repetition followed
  // by one layer-replay pass (alternating whether the untraced repetition
  // comes first or last), until --seconds are used (at least one cycle).
  // The traced repetitions give the ledger's end-to-end spans and the
  // tracing overhead. The replay never runs beside them but right after
  // each, so drifts in host speed hit both alike.
  SpanLog writer_log("writer"), reader_log("reader"), client_log("client"), replay_log("replay");
  std::vector<Repetition> untraced, traced;
  ReplayCounts counts;
  const auto run_untraced_repetition = [&] {
    untraced.push_back(run_repetition(spec, stream, scratch.next(), nullptr, nullptr));
    scratch.clear_sessions();
  };
  double elapsed = 0.0;
  while (untraced.empty() ||
         elapsed * (1.0 + 1.0 / static_cast<double>(untraced.size())) <= args.seconds) {
    const uint64_t t0 = now_ns();
    const bool untraced_last = untraced.size() % 2 == 1;
    if (!untraced_last) run_untraced_repetition();
    Repetition rep = run_repetition(spec, stream, scratch.next(), &writer_log, &reader_log,
                                    /*record_writer=*/spec.service);
    scratch.clear_sessions();
    if (spec.service) {
      record_delta_apply_spans(rep.writer_received, client_log);
      rep.writer_received = {};
    }
    traced.push_back(std::move(rep));
    counts += replay_stream(spec, stream, scratch.next(), ref.hash, replay_log);
    scratch.clear_sessions();
    if (untraced_last) run_untraced_repetition();
    elapsed += static_cast<double>(now_ns() - t0) / 1e9;
  }

  bool correct = true;
  std::string why;
  if (!counts.maps_match) {
    correct = false;
    why = "layer replay map differs from the serial reference";
  }
  const auto sample = [](const Repetition& rep, const char* name) {
    const auto it = rep.service_samples.find(name);
    return it == rep.service_samples.end() ? 0.0 : it->second;
  };
  uint64_t attempted = 0, failed = 0;
  double rejections[4] = {0, 0, 0, 0};
  for (const auto* reps : {&untraced, &traced}) {
    for (const Repetition& rep : *reps) {
      correct = correct && repetition_correct(rep, ref, why);
      attempted += rep.attempted;
      failed += rep.failed;
      rejections[0] += sample(rep, "omu_service_inserts_rejected_rate");
      rejections[1] += sample(rep, "omu_service_inserts_rejected_bytes");
      rejections[2] += sample(rep, "omu_service_inserts_rejected_backpressure");
      rejections[3] += sample(rep, "omu_service_inserts_rejected_invalid");
    }
  }
  // The server times its own delta publication (publisher hash, shard
  // capture, event encode and send) and its session's scan inserts in
  // histograms that are live under the default telemetry options; read
  // from the traced repetitions' scrapes, they share those repetitions'
  // time window.
  double delta_bytes = 0.0, delta_events = 0.0, publish_ns = 0.0, publishes = 0.0;
  double server_insert_ns = 0.0, server_inserts = 0.0;
  for (const Repetition& rep : traced) {
    delta_bytes += sample(rep, "omu_service_delta_bytes");
    delta_events += sample(rep, "omu_service_delta_events");
    publish_ns += sample(rep, "omu_service_delta_publish_ns_sum");
    publishes += sample(rep, "omu_service_delta_publish_ns_count");
    server_insert_ns += sample(rep, "omu_fleet_ingest_insert_ns_sum");
    server_inserts += sample(rep, "omu_fleet_ingest_insert_ns_count");
  }
  if (correct && spec.service && (publishes == 0.0 || server_inserts == 0.0)) {
    correct = false;
    why = "the service scrape lacks its delta-publish or ingest histograms (OMU_TELEMETRY off?)";
  }
  std::vector<double> untraced_rate, traced_rate;
  for (const Repetition& rep : untraced) untraced_rate.push_back(rep.scans_per_s(stream.length));
  for (const Repetition& rep : traced) traced_rate.push_back(rep.scans_per_s(stream.length));

  const auto t = summarize({&writer_log, &reader_log});
  const auto l = summarize({&replay_log, &client_log});
  const auto total = [](const std::map<std::string, SpanTotals>& m, const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.total_ns;
  };
  const auto per_call = [](const std::map<std::string, SpanTotals>& m, const char* name) {
    const auto it = m.find(name);
    return it == m.end() || it->second.count == 0 ? 0.0
                                                   : it->second.total_ns / it->second.count;
  };
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  // Replay passes and traced repetitions are equal in number, so the
  // client-side delta spans divide by the replay's epochs too.
  const double scans = static_cast<double>(counts.scans);
  const double epochs = static_cast<double>(counts.epochs);
  const bool world = spec.backend == omu::BackendKind::kTiledWorld;

  // Stage coverage: the replay's stage time (with the server's delta
  // publication and the client's delta apply) over the writer's time in
  // the traced repetitions' own insert and flush calls.
  double stages = 0.0;
  if (spec.service) {
    stages = total(l, "service.encode") + total(l, "service.decode") +
             total(l, "omu_api.insert") + total(l, "omu_api.flush") + publish_ns +
             total(l, "service.delta_apply");
  } else {
    // map.prepare + map.dda == map.generate (dda is generate minus prepare).
    stages = total(l, "map.generate") + total(l, "map.dedup") + total(l, "query.publish") +
             (world ? total(l, "world.apply") + total(l, "world.flush") : total(l, "map.apply"));
  }
  const double end_to_end_ns =
      spec.service ? total(t, "service.insert_rpc") + total(t, "service.flush_rpc")
                   : total(t, "omu_api.insert") + total(t, "omu_api.flush");
  const double coverage = ratio(stages, end_to_end_ns);
  if (correct && coverage < 0.9) {
    correct = false;
    why = "ledger stages cover only " + std::to_string(coverage) + " of the traced stream";
  }
  if (!correct) std::cerr << "correctness gate failed: " << why << '\n';

  const double insert_ns = spec.service ? per_call(l, "omu_api.insert") : per_call(t, "omu_api.insert");
  const double flush_ns = spec.service ? per_call(l, "omu_api.flush") : per_call(t, "omu_api.flush");
  const double encode_ns = ratio(total(l, "service.encode"), scans);
  const double decode_ns = ratio(total(l, "service.decode"), scans);
  const double insert_rpc_ns = per_call(t, "service.insert_rpc");
  const std::vector<Metric> metrics = {
      {"omu_api.insert_ns_per_scan", insert_ns, "ns"},
      {"omu_api.flush_ns_per_epoch", flush_ns, "ns"},
      {"map.prepare_ns_per_scan", ratio(total(l, "map.prepare"), scans), "ns"},
      {"map.dda_ns_per_scan", ratio(total(l, "map.generate") - total(l, "map.prepare"), scans), "ns"},
      {"map.apply_ns_per_scan", ratio(total(l, "map.apply"), scans), "ns"},
      {"map.updates_per_scan", ratio(static_cast<double>(counts.updates), scans), "count"},
      {"map.prunes_per_scan", ratio(static_cast<double>(counts.prunes), scans), "count"},
      {"map.leaf_change_share",
       ratio(static_cast<double>(counts.leaf_updates), static_cast<double>(counts.voxel_updates)),
       "ratio"},
      {"map.dedup_ns_per_scan", ratio(total(l, "map.dedup"), scans), "ns"},
      {"query.publish_ns_per_epoch", ratio(total(l, "query.publish"), epochs), "ns"},
      {"query.chunks_rebuilt_per_epoch", ratio(static_cast<double>(counts.chunks_rebuilt), epochs),
       "count"},
      {"query.bytes_rebuilt_per_epoch", ratio(counts.bytes_rebuilt, epochs), "bytes"},
      {"query.reused_byte_share",
       ratio(counts.bytes_reused, counts.bytes_reused + counts.bytes_rebuilt), "ratio"},
      {"query.classify_ns_per_position",
       ratio(per_call(t, "query.classify_batch"), static_cast<double>(kQueryBatch)), "ns"},
      {"world.apply_ns_per_scan", ratio(total(l, "world.apply"), scans), "ns"},
      {"world.flush_ns_per_epoch", ratio(total(l, "world.flush"), epochs), "ns"},
      {"world.save_ns", ratio(total(l, "world.save"), static_cast<double>(counts.passes)), "ns"},
      {"world.evictions_per_scan", ratio(static_cast<double>(counts.evictions), scans), "count"},
      {"world.reloads_per_scan", ratio(static_cast<double>(counts.reloads), scans), "count"},
      {"world.tile_writes_per_scan", ratio(static_cast<double>(counts.tile_writes), scans), "count"},
      {"world.reload_share",
       ratio(static_cast<double>(counts.reloads), static_cast<double>(counts.evictions)), "ratio"},
      {"service.insert_rpc_ns", insert_rpc_ns, "ns"},
      {"service.encode_ns_per_insert", encode_ns, "ns"},
      {"service.decode_ns_per_insert", decode_ns, "ns"},
      // Transport, handoff and admission: the RPC minus the codec and the
      // server's own scan insert in the same repetitions.
      {"service.overhead_ns_per_insert",
       spec.service ? insert_rpc_ns - encode_ns - decode_ns - ratio(server_insert_ns, server_inserts)
                    : 0.0,
       "ns"},
      {"service.flush_rpc_ns", per_call(t, "service.flush_rpc"), "ns"},
      {"service.delta_bytes_per_epoch", ratio(delta_bytes, delta_events), "bytes"},
      {"service.delta_encode_ns_per_epoch", ratio(publish_ns, publishes), "ns"},
      {"service.delta_apply_ns_per_epoch", ratio(total(l, "service.delta_apply"), epochs), "ns"},
      {"service.query_rpc_ns_per_batch", per_call(t, "service.query_rpc"), "ns"},
      {"service.rejections", rejections[0] + rejections[1] + rejections[2] + rejections[3], "count"},
      {"service.rejections.rate", rejections[0], "count"},
      {"service.rejections.bytes", rejections[1], "count"},
      {"service.rejections.backpressure", rejections[2], "count"},
      {"service.rejections.invalid", rejections[3], "count"},
      {"failed_op_ratio", failed_ratio(attempted, failed), "ratio"},
      {"ledger.stage_coverage", coverage, "ratio"},
      {"ledger.tracing_overhead", ratio(median(traced_rate), median(untraced_rate)), "ratio"},
  };

  std::vector<const SpanLog*> logs = {&writer_log, &reader_log, &client_log, &replay_log};
  const std::string trace_path = (fs::path(args.work_dir) / (spec.name + "-seed" +
                                  std::to_string(args.seed) + ".spans.tsv")).string();
  if (!write_spans(trace_path, logs)) {
    std::cerr << "warning: could not write " << trace_path << '\n';
  }
  std::ostringstream heading;
  heading << spec.name << " seed=" << args.seed << " traced: " << traced.size()
          << " cycles of an untraced repetition, a traced repetition and a layer-replay pass,"
          << " scans/repetition=" << stream.length << ", spans in " << trace_path << '\n'
          << "env: " << stamp << "\nledger spans: name, count, total ms, self ms";
  for (const auto* group : {&t, &l}) {
    for (const auto& [name, s] : *group) {
      heading << "\n  " << name << ' ' << s.count << ' ' << s.total_ns / 1e6 << ' ' << s.self_ns / 1e6;
    }
  }
  print_result(correct, attempted, failed, metrics, heading.str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const std::string stamp = perfbench::environment_stamp();
    const perfbench::WorkloadSpec spec = perfbench::load_spec(args);
    return args.trace ? perfbench::run_traced(spec, args, stamp)
                      : perfbench::run_untraced(spec, args, stamp);
  } catch (const std::exception& e) {
    std::cerr << "scan_to_map_bench: " << e.what() << '\n';
    return 2;
  }
}
