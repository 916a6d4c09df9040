// One closed-loop repetition of a workload against a fresh target, the
// serial-octree correctness reference, and the traced layer replay.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

/// Everything one repetition measured and the checks it enables.
struct Repetition {
  std::vector<double> scan_ms;   ///< per scan; +inf when its insert or flush failed
  std::vector<double> query_us;  ///< per reader batch; +inf when it failed
  double stream_s = 0.0;         ///< wall time of the writer's stream
  double peak_rss_mib = 0.0;     ///< process peak RSS up to the end of this repetition
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t final_hash = 0;
  std::size_t peak_resident_bytes = 0;
  bool mirror_ok = true;
  std::vector<omu::Occupancy> check_answers;  ///< answers for Stream::check_positions
  bool check_answers_ok = false;
  std::map<std::string, double> service_samples;  ///< by Prometheus sample name
  ReceivedStream writer_received;  ///< what the writer connection read (when recorded)

  double scans_per_s(std::size_t scans) const { return static_cast<double>(scans) / stream_s; }
};

/// Creates a fresh target, streams every scan of `stream` through it in
/// a closed loop (next insert only after the previous call returned),
/// then runs the post-stream checks outside the timed region. Spans go to
/// `writer_log` / `reader_log` when non-null. With `record_writer` a
/// service repetition keeps what its writer connection read.
Repetition run_repetition(const WorkloadSpec& spec, const Stream& stream,
                          const std::string& scratch_dir, SpanLog* writer_log,
                          SpanLog* reader_log, bool record_writer = false);

/// The serial-octree reference: final content hash and answers for
/// Stream::check_positions, built from the same stream with the layer
/// classes directly (no facade, no service).
struct Reference {
  uint64_t hash = 0;
  std::size_t leaf_count = 0;
  std::vector<omu::Occupancy> answers;
};
Reference build_reference(const WorkloadSpec& spec, const Stream& stream);

/// Counts the layer replay reads from the layers' own statistics,
/// summed over replay passes.
struct ReplayCounts {
  uint64_t passes = 0;
  uint64_t scans = 0;
  uint64_t epochs = 0;
  uint64_t updates = 0;
  uint64_t voxel_updates = 0;
  uint64_t leaf_updates = 0;
  uint64_t prunes = 0;
  uint64_t chunks_rebuilt = 0;
  double bytes_rebuilt = 0.0;
  double bytes_reused = 0.0;
  uint64_t evictions = 0;
  uint64_t reloads = 0;
  uint64_t tile_writes = 0;
  bool maps_match = true;  ///< every pass's map equalled `expected_hash`

  ReplayCounts& operator+=(const ReplayCounts& other);
};

/// One layer-replay pass: the stream, in the workload's flush cadence,
/// through each layer's public functions from an empty map, one span per
/// call into `log`: ray prepare, ray generation, dedup, octree apply,
/// snapshot publication and — where the workload uses it — the tiled
/// world (paging into `scratch_dir`). A service workload first replays
/// the server's side on its own: the insert's wire encode and decode and
/// a facade insert and flush of the same scans. The run's traced target
/// repetitions never overlap a pass, so their spans carry no replay work.
ReplayCounts replay_stream(const WorkloadSpec& spec, const Stream& stream,
                           const std::string& scratch_dir, uint64_t expected_hash, SpanLog& log);

/// The client side of the subscription, as the traced repetition's own
/// writer client ran it: for every delta-event frame in `received`, one
/// "service.delta_apply" span from the end of the read that completed
/// the frame to the start of the client's next read (the frame checksum,
/// the event decode and the mirror update in the client's reply loop).
void record_delta_apply_spans(const ReceivedStream& received, SpanLog& log);

}  // namespace perfbench
