// Shared pieces of the scan-to-map benchmark: the workload spec read from
// perfbench/workloads.json, the seeded input stream, the session targets
// (in-process facade or loopback service) and small statistics helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <omu/omu.hpp>

#include "benchkit/json.hpp"
#include "data/datasets.hpp"
#include "spans.hpp"

namespace perfbench {

/// Positions per reader query batch (both the MapView and the RPC path).
inline constexpr std::size_t kQueryBatch = 256;
/// Positions of the post-run query sample checked against the reference.
inline constexpr std::size_t kCheckPositions = 1000;

/// One workload's parameters (perfbench/workloads.json).
struct WorkloadSpec {
  std::string name;
  omu::data::DatasetId dataset = omu::data::DatasetId::kFr079Corridor;
  double scale = 0.0;
  std::size_t stream_scans = 0;  ///< scans per repetition (laps over the dataset)
  std::size_t flush_every = 1;
  bool deduplicate = false;
  omu::BackendKind backend = omu::BackendKind::kOctree;
  int tile_shift = 12;
  std::size_t resident_byte_budget = 0;
  bool service = false;          ///< drive the loopback MapService instead of a Mapper
  /// A reader thread queries each published epoch while the writer waits.
  bool concurrent_reader = false;
  std::size_t batches_per_epoch = 0;  ///< the reader's batches per epoch
  std::size_t post_stream_query_batches = 0;  ///< batches timed after the stream instead

  static WorkloadSpec from_json(const std::string& name, const omu::benchkit::Json& j);
};

/// The generated inputs of one run: everything derives from (spec, seed).
struct Stream {
  std::vector<omu::data::DatasetScan> scans;  ///< unique dataset scans
  std::vector<std::vector<float>> xyz;        ///< the same scans as packed xyz triples
  std::vector<omu::Vec3> origins;
  std::size_t length = 0;                     ///< scans per repetition (laps)
  std::vector<std::vector<omu::Vec3>> query_batches;
  std::vector<omu::Vec3> check_positions;

  std::size_t index(std::size_t i) const { return i % scans.size(); }
};

Stream generate_stream(const WorkloadSpec& spec, uint64_t seed);

/// The session config every target and replay of `spec` uses.
omu::MapperConfig mapper_config(const WorkloadSpec& spec, const std::string& world_directory);

/// What a recorded client connection read: every byte, and the start
/// and end of every read call that delivered them.
struct ReceivedStream {
  struct Read {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    std::size_t bytes = 0;
  };
  std::vector<uint8_t> bytes;
  std::vector<Read> reads;
};

/// Attempted/failed operation tally shared by writer and reader threads.
struct OpCounts {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// A mapping session under test: the in-process omu::Mapper facade or a
/// loopback MapService session. insert/flush run on the writer thread,
/// query_batch on the reader thread. Each call records itself in `ops`.
class Target {
 public:
  virtual ~Target() = default;
  virtual bool insert(const Stream& stream, std::size_t i) = 0;
  virtual bool flush() = 0;
  /// One reader batch; `log` (may be null) receives the facade's
  /// snapshot/classify split.
  virtual bool query_batch(const std::vector<omu::Vec3>& positions,
                           std::vector<omu::Occupancy>& out, SpanLog* log) = 0;
  /// Post-run checks outside the timed region: the final content hash
  /// (0 on failure) and, for the service, subscription convergence.
  virtual uint64_t content_hash() = 0;
  virtual bool mirror_consistent(uint64_t /*server_hash*/) { return true; }
  /// Pager high-water of a world-backed session (0 otherwise).
  virtual std::size_t peak_resident_bytes() { return 0; }
  /// Values of the named samples in one scrape of the service's metrics
  /// (empty for the facade; a sample the scrape lacks is left out).
  virtual std::map<std::string, double> service_samples(const std::vector<std::string>& /*names*/) {
    return {};
  }
  /// What the writer connection read since the last call (recorded only
  /// when make_target was asked to; empty otherwise).
  virtual ReceivedStream take_writer_received() { return {}; }

  OpCounts ops;
};

/// Builds a fresh, empty target for `spec`. World-backed sessions page
/// into `scratch_dir`, which must not exist yet. With `record_writer` a
/// service target records what its writer connection reads.
std::unique_ptr<Target> make_target(const WorkloadSpec& spec, const std::string& scratch_dir,
                                    bool record_writer = false);

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
