#include "workload.hpp"

#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "map/occupancy_octree.hpp"
#include "map/scan_inserter.hpp"
#include "omu_api/convert.hpp"

namespace perfbench {

namespace {

constexpr double kFailed = std::numeric_limits<double>::infinity();

omu::Occupancy to_public(omu::map::Occupancy occ) {
  switch (occ) {
    case omu::map::Occupancy::kFree: return omu::Occupancy::kFree;
    case omu::map::Occupancy::kOccupied: return omu::Occupancy::kOccupied;
    case omu::map::Occupancy::kUnknown: break;
  }
  return omu::Occupancy::kUnknown;
}

/// The concurrent reader, closed loop: it wakes on every epoch the writer
/// publishes and sends WorkloadSpec::batches_per_epoch batches, each after
/// the previous one returned; the writer waits for them in
/// wait_epoch_read(). On the service the batches take the session lock
/// inserts take: racing inserts for it put the 90th percentile on the knee
/// between two latency modes. Joins in its destructor so an exception on
/// the writer never leaks the thread.
class ReaderThread {
 public:
  ReaderThread(Target& target, const Stream& stream, const WorkloadSpec& spec, SpanLog* log,
               std::vector<double>& latencies_us)
      : thread_([this, &target, &stream, &spec, log, &latencies_us] {
          run(target, stream, spec, log, latencies_us);
        }) {}

  ~ReaderThread() { stop(); }
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

  void epoch_published() {
    {
      std::lock_guard lock(mutex_);
      ++published_;
    }
    wake_.notify_all();
  }

  /// Blocks until the reader has read the last published epoch.
  void wait_epoch_read() {
    std::unique_lock lock(mutex_);
    read_.wait(lock, [&] { return read_epochs_ >= published_ || finished_; });
  }

  void stop() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run(Target& target, const Stream& stream, const WorkloadSpec& spec, SpanLog* log,
           std::vector<double>& latencies_us) {
    // Wakes a writer blocked in wait_epoch_read() however this returns.
    struct Finish {
      ReaderThread& self;
      ~Finish() {
        {
          std::lock_guard lock(self.mutex_);
          self.finished_ = true;
        }
        self.read_.notify_all();
      }
    } finish{*this};
    std::vector<omu::Occupancy> out;
    uint64_t seen = 0;
    std::size_t b = 0;
    while (true) {
      {
        std::unique_lock lock(mutex_);
        wake_.wait(lock, [&] { return stopping_ || published_ > seen; });
        if (stopping_) return;
        seen = published_;
      }
      for (std::size_t k = 0; k < spec.batches_per_epoch; ++k, ++b) {
        const auto& batch = stream.query_batches[b % stream.query_batches.size()];
        const uint64_t t0 = now_ns();
        const bool ok = target.query_batch(batch, out, log);
        latencies_us.push_back(ok ? static_cast<double>(now_ns() - t0) / 1e3 : kFailed);
      }
      {
        std::lock_guard lock(mutex_);
        read_epochs_ = seen;
      }
      read_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;  ///< reader waits: a new epoch or stop
  std::condition_variable read_;  ///< writer waits: the epoch was read
  uint64_t published_ = 0;        ///< guarded by mutex_
  uint64_t read_epochs_ = 0;      ///< guarded by mutex_
  bool stopping_ = false;         ///< guarded by mutex_
  bool finished_ = false;         ///< guarded by mutex_
  std::thread thread_;      // declared last: starts after the members it uses
};

}  // namespace

Repetition run_repetition(const WorkloadSpec& spec, const Stream& stream,
                          const std::string& scratch_dir, SpanLog* writer_log,
                          SpanLog* reader_log, bool record_writer) {
  Repetition rep;
  std::unique_ptr<Target> target = make_target(spec, scratch_dir, record_writer);
  const char* insert_name = spec.service ? "service.insert_rpc" : "omu_api.insert";
  const char* flush_name = spec.service ? "service.flush_rpc" : "omu_api.flush";

  std::vector<uint64_t> starts(stream.length, 0);
  std::vector<char> inserted(stream.length, 0);
  rep.scan_ms.reserve(stream.length);
  {
    std::unique_ptr<ReaderThread> reader;
    if (spec.concurrent_reader) {
      reader = std::make_unique<ReaderThread>(*target, stream, spec, reader_log, rep.query_us);
    }
    const uint64_t stream_start = now_ns();
    std::size_t epoch_first = 0;
    for (std::size_t i = 0; i < stream.length; ++i) {
      if (i == epoch_first && writer_log != nullptr) writer_log->begin("epoch", i);
      starts[i] = now_ns();
      {
        ScopedSpan span(writer_log, insert_name, i);
        inserted[i] = target->insert(stream, i) ? 1 : 0;
      }
      if ((i + 1) % spec.flush_every != 0 && i + 1 != stream.length) continue;
      bool flushed = false;
      {
        ScopedSpan span(writer_log, flush_name, i);
        flushed = target->flush();
      }
      const uint64_t published = now_ns();
      if (reader) {
        reader->epoch_published();
        reader->wait_epoch_read();
      }
      for (std::size_t j = epoch_first; j <= i; ++j) {
        rep.scan_ms.push_back(inserted[j] != 0 && flushed
                                  ? static_cast<double>(published - starts[j]) / 1e6
                                  : kFailed);
      }
      if (writer_log != nullptr) writer_log->end();
      epoch_first = i + 1;
    }
    rep.stream_s = static_cast<double>(now_ns() - stream_start) / 1e9;
  }

  // A workload without a concurrent reader times its query batches on
  // the final view, after the stream.
  std::vector<omu::Occupancy> out;
  for (std::size_t b = 0; b < spec.post_stream_query_batches; ++b) {
    const auto& batch = stream.query_batches[b % stream.query_batches.size()];
    const uint64_t t0 = now_ns();
    const bool ok = target->query_batch(batch, out, writer_log);
    rep.query_us.push_back(ok ? static_cast<double>(now_ns() - t0) / 1e3 : kFailed);
  }

  rep.attempted = target->ops.attempted.load();
  rep.failed = target->ops.failed.load();
  rep.writer_received = target->take_writer_received();

  // ---- Checks, outside every timed region ------------------------------
  rep.final_hash = target->content_hash();
  rep.peak_resident_bytes = target->peak_resident_bytes();
  rep.mirror_ok = target->mirror_consistent(rep.final_hash);
  rep.check_answers_ok = target->query_batch(stream.check_positions, rep.check_answers, nullptr);
  rep.service_samples = target->service_samples(
      {"omu_service_delta_bytes", "omu_service_delta_events", "omu_service_delta_publish_ns_sum",
       "omu_service_delta_publish_ns_count", "omu_service_inserts_rejected_rate",
       "omu_service_inserts_rejected_bytes", "omu_service_inserts_rejected_backpressure",
       "omu_service_inserts_rejected_invalid", "omu_fleet_ingest_insert_ns_sum",
       "omu_fleet_ingest_insert_ns_count"});
  rep.peak_rss_mib = peak_rss_mib();  // process peak so far
  return rep;
}

Reference build_reference(const WorkloadSpec& spec, const Stream& stream) {
  omu::map::OccupancyOctree tree(0.2, omu::api::to_occupancy_params(omu::SensorModel{}));
  omu::map::InsertPolicy policy;
  policy.mode =
      spec.deduplicate ? omu::map::InsertMode::kDiscretized : omu::map::InsertMode::kRayByRay;
  omu::map::ScanInserter inserter(tree, policy);
  for (std::size_t i = 0; i < stream.length; ++i) {
    const auto& scan = stream.scans[stream.index(i)];
    inserter.insert_scan(scan.points, scan.pose.translation());
  }
  Reference ref;
  ref.hash = tree.content_hash();
  ref.leaf_count = tree.leaf_count();
  ref.answers.reserve(stream.check_positions.size());
  for (const omu::Vec3& p : stream.check_positions) {
    ref.answers.push_back(to_public(tree.classify(omu::geom::Vec3d{p.x, p.y, p.z})));
  }
  return ref;
}

}  // namespace perfbench
