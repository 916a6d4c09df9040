#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "geom/rng.hpp"
#include "obs/prom_text.hpp"
#include "service/client.hpp"
#include "service/map_service.hpp"
#include "service/transport.hpp"

namespace perfbench {

using omu::benchkit::Json;

namespace {

omu::data::DatasetId dataset_from_name(const std::string& name) {
  if (name == "fr079") return omu::data::DatasetId::kFr079Corridor;
  if (name == "campus") return omu::data::DatasetId::kFreiburgCampus;
  if (name == "newcollege") return omu::data::DatasetId::kNewCollege;
  throw std::runtime_error("unknown dataset '" + name + "'");
}

omu::BackendKind backend_from_name(const std::string& name) {
  if (name == "octree") return omu::BackendKind::kOctree;
  if (name == "tiled_world") return omu::BackendKind::kTiledWorld;
  throw std::runtime_error("unsupported backend '" + name + "'");
}

const Json& member(const Json& j, const std::string& key) {
  const Json* found = j.find(key);
  if (found == nullptr) throw std::runtime_error("workload spec lacks '" + key + "'");
  return *found;
}

class FacadeTarget final : public Target {
 public:
  explicit FacadeTarget(omu::Mapper mapper) : mapper_(std::move(mapper)) {}

  bool insert(const Stream& stream, std::size_t i) override {
    const std::size_t k = stream.index(i);
    const bool ok =
        mapper_.insert(stream.xyz[k].data(), stream.xyz[k].size() / 3, stream.origins[k]).ok();
    ops.record(ok);
    return ok;
  }

  bool flush() override {
    const bool ok = mapper_.flush().ok();
    ops.record(ok);
    return ok;
  }

  bool query_batch(const std::vector<omu::Vec3>& positions, std::vector<omu::Occupancy>& out,
                   SpanLog* log) override {
    const omu::Result<omu::MapView> view = [&] {
      ScopedSpan span(log, "omu_api.snapshot", 0);
      return mapper_.snapshot();
    }();
    if (view.ok()) {
      ScopedSpan span(log, "query.classify_batch", positions.size());
      view->classify_batch(positions, out);
    }
    ops.record(view.ok());
    return view.ok();
  }

  uint64_t content_hash() override {
    const omu::Result<uint64_t> hash = mapper_.content_hash();
    return hash.ok() ? *hash : 0;
  }

  std::size_t peak_resident_bytes() override {
    const omu::Result<omu::WorldPagingStats> paging = mapper_.paging_stats();
    return paging.ok() ? paging->peak_resident_bytes : 0;
  }

 private:
  omu::Mapper mapper_;
};

/// Forwards to a client's transport and records every byte the client
/// reads with the time of each read call. The client's reply loop reads a
/// frame with exact-size reads and handles it before its next read, so
/// the gap after the read that completes a delta event is the client's
/// own work on that event. Used by one client thread, like the transport
/// it wraps.
class RecordingTransport final : public omu::service::Transport {
 public:
  explicit RecordingTransport(std::unique_ptr<omu::service::Transport> inner)
      : inner_(std::move(inner)) {}
  void write_all(const void* data, std::size_t size) override { inner_->write_all(data, size); }
  std::size_t read_some(void* data, std::size_t size) override {
    const uint64_t start = now_ns();
    const std::size_t n = inner_->read_some(data, size);
    const uint64_t end = now_ns();
    const auto* bytes = static_cast<const uint8_t*>(data);
    received_.bytes.insert(received_.bytes.end(), bytes, bytes + n);
    received_.reads.push_back({start, end, n});
    return n;
  }
  void shutdown() override { inner_->shutdown(); }

  ReceivedStream take() { return std::exchange(received_, {}); }

 private:
  std::unique_ptr<omu::service::Transport> inner_;
  ReceivedStream received_;
};

/// A loopback MapService with one writer connection (inserts, flushes and
/// a subscribed mirror) and one reader connection (query RPCs).
class ServiceTarget final : public Target {
 public:
  ServiceTarget(const WorkloadSpec& spec, bool record_writer)
      : listener_(std::make_shared<omu::service::LoopbackListener>()) {
    host_.start(listener_);
    std::unique_ptr<omu::service::Transport> writer_end = listener_->connect();
    if (record_writer) {
      auto recording = std::make_unique<RecordingTransport>(std::move(writer_end));
      recording_ = recording.get();
      writer_end = std::move(recording);
    }
    writer_ = std::make_unique<omu::service::ServiceClient>(std::move(writer_end));
    reader_ = std::make_unique<omu::service::ServiceClient>(listener_->connect());
    omu::service::SessionSpec session_spec =
        omu::service::SessionSpec::from_config(mapper_config(spec, ""));
    session_spec.tenant = "perfbench";
    const omu::Result<uint64_t> session = writer_->create(session_spec);
    if (!session.ok()) throw std::runtime_error("create RPC failed: " + session.status().to_string());
    session_ = *session;
    if (!writer_->subscribe(session_, &mirror_).ok()) throw std::runtime_error("subscribe failed");
  }

  ~ServiceTarget() override {
    writer_.reset();
    reader_.reset();
    host_.stop();
  }

  bool insert(const Stream& stream, std::size_t i) override {
    const std::size_t k = stream.index(i);
    // Admission refusals count as failed operations even when a retry
    // later succeeds; without tenant quotas none are expected.
    for (int attempt = 0; attempt < 100; ++attempt) {
      const omu::service::WireStatus s = writer_->insert(session_, stream.origins[k], stream.xyz[k]);
      ops.record(s.ok());
      if (s.ok()) return true;
      if (s.code != static_cast<uint16_t>(omu::StatusCode::kResourceExhausted)) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(std::max<uint32_t>(1, s.retry_after_ms)));
    }
    return false;
  }

  bool flush() override {
    const bool ok = writer_->flush(session_).ok();
    ops.record(ok);
    return ok;
  }

  bool query_batch(const std::vector<omu::Vec3>& positions, std::vector<omu::Occupancy>& out,
                   SpanLog* log) override {
    omu::Result<std::vector<omu::Occupancy>> answer = [&] {
      ScopedSpan span(log, "service.query_rpc", positions.size());
      return reader_->query(session_, positions);
    }();
    const bool ok = answer.ok() && answer->size() == positions.size();
    if (ok) out = std::move(*answer);
    ops.record(ok);
    return ok;
  }

  uint64_t content_hash() override {
    const omu::Result<uint64_t> hash = writer_->content_hash(session_);
    return hash.ok() ? *hash : 0;
  }

  bool mirror_consistent(uint64_t server_hash) override {
    return mirror_.hash_mismatches() == 0 && mirror_.converged() &&
           mirror_.content_hash() == server_hash;
  }

  std::map<std::string, double> service_samples(const std::vector<std::string>& names) override {
    const omu::Result<std::string> text = writer_->metrics();
    if (!text.ok()) return {};
    std::map<std::string, double> values;
    for (const omu::obs::PromFamily& family : omu::obs::parse_prometheus_text(*text).families) {
      for (const omu::obs::PromSample& sample : family.samples) {
        if (sample.labels.empty() &&
            std::find(names.begin(), names.end(), sample.name) != names.end()) {
          values[sample.name] = sample.value;
        }
      }
    }
    return values;
  }

  ReceivedStream take_writer_received() override {
    return recording_ != nullptr ? recording_->take() : ReceivedStream{};
  }

 private:
  omu::service::MapService host_;
  std::shared_ptr<omu::service::LoopbackListener> listener_;
  std::unique_ptr<omu::service::ServiceClient> writer_;
  std::unique_ptr<omu::service::ServiceClient> reader_;
  RecordingTransport* recording_ = nullptr;  ///< owned by writer_; null unless recording
  omu::service::SubscriptionMirror mirror_;
  uint64_t session_ = 0;
};

}  // namespace

WorkloadSpec WorkloadSpec::from_json(const std::string& name, const Json& j) {
  WorkloadSpec spec;
  spec.name = name;
  spec.dataset = dataset_from_name(member(j, "dataset").as_string());
  spec.scale = member(j, "scale").as_number();
  spec.stream_scans = static_cast<std::size_t>(member(j, "stream_scans").as_number());
  spec.flush_every = static_cast<std::size_t>(member(j, "flush_every").as_number());
  spec.deduplicate = member(j, "deduplicate").as_bool();
  spec.backend = backend_from_name(member(j, "backend").as_string());
  spec.tile_shift = static_cast<int>(j.number_or("tile_shift", 12));
  spec.resident_byte_budget = static_cast<std::size_t>(j.number_or("resident_byte_budget", 0));
  const std::string transport = member(j, "transport").as_string();
  if (transport != "in_process" && transport != "loopback_service") {
    throw std::runtime_error("unknown transport '" + transport + "'");
  }
  spec.service = transport == "loopback_service";
  const std::string reader = member(j, "reader").as_string();
  if (reader != "per_epoch" && reader != "after_stream") {
    throw std::runtime_error("unknown reader mode '" + reader + "'");
  }
  spec.concurrent_reader = reader == "per_epoch";
  if (spec.concurrent_reader) {
    spec.batches_per_epoch = static_cast<std::size_t>(member(j, "batches_per_epoch").as_number());
    if (spec.batches_per_epoch == 0) throw std::runtime_error("batches_per_epoch must be >= 1");
  }
  spec.post_stream_query_batches =
      spec.concurrent_reader ? 0 : static_cast<std::size_t>(member(j, "after_stream_batches").as_number());
  if (spec.stream_scans < 100 || spec.flush_every == 0 || spec.scale <= 0.0) {
    throw std::runtime_error("workload '" + name + "': need stream_scans >= 100, flush_every >= 1");
  }
  return spec;
}

Stream generate_stream(const WorkloadSpec& spec, uint64_t seed) {
  Stream stream;
  const omu::data::SyntheticDataset dataset(spec.dataset, spec.scale, seed);
  stream.scans.reserve(dataset.scan_count());
  for (std::size_t i = 0; i < dataset.scan_count(); ++i) {
    omu::data::DatasetScan scan = dataset.scan(i);
    if (scan.points.empty()) continue;  // nothing to insert, nothing to time
    std::vector<float> xyz(scan.points.size() * 3);
    std::memcpy(xyz.data(), &scan.points.points().front().x, xyz.size() * sizeof(float));
    const omu::geom::Vec3d origin = scan.pose.translation();
    stream.origins.push_back(omu::Vec3{origin.x, origin.y, origin.z});
    stream.xyz.push_back(std::move(xyz));
    stream.scans.push_back(std::move(scan));
  }
  if (stream.scans.empty()) throw std::runtime_error("dataset produced no scans");
  stream.length = spec.stream_scans;

  // Query positions: endpoints of random scans jittered by up to 1 m per
  // axis, so batches mix occupied surface, free space and unknown space.
  omu::geom::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED2701u);
  const auto position = [&] {
    const auto& points = stream.scans[rng.next_below(stream.scans.size())].points;
    const auto& p = points[rng.next_below(points.size())];
    return omu::Vec3{p.x + rng.uniform(-1.0, 1.0), p.y + rng.uniform(-1.0, 1.0),
                     p.z + rng.uniform(-1.0, 1.0)};
  };
  stream.query_batches.resize(64);
  for (auto& batch : stream.query_batches) {
    batch.resize(kQueryBatch);
    for (omu::Vec3& p : batch) p = position();
  }
  stream.check_positions.resize(kCheckPositions);
  for (omu::Vec3& p : stream.check_positions) p = position();
  return stream;
}

omu::MapperConfig mapper_config(const WorkloadSpec& spec, const std::string& world_directory) {
  omu::SensorModel model;
  model.deduplicate = spec.deduplicate;
  omu::MapperConfig config;
  config.resolution(0.2).backend(spec.backend).sensor_model(model);
  if (spec.backend == omu::BackendKind::kTiledWorld) {
    config.world(omu::WorldOptions{.directory = world_directory,
                                   .resident_byte_budget = spec.resident_byte_budget,
                                   .tile_shift = spec.tile_shift});
  }
  return config;
}

std::unique_ptr<Target> make_target(const WorkloadSpec& spec, const std::string& scratch_dir,
                                    bool record_writer) {
  if (spec.service) return std::make_unique<ServiceTarget>(spec, record_writer);
  omu::Result<omu::Mapper> mapper = omu::Mapper::create(mapper_config(spec, scratch_dir));
  if (!mapper.ok()) throw std::runtime_error("Mapper::create failed: " + mapper.status().to_string());
  return std::make_unique<FacadeTarget>(std::move(*mapper));
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
