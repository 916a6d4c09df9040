// The traced layer replay: the workload's exact inputs pushed through each
// layer's public functions, one span per call. Stage spans sit under one
// "ledger.scan" root per scan, so summarize() attributes every
// nanosecond of the replay either to a stage or to the root's self time.
// The client side of a subscription is timed on the reads a real writer
// connection made.
#include <cstring>
#include <optional>
#include <stdexcept>

#include "map/dedup_policy.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "map/ray_batch.hpp"
#include "map/ray_generator.hpp"
#include "omu_api/convert.hpp"
#include "query/query_service.hpp"
#include "service/messages.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "workload.hpp"
#include "world/tiled_world_map.hpp"

namespace perfbench {

namespace {

using namespace omu;

/// Reads back bytes held in memory (an encoded insert, or the stream a
/// writer connection recorded), so read_frame() decodes them without a
/// transport thread in the way.
class MemoryTransport final : public service::Transport {
 public:
  explicit MemoryTransport(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}
  void write_all(const void*, std::size_t) override {
    throw service::WireError("MemoryTransport is read-only");
  }
  std::size_t read_some(void* data, std::size_t size) override {
    const std::size_t n = std::min(size, bytes_.size() - pos_);
    std::memcpy(data, bytes_.data() + pos_, n);
    pos_ += n;
    return n;
  }
  void shutdown() override {}

  std::size_t position() const { return pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

/// The server's side of an insert and a flush, alone: the insert's wire
/// encode and decode, then a facade insert of the decoded scan (the
/// baseline service.overhead_ns_per_insert is measured against) and a
/// facade flush per epoch. No other map is in memory, as on the server.
/// Returns false when the facade's map differs from `expected_hash`.
bool replay_service_side(const WorkloadSpec& spec, const Stream& stream, uint64_t expected_hash,
                         SpanLog& log) {
  Result<Mapper> facade = Mapper::create(mapper_config(spec, ""));
  if (!facade.ok()) throw std::runtime_error("replay facade: " + facade.status().to_string());
  std::vector<uint8_t> frame_bytes;
  for (std::size_t i = 0; i < stream.length; ++i) {
    const std::size_t k = stream.index(i);
    {
      ScopedSpan span(&log, "service.encode", i);
      service::InsertRequest request;
      request.session_id = 1;
      request.origin[0] = stream.origins[k].x;
      request.origin[1] = stream.origins[k].y;
      request.origin[2] = stream.origins[k].z;
      request.xyz = stream.xyz[k];
      service::WireWriter writer;
      request.encode(writer);
      service::Frame frame;
      frame.type = service::request_type(service::MsgType::kInsert);
      frame.request_id = i + 1;
      frame.payload = writer.take();
      frame_bytes = service::encode_frame(frame);
    }
    service::InsertRequest decoded;
    {
      ScopedSpan span(&log, "service.decode", i);
      MemoryTransport transport(frame_bytes);
      const std::optional<service::Frame> frame = service::read_frame(transport);
      if (!frame) throw std::runtime_error("replay: frame did not decode");
      service::WireReader reader(frame->payload);
      decoded.decode(reader);
    }
    {
      ScopedSpan span(&log, "omu_api.insert", i);
      const Status status =
          facade->insert(decoded.xyz.data(), decoded.xyz.size() / 3,
                         Vec3{decoded.origin[0], decoded.origin[1], decoded.origin[2]});
      if (!status.ok()) throw std::runtime_error("replay facade insert: " + status.to_string());
    }
    if ((i + 1) % spec.flush_every == 0 || i + 1 == stream.length) {
      ScopedSpan span(&log, "omu_api.flush", i);
      if (!facade->flush().ok()) throw std::runtime_error("replay facade flush failed");
    }
  }
  const Result<uint64_t> hash = facade->content_hash();
  return hash.ok() && *hash == expected_hash;
}

/// The map layers of one replay pass and the calls that feed them.
struct LayerReplay {
  LayerReplay(const WorkloadSpec& workload, const Stream& inputs, const std::string& scratch_dir,
              SpanLog& span_log)
      : spec(workload),
        stream(inputs),
        log(span_log),
        params(api::to_occupancy_params(SensorModel{})),
        tree(0.2, params),
        octree(tree),
        planner(octree.coder()),
        generator(octree.coder()),
        deduper(spec.deduplicate ? map::InsertMode::kDiscretized : map::InsertMode::kRayByRay) {
    if (spec.backend == BackendKind::kTiledWorld) {
      world::TiledWorldConfig config;
      config.resolution = 0.2;
      config.params = params;
      config.tile_shift = spec.tile_shift;
      config.resident_byte_budget = spec.resident_byte_budget;
      config.directory = scratch_dir;
      tiles = std::make_unique<world::TiledWorldMap>(config);
    }
  }

  const WorkloadSpec& spec;
  const Stream& stream;
  SpanLog& log;
  map::OccupancyParams params;
  map::OccupancyOctree tree;
  map::OctreeBackend octree;
  map::RayBatchPlanner planner;
  map::RayUpdateGenerator generator;
  map::UpdateDeduper deduper;
  map::UpdateBatch batch;
  map::PhaseStats ray_stats;
  query::QueryService publisher;
  std::unique_ptr<world::TiledWorldMap> tiles;
  // Holding the last view keeps its tile snapshots alive for splicing, as
  // the facade's view service does.
  std::shared_ptr<const world::WorldQueryView> view;
  ReplayCounts counts;

  void scan(std::size_t i);
  /// The flush boundary after scan `i`.
  void epoch(std::size_t i);
  /// Ends the stream (the world is saved here) and reads the counters.
  ReplayCounts finish(uint64_t expected_hash);
};

void LayerReplay::scan(std::size_t i) {
  const std::size_t k = stream.index(i);
  const geom::PointCloud& cloud = stream.scans[k].points;
  const geom::Vec3d origin = stream.scans[k].pose.translation();
  ScopedSpan root(&log, "ledger.scan", i);
  {
    ScopedSpan span(&log, "map.prepare", i);
    planner.prepare(cloud, origin, -1.0);
  }
  batch.clear();
  deduper.begin_scan(batch);
  {
    // generate() prepares the scan again internally; the ledger charges
    // map.dda with generate minus the map.prepare span above.
    ScopedSpan span(&log, "map.generate", i);
    generator.generate(cloud, origin, -1.0, &ray_stats,
                       [&](const map::RaySegment& ray) { deduper.consume(ray); });
    if (!spec.deduplicate) deduper.finish_scan();
  }
  if (spec.deduplicate) {
    ScopedSpan span(&log, "map.dedup", i);
    deduper.finish_scan();
  }
  {
    ScopedSpan span(&log, "map.apply", i);
    octree.apply(batch);
  }
  counts.updates += batch.size();
  counts.scans++;
  if (tiles) {
    ScopedSpan span(&log, "world.apply", i);
    tiles->apply(batch);
  }
}

void LayerReplay::epoch(std::size_t i) {
  counts.epochs++;
  if (tiles) {
    {
      ScopedSpan span(&log, "world.flush", i);
      tiles->flush();
    }
    ScopedSpan span(&log, "query.publish", i);
    view = tiles->capture_view();
  } else {
    ScopedSpan span(&log, "query.publish", i);
    publisher.refresh_from(octree);
  }
}

ReplayCounts LayerReplay::finish(uint64_t expected_hash) {
  uint64_t replay_hash = 0;
  if (tiles) {
    ScopedSpan span(&log, "world.save", counts.scans);
    tiles->save();
  }
  const map::PhaseStats& tree_stats = tree.stats();
  counts.voxel_updates = tree_stats.voxel_updates;
  counts.leaf_updates = tree_stats.leaf_updates;
  counts.prunes = tree_stats.prunes;
  if (tiles) {
    const world::WorldViewBuildStats vs = tiles->view_build_stats();
    counts.chunks_rebuilt = vs.tiles_spliced + vs.tiles_rebuilt;
    counts.bytes_rebuilt = static_cast<double>(vs.bytes_rebuilt);
    counts.bytes_reused = static_cast<double>(vs.bytes_reused);
    const world::TilePagerStats ps = tiles->pager_stats();
    counts.evictions = ps.evictions;
    counts.reloads = ps.reloads;
    counts.tile_writes = ps.tile_writes;
    replay_hash = tiles->content_hash();
  } else {
    const query::SnapshotPublishStats ps = publisher.publish_stats();
    counts.chunks_rebuilt = ps.chunks_rebuilt;
    counts.bytes_rebuilt = static_cast<double>(ps.bytes_rebuilt);
    counts.bytes_reused = static_cast<double>(ps.bytes_reused);
    replay_hash = tree.content_hash();
  }
  counts.maps_match = replay_hash == expected_hash;
  return counts;
}

}  // namespace

ReplayCounts& ReplayCounts::operator+=(const ReplayCounts& o) {
  passes += o.passes;
  scans += o.scans;
  epochs += o.epochs;
  updates += o.updates;
  voxel_updates += o.voxel_updates;
  leaf_updates += o.leaf_updates;
  prunes += o.prunes;
  chunks_rebuilt += o.chunks_rebuilt;
  bytes_rebuilt += o.bytes_rebuilt;
  bytes_reused += o.bytes_reused;
  evictions += o.evictions;
  reloads += o.reloads;
  tile_writes += o.tile_writes;
  maps_match = maps_match && o.maps_match;
  return *this;
}

ReplayCounts replay_stream(const WorkloadSpec& spec, const Stream& stream,
                           const std::string& scratch_dir, uint64_t expected_hash, SpanLog& log) {
  const bool service_ok = !spec.service || replay_service_side(spec, stream, expected_hash, log);
  ReplayCounts counts;
  {
    LayerReplay replay(spec, stream, scratch_dir, log);
    for (std::size_t i = 0; i < stream.length; ++i) {
      replay.scan(i);
      if ((i + 1) % spec.flush_every == 0 || i + 1 == stream.length) replay.epoch(i);
    }
    counts = replay.finish(expected_hash);
  }
  counts.passes = 1;
  counts.maps_match = counts.maps_match && service_ok;
  return counts;
}

void record_delta_apply_spans(const ReceivedStream& received, SpanLog& log) {
  MemoryTransport transport(received.bytes);
  std::size_t read = 0;       // index of the next recorded read call
  std::size_t read_end = 0;   // stream offset after recorded read `read - 1`
  uint64_t events = 0;
  while (true) {
    const std::optional<service::Frame> frame = service::read_frame(transport);
    if (!frame) break;
    while (read < received.reads.size() && read_end < transport.position()) {
      read_end += received.reads[read++].bytes;
    }
    if (read_end != transport.position()) {
      throw std::runtime_error("recorded reads do not end on a frame boundary");
    }
    if (frame->type == static_cast<uint16_t>(service::MsgType::kDeltaEvent) &&
        read < received.reads.size()) {
      log.record("service.delta_apply", events++, received.reads[read - 1].end_ns,
                 received.reads[read].start_ns);
    }
  }
}

}  // namespace perfbench
