#include "service/messages.hpp"

#include "io/framing.hpp"

namespace omu::service {

namespace {

/// Leaf runs cross the wire as (3 x u16 key, u8 depth, f32 log-odds)
/// records — the float's exact bit pattern, so content hashes computed
/// from a mirror match the publisher's bit for bit.
void encode_leaves(WireWriter& w, std::span<const map::LeafRecord> leaves) {
  w.u32(static_cast<uint32_t>(leaves.size()));
  for (const map::LeafRecord& leaf : leaves) {
    w.u16(leaf.key[0]);
    w.u16(leaf.key[1]);
    w.u16(leaf.key[2]);
    w.u8(static_cast<uint8_t>(leaf.depth));
    w.f32(leaf.log_odds);
  }
}

std::vector<map::LeafRecord> decode_leaves(WireReader& r) {
  const uint32_t count = r.u32();
  // Reject counts the payload cannot hold before allocating.
  if (static_cast<std::size_t>(count) * kLeafRecordWireBytes > r.remaining()) {
    throw WireError("leaf run length exceeds payload");
  }
  std::vector<map::LeafRecord> leaves(count);
  for (map::LeafRecord& leaf : leaves) {
    leaf.key[0] = r.u16();
    leaf.key[1] = r.u16();
    leaf.key[2] = r.u16();
    leaf.depth = r.u8();
    leaf.log_odds = r.f32();
  }
  return leaves;
}

}  // namespace

// ---- WireStatus ----------------------------------------------------------

omu::Status WireStatus::to_status() const {
  if (ok()) return omu::Status();
  return omu::Status(static_cast<omu::StatusCode>(code), message);
}

WireStatus WireStatus::from(const omu::Status& status, uint32_t retry_after_ms) {
  WireStatus ws;
  ws.code = static_cast<uint16_t>(status.code());
  ws.message = status.message();
  ws.retry_after_ms = retry_after_ms;
  return ws;
}

void WireStatus::encode(WireWriter& w) const {
  w.u16(code);
  w.u32(retry_after_ms);
  w.str(message);
}

void WireStatus::decode(WireReader& r) {
  code = r.u16();
  retry_after_ms = r.u32();
  message = r.str();
}

// ---- TenantQuota ---------------------------------------------------------

void TenantQuota::encode(WireWriter& w) const {
  w.u64(max_resident_bytes);
  w.u64(max_points_per_sec);
  w.u64(max_points_per_insert);
}

void TenantQuota::decode(WireReader& r) {
  max_resident_bytes = r.u64();
  max_points_per_sec = r.u64();
  max_points_per_insert = r.u64();
}

// ---- SessionSpec ---------------------------------------------------------

omu::MapperConfig SessionSpec::to_config() const {
  omu::SensorModel model;
  model.log_hit = log_hit;
  model.log_miss = log_miss;
  model.clamp_min = clamp_min;
  model.clamp_max = clamp_max;
  model.occ_threshold = occ_threshold;
  model.quantized = quantized != 0;
  model.max_range = max_range;
  model.deduplicate = deduplicate != 0;

  omu::TelemetryOptions tel;
  tel.metrics = telemetry_metrics != 0;
  tel.journal = telemetry_journal != 0;

  const auto kind = static_cast<omu::BackendKind>(backend);
  const auto back = static_cast<omu::BackendKind>(hybrid_back_backend);
  const omu::BackendKind effective = kind == omu::BackendKind::kHybrid ? back : kind;

  omu::MapperConfig config;
  config.resolution(resolution).backend(kind).sensor_model(model).telemetry(tel);
  // validate() rejects options groups for engines this session does not
  // run, so only the effective backend's group is set.
  if (effective == omu::BackendKind::kTiledWorld) {
    config.world({.directory = world_directory,
                  .resident_byte_budget = static_cast<std::size_t>(world_resident_byte_budget),
                  .tile_shift = static_cast<int>(tile_shift)});
  }
  if (kind == omu::BackendKind::kHybrid) {
    config.hybrid({.window_voxels = hybrid_window_voxels,
                   .flush_high_water = static_cast<std::size_t>(hybrid_flush_high_water),
                   .back_backend = back});
  }
  return config;
}

SessionSpec SessionSpec::from_config(const omu::MapperConfig& config) {
  SessionSpec spec;
  spec.backend = static_cast<uint8_t>(config.backend());
  spec.resolution = config.resolution();
  const omu::SensorModel& model = config.sensor_model();
  spec.log_hit = model.log_hit;
  spec.log_miss = model.log_miss;
  spec.clamp_min = model.clamp_min;
  spec.clamp_max = model.clamp_max;
  spec.occ_threshold = model.occ_threshold;
  spec.quantized = model.quantized ? 1 : 0;
  spec.max_range = model.max_range;
  spec.deduplicate = model.deduplicate ? 1 : 0;
  spec.world_directory = config.world().directory;
  spec.world_resident_byte_budget = config.world().resident_byte_budget;
  spec.tile_shift = static_cast<uint32_t>(config.world().tile_shift);
  spec.hybrid_window_voxels = config.hybrid().window_voxels;
  spec.hybrid_flush_high_water = config.hybrid().flush_high_water;
  spec.hybrid_back_backend = static_cast<uint8_t>(config.hybrid().back_backend);
  spec.telemetry_metrics = config.telemetry().metrics ? 1 : 0;
  spec.telemetry_journal = config.telemetry().journal ? 1 : 0;
  return spec;
}

void SessionSpec::encode(WireWriter& w) const {
  w.str(tenant);
  w.u8(backend);
  w.f64(resolution);
  w.f32(log_hit);
  w.f32(log_miss);
  w.f32(clamp_min);
  w.f32(clamp_max);
  w.f32(occ_threshold);
  w.u8(quantized);
  w.f64(max_range);
  w.u8(deduplicate);
  w.str(world_directory);
  w.u64(world_resident_byte_budget);
  w.u32(tile_shift);
  w.u32(hybrid_window_voxels);
  w.u64(hybrid_flush_high_water);
  w.u8(hybrid_back_backend);
  w.u8(telemetry_metrics);
  w.u8(telemetry_journal);
  quota.encode(w);
}

void SessionSpec::decode(WireReader& r) {
  tenant = r.str();
  backend = r.u8();
  resolution = r.f64();
  log_hit = r.f32();
  log_miss = r.f32();
  clamp_min = r.f32();
  clamp_max = r.f32();
  occ_threshold = r.f32();
  quantized = r.u8();
  max_range = r.f64();
  deduplicate = r.u8();
  world_directory = r.str();
  world_resident_byte_budget = r.u64();
  tile_shift = r.u32();
  hybrid_window_voxels = r.u32();
  hybrid_flush_high_water = r.u64();
  hybrid_back_backend = r.u8();
  telemetry_metrics = r.u8();
  telemetry_journal = r.u8();
  quota.decode(r);
}

// ---- Simple request/reply payloads --------------------------------------

void HelloRequest::encode(WireWriter& w) const { w.str(client_name); }
void HelloRequest::decode(WireReader& r) { client_name = r.str(); }

void HelloReply::encode(WireWriter& w) const {
  status.encode(w);
  w.str(server_name);
  w.u16(protocol_version);
}
void HelloReply::decode(WireReader& r) {
  status.decode(r);
  server_name = r.str();
  protocol_version = r.u16();
}

void CreateRequest::encode(WireWriter& w) const { spec.encode(w); }
void CreateRequest::decode(WireReader& r) { spec.decode(r); }

void OpenRequest::encode(WireWriter& w) const {
  w.str(tenant);
  w.str(world_directory);
  w.u64(resident_byte_budget);
  quota.encode(w);
}
void OpenRequest::decode(WireReader& r) {
  tenant = r.str();
  world_directory = r.str();
  resident_byte_budget = r.u64();
  quota.decode(r);
}

void SessionReply::encode(WireWriter& w) const {
  status.encode(w);
  w.u64(session_id);
}
void SessionReply::decode(WireReader& r) {
  status.decode(r);
  session_id = r.u64();
}

void InsertRequest::encode(WireWriter& w) const {
  w.u64(session_id);
  w.f64(origin[0]);
  w.f64(origin[1]);
  w.f64(origin[2]);
  w.u32(static_cast<uint32_t>(xyz.size()));
  for (float v : xyz) w.f32(v);
}
void InsertRequest::decode(WireReader& r) {
  session_id = r.u64();
  origin[0] = r.f64();
  origin[1] = r.f64();
  origin[2] = r.f64();
  const uint32_t count = r.u32();
  if (static_cast<std::size_t>(count) * 4 > r.remaining()) {
    throw WireError("insert payload length exceeds frame");
  }
  if (count % 3 != 0) {
    throw WireError("insert payload is not xyz triples");
  }
  xyz.resize(count);
  for (float& v : xyz) v = r.f32();
}

void StatusReply::encode(WireWriter& w) const { status.encode(w); }
void StatusReply::decode(WireReader& r) { status.decode(r); }

void FlushReply::encode(WireWriter& w) const {
  status.encode(w);
  w.u64(epoch);
}
void FlushReply::decode(WireReader& r) {
  status.decode(r);
  epoch = r.u64();
}

void QueryRequest::encode(WireWriter& w) const {
  w.u64(session_id);
  w.u32(static_cast<uint32_t>(positions.size()));
  for (double v : positions) w.f64(v);
}
void QueryRequest::decode(WireReader& r) {
  session_id = r.u64();
  const uint32_t count = r.u32();
  if (static_cast<std::size_t>(count) * 8 > r.remaining()) {
    throw WireError("query payload length exceeds frame");
  }
  if (count % 3 != 0) {
    throw WireError("query payload is not xyz triples");
  }
  positions.resize(count);
  for (double& v : positions) v = r.f64();
}

void QueryReply::encode(WireWriter& w) const {
  status.encode(w);
  w.u32(static_cast<uint32_t>(occupancy.size()));
  w.raw(occupancy.data(), occupancy.size());
}
void QueryReply::decode(WireReader& r) {
  status.decode(r);
  const uint32_t count = r.u32();
  const uint8_t* p = r.take(count);
  occupancy.assign(p, p + count);
}

void ClassifyRequest::encode(WireWriter& w) const {
  w.u64(session_id);
  w.f64(position[0]);
  w.f64(position[1]);
  w.f64(position[2]);
}
void ClassifyRequest::decode(WireReader& r) {
  session_id = r.u64();
  position[0] = r.f64();
  position[1] = r.f64();
  position[2] = r.f64();
}

void ClassifyReply::encode(WireWriter& w) const {
  status.encode(w);
  w.u8(occupancy);
}
void ClassifyReply::decode(WireReader& r) {
  status.decode(r);
  occupancy = r.u8();
}

void SessionRequest::encode(WireWriter& w) const { w.u64(session_id); }
void SessionRequest::decode(WireReader& r) { session_id = r.u64(); }

void ContentHashReply::encode(WireWriter& w) const {
  status.encode(w);
  w.u64(content_hash);
}
void ContentHashReply::decode(WireReader& r) {
  status.decode(r);
  content_hash = r.u64();
}

void SaveRequest::encode(WireWriter& w) const {
  w.u64(session_id);
  w.str(path);
}
void SaveRequest::decode(WireReader& r) {
  session_id = r.u64();
  path = r.str();
}

void SubscribeRequest::encode(WireWriter& w) const {
  w.u64(session_id);
  w.u8(include_hash);
}
void SubscribeRequest::decode(WireReader& r) {
  session_id = r.u64();
  include_hash = r.u8();
}

void SubscribeReply::encode(WireWriter& w) const {
  status.encode(w);
  w.u64(subscription_id);
}
void SubscribeReply::decode(WireReader& r) {
  status.decode(r);
  subscription_id = r.u64();
}

void UnsubscribeRequest::encode(WireWriter& w) const {
  w.u64(session_id);
  w.u64(subscription_id);
}
void UnsubscribeRequest::decode(WireReader& r) {
  session_id = r.u64();
  subscription_id = r.u64();
}

void MetricsRequest::encode(WireWriter&) const {}
void MetricsRequest::decode(WireReader&) {}

void MetricsReply::encode(WireWriter& w) const {
  status.encode(w);
  w.str(prometheus_text);
}
void MetricsReply::decode(WireReader& r) {
  status.decode(r);
  prometheus_text = r.str();
}

// ---- DeltaEvent ----------------------------------------------------------

uint64_t shard_hash(std::span<const map::LeafRecord> run) { return map::hash_leaf_records(run); }

uint64_t shard_digest(std::span<const ShardHash> shards) {
  uint64_t h = io::kFnv1aOffsetBasis;
  for (const ShardHash& shard : shards) {
    h = io::fnv1a_mix_u64(h, shard.shard_key);
    h = io::fnv1a_mix_u64(h, shard.hash);
  }
  return h;
}

void DeltaEvent::encode(WireWriter& w) const {
  std::vector<BlockSlice> changed;
  changed.reserve(changed_shards.size());
  for (const DeltaShard& shard : changed_shards) {
    changed.push_back(BlockSlice{shard.shard_key, shard.leaves});
  }
  encode_delta_event(w, *this, changed);
}

void encode_delta_event(WireWriter& w, const DeltaEvent& event,
                        std::span<const BlockSlice> changed) {
  w.u64(event.session_id);
  w.u64(event.subscription_id);
  w.u64(event.epoch);
  w.u8(event.baseline);
  w.u8(event.has_digest);
  w.u64(event.shard_digest);
  w.u32(static_cast<uint32_t>(event.removed_shards.size()));
  for (uint64_t key : event.removed_shards) w.u64(key);
  w.u32(static_cast<uint32_t>(changed.size()));
  for (const BlockSlice& block : changed) {
    w.u64(block.key);
    encode_leaves(w, block.leaves);
  }
}

void DeltaEvent::decode(WireReader& r) {
  session_id = r.u64();
  subscription_id = r.u64();
  epoch = r.u64();
  baseline = r.u8();
  has_digest = r.u8();
  shard_digest = r.u64();
  const uint32_t removed_count = r.u32();
  if (static_cast<std::size_t>(removed_count) * 8 > r.remaining()) {
    throw WireError("delta removed-shard run exceeds payload");
  }
  removed_shards.resize(removed_count);
  for (uint64_t& key : removed_shards) key = r.u64();
  const uint32_t changed_count = r.u32();
  changed_shards.clear();
  changed_shards.reserve(changed_count);
  for (uint32_t i = 0; i < changed_count; ++i) {
    DeltaShard shard;
    shard.shard_key = r.u64();
    shard.leaves = decode_leaves(r);
    changed_shards.push_back(std::move(shard));
  }
}

}  // namespace omu::service
