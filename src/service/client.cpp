#include "service/client.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace omu::service {

// ---- SubscriptionMirror ----------------------------------------------------

void SubscriptionMirror::apply(DeltaEvent event) {
  std::lock_guard lock(mutex_);
  if (event.baseline != 0) shards_.clear();
  for (const uint64_t key : event.removed_shards) shards_.erase(key);
  for (DeltaShard& shard : event.changed_shards) {
    shards_[shard.shard_key] = Shard{std::move(shard.leaves), std::nullopt};
  }
  epoch_ = event.epoch;
  ++events_;
  if (event.has_digest != 0) {
    ++digest_checks_;
    std::vector<ShardHash> hashes;
    hashes.reserve(shards_.size());
    for (auto& [key, shard] : shards_) {
      if (!shard.hash) shard.hash = shard_hash(shard.run);
      hashes.push_back(ShardHash{key, *shard.hash});
    }
    if (shard_digest(hashes) != event.shard_digest) ++mismatches_;
  }
}

uint64_t SubscriptionMirror::content_hash() const {
  std::lock_guard lock(mutex_);
  std::vector<map::LeafRecord> merged;
  for (const auto& [key, shard] : shards_) {
    merged.insert(merged.end(), shard.run.begin(), shard.run.end());
  }
  map::sort_canonical(merged);
  return map::hash_leaf_records(map::normalize_to_depth1(std::move(merged)));
}

uint64_t SubscriptionMirror::epoch() const {
  std::lock_guard lock(mutex_);
  return epoch_;
}

std::size_t SubscriptionMirror::shard_count() const {
  std::lock_guard lock(mutex_);
  return shards_.size();
}

std::size_t SubscriptionMirror::leaf_count() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, shard] : shards_) n += shard.run.size();
  return n;
}

uint64_t SubscriptionMirror::events_applied() const {
  std::lock_guard lock(mutex_);
  return events_;
}

uint64_t SubscriptionMirror::hash_mismatches() const {
  std::lock_guard lock(mutex_);
  return mismatches_;
}

bool SubscriptionMirror::converged() const {
  std::lock_guard lock(mutex_);
  return digest_checks_ > 0 && mismatches_ == 0;
}

// ---- ServiceClient ---------------------------------------------------------

ServiceClient::ServiceClient(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {}

ServiceClient::~ServiceClient() { shutdown(); }

void ServiceClient::shutdown() {
  if (transport_ != nullptr) transport_->shutdown();
}

void ServiceClient::on_event(const Frame& frame) {
  DeltaEvent event;
  WireReader r(frame.payload);
  event.decode(r);
  const auto it = mirrors_.find(event.subscription_id);
  if (it != mirrors_.end() && it->second != nullptr) it->second->apply(std::move(event));
}

omu::Result<Frame> ServiceClient::call(MsgType type, std::vector<uint8_t> payload) {
  std::lock_guard lock(mutex_);
  Frame request;
  request.type = request_type(type);
  request.request_id = next_request_id_++;
  request.payload = std::move(payload);
  try {
    write_frame(*transport_, request);
    while (true) {
      auto reply = read_frame(*transport_);
      if (!reply) {
        return omu::Status::io_error("service connection closed mid-call");
      }
      if (reply->type == static_cast<uint16_t>(MsgType::kDeltaEvent)) {
        on_event(*reply);
        continue;
      }
      if (reply->type == reply_type(type) && reply->request_id == request.request_id) {
        return std::move(*reply);
      }
      return omu::Status::internal(
          "out-of-order reply: type " + std::to_string(reply->type) + " request " +
          std::to_string(reply->request_id) + " while awaiting request " +
          std::to_string(request.request_id));
    }
  } catch (const WireError& e) {
    return omu::Status::io_error(e.what());
  }
}

namespace {

template <typename Request>
std::vector<uint8_t> encode_payload(const Request& request) {
  WireWriter w;
  request.encode(w);
  return w.take();
}

template <typename Reply>
omu::Status decode_reply(const omu::Result<Frame>& frame, Reply& reply) {
  if (!frame.ok()) return frame.status();
  try {
    WireReader r(frame->payload);
    reply.decode(r);
  } catch (const WireError& e) {
    return omu::Status::data_loss(e.what());
  }
  return omu::Status();
}

}  // namespace

omu::Result<std::string> ServiceClient::hello(const std::string& client_name) {
  HelloRequest request;
  request.client_name = client_name;
  HelloReply reply;
  auto status = decode_reply(call(MsgType::kHello, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  return reply.server_name;
}

omu::Result<uint64_t> ServiceClient::create(const SessionSpec& spec) {
  CreateRequest request;
  request.spec = spec;
  SessionReply reply;
  auto status = decode_reply(call(MsgType::kCreate, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  return reply.session_id;
}

omu::Result<uint64_t> ServiceClient::open(const std::string& tenant,
                                          const std::string& world_directory,
                                          uint64_t resident_byte_budget,
                                          const TenantQuota& quota) {
  OpenRequest request;
  request.tenant = tenant;
  request.world_directory = world_directory;
  request.resident_byte_budget = resident_byte_budget;
  request.quota = quota;
  SessionReply reply;
  auto status = decode_reply(call(MsgType::kOpen, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  return reply.session_id;
}

WireStatus ServiceClient::insert(uint64_t session_id, const omu::Vec3& origin,
                                 const std::vector<float>& xyz) {
  InsertRequest request;
  request.session_id = session_id;
  request.origin[0] = origin.x;
  request.origin[1] = origin.y;
  request.origin[2] = origin.z;
  request.xyz = xyz;
  StatusReply reply;
  auto status = decode_reply(call(MsgType::kInsert, encode_payload(request)), reply);
  if (!status.ok()) return WireStatus::from(status);
  return reply.status;
}

WireStatus ServiceClient::insert_retrying(uint64_t session_id, const omu::Vec3& origin,
                                          const std::vector<float>& xyz, int max_attempts) {
  WireStatus status;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    status = insert(session_id, origin, xyz);
    if (status.code != static_cast<uint16_t>(omu::StatusCode::kResourceExhausted)) {
      return status;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<uint32_t>(1, status.retry_after_ms)));
  }
  return status;
}

omu::Result<uint64_t> ServiceClient::flush(uint64_t session_id) {
  SessionRequest request;
  request.session_id = session_id;
  FlushReply reply;
  auto status = decode_reply(call(MsgType::kFlush, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  return reply.epoch;
}

omu::Result<std::vector<omu::Occupancy>> ServiceClient::query(
    uint64_t session_id, const std::vector<omu::Vec3>& positions) {
  QueryRequest request;
  request.session_id = session_id;
  request.positions.reserve(positions.size() * 3);
  for (const omu::Vec3& p : positions) {
    request.positions.push_back(p.x);
    request.positions.push_back(p.y);
    request.positions.push_back(p.z);
  }
  QueryReply reply;
  auto status = decode_reply(call(MsgType::kQuery, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  std::vector<omu::Occupancy> out;
  out.reserve(reply.occupancy.size());
  for (const uint8_t o : reply.occupancy) out.push_back(static_cast<omu::Occupancy>(o));
  return out;
}

omu::Result<omu::Occupancy> ServiceClient::classify(uint64_t session_id,
                                                    const omu::Vec3& position) {
  ClassifyRequest request;
  request.session_id = session_id;
  request.position[0] = position.x;
  request.position[1] = position.y;
  request.position[2] = position.z;
  ClassifyReply reply;
  auto status = decode_reply(call(MsgType::kClassify, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  return static_cast<omu::Occupancy>(reply.occupancy);
}

omu::Result<uint64_t> ServiceClient::content_hash(uint64_t session_id) {
  SessionRequest request;
  request.session_id = session_id;
  ContentHashReply reply;
  auto status = decode_reply(call(MsgType::kContentHash, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  return reply.content_hash;
}

omu::Status ServiceClient::save(uint64_t session_id, const std::string& path) {
  SaveRequest request;
  request.session_id = session_id;
  request.path = path;
  StatusReply reply;
  auto status = decode_reply(call(MsgType::kSave, encode_payload(request)), reply);
  if (!status.ok()) return status;
  return reply.status.to_status();
}

omu::Status ServiceClient::close_session(uint64_t session_id) {
  SessionRequest request;
  request.session_id = session_id;
  StatusReply reply;
  auto status = decode_reply(call(MsgType::kClose, encode_payload(request)), reply);
  if (!status.ok()) return status;
  return reply.status.to_status();
}

omu::Result<uint64_t> ServiceClient::subscribe(uint64_t session_id, SubscriptionMirror* mirror,
                                               bool include_hash) {
  SubscribeRequest request;
  request.session_id = session_id;
  request.include_hash = include_hash ? 1 : 0;
  SubscribeReply reply;
  // Register the mirror inside the RPC mutex scope of call()? call()
  // releases the mutex before we decode; the subscription's events cannot
  // arrive before its reply, and events are only drained inside call()
  // under the same mutex, so registering here — before any later call —
  // is race-free.
  auto status = decode_reply(call(MsgType::kSubscribe, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  {
    std::lock_guard lock(mutex_);
    mirrors_[reply.subscription_id] = mirror;
  }
  return reply.subscription_id;
}

omu::Status ServiceClient::unsubscribe(uint64_t session_id, uint64_t subscription_id) {
  UnsubscribeRequest request;
  request.session_id = session_id;
  request.subscription_id = subscription_id;
  StatusReply reply;
  auto status = decode_reply(call(MsgType::kUnsubscribe, encode_payload(request)), reply);
  {
    std::lock_guard lock(mutex_);
    mirrors_.erase(subscription_id);
  }
  if (!status.ok()) return status;
  return reply.status.to_status();
}

omu::Result<std::string> ServiceClient::metrics() {
  MetricsRequest request;
  MetricsReply reply;
  auto status = decode_reply(call(MsgType::kMetrics, encode_payload(request)), reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status.to_status();
  return reply.prometheus_text;
}

}  // namespace omu::service
