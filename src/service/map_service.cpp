#include "service/map_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ranges>
#include <span>
#include <sstream>
#include <utility>

#include "geom/kernels/key_kernels.hpp"
#include "map/occupancy_octree.hpp"
#include "query/map_snapshot.hpp"
#include "query/query_service.hpp"
#include "service/telemetry_rollup.hpp"
#include "world/tiled_world_map.hpp"
#include "world/world_query_view.hpp"

namespace omu::service {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Sends one frame under the connection's send mutex; a failed send marks
/// the connection dead (its reader loop tears it down). Templated so the
/// private Connection type never needs naming here.
template <typename Conn>
bool send_frame_to(Conn& conn, const Frame& frame) {
  if (!conn.alive.load(std::memory_order_relaxed)) return false;
  try {
    std::lock_guard lock(conn.send_mutex);
    write_frame(*conn.transport, frame);
    return true;
  } catch (const WireError&) {
    conn.alive.store(false, std::memory_order_relaxed);
    return false;
  }
}

template <typename Conn, typename Reply>
void send_reply(Conn& conn, uint16_t request_type_raw, uint64_t request_id, const Reply& reply) {
  Frame frame;
  frame.type = static_cast<uint16_t>(request_type_raw | kReplyBit);
  frame.request_id = request_id;
  WireWriter w;
  reply.encode(w);
  frame.payload = w.take();
  send_frame_to(conn, frame);
}

}  // namespace

// ---- Private aggregates ----------------------------------------------------

struct MapService::Connection {
  std::unique_ptr<Transport> transport;
  std::mutex send_mutex;  ///< serializes replies and delta events
  std::atomic<bool> alive{true};
};

/// A subscriber either waits for its baseline or holds exactly the
/// session's last published state, which every delta is taken against.
struct MapService::Subscriber {
  uint64_t id = 0;
  std::shared_ptr<Connection> conn;
  bool include_hash = true;
  bool baseline_sent = false;
  uint64_t last_epoch = 0;
};

/// One published unit of a session — a snapshot chunk or a tile — and its
/// leaf run in Morton order. Holding the identity pins the chunk / tile
/// snapshot, so pointer identity across epochs is exact (no allocator
/// ABA) and the run stays valid to diff the next epoch against.
struct MapService::PublishedUnit {
  std::shared_ptr<const void> identity;
  /// Aliases the chunk that owns the run, or owns a Morton-sorted copy.
  std::shared_ptr<const std::vector<map::LeafRecord>> run;
};

struct MapService::Session {
  uint64_t id = 0;
  std::string tenant;
  std::mutex mutex;  ///< serializes every operation on the Mapper
  std::optional<omu::Mapper> mapper;
  TenantQuota quota;

  // Insert-rate token bucket (primed to a full second of burst).
  double tokens = 0.0;
  std::chrono::steady_clock::time_point last_refill{};
  bool bucket_primed = false;

  // Delta-publication state: the epoch counter (it advances only when a
  // unit's identity changes), the units of the last published state and,
  // while some subscriber wants the digest (`hashed`), the shard_hash() of
  // every block in it, by block key.
  uint64_t epoch = 0;
  std::map<uint64_t, PublishedUnit> last_units;
  std::map<uint64_t, uint64_t> block_hashes;
  bool hashed = false;
  std::vector<Subscriber> subscribers;
};

// ---- Lifecycle -------------------------------------------------------------

MapService::MapService(ServiceConfig config)
    : cfg_(std::move(config)),
      arbiter_(cfg_.shared_resident_byte_budget),
      telemetry_(cfg_.telemetry) {
  sessions_created_ = telemetry_.counter("service.sessions_created");
  sessions_closed_ = telemetry_.counter("service.sessions_closed");
  connections_accepted_ = telemetry_.counter("service.connections_accepted");
  requests_ = telemetry_.counter("service.requests");
  admitted_inserts_ = telemetry_.counter("service.inserts_admitted");
  rejected_rate_ = telemetry_.counter("service.inserts_rejected_rate");
  rejected_bytes_ = telemetry_.counter("service.inserts_rejected_bytes");
  rejected_invalid_ = telemetry_.counter("service.inserts_rejected_invalid");
  rejected_sessions_ = telemetry_.counter("service.sessions_rejected");
  delta_events_ = telemetry_.counter("service.delta_events");
  delta_bytes_ = telemetry_.counter("service.delta_bytes");
  sessions_gauge_ = telemetry_.gauge("service.sessions");
  connections_gauge_ = telemetry_.gauge("service.connections");
  subscriptions_gauge_ = telemetry_.gauge("service.subscriptions");
  subscription_lag_ = telemetry_.gauge("service.subscription_lag_epochs");
  shared_budget_gauge_ = telemetry_.gauge("service.shared_budget_bytes");
  shared_resident_gauge_ = telemetry_.gauge("service.shared_resident_bytes");
  request_ns_ = telemetry_.histogram("service.request_ns");
  delta_publish_ns_ = telemetry_.histogram("service.delta_publish_ns");
  if (shared_budget_gauge_ != nullptr) {
    shared_budget_gauge_->set(static_cast<int64_t>(cfg_.shared_resident_byte_budget));
  }
}

MapService::~MapService() { stop(); }

void MapService::serve(Listener& listener) {
  while (auto transport = listener.accept()) {
    auto conn = std::make_shared<Connection>();
    conn->transport = std::move(transport);
    connections_accepted_->add();
    if (connections_gauge_ != nullptr) connections_gauge_->add(1);
    std::lock_guard lock(lifecycle_mutex_);
    if (stopped_) {
      conn->transport->shutdown();
      if (connections_gauge_ != nullptr) connections_gauge_->add(-1);
      return;
    }
    connections_.push_back(conn);
    connection_threads_.emplace_back(&MapService::connection_loop, this, conn);
  }
}

void MapService::start(std::shared_ptr<Listener> listener) {
  std::lock_guard lock(lifecycle_mutex_);
  if (stopped_) return;
  listeners_.push_back(listener);
  accept_threads_.emplace_back([this, listener] { serve(*listener); });
}

void MapService::stop() {
  std::vector<std::shared_ptr<Listener>> listeners;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> accept_threads;
  std::vector<std::thread> connection_threads;
  {
    std::lock_guard lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
    listeners.swap(listeners_);
    connections.swap(connections_);
    accept_threads.swap(accept_threads_);
    connection_threads.swap(connection_threads_);
  }
  for (auto& listener : listeners) listener->close();
  for (auto& conn : connections) {
    conn->alive.store(false, std::memory_order_relaxed);
    conn->transport->shutdown();
  }
  for (auto& thread : accept_threads) thread.join();
  for (auto& thread : connection_threads) thread.join();

  std::map<uint64_t, std::shared_ptr<Session>> sessions;
  {
    std::lock_guard lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& [id, session] : sessions) {
    std::lock_guard lock(session->mutex);
    session->subscribers.clear();
    if (session->mapper && session->mapper->is_open()) session->mapper->close();
    session->mapper.reset();
  }
}

// ---- Connection handling ---------------------------------------------------

void MapService::connection_loop(std::shared_ptr<Connection> conn) {
  try {
    while (conn->alive.load(std::memory_order_relaxed)) {
      auto frame = read_frame(*conn->transport);
      if (!frame) break;  // clean close between frames
      dispatch(conn, *frame);
    }
  } catch (const WireError&) {
    // Torn stream or protocol violation: drop the connection; sessions
    // survive and stay reachable from other connections.
  }
  conn->alive.store(false, std::memory_order_relaxed);
  conn->transport->shutdown();
  if (connections_gauge_ != nullptr) connections_gauge_->add(-1);

  // Reap this connection's subscriptions across every session.
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard lock(sessions_mutex_);
    sessions.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (auto& session : sessions) {
    std::lock_guard lock(session->mutex);
    auto& subs = session->subscribers;
    const std::size_t before = subs.size();
    subs.erase(std::remove_if(subs.begin(), subs.end(),
                              [&](const Subscriber& s) { return s.conn == conn; }),
               subs.end());
    if (subscriptions_gauge_ != nullptr && before != subs.size()) {
      subscriptions_gauge_->add(-static_cast<int64_t>(before - subs.size()));
    }
  }
}

void MapService::dispatch(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  requests_->add();
  const uint64_t t0 = request_ns_ != nullptr ? now_ns() : 0;
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kHello: {
      HelloRequest req;
      WireReader r(frame.payload);
      req.decode(r);
      HelloReply reply;
      reply.server_name = cfg_.name;
      reply.protocol_version = kWireVersion;
      send_reply(*conn, frame.type, frame.request_id, reply);
      break;
    }
    case MsgType::kCreate: handle_create(conn, frame); break;
    case MsgType::kOpen: handle_open(conn, frame); break;
    case MsgType::kInsert: handle_insert(conn, frame); break;
    case MsgType::kFlush: handle_flush(conn, frame); break;
    case MsgType::kQuery: handle_query(conn, frame); break;
    case MsgType::kClassify: handle_classify(conn, frame); break;
    case MsgType::kContentHash: handle_content_hash(conn, frame); break;
    case MsgType::kSave: handle_save(conn, frame); break;
    case MsgType::kClose: handle_close(conn, frame); break;
    case MsgType::kSubscribe: handle_subscribe(conn, frame); break;
    case MsgType::kUnsubscribe: handle_unsubscribe(conn, frame); break;
    case MsgType::kMetrics: handle_metrics(conn, frame); break;
    default:
      throw WireError("unknown request type " + std::to_string(frame.type));
  }
  if (request_ns_ != nullptr) request_ns_->record(now_ns() - t0);
}

// ---- Session creation ------------------------------------------------------

namespace {

/// Resolves a session's world directory against the service's world root.
std::string resolve_world_directory(const std::string& directory, const std::string& root) {
  if (directory.empty() || root.empty() || directory.front() == '/') return directory;
  return root + "/" + directory;
}

}  // namespace

void MapService::handle_create(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  CreateRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  omu::MapperConfig config = req.spec.to_config();
  const bool world_backed =
      config.backend() == omu::BackendKind::kTiledWorld ||
      (config.backend() == omu::BackendKind::kHybrid &&
       config.hybrid().back_backend == omu::BackendKind::kTiledWorld);
  if (world_backed) {
    omu::WorldOptions world = config.world();
    world.directory = resolve_world_directory(world.directory, cfg_.world_root);
    if (world.directory.empty() && cfg_.shared_resident_byte_budget > 0) {
      SessionReply reply;
      reply.status = WireStatus::from(omu::Status::invalid_argument(
          "a service with a shared paging budget requires world sessions to "
          "name a world directory (evicted tiles must have somewhere to go)"));
      send_reply(*conn, frame.type, frame.request_id, reply);
      return;
    }
    config.world(world);
  }
  register_session(conn, frame, req.spec.tenant, req.spec.quota, omu::Mapper::create(config));
}

void MapService::handle_open(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  OpenRequest req;
  WireReader r(frame.payload);
  req.decode(r);
  const std::string directory = resolve_world_directory(req.world_directory, cfg_.world_root);
  register_session(conn, frame, req.tenant, req.quota,
                   omu::Mapper::open(directory, req.resident_byte_budget));
}

void MapService::register_session(const std::shared_ptr<Connection>& conn, const Frame& frame,
                                  const std::string& tenant, const TenantQuota& quota,
                                  omu::Result<omu::Mapper> mapper) {
  SessionReply reply;
  if (cfg_.max_sessions > 0 && session_count() >= cfg_.max_sessions) {
    rejected_sessions_->add();
    reply.status = WireStatus::from(
        omu::Status::resource_exhausted("session limit reached (" +
                                        std::to_string(cfg_.max_sessions) +
                                        " open); close a session and retry"),
        cfg_.retry_after_ms);
    send_reply(*conn, frame.type, frame.request_id, reply);
    return;
  }
  if (!mapper.ok()) {
    reply.status = WireStatus::from(mapper.status());
    send_reply(*conn, frame.type, frame.request_id, reply);
    return;
  }

  auto session = std::make_shared<Session>();
  session->tenant = tenant;
  session->quota = quota;
  session->mapper.emplace(std::move(mapper).value());
  {
    std::lock_guard lock(sessions_mutex_);
    session->id = next_session_id_++;
  }
  if (world::TiledWorldMap* world = session->mapper->internal_world()) {
    // Join the shared paging budget whenever there is something to govern
    // or account: a service-wide cap, or a tenant byte quota.
    const std::string& directory = session->mapper->config().world().directory;
    if (!directory.empty() &&
        (cfg_.shared_resident_byte_budget > 0 || quota.max_resident_bytes > 0)) {
      world->attach_budget_arbiter(&arbiter_,
                                   tenant + "#" + std::to_string(session->id));
    }
  }
  {
    std::lock_guard lock(sessions_mutex_);
    sessions_.emplace(session->id, session);
  }
  sessions_created_->add();
  if (sessions_gauge_ != nullptr) sessions_gauge_->add(1);

  reply.session_id = session->id;
  send_reply(*conn, frame.type, frame.request_id, reply);
}

// ---- Admission control -----------------------------------------------------

WireStatus MapService::admit_insert(Session& session, std::size_t points) {
  const TenantQuota& quota = session.quota;
  if (quota.max_points_per_insert > 0 && points > quota.max_points_per_insert) {
    rejected_invalid_->add();
    return WireStatus::from(omu::Status::invalid_argument(
        "insert of " + std::to_string(points) + " points exceeds tenant '" + session.tenant +
        "' max_points_per_insert (" + std::to_string(quota.max_points_per_insert) +
        "); split the scan"));
  }
  if (quota.max_points_per_sec > 0) {
    if (points > quota.max_points_per_sec) {
      // Larger than the bucket itself: no amount of waiting admits it.
      rejected_invalid_->add();
      return WireStatus::from(omu::Status::invalid_argument(
          "insert of " + std::to_string(points) + " points can never be admitted at " +
          std::to_string(quota.max_points_per_sec) +
          " points/s (burst capacity is one second); split the scan"));
    }
    const double rate = static_cast<double>(quota.max_points_per_sec);
    const auto now = std::chrono::steady_clock::now();
    if (!session.bucket_primed) {
      session.bucket_primed = true;
      session.tokens = rate;  // one second of burst
      session.last_refill = now;
    }
    const double elapsed =
        std::chrono::duration<double>(now - session.last_refill).count();
    session.tokens = std::min(rate, session.tokens + elapsed * rate);
    session.last_refill = now;
    if (static_cast<double>(points) > session.tokens) {
      rejected_rate_->add();
      const double deficit = static_cast<double>(points) - session.tokens;
      const auto retry_ms =
          static_cast<uint32_t>(std::max(1.0, std::ceil(deficit / rate * 1000.0)));
      return WireStatus::from(
          omu::Status::resource_exhausted(
              "tenant '" + session.tenant + "' is over its insert rate (" +
              std::to_string(quota.max_points_per_sec) + " points/s); retry after " +
              std::to_string(retry_ms) + " ms"),
          retry_ms);
    }
    session.tokens -= static_cast<double>(points);
  }
  if (quota.max_resident_bytes > 0) {
    const std::size_t resident = tenant_resident_bytes(session.tenant);
    if (resident > quota.max_resident_bytes) {
      rejected_bytes_->add();
      return WireStatus::from(
          omu::Status::resource_exhausted(
              "tenant '" + session.tenant + "' holds " + std::to_string(resident) +
              " resident bytes, over its quota of " +
              std::to_string(quota.max_resident_bytes) + "; retry after eviction"),
          cfg_.retry_after_ms);
    }
  }
  admitted_inserts_->add();
  return WireStatus{};
}

std::size_t MapService::tenant_resident_bytes(const std::string& tenant) const {
  std::size_t bytes = 0;
  for (const auto& [name, resident] : arbiter_.participants()) {
    const std::size_t sep = name.rfind('#');
    if (sep != std::string::npos && name.compare(0, sep, tenant) == 0 && sep == tenant.size()) {
      bytes += resident;
    }
  }
  return bytes;
}

// ---- Data-plane RPCs -------------------------------------------------------

std::shared_ptr<MapService::Session> MapService::find_session(uint64_t id) const {
  std::lock_guard lock(sessions_mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

namespace {

omu::Status no_session(uint64_t id) {
  return omu::Status::not_found("no session " + std::to_string(id));
}

}  // namespace

void MapService::handle_insert(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  InsertRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  StatusReply reply;
  if (auto session = find_session(req.session_id)) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) {
      reply.status = WireStatus::from(omu::Status::failed_precondition("session is closed"));
    } else {
      const std::size_t points = req.xyz.size() / 3;
      reply.status = admit_insert(*session, points);
      if (reply.status.ok()) {
        const omu::Vec3 origin{req.origin[0], req.origin[1], req.origin[2]};
        reply.status = WireStatus::from(
            session->mapper->insert(req.xyz.data(), points, origin));
      }
    }
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

void MapService::handle_flush(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  SessionRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  FlushReply reply;
  if (auto session = find_session(req.session_id)) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) {
      reply.status = WireStatus::from(omu::Status::failed_precondition("session is closed"));
    } else {
      reply.status = WireStatus::from(session->mapper->flush());
      if (reply.status.ok()) {
        // Delta events go out before this reply: a client that flushes
        // then inspects its mirror observes the converged epoch.
        reply.epoch = broadcast_deltas(*session);
      }
    }
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

void MapService::handle_query(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  QueryRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  QueryReply reply;
  if (auto session = find_session(req.session_id)) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) {
      reply.status = WireStatus::from(omu::Status::failed_precondition("session is closed"));
    } else {
      auto view = session->mapper->snapshot();
      if (!view.ok()) {
        reply.status = WireStatus::from(view.status());
      } else {
        const std::size_t count = req.positions.size() / 3;
        reply.occupancy.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
          const omu::Vec3 position{req.positions[3 * i], req.positions[3 * i + 1],
                                   req.positions[3 * i + 2]};
          reply.occupancy[i] = static_cast<uint8_t>(view->classify(position));
        }
      }
    }
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

void MapService::handle_classify(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  ClassifyRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  ClassifyReply reply;
  if (auto session = find_session(req.session_id)) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) {
      reply.status = WireStatus::from(omu::Status::failed_precondition("session is closed"));
    } else {
      auto result = session->mapper->classify(
          omu::Vec3{req.position[0], req.position[1], req.position[2]});
      if (result.ok()) {
        reply.occupancy = static_cast<uint8_t>(*result);
      } else {
        reply.status = WireStatus::from(result.status());
      }
    }
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

void MapService::handle_content_hash(const std::shared_ptr<Connection>& conn,
                                     const Frame& frame) {
  SessionRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  ContentHashReply reply;
  if (auto session = find_session(req.session_id)) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) {
      reply.status = WireStatus::from(omu::Status::failed_precondition("session is closed"));
    } else {
      auto result = session->mapper->content_hash();
      if (result.ok()) {
        reply.content_hash = *result;
      } else {
        reply.status = WireStatus::from(result.status());
      }
    }
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

void MapService::handle_save(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  SaveRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  StatusReply reply;
  if (auto session = find_session(req.session_id)) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) {
      reply.status = WireStatus::from(omu::Status::failed_precondition("session is closed"));
    } else if (req.path.empty()) {
      reply.status = WireStatus::from(session->mapper->save());
    } else {
      reply.status = WireStatus::from(session->mapper->save_map(req.path));
    }
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

void MapService::handle_close(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  SessionRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  std::shared_ptr<Session> session;
  {
    std::lock_guard lock(sessions_mutex_);
    const auto it = sessions_.find(req.session_id);
    if (it != sessions_.end()) {
      session = it->second;
      sessions_.erase(it);
    }
  }
  StatusReply reply;
  if (session) {
    std::lock_guard lock(session->mutex);
    if (subscriptions_gauge_ != nullptr && !session->subscribers.empty()) {
      subscriptions_gauge_->add(-static_cast<int64_t>(session->subscribers.size()));
    }
    session->subscribers.clear();
    reply.status = WireStatus::from(
        session->mapper ? session->mapper->close()
                        : omu::Status::failed_precondition("session is closed"));
    session->mapper.reset();  // TiledWorldMap's destructor leaves the arbiter
    sessions_closed_->add();
    if (sessions_gauge_ != nullptr) sessions_gauge_->add(-1);
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

// ---- Delta subscriptions ---------------------------------------------------

void MapService::handle_subscribe(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  SubscribeRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  SubscribeReply reply;
  std::shared_ptr<Session> session = find_session(req.session_id);
  if (!session) {
    reply.status = WireStatus::from(no_session(req.session_id));
    send_reply(*conn, frame.type, frame.request_id, reply);
    return;
  }
  std::lock_guard lock(session->mutex);
  if (!session->mapper || !session->mapper->is_open()) {
    reply.status = WireStatus::from(omu::Status::failed_precondition("session is closed"));
    send_reply(*conn, frame.type, frame.request_id, reply);
    return;
  }
  Subscriber sub;
  {
    std::lock_guard id_lock(sessions_mutex_);
    sub.id = next_subscription_id_++;
  }
  sub.conn = conn;
  sub.include_hash = req.include_hash != 0;
  session->subscribers.push_back(std::move(sub));
  if (subscriptions_gauge_ != nullptr) subscriptions_gauge_->add(1);

  reply.subscription_id = session->subscribers.back().id;
  send_reply(*conn, frame.type, frame.request_id, reply);
  // Baseline right behind the reply (same send mutex, so the client sees
  // the reply first): flush so the baseline is current, then publish.
  if (session->mapper->flush().ok()) broadcast_deltas(*session);
}

void MapService::handle_unsubscribe(const std::shared_ptr<Connection>& conn,
                                    const Frame& frame) {
  UnsubscribeRequest req;
  WireReader r(frame.payload);
  req.decode(r);

  StatusReply reply;
  if (auto session = find_session(req.session_id)) {
    std::lock_guard lock(session->mutex);
    auto& subs = session->subscribers;
    const auto it = std::find_if(subs.begin(), subs.end(), [&](const Subscriber& s) {
      return s.id == req.subscription_id;
    });
    if (it != subs.end()) {
      subs.erase(it);
      if (subscriptions_gauge_ != nullptr) subscriptions_gauge_->add(-1);
    } else {
      reply.status = WireStatus::from(omu::Status::not_found(
          "no subscription " + std::to_string(req.subscription_id)));
    }
  } else {
    reply.status = WireStatus::from(no_session(req.session_id));
  }
  send_reply(*conn, frame.type, frame.request_id, reply);
}

namespace {

using LeafRun = std::span<const map::LeafRecord>;

/// A run sorted into Morton order (Morton code, then depth).
std::vector<map::LeafRecord> morton_sorted(std::vector<map::LeafRecord> run) {
  const auto morton = [](const map::LeafRecord& leaf) {
    return geom::kernels::morton48(leaf.key[0], leaf.key[1], leaf.key[2]);
  };
  std::sort(run.begin(), run.end(), [&](const map::LeafRecord& a, const map::LeafRecord& b) {
    const uint64_t ma = morton(a);
    const uint64_t mb = morton(b);
    return ma != mb ? ma < mb : a.depth < b.depth;
  });
  return run;
}

/// Diffs one unit's previous run against its new run, depth-`depth` block
/// by block: new blocks and blocks whose leaves differ go to `changed`,
/// the keys of vanished blocks to `removed`. Both runs are Morton-ordered,
/// so both block sequences ascend and one merge pass pairs them.
void diff_blocks(LeafRun before, LeafRun after, int depth, std::vector<BlockSlice>& changed,
                 std::vector<uint64_t>& removed) {
  std::vector<BlockSlice> old_blocks;
  for_each_block(before, depth, [&](uint64_t key, LeafRun leaves) {
    old_blocks.push_back(BlockSlice{key, leaves});
  });
  std::size_t i = 0;
  for_each_block(after, depth, [&](uint64_t key, LeafRun leaves) {
    while (i < old_blocks.size() && old_blocks[i].key < key) removed.push_back(old_blocks[i++].key);
    if (i < old_blocks.size() && old_blocks[i].key == key) {
      const bool same = std::ranges::equal(old_blocks[i++].leaves, leaves);
      if (same) return;
    }
    changed.push_back(BlockSlice{key, leaves});
  });
  for (; i < old_blocks.size(); ++i) removed.push_back(old_blocks[i].key);
}

}  // namespace

uint64_t MapService::broadcast_deltas(Session& session) {
  if (session.subscribers.empty()) return session.epoch;
  const uint64_t t0 = delta_publish_ns_ != nullptr ? now_ns() : 0;

  // The published units: snapshot chunks by branch index, or tiles by
  // TileId. Either way the run keeps global keys, and a shard never spans
  // units, so block keys never collide across units: a tile smaller than
  // a depth-kBlockDepth block is sharded by its own root instead.
  std::map<uint64_t, PublishedUnit> current;
  int depth = kBlockDepth;
  if (world::TiledWorldMap* world = session.mapper->internal_world()) {
    depth = std::max(kBlockDepth, world->grid().tile_depth());
    const auto view = world->capture_view();
    for (const world::TileId id : view->tile_ids()) {
      auto tile = view->tile_snapshot(id);
      if (tile == nullptr || tile->empty()) continue;
      const auto last = session.last_units.find(id);
      if (last != session.last_units.end() && last->second.identity == tile) {
        current.emplace(id, last->second);
        continue;
      }
      // A tile of tile_shift < kTreeDepth lies inside one first-level
      // branch, so its one chunk run is the tile's leaves in Morton order:
      // no flat copy is built. The one tile of tile_shift == kTreeDepth
      // spans every branch; its leaves are Morton-sorted here, a copy and
      // sort of the whole map each epoch that changes it.
      std::shared_ptr<const std::vector<map::LeafRecord>> run;
      int chunks = 0;
      for (int branch = 0; branch < 8; ++branch) {
        if (const auto chunk = tile->branch_chunk(branch)) {
          run = std::shared_ptr<const std::vector<map::LeafRecord>>(chunk, &chunk->leaves());
          ++chunks;
        }
      }
      if (chunks != 1) {
        run = std::make_shared<const std::vector<map::LeafRecord>>(morton_sorted(tile->leaves()));
      }
      current.emplace(id, PublishedUnit{std::move(tile), std::move(run)});
    }
  } else if (query::QueryService* qs = session.mapper->internal_query_service()) {
    const auto snapshot = qs->snapshot();
    if (snapshot != nullptr) {
      for (int branch = 0; branch < 8; ++branch) {
        auto chunk = snapshot->branch_chunk(branch);
        if (chunk == nullptr || chunk->leaves().empty()) continue;
        std::shared_ptr<const std::vector<map::LeafRecord>> run(chunk, &chunk->leaves());
        current.emplace(static_cast<uint64_t>(branch),
                        PublishedUnit{std::move(chunk), std::move(run)});
      }
    }
  }

  // Only a unit whose identity changed is diffed, block by block, against
  // the run it replaces (pinned in last_units); the epoch advances only
  // when some identity changed.
  std::vector<BlockSlice> changed;
  std::vector<uint64_t> removed;
  bool state_changed = false;
  for (const auto& [key, unit] : current) {
    const auto last = session.last_units.find(key);
    if (last == session.last_units.end()) {
      diff_blocks({}, *unit.run, depth, changed, removed);
    } else if (last->second.identity != unit.identity) {
      diff_blocks(*last->second.run, *unit.run, depth, changed, removed);
    } else {
      continue;
    }
    state_changed = true;
  }
  for (const auto& [key, unit] : session.last_units) {
    if (current.contains(key)) continue;
    diff_blocks(*unit.run, {}, depth, changed, removed);
    state_changed = true;
  }
  if (state_changed) ++session.epoch;

  // While some subscriber wants the digest, the block table follows the
  // published state, so only changed blocks are hashed and the digest
  // costs O(changed) hashing. Without one nothing is hashed; the first
  // digest after such a stretch hashes every published block once.
  const bool want_digest =
      std::any_of(session.subscribers.begin(), session.subscribers.end(),
                  [](const Subscriber& s) { return s.include_hash; });
  uint64_t digest = 0;
  if (!want_digest) {
    session.block_hashes.clear();
    session.hashed = false;
  } else {
    if (session.hashed) {
      for (const uint64_t block : removed) session.block_hashes.erase(block);
      for (const BlockSlice& block : changed) {
        session.block_hashes[block.key] = shard_hash(block.leaves);
      }
    } else {
      for (const auto& [key, unit] : current) {
        for_each_block(*unit.run, depth, [&](uint64_t block, LeafRun leaves) {
          session.block_hashes[block] = shard_hash(leaves);
        });
      }
      session.hashed = true;
    }
    std::vector<ShardHash> hashes;
    hashes.reserve(session.block_hashes.size());
    for (const auto& [block, hash] : session.block_hashes) hashes.push_back(ShardHash{block, hash});
    digest = shard_digest(hashes);
  }

  std::vector<BlockSlice> every_block;  // a baseline's blocks, built on demand
  int64_t max_lag = 0;
  for (auto it = session.subscribers.begin(); it != session.subscribers.end();) {
    Subscriber& sub = *it;
    const bool baseline = !sub.baseline_sent;
    if (!baseline && !state_changed) {
      ++it;
      continue;  // this subscriber already holds this state
    }
    if (baseline && every_block.empty()) {
      for (const auto& [key, unit] : current) {
        for_each_block(*unit.run, depth, [&](uint64_t block, LeafRun leaves) {
          every_block.push_back(BlockSlice{block, leaves});
        });
      }
    }
    DeltaEvent event;
    event.session_id = session.id;
    event.subscription_id = sub.id;
    event.epoch = session.epoch;
    event.baseline = baseline ? 1 : 0;
    if (!baseline) event.removed_shards = removed;
    if (sub.include_hash) {
      event.has_digest = 1;
      event.shard_digest = digest;
    }
    max_lag = std::max(max_lag, static_cast<int64_t>(session.epoch - sub.last_epoch));

    Frame frame;
    frame.type = static_cast<uint16_t>(MsgType::kDeltaEvent);
    frame.request_id = 0;
    WireWriter w;
    encode_delta_event(w, event, baseline ? every_block : changed);
    frame.payload = w.take();
    const std::size_t frame_bytes = frame.payload.size() + kFrameHeaderBytes + 8;
    if (!send_frame_to(*sub.conn, frame)) {
      // Dead connection: drop the subscription; its reader loop reaps the
      // rest of that connection's subscriptions.
      if (subscriptions_gauge_ != nullptr) subscriptions_gauge_->add(-1);
      it = session.subscribers.erase(it);
      continue;
    }
    delta_events_->add();
    delta_bytes_->add(frame_bytes);
    sub.baseline_sent = true;
    sub.last_epoch = session.epoch;
    ++it;
  }
  session.last_units = std::move(current);

  if (subscription_lag_ != nullptr) subscription_lag_->set(max_lag);
  if (delta_publish_ns_ != nullptr) delta_publish_ns_->record(now_ns() - t0);
  return session.epoch;
}

// ---- Metrics ---------------------------------------------------------------

void MapService::handle_metrics(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  MetricsRequest req;
  WireReader r(frame.payload);
  req.decode(r);
  MetricsReply reply;
  reply.prometheus_text = metrics_prometheus();
  send_reply(*conn, frame.type, frame.request_id, reply);
}

std::size_t MapService::session_count() const {
  std::lock_guard lock(sessions_mutex_);
  return sessions_.size();
}

omu::TelemetrySnapshot MapService::fleet_telemetry() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard lock(sessions_mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  TelemetryRollup fleet;
  for (const auto& session : sessions) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) continue;
    auto telemetry = session->mapper->telemetry();
    if (telemetry.ok()) fleet.add(*telemetry);
  }
  return fleet.merged();
}

std::string MapService::metrics_prometheus() const {
  if (shared_resident_gauge_ != nullptr) {
    shared_resident_gauge_->set(static_cast<int64_t>(arbiter_.total_bytes()));
  }

  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard lock(sessions_mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }

  std::map<std::string, TelemetryRollup> tenants;
  TelemetryRollup fleet;
  for (const auto& session : sessions) {
    std::lock_guard lock(session->mutex);
    if (!session->mapper || !session->mapper->is_open()) continue;
    auto telemetry = session->mapper->telemetry();
    if (!telemetry.ok()) continue;
    tenants[session->tenant].add(*telemetry);
    fleet.add(*telemetry);
  }

  std::ostringstream os;
  os << snapshot_to_prometheus(telemetry_.snapshot(), "omu_");
  for (const auto& [tenant, rollup] : tenants) {
    os << snapshot_to_prometheus(rollup.merged(), "omu_tenant_", {{"tenant", tenant}});
  }
  os << snapshot_to_prometheus(fleet.merged(), "omu_fleet_");
  return os.str();
}

}  // namespace omu::service
