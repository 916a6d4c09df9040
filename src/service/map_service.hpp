// MapService — the multi-tenant map host: N concurrent Mapper sessions
// behind the wire protocol, one shared paging budget, admission control,
// delta subscriptions and fleet telemetry.
//
// Architecture (one box per layer):
//
//   Listener (unix / tcp / loopback)
//     └─ accept loop ──> Connection (thread + send mutex) per client
//           └─ frames ──> dispatch ──> Session (mutex + omu::Mapper)
//                                        ├─ admission control (quotas)
//                                        ├─ world::BudgetArbiter (shared
//                                        │    resident-byte budget across
//                                        │    every world-backed session)
//                                        └─ subscribers (delta events)
//
// Concurrency model: each connection has a reader thread; a request is
// handled on its connection's thread under the target session's mutex, so
// one session's operations serialize (the Mapper contract) while distinct
// sessions proceed in parallel. Replies and subscription events to one
// connection serialize on that connection's send mutex; delta events for
// an epoch are sent before the flush reply that produced them, so a
// client that flushes then queries its mirror observes a converged state.
//
// Admission control (per insert, cheapest check first):
//   - max_points_per_insert  -> kInvalidArgument (never retryable);
//   - max_points_per_sec     -> token bucket with one second of burst;
//     violations are kResourceExhausted with retry_after_ms telling the
//     tenant when the bucket will have refilled enough;
//   - max_resident_bytes     -> the tenant's world-backed sessions' bytes
//     (from the arbiter's accounting) must fit its quota.
// Rejections never tear down the connection or the session: the client
// retries after retry_after_ms and the stream continues.
//
// Telemetry: the service keeps its own obs::Telemetry ("service.*"
// metrics — sessions, admissions, rejections by cause, subscription lag,
// delta bytes). metrics_prometheus() concatenates that export with
// per-tenant and fleet rollups of every live session's telemetry (see
// telemetry_rollup.hpp); MetricsHttpServer serves it as /metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "omu/mapper.hpp"
#include "service/messages.hpp"
#include "service/transport.hpp"
#include "world/budget_arbiter.hpp"

namespace omu::service {

struct ServiceConfig {
  std::string name = "omu-map-service";
  /// Directory under which a session's relative world_directory resolves
  /// (empty = world directories must be absolute or cwd-relative).
  std::string world_root;
  /// Shared resident-byte budget across every world-backed session
  /// (0 = unbounded). Enforced by the BudgetArbiter grower-pays policy.
  std::size_t shared_resident_byte_budget = 0;
  /// Concurrent open sessions (0 = unlimited); violations reject creates
  /// with kResourceExhausted.
  std::size_t max_sessions = 0;
  /// The retry hint attached to back-pressure and byte-quota rejections
  /// (rate rejections compute their own from the token deficit).
  uint32_t retry_after_ms = 50;
  /// The service's own telemetry (the "service.*" metric group).
  obs::TelemetryConfig telemetry;
};

/// The session host. Construct, then serve(listener) on a caller thread
/// or start(listener) for a background accept loop; stop() (or the
/// destructor) closes every connection and session.
class MapService {
 public:
  explicit MapService(ServiceConfig config = ServiceConfig{});
  ~MapService();

  MapService(const MapService&) = delete;
  MapService& operator=(const MapService&) = delete;

  const ServiceConfig& config() const { return cfg_; }

  /// Accepts and serves connections until the listener closes (blocking).
  /// May be called from several threads with several listeners.
  void serve(Listener& listener);

  /// Background accept loop over `listener`; returns immediately. The
  /// listener is closed by stop().
  void start(std::shared_ptr<Listener> listener);

  /// Closes listeners started with start(), shuts every connection down,
  /// joins connection threads and closes every session. Idempotent.
  void stop();

  // ---- Introspection / metrics -------------------------------------------

  std::size_t session_count() const;

  /// The /metrics exposition: the service's own "service.*" metrics under
  /// omu_service_*, per-tenant rollups under omu_tenant_*{tenant="..."}
  /// and the fleet rollup under omu_fleet_*.
  std::string metrics_prometheus() const;

  /// The fleet rollup (every live session's telemetry merged).
  omu::TelemetrySnapshot fleet_telemetry() const;

  /// The shared-budget arbiter (tests inspect totals and per-participant
  /// accounting through it).
  const world::BudgetArbiter& budget_arbiter() const { return arbiter_; }

 private:
  struct Connection;
  struct Subscriber;
  struct Session;
  struct PublishedUnit;

  /// Reader loop of one connection: frames in, dispatch, reply.
  void connection_loop(std::shared_ptr<Connection> conn);

  /// Dispatches one request frame on the connection's thread.
  void dispatch(const std::shared_ptr<Connection>& conn, const Frame& frame);

  // Per-RPC handlers (encode the reply payload; dispatch frames it).
  void handle_create(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_open(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_insert(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_flush(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_query(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_classify(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_content_hash(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_save(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_close(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_subscribe(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_unsubscribe(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_metrics(const std::shared_ptr<Connection>& conn, const Frame& frame);

  /// Registers a freshly created Mapper as a session (admission-checked).
  void register_session(const std::shared_ptr<Connection>& conn, const Frame& frame,
                        const std::string& tenant, const TenantQuota& quota,
                        omu::Result<omu::Mapper> mapper);

  /// Admission control for one insert; OK or the rejection to send.
  WireStatus admit_insert(Session& session, std::size_t points);

  /// Publishes the current epoch's delta to every subscriber of `session`
  /// (caller holds the session mutex). Returns the session's delta epoch.
  uint64_t broadcast_deltas(Session& session);

  /// Locks the session registry and returns the session, or nullptr.
  std::shared_ptr<Session> find_session(uint64_t id) const;

  /// Sum of arbiter-accounted resident bytes across `tenant`'s sessions.
  std::size_t tenant_resident_bytes(const std::string& tenant) const;

  ServiceConfig cfg_;
  world::BudgetArbiter arbiter_;
  obs::Telemetry telemetry_;

  mutable std::mutex sessions_mutex_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  uint64_t next_subscription_id_ = 1;

  std::mutex lifecycle_mutex_;
  std::vector<std::shared_ptr<Listener>> listeners_;
  std::vector<std::thread> accept_threads_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> connection_threads_;
  bool stopped_ = false;

  // service.* metric handles (resolved once in the ctor).
  obs::Counter* sessions_created_ = nullptr;
  obs::Counter* sessions_closed_ = nullptr;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* admitted_inserts_ = nullptr;
  obs::Counter* rejected_rate_ = nullptr;
  obs::Counter* rejected_bytes_ = nullptr;
  obs::Counter* rejected_invalid_ = nullptr;
  obs::Counter* rejected_sessions_ = nullptr;
  obs::Counter* delta_events_ = nullptr;
  obs::Counter* delta_bytes_ = nullptr;
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Gauge* connections_gauge_ = nullptr;
  obs::Gauge* subscriptions_gauge_ = nullptr;
  obs::Gauge* subscription_lag_ = nullptr;
  obs::Gauge* shared_budget_gauge_ = nullptr;
  obs::Gauge* shared_resident_gauge_ = nullptr;
  obs::Histogram* request_ns_ = nullptr;
  obs::Histogram* delta_publish_ns_ = nullptr;
};

}  // namespace omu::service
