// ServiceClient — the synchronous RPC client of the map service, plus
// SubscriptionMirror, a client-side replica maintained from streamed
// delta events.
//
// A client owns one Transport (socket or loopback) and speaks the wire
// protocol request/reply discipline; server-initiated delta events can
// arrive between a request and its reply (the service sends an epoch's
// deltas before the flush reply that produced them), so the reply loop
// dispatches every event to its registered mirror before returning. One
// ServiceClient serializes its RPCs on an internal mutex — share one
// across threads or use one per thread, both work.
//
// SubscriptionMirror applies delta events: a baseline resets it, changed
// shards replace their leaf runs wholesale, removed shards drop. A shard
// is one depth-13 Morton block, or one tile in a world whose tiles are
// smaller than that (messages.hpp), but the mirror never reads
// meaning into shard keys: it only stores runs under them. Each shard
// keeps its shard_hash() next to its run, so checking an event's shard
// digest hashes only the blocks that event carried: digest equality
// proves the mirror holds exactly the published blocks, at O(changed)
// cost per epoch. content_hash() is the library's canonical
// whole-map formula (normalize_to_depth1 + hash_leaf_records over the
// sorted merged run), computed on demand: mirror content_hash() == the
// session's kContentHash RPC proves the mirror equals the backend — the
// subscription suite asserts both every epoch, including across forced
// tile eviction/reload on the server.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "map/occupancy_octree.hpp"
#include "omu/status.hpp"
#include "omu/types.hpp"
#include "service/messages.hpp"
#include "service/transport.hpp"

namespace omu::service {

/// A client-side replica of one subscribed session, built purely from
/// streamed DeltaEvents. Internally synchronized (apply vs. readers).
class SubscriptionMirror {
 public:
  /// Applies one event (baseline resets; changed shards' runs move in;
  /// removed shards drop). When the event carries a shard digest, checks
  /// it against the mirror's own and counts a mismatch if they differ.
  void apply(DeltaEvent event);

  /// Canonical content hash of the mirrored map — comparable with
  /// Mapper::content_hash() of the publishing session. O(map).
  uint64_t content_hash() const;

  uint64_t epoch() const;
  std::size_t shard_count() const;
  std::size_t leaf_count() const;
  uint64_t events_applied() const;
  /// Epochs whose attached shard digest did not match the mirror's.
  uint64_t hash_mismatches() const;
  /// True when at least one digest-carrying event arrived and none mismatched.
  bool converged() const;

 private:
  struct Shard {
    std::vector<map::LeafRecord> run;
    std::optional<uint64_t> hash;  ///< shard_hash(run), once a digest needed it
  };

  mutable std::mutex mutex_;
  std::map<uint64_t, Shard> shards_;
  uint64_t epoch_ = 0;
  uint64_t events_ = 0;
  uint64_t digest_checks_ = 0;
  uint64_t mismatches_ = 0;
};

/// Synchronous RPC client over one transport.
class ServiceClient {
 public:
  explicit ServiceClient(std::unique_ptr<Transport> transport);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Protocol handshake; returns the server's name.
  omu::Result<std::string> hello(const std::string& client_name = "omu-client");

  omu::Result<uint64_t> create(const SessionSpec& spec);
  omu::Result<uint64_t> open(const std::string& tenant, const std::string& world_directory,
                             uint64_t resident_byte_budget = 0,
                             const TenantQuota& quota = TenantQuota{});

  /// One insert RPC. The full WireStatus is returned so callers see the
  /// retry_after_ms hint on admission rejections.
  WireStatus insert(uint64_t session_id, const omu::Vec3& origin,
                    const std::vector<float>& xyz);

  /// insert() with retry-after-backoff on kResourceExhausted rejections —
  /// the well-behaved tenant loop. Gives up after `max_attempts`.
  WireStatus insert_retrying(uint64_t session_id, const omu::Vec3& origin,
                             const std::vector<float>& xyz, int max_attempts = 1000);

  /// Flush barrier; returns the session's delta epoch. Any subscription
  /// events for the epoch are applied to their mirrors before this
  /// returns (the server sends them before the reply).
  omu::Result<uint64_t> flush(uint64_t session_id);

  omu::Result<std::vector<omu::Occupancy>> query(uint64_t session_id,
                                                 const std::vector<omu::Vec3>& positions);
  omu::Result<omu::Occupancy> classify(uint64_t session_id, const omu::Vec3& position);
  omu::Result<uint64_t> content_hash(uint64_t session_id);

  /// Empty path = world save() into its directory; else save_map(path).
  omu::Status save(uint64_t session_id, const std::string& path = "");
  omu::Status close_session(uint64_t session_id);

  /// Subscribes `mirror` to the session's delta stream; the baseline
  /// event arrives with the next RPC's reply loop (subscribe with a
  /// following flush() to force it through immediately).
  omu::Result<uint64_t> subscribe(uint64_t session_id, SubscriptionMirror* mirror,
                                  bool include_hash = true);
  omu::Status unsubscribe(uint64_t session_id, uint64_t subscription_id);

  /// The service's /metrics Prometheus exposition over RPC.
  omu::Result<std::string> metrics();

  /// Shuts the transport down; subsequent RPCs fail with kIoError.
  void shutdown();

 private:
  /// Sends one request and reads to its reply, dispatching any delta
  /// events encountered on the way.
  omu::Result<Frame> call(MsgType type, std::vector<uint8_t> payload);

  void on_event(const Frame& frame);

  std::mutex mutex_;  ///< serializes whole RPCs (and guards mirrors_)
  std::unique_ptr<Transport> transport_;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, SubscriptionMirror*> mirrors_;  ///< by subscription id
};

}  // namespace omu::service
