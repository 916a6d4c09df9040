// Typed RPC messages of the map service protocol.
//
// Each RPC has a request struct and a reply struct with symmetric
// encode(WireWriter&)/decode(WireReader&) methods; the request's frame
// type comes from MsgType and the reply echoes it with kReplyBit set.
// Every reply starts with a WireStatus — the wire form of omu::Status
// plus a retry_after_ms hint, which is how admission control tells an
// over-quota tenant to back off (StatusCode::kResourceExhausted with a
// nonzero retry hint) without tearing down the connection.
//
// Delta subscription frames (MsgType::kDeltaEvent) are server-initiated
// events, request_id 0. A shard is one depth-kBlockDepth Morton block
// (8^3 voxels; one tile in a world of smaller tiles), keyed by
// block_key(): each event carries the leaf runs of the blocks whose
// leaves changed since the last published epoch, the keys of blocks that
// vanished and, optionally, the shard digest of every
// published block (shard_digest() below) so a mirror can prove it holds
// exactly the published blocks every epoch. A baseline carries every
// block. The digest costs O(changed) on both ends; the canonical
// whole-map content hash is the on-demand kContentHash RPC. A run is in
// Morton (DFS) order, the order the snapshot chunks hold it in; a reader
// that needs canonical order sorts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geom/kernels/key_kernels.hpp"
#include "map/ockey.hpp"
#include "map/occupancy_octree.hpp"
#include "omu/config.hpp"
#include "omu/status.hpp"
#include "omu/types.hpp"
#include "service/wire.hpp"

namespace omu::service {

enum class MsgType : uint16_t {
  kHello = 1,
  kCreate = 2,
  kOpen = 3,
  kInsert = 4,
  kFlush = 5,
  kQuery = 6,
  kClassify = 7,
  kContentHash = 8,
  kSave = 9,
  kClose = 10,
  kSubscribe = 11,
  kUnsubscribe = 12,
  kMetrics = 13,
  /// Server-initiated subscription delta (an event, never a reply).
  kDeltaEvent = 100,
};

inline uint16_t request_type(MsgType t) { return static_cast<uint16_t>(t); }
inline uint16_t reply_type(MsgType t) { return static_cast<uint16_t>(t) | kReplyBit; }

/// Wire form of omu::Status plus the admission-control retry hint.
struct WireStatus {
  uint16_t code = 0;  ///< omu::StatusCode
  uint32_t retry_after_ms = 0;
  std::string message;

  bool ok() const { return code == 0; }
  omu::Status to_status() const;
  static WireStatus from(const omu::Status& status, uint32_t retry_after_ms = 0);

  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

/// Per-tenant admission quotas (0 = unlimited).
struct TenantQuota {
  /// Resident paged bytes this tenant may hold across its world-backed
  /// sessions (enforced against the shared-budget arbiter's accounting).
  uint64_t max_resident_bytes = 0;
  /// Sustained insert rate in points/s (token bucket, 1 s of burst).
  uint64_t max_points_per_sec = 0;
  /// Largest single insert in points (violations are kInvalidArgument —
  /// a request that can never succeed is not retryable).
  uint64_t max_points_per_insert = 0;

  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

/// Everything needed to build a session's MapperConfig server-side.
struct SessionSpec {
  std::string tenant = "default";
  uint8_t backend = 0;  ///< omu::BackendKind
  double resolution = 0.2;

  // Sensor model (omu::SensorModel fields).
  float log_hit = 0.85f;
  float log_miss = -0.4f;
  float clamp_min = -2.0f;
  float clamp_max = 3.5f;
  float occ_threshold = 0.0f;
  uint8_t quantized = 1;
  double max_range = -1.0;
  uint8_t deduplicate = 0;

  std::string world_directory;
  uint64_t world_resident_byte_budget = 0;
  uint32_t tile_shift = 12;

  uint8_t telemetry_metrics = 1;
  uint8_t telemetry_journal = 0;

  TenantQuota quota;

  omu::MapperConfig to_config() const;
  static SessionSpec from_config(const omu::MapperConfig& config);

  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct HelloRequest {
  std::string client_name;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct HelloReply {
  WireStatus status;
  std::string server_name;
  uint16_t protocol_version = kWireVersion;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct CreateRequest {
  SessionSpec spec;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

/// Reopen a saved world directory as a session (Mapper::open).
struct OpenRequest {
  std::string tenant = "default";
  std::string world_directory;
  uint64_t resident_byte_budget = 0;
  TenantQuota quota;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct SessionReply {
  WireStatus status;
  uint64_t session_id = 0;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct InsertRequest {
  uint64_t session_id = 0;
  double origin[3] = {0, 0, 0};
  /// Packed xyz float triples, bit-exact across the wire.
  std::vector<float> xyz;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct StatusReply {
  WireStatus status;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct FlushReply {
  WireStatus status;
  uint64_t epoch = 0;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

/// Batch classification against the last published snapshot/view.
struct QueryRequest {
  uint64_t session_id = 0;
  std::vector<double> positions;  ///< packed xyz triples
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct QueryReply {
  WireStatus status;
  std::vector<uint8_t> occupancy;  ///< omu::Occupancy per position
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

/// Single-point classification against the live backend.
struct ClassifyRequest {
  uint64_t session_id = 0;
  double position[3] = {0, 0, 0};
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct ClassifyReply {
  WireStatus status;
  uint8_t occupancy = 0;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct SessionRequest {  // flush / content-hash / close / unsubscribe target
  uint64_t session_id = 0;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct ContentHashReply {
  WireStatus status;
  uint64_t content_hash = 0;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct SaveRequest {
  uint64_t session_id = 0;
  /// Empty = world save() into its directory; otherwise save_map(path).
  std::string path;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct SubscribeRequest {
  uint64_t session_id = 0;
  /// Ask the publisher to attach the shard digest to every delta (costs
  /// hashing each changed block once, on both ends). A publisher with no
  /// digest subscriber hashes nothing; the first one to ask makes it hash
  /// every published block once.
  uint8_t include_hash = 1;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct SubscribeReply {
  WireStatus status;
  uint64_t subscription_id = 0;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct UnsubscribeRequest {
  uint64_t session_id = 0;
  uint64_t subscription_id = 0;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct MetricsRequest {
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

struct MetricsReply {
  WireStatus status;
  std::string prometheus_text;
  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

/// Wire bytes of one leaf record in a delta run: 3 x u16 key, u8 depth,
/// f32 log-odds. A run is a u32 count followed by that many records.
inline constexpr std::size_t kLeafRecordWireBytes = 11;

/// Depth of the Morton block that is one subscription shard: a depth-13
/// block is 8^3 voxels, the leaf size of an OpenVDB grid. The one
/// exception is a world whose tiles are smaller than a block (tile_shift
/// below kTreeDepth - kBlockDepth): there a shard is one tile root, at
/// the grid's tile depth, so a shard never spans tiles.
inline constexpr int kBlockDepth = 13;

/// The shard key of the depth-`depth` block holding `key`: its Morton code
/// with the in-block bits dropped. A leaf coarser than `depth` belongs to
/// the block of its own (aligned) key.
constexpr uint64_t block_key(const map::OcKey& key, int depth = kBlockDepth) {
  return geom::kernels::morton48(key[0], key[1], key[2]) >> (3 * (map::kTreeDepth - depth));
}

/// Calls fn(block_key, slice) once per depth-`depth` block of a
/// Morton-ordered run, in ascending key order. Block keys never decrease
/// along such a run, so each block is one contiguous slice and the split
/// is one linear pass.
template <typename Fn>
void for_each_block(std::span<const map::LeafRecord> run, int depth, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < run.size()) {
    const uint64_t key = block_key(run[begin].key, depth);
    std::size_t end = begin + 1;
    while (end < run.size() && block_key(run[end].key, depth) == key) ++end;
    fn(key, run.subspan(begin, end - begin));
    begin = end;
  }
}

template <typename Fn>
void for_each_block(std::span<const map::LeafRecord> run, Fn&& fn) {
  for_each_block(run, kBlockDepth, std::forward<Fn>(fn));
}

/// One changed shard in a delta: a block key and the block's leaf run, in
/// Morton order.
struct DeltaShard {
  uint64_t shard_key = 0;
  std::vector<map::LeafRecord> leaves;
};

/// A block of a published run, borrowed rather than copied: what the
/// publisher encodes as a DeltaShard (see encode_delta_event).
struct BlockSlice {
  uint64_t key = 0;
  std::span<const map::LeafRecord> leaves;
};

/// A published block's key and its shard_hash().
struct ShardHash {
  uint64_t shard_key = 0;
  uint64_t hash = 0;
};

/// A shard's hash: map::hash_leaf_records over the exact run a delta
/// carries for it (hashed in place, so a block slice needs no copy).
uint64_t shard_hash(std::span<const map::LeafRecord> run);

/// The subscription convergence digest: FNV-1a (io::fnv1a_mix_u64) over
/// each (shard_key, hash) pair, in ascending shard-key order, across every
/// shard currently published. Publisher and mirror both compute it here.
uint64_t shard_digest(std::span<const ShardHash> shards);

/// A subscription delta event (server -> client, request_id 0).
struct DeltaEvent {
  uint64_t session_id = 0;
  uint64_t subscription_id = 0;
  uint64_t epoch = 0;
  /// First event of a subscription: the mirror must reset before applying.
  uint8_t baseline = 0;
  uint8_t has_digest = 0;
  /// shard_digest() of the published state this event brings a mirror to.
  uint64_t shard_digest = 0;
  std::vector<uint64_t> removed_shards;
  std::vector<DeltaShard> changed_shards;

  void encode(WireWriter& w) const;
  void decode(WireReader& r);
};

/// Encodes `event` with `changed` standing in for its changed_shards (which
/// are ignored): the same bytes DeltaEvent::encode writes when
/// changed_shards holds copies of those slices.
void encode_delta_event(WireWriter& w, const DeltaEvent& event,
                        std::span<const BlockSlice> changed);

}  // namespace omu::service
