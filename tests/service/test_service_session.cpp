// The service's equivalence contract: a map built through omu_client-style
// RPCs over the loopback wire — octree, accelerator and tiled-world
// sessions — is bit-identical (content hash + query answers) to the same
// stream through the in-process omu::Mapper facade. Floats cross the wire
// as IEEE-754 bit patterns, so this must hold exactly, not approximately.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/wire.hpp"
#include "service_test_util.hpp"

namespace omu::service {
namespace {

using testing::LoopbackService;
using testing::TempDir;
using testing::make_sweep_scans;
using testing::replay_into;

/// Replays `scans` through an RPC session and asserts hash + query
/// equivalence against an in-process reference built from `reference_cfg`.
void expect_wire_equivalence(const SessionSpec& spec, omu::MapperConfig reference_cfg) {
  const auto scans = make_sweep_scans(/*stream=*/1, /*scans=*/16, /*points_per_scan=*/256);

  omu::Result<omu::Mapper> reference = omu::Mapper::create(reference_cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  ASSERT_TRUE(replay_into(*reference, scans).ok());

  LoopbackService host;
  ServiceClient client(host.connect());
  ASSERT_TRUE(client.hello().ok());
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok()) << session.status().to_string();

  int since_flush = 0;
  for (const auto& scan : scans) {
    const WireStatus status = client.insert(*session, scan.origin, scan.xyz);
    ASSERT_TRUE(status.ok()) << status.message;
    if (++since_flush == 4) {
      since_flush = 0;
      ASSERT_TRUE(client.flush(*session).ok());
    }
  }
  ASSERT_TRUE(client.flush(*session).ok());

  // Bit-identity: the canonical content hashes must match exactly.
  auto wire_hash = client.content_hash(*session);
  auto local_hash = reference->content_hash();
  ASSERT_TRUE(wire_hash.ok()) << wire_hash.status().to_string();
  ASSERT_TRUE(local_hash.ok());
  EXPECT_EQ(*wire_hash, *local_hash);

  // Query answers agree on a probe grid through the mapped volume.
  std::vector<omu::Vec3> probes;
  for (double x = -12.0; x <= 12.0; x += 2.4) {
    for (double y = -4.0; y <= 4.0; y += 1.6) {
      probes.push_back(omu::Vec3{x, y, 0.0});
    }
  }
  auto answers = client.query(*session, probes);
  ASSERT_TRUE(answers.ok()) << answers.status().to_string();
  ASSERT_EQ(answers->size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    auto expected = reference->classify(probes[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*answers)[i], *expected) << "probe " << i;
    auto live = client.classify(*session, probes[i]);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(*live, *expected) << "live probe " << i;
  }

  EXPECT_TRUE(client.close_session(*session).ok());
  EXPECT_EQ(host.service().session_count(), 0u);
}

TEST(ServiceSession, OctreeSessionMatchesInProcessFacade) {
  SessionSpec spec;
  spec.tenant = "octree";
  spec.resolution = 0.1;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  expect_wire_equivalence(spec, omu::MapperConfig().resolution(0.1));
}

TEST(ServiceSession, AcceleratorSessionMatchesInProcessFacade) {
  SessionSpec spec;
  spec.tenant = "accelerator";
  spec.resolution = 0.1;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kAccelerator);
  expect_wire_equivalence(
      spec, omu::MapperConfig().resolution(0.1).backend(omu::BackendKind::kAccelerator));
}

TEST(ServiceSession, TiledWorldSessionMatchesInProcessFacade) {
  TempDir wire_dir("svc_world_wire");
  TempDir ref_dir("svc_world_ref");
  SessionSpec spec;
  spec.tenant = "world";
  spec.resolution = 0.1;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kTiledWorld);
  spec.world_directory = wire_dir.path();
  spec.tile_shift = 6;
  expect_wire_equivalence(
      spec, omu::MapperConfig()
                .resolution(0.1)
                .backend(omu::BackendKind::kTiledWorld)
                .world({.directory = ref_dir.path(), .tile_shift = 6}));
}

TEST(ServiceSession, SavedWorldReopensThroughTheService) {
  TempDir dir("svc_world_reopen");
  const auto scans = make_sweep_scans(2, 12, 200);

  uint64_t original_hash = 0;
  {
    LoopbackService host;
    ServiceClient client(host.connect());
    SessionSpec spec;
    spec.tenant = "writer";
    spec.resolution = 0.1;
    spec.backend = static_cast<uint8_t>(omu::BackendKind::kTiledWorld);
    spec.world_directory = dir.path();
    spec.tile_shift = 6;
    auto session = client.create(spec);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    for (const auto& scan : scans) {
      ASSERT_TRUE(client.insert(*session, scan.origin, scan.xyz).ok());
    }
    ASSERT_TRUE(client.flush(*session).ok());
    auto hash = client.content_hash(*session);
    ASSERT_TRUE(hash.ok());
    original_hash = *hash;
    ASSERT_TRUE(client.save(*session).ok());
    ASSERT_TRUE(client.close_session(*session).ok());
  }

  LoopbackService host;
  ServiceClient client(host.connect());
  auto session = client.open("reader", dir.path());
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  auto hash = client.content_hash(*session);
  ASSERT_TRUE(hash.ok()) << hash.status().to_string();
  EXPECT_EQ(*hash, original_hash);
  ASSERT_TRUE(client.close_session(*session).ok());
}

TEST(ServiceSession, UnknownSessionIsNotFound) {
  LoopbackService host;
  ServiceClient client(host.connect());
  const WireStatus status = client.insert(999, omu::Vec3{0, 0, 0}, {1.0f, 0.0f, 0.0f});
  EXPECT_EQ(status.code, static_cast<uint16_t>(omu::StatusCode::kNotFound));
  EXPECT_EQ(client.flush(999).status().code(), omu::StatusCode::kNotFound);
  EXPECT_EQ(client.content_hash(999).status().code(), omu::StatusCode::kNotFound);
}

TEST(ServiceSession, InvalidConfigIsRejectedNotFatal) {
  LoopbackService host;
  ServiceClient client(host.connect());
  SessionSpec bad;
  bad.backend = static_cast<uint8_t>(omu::BackendKind::kTiledWorld);
  bad.tile_shift = 0;  // validate() rejects world.tile_shift = 0
  EXPECT_EQ(client.create(bad).status().code(), omu::StatusCode::kInvalidArgument);

  // The connection survives the rejection.
  SessionSpec good;
  good.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  auto session = client.create(good);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(client.close_session(*session).ok());
}

TEST(ServiceSession, UnknownBackendByteIsRejectedWhileOtherTenantsKeepServing) {
  LoopbackService host;
  const auto scans = make_sweep_scans(/*stream=*/3, /*scans=*/8, /*points_per_scan=*/128);

  // Tenant A: a healthy session on its own connection.
  ServiceClient healthy(host.connect());
  SessionSpec spec;
  spec.tenant = "healthy";
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  auto session = healthy.create(spec);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  ASSERT_TRUE(healthy.insert(*session, scans[0].origin, scans[0].xyz).ok());

  // Tenant B: raw create frames whose backend byte names no BackendKind —
  // 2 and 4 are the retired values, 9 was never assigned. Each gets an
  // error reply on a connection that stays open.
  std::unique_ptr<Transport> raw = host.connect();
  uint64_t request_id = 1;
  for (const uint8_t byte : {uint8_t{2}, uint8_t{4}, uint8_t{9}}) {
    CreateRequest request;
    request.spec.tenant = "malformed";
    request.spec.backend = byte;
    WireWriter w;
    request.encode(w);
    Frame frame;
    frame.type = request_type(MsgType::kCreate);
    frame.request_id = request_id;
    frame.payload = w.take();
    write_frame(*raw, frame);

    const std::optional<Frame> reply = read_frame(*raw);
    ASSERT_TRUE(reply.has_value()) << "server dropped the connection on byte " << int{byte};
    EXPECT_EQ(reply->type, reply_type(MsgType::kCreate));
    EXPECT_EQ(reply->request_id, request_id);
    SessionReply decoded;
    WireReader r(reply->payload);
    decoded.decode(r);
    EXPECT_EQ(decoded.status.code, static_cast<uint16_t>(omu::StatusCode::kInvalidArgument));
    EXPECT_NE(decoded.status.message.find("backend"), std::string::npos) << decoded.status.message;
    EXPECT_NE(decoded.status.message.find(std::to_string(byte)), std::string::npos)
        << decoded.status.message;
    ++request_id;
  }
  EXPECT_EQ(host.service().session_count(), 1u);

  // Tenant A's session keeps serving and builds the same map as the
  // in-process facade.
  for (std::size_t i = 1; i < scans.size(); ++i) {
    ASSERT_TRUE(healthy.insert(*session, scans[i].origin, scans[i].xyz).ok());
  }
  ASSERT_TRUE(healthy.flush(*session).ok());
  omu::Mapper reference = omu::Mapper::create(omu::MapperConfig()).value();
  ASSERT_TRUE(replay_into(reference, scans).ok());
  auto wire_hash = healthy.content_hash(*session);
  ASSERT_TRUE(wire_hash.ok()) << wire_hash.status().to_string();
  EXPECT_EQ(*wire_hash, reference.content_hash().value());
  EXPECT_TRUE(healthy.close_session(*session).ok());
}

TEST(ServiceSession, OperationsAfterCloseAreNotFound) {
  LoopbackService host;
  ServiceClient client(host.connect());
  SessionSpec spec;
  spec.backend = static_cast<uint8_t>(omu::BackendKind::kOctree);
  auto session = client.create(spec);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client.close_session(*session).ok());
  EXPECT_EQ(client.flush(*session).status().code(), omu::StatusCode::kNotFound);
}

}  // namespace
}  // namespace omu::service
