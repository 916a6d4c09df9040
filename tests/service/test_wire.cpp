// Wire-protocol invariants: writer/reader round trips, frame framing over
// a real transport, and the corruption discipline — any flipped bit, bad
// header or truncation fails with a clean WireError, never a silently
// wrong frame.
#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "geom/rng.hpp"
#include "service/messages.hpp"
#include "service/transport.hpp"

namespace omu::service {
namespace {

TEST(WireProtocol, WriterReaderRoundTripsScalars) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f32(3.5f);
  w.f64(-0.125);
  w.str("hello, wire");
  w.str("");
  const uint8_t blob[4] = {1, 2, 3, 4};
  w.raw(blob, sizeof blob);

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.str(), "hello, wire");
  EXPECT_EQ(r.str(), "");
  uint8_t out[4];
  std::memcpy(out, r.take(4), 4);
  EXPECT_EQ(std::memcmp(out, blob, 4), 0);
  EXPECT_TRUE(r.done());
}

TEST(WireProtocol, ReaderThrowsOnOverrun) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), WireError);

  // A string whose declared length exceeds the payload is an overrun too.
  WireWriter bad;
  bad.u32(1000);  // str length prefix with no bytes behind it
  WireReader r2(bad.bytes());
  EXPECT_THROW(r2.str(), WireError);
}

TEST(WireProtocol, FramesRoundTripOverTransport) {
  auto [client, server] = make_loopback_pair();

  Frame out;
  out.type = 42;
  out.request_id = 7;
  out.payload = {1, 2, 3, 4, 5};
  write_frame(*client, out);

  Frame out2;
  out2.type = 43;
  out2.request_id = 8;  // empty payload
  write_frame(*client, out2);

  auto in = read_frame(*server);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->type, 42);
  EXPECT_EQ(in->request_id, 7u);
  EXPECT_EQ(in->payload, out.payload);

  auto in2 = read_frame(*server);
  ASSERT_TRUE(in2.has_value());
  EXPECT_EQ(in2->type, 43);
  EXPECT_TRUE(in2->payload.empty());

  client->shutdown();
  EXPECT_FALSE(read_frame(*server).has_value());  // clean EOF, not an error
}

TEST(WireProtocol, MidFrameTruncationThrows) {
  const Frame frame{9, 1, {10, 20, 30}};
  const std::vector<uint8_t> bytes = encode_frame(frame);

  auto [client, server] = make_loopback_pair();
  client->write_all(bytes.data(), bytes.size() - 5);
  client->shutdown();
  EXPECT_THROW(read_frame(*server), WireError);
}

TEST(WireProtocol, EveryFlippedBitFailsCleanly) {
  Frame frame;
  frame.type = 4;
  frame.request_id = 99;
  for (int i = 0; i < 32; ++i) frame.payload.push_back(static_cast<uint8_t>(i * 7));
  const std::vector<uint8_t> good = encode_frame(frame);

  // Sanity: the untouched run decodes.
  {
    auto [client, server] = make_loopback_pair();
    client->write_all(good.data(), good.size());
    auto in = read_frame(*server);
    ASSERT_TRUE(in.has_value());
    EXPECT_EQ(in->payload, frame.payload);
  }

  // Flip every bit of every byte; the reader must throw, never return a
  // frame (the checksum covers header and payload).
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = good;
      bad[byte] = static_cast<uint8_t>(bad[byte] ^ (1u << bit));
      auto [client, server] = make_loopback_pair();
      client->write_all(bad.data(), bad.size());
      client->shutdown();
      EXPECT_THROW(read_frame(*server), WireError)
          << "byte " << byte << " bit " << bit << " decoded despite corruption";
    }
  }
}

TEST(WireProtocol, OversizedPayloadHeaderRejected) {
  WireWriter header;
  header.u32(kWireMagic);
  header.u16(kWireVersion);
  header.u16(1);
  header.u64(1);
  header.u32(kMaxPayloadBytes + 1);

  auto [client, server] = make_loopback_pair();
  client->write_all(header.bytes().data(), header.bytes().size());
  EXPECT_THROW(read_frame(*server), WireError);
}

TEST(WireProtocol, SessionSpecRoundTrips) {
  SessionSpec spec;
  spec.tenant = "tenant-7";
  spec.backend = 3;
  spec.resolution = 0.05;
  spec.log_hit = 1.25f;
  spec.log_miss = -0.5f;
  spec.max_range = 12.5;
  spec.deduplicate = 1;
  spec.world_directory = "/tmp/some/world";
  spec.world_resident_byte_budget = 123456;
  spec.tile_shift = 9;
  spec.telemetry_journal = 1;
  spec.quota = TenantQuota{1 << 20, 5000, 2048};

  WireWriter w;
  spec.encode(w);
  WireReader r(w.bytes());
  SessionSpec back;
  back.decode(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(back.tenant, spec.tenant);
  EXPECT_EQ(back.backend, spec.backend);
  EXPECT_EQ(back.resolution, spec.resolution);
  EXPECT_EQ(back.log_hit, spec.log_hit);
  EXPECT_EQ(back.max_range, spec.max_range);
  EXPECT_EQ(back.telemetry_journal, spec.telemetry_journal);
  EXPECT_EQ(back.world_directory, spec.world_directory);
  EXPECT_EQ(back.world_resident_byte_budget, spec.world_resident_byte_budget);
  EXPECT_EQ(back.tile_shift, spec.tile_shift);
  EXPECT_EQ(back.quota.max_resident_bytes, spec.quota.max_resident_bytes);
  EXPECT_EQ(back.quota.max_points_per_sec, spec.quota.max_points_per_sec);
  EXPECT_EQ(back.quota.max_points_per_insert, spec.quota.max_points_per_insert);
}

TEST(WireProtocol, DeltaEventRoundTripsLeafRuns) {
  geom::SplitMix64 rng(11);
  DeltaEvent event;
  event.session_id = 3;
  event.subscription_id = 8;
  event.epoch = 21;
  event.baseline = 1;
  event.has_digest = 1;
  event.shard_digest = 0xFEEDFACECAFEBEEFull;
  event.removed_shards = {5, 9};
  for (int s = 0; s < 3; ++s) {
    DeltaShard shard;
    shard.shard_key = 100u + s;
    for (int i = 0; i < 50; ++i) {
      map::LeafRecord leaf;
      leaf.key = map::OcKey{static_cast<uint16_t>(rng.next_below(1u << 16)),
                            static_cast<uint16_t>(rng.next_below(1u << 16)),
                            static_cast<uint16_t>(rng.next_below(1u << 16))};
      leaf.depth = static_cast<int>(rng.next_below(17));
      leaf.log_odds = static_cast<float>(rng.uniform(-2.0, 3.5));
      shard.leaves.push_back(leaf);
    }
    event.changed_shards.push_back(std::move(shard));
  }

  WireWriter w;
  event.encode(w);
  WireReader r(w.bytes());
  DeltaEvent back;
  back.decode(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(back.epoch, event.epoch);
  EXPECT_EQ(back.has_digest, event.has_digest);
  EXPECT_EQ(back.shard_digest, event.shard_digest);
  EXPECT_EQ(back.removed_shards, event.removed_shards);
  ASSERT_EQ(back.changed_shards.size(), event.changed_shards.size());
  for (std::size_t s = 0; s < back.changed_shards.size(); ++s) {
    EXPECT_EQ(back.changed_shards[s].shard_key, event.changed_shards[s].shard_key);
    EXPECT_EQ(back.changed_shards[s].leaves, event.changed_shards[s].leaves);
  }
}

TEST(WireProtocol, LeafRunIsCountPlusElevenBytesPerLeaf) {
  // A run on the wire is a u32 count and kLeafRecordWireBytes per leaf;
  // bench/service.cpp prices a full rebroadcast by that figure.
  ASSERT_EQ(kLeafRecordWireBytes, 11u);
  DeltaEvent event;
  WireWriter no_shards;
  event.encode(no_shards);
  for (const std::size_t n : {0u, 1u, 7u, 300u}) {
    event.changed_shards.assign(
        1, DeltaShard{4, std::vector<map::LeafRecord>(
                             n, map::LeafRecord{map::OcKey{1, 2, 3}, 16, 0.85f})});
    WireWriter w;
    event.encode(w);
    // One changed shard adds its u64 key and its run.
    EXPECT_EQ(w.bytes().size(), no_shards.bytes().size() + 8 + (4 + 11 * n)) << n << " leaves";
  }
}

TEST(WireProtocol, WireStatusCarriesRetryHint) {
  const WireStatus rejected =
      WireStatus::from(omu::Status::resource_exhausted("rate quota"), 250);
  WireWriter w;
  rejected.encode(w);
  WireReader r(w.bytes());
  WireStatus back;
  back.decode(r);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.retry_after_ms, 250u);
  EXPECT_EQ(back.to_status().code(), omu::StatusCode::kResourceExhausted);
  EXPECT_NE(back.message.find("rate quota"), std::string::npos);
}

}  // namespace
}  // namespace omu::service
