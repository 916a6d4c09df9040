// Mapper::telemetry(): the full-session telemetry export. Proves the
// acceptance contract — the JSON round-trips through the benchkit parser,
// per-stage latency histograms carry non-zero counts after a real session
// (ingest + publish on every backend, absorber under hybrid), the trace
// journal reconstructs a flush timeline, MapperStats is a view over the
// same named counters, and the post-close read paths fail-precondition.
// Histogram-count assertions are gated on OMU_TELEMETRY_ENABLED: in the
// compiled-out build the same names exist but carry zero counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <omu/omu.hpp>

#include "benchkit/json.hpp"
#include "facade_test_util.hpp"

namespace omu {
namespace {

using facade_testing::stream_into;
using facade_testing::test_scans;

uint64_t histogram_count(const TelemetrySnapshot& snap, const std::string& name) {
  const TelemetrySnapshot::Metric* metric = snap.find(name);
  if (metric == nullptr || metric->kind != TelemetrySnapshot::Metric::Kind::kHistogram) {
    return 0;
  }
  return metric->histogram.count;
}

TEST(MapperTelemetry, OctreeSessionRecordsIngestAndPublishStages) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  const TelemetrySnapshot snap = mapper.telemetry().value();
#if OMU_TELEMETRY_ENABLED
  EXPECT_TRUE(snap.metrics_enabled);
  EXPECT_EQ(histogram_count(snap, "ingest.insert_ns"), test_scans().size());
  EXPECT_GT(histogram_count(snap, "ingest.prepare_ns"), 0u);
  EXPECT_GT(histogram_count(snap, "ingest.apply_ns"), 0u);
  EXPECT_GT(histogram_count(snap, "publish.refresh_ns"), 0u);
  // Latency histograms carry real time: sum and quantiles are populated.
  const TelemetrySnapshot::Metric* insert = snap.find("ingest.insert_ns");
  ASSERT_NE(insert, nullptr);
  EXPECT_GT(insert->histogram.sum, 0u);
  EXPECT_GE(insert->histogram.max, static_cast<uint64_t>(insert->histogram.p99 / 2.0));
#else
  EXPECT_FALSE(snap.metrics_enabled);
  EXPECT_EQ(histogram_count(snap, "ingest.insert_ns"), 0u);
#endif

  // Counters stay live in both builds — they back MapperStats.
  const TelemetrySnapshot::Metric* scans = snap.find("ingest.scans");
  ASSERT_NE(scans, nullptr);
  EXPECT_EQ(scans->kind, TelemetrySnapshot::Metric::Kind::kCounter);
  EXPECT_EQ(scans->counter, test_scans().size());
  const MapperStats stats = mapper.stats().value();
  EXPECT_EQ(stats.ingest.scans_inserted, scans->counter);
  const TelemetrySnapshot::Metric* published = snap.find("publish.snapshots");
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->counter, stats.publication.snapshots_published);
}

TEST(MapperTelemetry, HybridSessionRecordsAbsorberStages) {
  Mapper mapper = Mapper::create(MapperConfig()
                                     .backend(BackendKind::kHybrid)
                                     .hybrid({.window_voxels = 64}))
                      .value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  const TelemetrySnapshot snap = mapper.telemetry().value();
#if OMU_TELEMETRY_ENABLED
  EXPECT_GT(histogram_count(snap, "ingest.insert_ns"), 0u);
  EXPECT_GT(histogram_count(snap, "absorber.absorb_ns"), 0u);
  EXPECT_GT(histogram_count(snap, "absorber.drain_ns"), 0u);
  EXPECT_GT(histogram_count(snap, "publish.refresh_ns"), 0u);
#endif
  // The absorber counters mirror stats().absorber in both builds.
  const TelemetrySnapshot::Metric* absorbed = snap.find("absorber.updates_absorbed");
  ASSERT_NE(absorbed, nullptr);
  EXPECT_EQ(absorbed->counter, mapper.stats()->absorber.updates_absorbed);
  EXPECT_GT(absorbed->counter, 0u);
}

TEST(MapperTelemetry, JsonRoundTripsThroughBenchkitParser) {
  Mapper mapper = Mapper::create(MapperConfig()
                                     .backend(BackendKind::kHybrid)
                                     .hybrid({.window_voxels = 64})
                                     .telemetry({.journal = true, .journal_capacity = 4096}))
                      .value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  const TelemetrySnapshot snap = mapper.telemetry().value();
  const std::string json = snap.to_json();
  const benchkit::Json doc = benchkit::Json::parse(json);  // throws on malformed JSON

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("metrics_enabled")->as_bool(), snap.metrics_enabled);
  EXPECT_EQ(doc.find("journal_enabled")->as_bool(), snap.journal_enabled);
  const benchkit::Json::Array& metrics = doc.find("metrics")->as_array();
  ASSERT_EQ(metrics.size(), snap.metrics.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].find("name")->as_string(), snap.metrics[i].name);
    EXPECT_EQ(metrics[i].find("kind")->as_string(), to_string(snap.metrics[i].kind));
    if (snap.metrics[i].kind == TelemetrySnapshot::Metric::Kind::kHistogram) {
      EXPECT_EQ(static_cast<uint64_t>(metrics[i].number_or("count", -1)),
                snap.metrics[i].histogram.count);
      EXPECT_EQ(metrics[i].find("buckets")->as_array().size(),
                snap.metrics[i].histogram.buckets.size());
    } else if (snap.metrics[i].kind == TelemetrySnapshot::Metric::Kind::kCounter) {
      EXPECT_EQ(static_cast<uint64_t>(metrics[i].number_or("value", -1)),
                snap.metrics[i].counter);
    }
  }
  const benchkit::Json::Array& trace = doc.find("trace")->as_array();
  EXPECT_EQ(trace.size(), snap.trace.size());
}

#if OMU_TELEMETRY_ENABLED
TEST(MapperTelemetry, JournalReconstructsFlushTimeline) {
  Mapper mapper = Mapper::create(MapperConfig()
                                     .backend(BackendKind::kHybrid)
                                     .hybrid({.window_voxels = 64})
                                     .telemetry({.journal = true, .journal_capacity = 8192}))
                      .value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  const TelemetrySnapshot snap = mapper.telemetry().value();
  EXPECT_TRUE(snap.journal_enabled);
  ASSERT_FALSE(snap.trace.empty());

  // The full pipeline timeline is present: insert -> absorb -> drain ->
  // publish, every begin paired with an end of the same span.
  std::set<std::string> stages;
  std::set<uint64_t> open;
  for (const TelemetrySnapshot::TraceEvent& event : snap.trace) {
    stages.insert(event.stage);
    if (event.begin) {
      EXPECT_TRUE(open.insert(event.span_id).second) << event.stage;
    } else {
      open.erase(event.span_id);
    }
  }
  EXPECT_TRUE(open.empty());  // no dangling span at a flush boundary
  EXPECT_TRUE(stages.count("ingest.insert")) << "timeline misses ingest";
  EXPECT_TRUE(stages.count("absorber.absorb")) << "timeline misses absorb";
  EXPECT_TRUE(stages.count("absorber.drain")) << "timeline misses drain";
  EXPECT_TRUE(stages.count("publish.refresh")) << "timeline misses publish";
}
#endif  // OMU_TELEMETRY_ENABLED

TEST(MapperTelemetry, PrometheusExpositionIsWellFormed) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  const std::string text = mapper.telemetry().value().to_prometheus();
  EXPECT_NE(text.find("# TYPE omu_ingest_scans counter"), std::string::npos) << text;
  EXPECT_NE(text.find("omu_ingest_scans "), std::string::npos);
#if OMU_TELEMETRY_ENABLED
  EXPECT_NE(text.find("# TYPE omu_ingest_insert_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("omu_ingest_insert_ns_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(text.find("omu_ingest_insert_ns_count"), std::string::npos);
#endif
}

TEST(MapperTelemetry, DisabledMetricsKeepCountersButDropTimings) {
  Mapper mapper =
      Mapper::create(MapperConfig().telemetry({.metrics = false})).value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  const TelemetrySnapshot snap = mapper.telemetry().value();
  EXPECT_FALSE(snap.metrics_enabled);
  EXPECT_EQ(snap.find("ingest.insert_ns"), nullptr);  // never registered
  const TelemetrySnapshot::Metric* scans = snap.find("ingest.scans");
  ASSERT_NE(scans, nullptr);
  EXPECT_EQ(scans->counter, test_scans().size());
  EXPECT_EQ(mapper.stats()->ingest.scans_inserted, test_scans().size());
}

TEST(MapperTelemetry, WorldSessionCountsTransientTileReads) {
  // A budget far below the stream's footprint: by the first flush most
  // tiles are evicted, and publishing the view reads each of them from
  // disk without paging it in.
  facade_testing::TempDir dir("telemetry_transient");
  Mapper mapper = Mapper::create(MapperConfig()
                                     .resolution(0.2)
                                     .backend(BackendKind::kTiledWorld)
                                     .world({.directory = dir.path(),
                                             .resident_byte_budget = 64 * 1024,
                                             .tile_shift = 5}))
                      .value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  const WorldPagingStats paging = mapper.paging_stats().value();
  ASSERT_GT(paging.evictions, 0u) << "no eviction; test is vacuous";
  EXPECT_GT(paging.transient_reads, 0u);
  const TelemetrySnapshot snap = mapper.telemetry().value();
  const TelemetrySnapshot::Metric* reads = snap.find("paging.transient_reads");
  ASSERT_NE(reads, nullptr);
  EXPECT_EQ(reads->kind, TelemetrySnapshot::Metric::Kind::kCounter);
  EXPECT_EQ(reads->counter, paging.transient_reads);
  std::ostringstream os;
  os << paging;
  EXPECT_NE(os.str().find(std::to_string(paging.transient_reads) + " transient reads"),
            std::string::npos)
      << os.str();
}

TEST(MapperTelemetry, StatsAndTelemetryFailClosedAfterClose) {
  Mapper mapper = Mapper::create(MapperConfig()).value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.stats().ok());
  ASSERT_TRUE(mapper.telemetry().ok());
  ASSERT_TRUE(mapper.close().ok());

  EXPECT_EQ(mapper.stats().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapper.telemetry().status().code(), StatusCode::kFailedPrecondition);
  // Moved-from sessions answer the same way instead of crashing.
  Mapper a = Mapper::create(MapperConfig()).value();
  Mapper b = std::move(a);
  EXPECT_EQ(a.stats().status().code(), StatusCode::kFailedPrecondition);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.telemetry().status().code(), StatusCode::kFailedPrecondition);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.stats().ok());
}

}  // namespace
}  // namespace omu
