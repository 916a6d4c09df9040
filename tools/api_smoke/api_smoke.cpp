// Public-API smoke: a complete mapping session written against nothing
// but the installed <omu/omu.hpp> surface. Exercises the documented
// lifecycle — nested builder config (including rejections), insert,
// flush, snapshot queries, live queries, cross-backend bit-identity
// (accelerator vs octree), save_map — and exits nonzero on any
// deviation. Compiling this file with no src/ include path is itself
// the test that the public headers are self-contained.
#include <omu/omu.hpp>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <vector>

namespace {

/// A synthetic room scan: endpoints on a 4 m cylinder wall around the
/// origin (pure std::cmath — no library internals).
std::vector<omu::Point> room_scan(int rays) {
  std::vector<omu::Point> points;
  points.reserve(static_cast<std::size_t>(rays));
  for (int i = 0; i < rays; ++i) {
    const double az = 2.0 * 3.14159265358979 * static_cast<double>(i) / rays;
    const double el = 0.35 * std::sin(7.0 * az);
    points.push_back(omu::Point{static_cast<float>(4.0 * std::cos(el) * std::cos(az)),
                                static_cast<float>(4.0 * std::cos(el) * std::sin(az)),
                                static_cast<float>(4.0 * std::sin(el))});
  }
  return points;
}

int fail(const char* what, const omu::Status& status) {
  std::fprintf(stderr, "FAIL %s: %s\n", what, status.to_string().c_str());
  return 1;
}

/// Expects a config to be rejected with kInvalidArgument naming `field`.
int expect_rejected(omu::Result<omu::Mapper>& bad, const char* field) {
  if (bad.ok()) {
    std::fprintf(stderr, "FAIL: config naming %s was accepted\n", field);
    return 1;
  }
  if (bad.status().code() != omu::StatusCode::kInvalidArgument ||
      bad.status().message().find(field) == std::string::npos) {
    return fail(field, bad.status());
  }
  std::cout << "rejected as expected: " << bad.status() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omu;

  // Artifacts go to a scratch directory (argv[1] if given, else the
  // system temp dir) — never the invoking checkout.
  const std::filesystem::path scratch =
      argc > 1 ? std::filesystem::path(argv[1]) : std::filesystem::temp_directory_path();
  std::error_code scratch_ec;
  std::filesystem::create_directories(scratch, scratch_ec);
  const std::string map_path = (scratch / "api_smoke_map.omap").string();

  // ---- Config validation speaks nested field names ------------------------
  {
    Result<Mapper> bad = Mapper::create(MapperConfig().backend(static_cast<BackendKind>(9)));
    if (int rc = expect_rejected(bad, "backend")) return rc;
  }
  {
    Result<Mapper> bad = Mapper::create(
        MapperConfig().backend(BackendKind::kAccelerator).accelerator({.pe_count = 0}));
    if (int rc = expect_rejected(bad, "accelerator.pe_count")) return rc;
  }
  {
    Result<Mapper> bad = Mapper::create(
        MapperConfig().backend(BackendKind::kTiledWorld).world({.tile_shift = 0}));
    if (int rc = expect_rejected(bad, "world.tile_shift")) return rc;
  }

  // ---- Octree and accelerator sessions over the identical stream ---------
  Result<Mapper> octree = Mapper::create(MapperConfig().resolution(0.2));
  if (!octree.ok()) return fail("create(octree)", octree.status());
  Result<Mapper> accel =
      Mapper::create(MapperConfig().resolution(0.2).backend(BackendKind::kAccelerator));
  if (!accel.ok()) return fail("create(accelerator)", accel.status());

  const std::vector<Point> scan = room_scan(2000);
  const Vec3 origin{0.0, 0.0, 0.0};
  if (Status s = octree->insert(scan, origin); !s.ok()) return fail("insert(octree)", s);
  if (Status s = accel->insert(scan, origin); !s.ok()) return fail("insert(accelerator)", s);
  if (Status s = octree->flush(); !s.ok()) return fail("flush(octree)", s);
  if (Status s = accel->flush(); !s.ok()) return fail("flush(accelerator)", s);

  // ---- Snapshot + live queries -------------------------------------------
  Result<MapView> view = accel->snapshot();
  if (!view.ok()) return fail("snapshot", view.status());
  const Vec3 wall{4.0, 0.0, 0.0};
  const Vec3 mid_room{2.0, 0.0, 0.0};
  const Vec3 outside{9.0, 9.0, 0.0};
  if (view->classify(wall) != Occupancy::kOccupied) {
    std::fprintf(stderr, "FAIL: wall voxel not occupied in snapshot\n");
    return 1;
  }
  if (view->classify(mid_room) != Occupancy::kFree ||
      view->classify(outside) != Occupancy::kUnknown) {
    std::fprintf(stderr, "FAIL: snapshot free/unknown classification wrong\n");
    return 1;
  }
  Result<Occupancy> live = octree->classify(wall);
  if (!live.ok() || live.value() != Occupancy::kOccupied) {
    std::fprintf(stderr, "FAIL: live octree query disagrees at the wall\n");
    return 1;
  }
  if (view->any_occupied_in_box(Box{{3.5, -0.5, -0.5}, {4.5, 0.5, 0.5}}) != true ||
      view->any_occupied_in_box(Box{{1.0, -0.5, -0.5}, {2.5, 0.5, 0.5}}) != false) {
    std::fprintf(stderr, "FAIL: box queries wrong\n");
    return 1;
  }

  // ---- Cross-backend bit-identity ----------------------------------------
  Result<uint64_t> h1 = octree->content_hash();
  Result<uint64_t> h2 = accel->content_hash();
  if (!h1.ok() || !h2.ok() || h1.value() != h2.value()) {
    std::fprintf(stderr, "FAIL: accelerator map not bit-identical to octree\n");
    return 1;
  }

  // ---- Persistence + close ------------------------------------------------
  if (Status s = octree->save_map(map_path); !s.ok()) return fail("save_map", s);
  if (Status s = octree->close(); !s.ok()) return fail("close", s);
  if (octree->flush().code() != StatusCode::kFailedPrecondition) {
    std::fprintf(stderr, "FAIL: flush after close did not fail-precondition\n");
    return 1;
  }

  const MapperStats stats = accel->stats().value();
  std::cout << stats << "\n";
  std::printf("api smoke ok: %llu points -> %llu updates, %zu snapshot leaves, "
              "hash %016llx (%s vs %s)\n",
              static_cast<unsigned long long>(stats.ingest.points_inserted),
              static_cast<unsigned long long>(stats.ingest.voxel_updates), view->leaf_count(),
              static_cast<unsigned long long>(h2.value()), octree->backend_name().c_str(),
              accel->backend_name().c_str());
  return 0;
}
