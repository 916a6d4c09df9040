// Value types of the public mapping API (include/omu/).
//
// The facade speaks plain metric geometry: double positions, float32
// measurement endpoints (the precision of real sensor streams) and an
// occupancy classification enum. These types are deliberately independent
// of the library's internal geometry headers so the public API stays
// self-contained; the facade converts at the boundary.
//
// This header is part of the installed public API and must stay
// self-contained: it may include only the C++ standard library and other
// include/omu/ headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace omu {

/// A metric position or direction in the world frame (doubles: poses and
/// query points accumulate error where float32 endpoints do not).
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr bool operator==(const Vec3&) const = default;
};

/// One float32 measurement endpoint of a scan, world frame.
struct Point {
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;

  constexpr bool operator==(const Point&) const = default;
};
static_assert(sizeof(Point) == 3 * sizeof(float),
              "Point must be three packed floats (insert treats point "
              "arrays as contiguous xyz triples)");

/// One sensor ray: where the sensor was and what it hit. insert()
/// integrates the free space along the ray plus the occupied endpoint.
struct Ray {
  Vec3 origin;
  Point endpoint;
};

/// A non-owning view of one scan for Mapper::insert — `point_count`
/// measurement endpoints cast from a sensor origin. The default is one
/// shared `origin` for the whole scan; set `ray_origins` (an array of
/// `point_count` entries, parallel to `points`) to give each ray its own
/// origin — consecutive rays sharing an origin are integrated as one
/// scan, so a sorted ray stream costs the same as a scan. The viewed
/// arrays must stay alive only for the duration of the insert call.
struct ScanView {
  const Point* points = nullptr;   ///< endpoints, world frame
  std::size_t point_count = 0;
  Vec3 origin;                     ///< shared sensor origin
  const Vec3* ray_origins = nullptr;  ///< optional per-ray origins
};

/// An axis-aligned metric box (collision-query region).
struct Box {
  Vec3 min;
  Vec3 max;
};

/// Occupancy classification of a voxel returned by map queries.
enum class Occupancy : uint8_t {
  kUnknown,   ///< never observed
  kFree,      ///< observed, log-odds at or below the occupancy threshold
  kOccupied,  ///< observed, log-odds above the occupancy threshold
};

/// Short human-readable name ("unknown"/"free"/"occupied").
constexpr const char* to_string(Occupancy occ) {
  switch (occ) {
    case Occupancy::kUnknown: return "unknown";
    case Occupancy::kFree: return "free";
    case Occupancy::kOccupied: return "occupied";
  }
  return "?";
}

/// Paging counters of a tiled-world session (stats().paging, or the
/// standalone Mapper::paging_stats). All zero for sessions that never
/// page.
struct WorldPagingStats {
  std::size_t known_tiles = 0;
  std::size_t resident_tiles = 0;
  std::size_t resident_bytes = 0;
  std::size_t peak_resident_bytes = 0;
  std::size_t resident_byte_budget = 0;  ///< 0 = unbounded
  uint64_t evictions = 0;
  uint64_t reloads = 0;
  uint64_t tile_writes = 0;
  /// Tile files read without paging the tile in (view capture and exports
  /// of evicted tiles).
  uint64_t transient_reads = 0;
};

/// Cheap cumulative session counters (see Mapper::stats), grouped by the
/// subsystem that produces them: `ingest` (the write path), `publication`
/// (the snapshot service), `paging` (the tiled world's pager) and
/// `absorber` (the hybrid backend's scrolling window). Groups that do not
/// apply to the session's backend stay zero. Each group — and the whole
/// struct — streams to std::ostream as a one-group-per-line summary.
struct MapperStats {
  /// Write-path counters: what the session ingested and what it cost.
  struct Ingest {
    uint64_t scans_inserted = 0;   ///< insert calls that integrated points
    uint64_t rays_inserted = 0;    ///< rays integrated with per-ray origins
    uint64_t points_inserted = 0;  ///< measurement endpoints consumed
    uint64_t voxel_updates = 0;    ///< per-voxel updates issued to the backend
    uint64_t flushes = 0;          ///< flush() barriers requested
    /// Resident bytes of the map structure, when the backend can account
    /// for them (octree: tree nodes; tiled world: resident tiles;
    /// 0 = unknown).
    std::size_t memory_bytes = 0;
  };

  /// Snapshot-publication counters. Publication is delta-based: a flush
  /// rebuilds only what changed since the previous epoch and shares the
  /// rest with it, and a flush with no changes publishes nothing. The
  /// sharing unit is a first-level branch chunk for octree / accelerator
  /// / hybrid sessions and a tile snapshot for tiled-world sessions.
  struct Publication {
    uint64_t snapshots_published = 0;       ///< epochs readers actually saw
    uint64_t incremental_publications = 0;  ///< spliced onto the previous epoch
    uint64_t noop_flushes = 0;     ///< flushes that published nothing
    uint64_t chunks_reused = 0;    ///< chunks/tiles shared with the previous epoch
    uint64_t chunks_rebuilt = 0;   ///< chunks/tiles rebuilt from the map
    std::size_t bytes_reused = 0;  ///< snapshot bytes shared, not reallocated
    std::size_t bytes_rebuilt = 0; ///< snapshot bytes freshly built
  };

  /// Write-absorber counters of a hybrid session: how much of the update
  /// stream the dense window soaked up, and what flushed it.
  struct Absorber {
    uint64_t updates_absorbed = 0;       ///< updates folded into the window
    uint64_t updates_passed_through = 0; ///< out-of-window updates sent straight back
    uint64_t voxels_flushed = 0;         ///< aggregated per-voxel deltas emitted
    uint64_t window_flushes = 0;         ///< whole-window drains (flush/snapshot/high water)
    uint64_t high_water_flushes = 0;     ///< of which tripped by the dirty high water
    uint64_t scrolls = 0;                ///< window recenters onto the sensor
    uint64_t scroll_evictions = 0;       ///< aggregates evicted by scrolls
  };

  Ingest ingest;
  Publication publication;
  WorldPagingStats paging;
  Absorber absorber;
};

std::ostream& operator<<(std::ostream& os, const MapperStats::Ingest& s);
std::ostream& operator<<(std::ostream& os, const MapperStats::Publication& s);
std::ostream& operator<<(std::ostream& os, const MapperStats::Absorber& s);
std::ostream& operator<<(std::ostream& os, const WorldPagingStats& s);
/// Streams the non-empty groups, one line each.
std::ostream& operator<<(std::ostream& os, const MapperStats& s);

}  // namespace omu
