// Tile backend factory: how the tiled world map (src/world) creates,
// persists and reloads the per-tile MapBackend instances its pager cycles
// through.
//
// A TileBackend bundles a MapBackend with the capabilities paging needs
// beyond the update/query interface: a resident-memory measure (the
// pager's byte budget is enforced against it), and save/load as one
// octree_io v2 frame in one memory buffer. A tile's frame is its identity:
// save() reports the frame's checksum and leaf count, load() reports the
// same pair for the bytes it decoded, and the pager accepts a tile file
// only when they equal what it recorded — so an evicted tile round-trips
// bit-identically from disk or fails. The factory is the policy point for
// what backs a tile — the default is the serial software octree, which
// keeps a tile's tree bit-compatible with the corresponding subtree of a
// monolithic map (the equivalence the world layer's tests enforce).
#pragma once

#include <memory>
#include <string_view>

#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "map/occupancy_params.hpp"
#include "map/octree_io.hpp"

namespace omu::map {

/// One pageable map tile: a MapBackend plus memory accounting and
/// serialization.
class TileBackend {
 public:
  virtual ~TileBackend() = default;

  virtual MapBackend& backend() = 0;
  virtual const MapBackend& backend() const = 0;

  /// Resident bytes of the tile's map structure (the quantity the pager's
  /// byte budget bounds).
  virtual std::size_t memory_bytes() const = 0;

  /// Writes the tile's map content over `frame` (reusing its capacity) as
  /// one octree_io v2 frame, and returns the frame's checksum and leaf
  /// count. Callers flush() the backend first; the frame must reload (via
  /// TileBackendFactory::load) to a bit-identical tile whose reported info
  /// equals the one returned here.
  virtual OctreeIo::FrameInfo save(std::string& frame) const = 0;
};

/// A tile reloaded from a frame, and the frame's info.
struct LoadedTile {
  std::unique_ptr<TileBackend> tile;
  OctreeIo::FrameInfo info;
};

/// Creates empty tiles and reloads saved ones; one factory per world, so
/// every tile shares the world's resolution and sensor model.
class TileBackendFactory {
 public:
  virtual ~TileBackendFactory() = default;

  virtual double resolution() const = 0;
  virtual OccupancyParams params() const = 0;

  /// A fresh, empty tile.
  virtual std::unique_ptr<TileBackend> create() const = 0;

  /// Reloads a tile from the bytes of one frame written by
  /// TileBackend::save. Throws std::runtime_error on malformed input or on
  /// a resolution/params mismatch with this factory (a tile from a
  /// different world).
  virtual LoadedTile load(std::string_view frame) const = 0;
};

/// The default tile flavour: a private serial OccupancyOctree per tile,
/// persisted through OctreeIo (format v2, length-framed + checksummed).
class OctreeTileBackendFactory final : public TileBackendFactory {
 public:
  OctreeTileBackendFactory(double resolution, OccupancyParams params);

  double resolution() const override { return resolution_; }
  OccupancyParams params() const override { return params_; }
  std::unique_ptr<TileBackend> create() const override;
  LoadedTile load(std::string_view frame) const override;

 private:
  double resolution_;
  OccupancyParams params_;
};

}  // namespace omu::map
