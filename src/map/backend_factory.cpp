#include "map/backend_factory.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "map/octree_io.hpp"

namespace omu::map {

namespace {

/// The octree-backed tile (the default TileBackendFactory product).
class OctreeTileBackend final : public TileBackend {
 public:
  OctreeTileBackend(double resolution, OccupancyParams params) : tree_(resolution, params) {}
  explicit OctreeTileBackend(OccupancyOctree tree) : tree_(std::move(tree)) {}

  MapBackend& backend() override { return adapter_; }
  const MapBackend& backend() const override { return adapter_; }
  std::size_t memory_bytes() const override { return tree_.memory_bytes(); }
  OctreeIo::FrameInfo save(std::string& frame) const override {
    return OctreeIo::encode(tree_, frame);
  }

 private:
  OccupancyOctree tree_;
  OctreeBackend adapter_{tree_};
};

bool params_match(const OccupancyParams& a, const OccupancyParams& b) {
  return a.log_hit == b.log_hit && a.log_miss == b.log_miss && a.clamp_min == b.clamp_min &&
         a.clamp_max == b.clamp_max && a.occ_threshold == b.occ_threshold &&
         a.quantized == b.quantized;
}

}  // namespace

OctreeTileBackendFactory::OctreeTileBackendFactory(double resolution, OccupancyParams params)
    : resolution_(resolution),
      params_(params.quantized ? params.snapped_to_fixed_point() : params) {
  if (!(resolution > 0.0)) {
    throw std::invalid_argument("OctreeTileBackendFactory: resolution must be positive");
  }
}

std::unique_ptr<TileBackend> OctreeTileBackendFactory::create() const {
  return std::make_unique<OctreeTileBackend>(resolution_, params_);
}

LoadedTile OctreeTileBackendFactory::load(std::string_view frame) const {
  OctreeIo::Decoded decoded = OctreeIo::decode(frame);
  const OccupancyOctree& tree = decoded.tree;
  if (tree.resolution() != resolution_ || !params_match(tree.params(), params_)) {
    throw std::runtime_error(
        "OctreeTileBackendFactory: tile resolution/params do not match this world");
  }
  return LoadedTile{std::make_unique<OctreeTileBackend>(std::move(decoded.tree)), decoded.info};
}

}  // namespace omu::map
