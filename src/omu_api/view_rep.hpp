// Internal representation of omu::MapView: exactly one of the two
// immutable snapshot flavours the backends publish. Shared between
// map_view.cpp (queries) and mapper.cpp (capture).
#pragma once

#include <memory>

#include "omu/map_view.hpp"
#include "query/map_snapshot.hpp"
#include "world/world_query_view.hpp"

namespace omu {

struct MapView::Rep {
  /// Flattened snapshot (octree / accelerator sessions).
  std::shared_ptr<const query::MapSnapshot> snapshot;
  /// Federated per-tile view (tiled-world sessions).
  std::shared_ptr<const world::WorldQueryView> world;
};

}  // namespace omu
