// omu::MapView — an immutable point-in-time view of the map for readers.
//
// A MapView is captured at a flush boundary (Mapper::snapshot) and never
// changes afterwards: any number of threads can query one view
// concurrently with no synchronization while the mapper keeps integrating
// scans, and a view stays valid after its Mapper has moved on — or been
// closed entirely. Internally it wraps either a flattened query
// MapSnapshot (octree/accelerator/hybrid sessions) or a federated
// per-tile WorldQueryView (tiled-world sessions); answers are
// bit-identical to querying the flushed live map either way.
//
// This header is part of the installed public API and must stay
// self-contained: it may include only the C++ standard library and other
// include/omu/ headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "omu/types.hpp"

namespace omu {

class Mapper;

/// Immutable map view; cheap to copy (shared immutable state).
class MapView {
 public:
  /// An invalid (empty) view classifying everything unknown; real views
  /// come from Mapper::snapshot().
  MapView() = default;

  /// False only for a default-constructed view.
  bool valid() const { return rep_ != nullptr; }

  // ---- Queries (const, lock-free, any thread) ----------------------------

  /// Classifies the voxel containing `position` (out-of-range or invalid
  /// view -> kUnknown).
  Occupancy classify(const Vec3& position) const;

  /// Classifies a batch of positions; out[i] corresponds to positions[i].
  void classify_batch(const std::vector<Vec3>& positions, std::vector<Occupancy>& out) const;

  /// True if any voxel intersecting the box is occupied; with
  /// `treat_unknown_as_occupied`, unmapped space also counts (the
  /// conservative collision-checking policy).
  bool any_occupied_in_box(const Box& box, bool treat_unknown_as_occupied = false) const;

  // ---- Introspection -----------------------------------------------------

  /// Flush-boundary sequence number the view was captured at.
  uint64_t epoch() const;
  /// Leaf nodes held by the view (0 for an invalid/empty view).
  std::size_t leaf_count() const;
  /// Voxel edge length in metres (0 for an invalid view).
  double resolution() const;
  /// Approximate bytes held by the view's flattened structures.
  std::size_t memory_bytes() const;

 private:
  friend class Mapper;
  struct Rep;  // internal: one of the two snapshot flavours
  explicit MapView(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  std::shared_ptr<const Rep> rep_;
};

}  // namespace omu
