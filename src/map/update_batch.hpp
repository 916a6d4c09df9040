// The unit of work flowing out of ray casting.
//
// Every ingest path — the software octree, the tiled world and the
// accelerator model — consumes the same batches of voxel updates, so a
// scan ray-cast once can be applied to any number of backends and the
// resulting maps compared bit for bit. A batch owns its storage and is
// meant to be reused scan over scan (clear() keeps capacity, reserve-once
// amortizes the hot-loop growth the paper's update rates imply).
//
// VoxelUpdate packs to 8 bytes (3x16-bit key + flag), so the
// array-of-structs storage streams through caches like a struct-of-arrays
// layout would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "map/ockey.hpp"

namespace omu::map {

/// One voxel update request: the unit of work the OMU voxel scheduler
/// dispatches to a PE (paper Fig. 4), and the unit the software backends
/// apply to their trees.
struct VoxelUpdate {
  OcKey key;
  bool occupied = false;
};

/// A batch of voxel updates, typically one scan's worth.
class UpdateBatch {
 public:
  UpdateBatch() = default;
  explicit UpdateBatch(std::size_t capacity) { items_.reserve(capacity); }

  /// Ensures capacity for at least `n` updates.
  void reserve(std::size_t n) { items_.reserve(n); }

  /// Removes all updates, keeping the allocated capacity.
  void clear() {
    items_.clear();
    free_ = 0;
    occupied_ = 0;
  }

  void push(const OcKey& key, bool occupied) {
    items_.push_back(VoxelUpdate{key, occupied});
    if (occupied) {
      ++occupied_;
    } else {
      ++free_;
    }
  }
  void push(const VoxelUpdate& update) { push(update.key, update.occupied); }
  /// vector-style spelling (UpdateBatch replaced a std::vector alias).
  void push_back(const VoxelUpdate& update) { push(update.key, update.occupied); }

  /// Appends another batch's updates in order.
  void append(const UpdateBatch& other) {
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
    free_ += other.free_;
    occupied_ += other.occupied_;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t capacity() const { return items_.capacity(); }

  uint64_t free_count() const { return free_; }
  uint64_t occupied_count() const { return occupied_; }

  const VoxelUpdate& operator[](std::size_t i) const { return items_[i]; }
  const VoxelUpdate& front() const { return items_.front(); }
  const VoxelUpdate& back() const { return items_.back(); }

  std::vector<VoxelUpdate>::const_iterator begin() const { return items_.begin(); }
  std::vector<VoxelUpdate>::const_iterator end() const { return items_.end(); }

  /// Contiguous view of the updates (the accelerator model's native input).
  const std::vector<VoxelUpdate>& items() const { return items_; }

 private:
  std::vector<VoxelUpdate> items_;
  uint64_t free_ = 0;
  uint64_t occupied_ = 0;
};

}  // namespace omu::map
