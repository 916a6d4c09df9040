// MapBackend adapter over the OMU accelerator model.
//
// Lets the accelerator sit behind the same interface as the software
// octree, the tiled world and the hybrid absorber: batches stream in via
// feed_updates
// (scans pipeline back-to-back exactly as in a deployed system), flush()
// drains the engine, queries go through the accelerator's query unit, and
// the leaf export is the canonical depth>=1 form of the PE TreeMems (see
// normalize_to_depth1 for why the accelerator can never merge above the
// first level). The snapshot export hook rides on that same TreeMem
// readback, so maps built on the accelerator serve the query::MapSnapshot
// API identically to the software backends.
#pragma once

#include <string>
#include <vector>

#include "accel/omu_accelerator.hpp"
#include "map/map_backend.hpp"

namespace omu::accel {

/// Drives an OmuAccelerator through the map::MapBackend interface.
class AcceleratorBackend final : public map::MapBackend {
 public:
  explicit AcceleratorBackend(OmuAccelerator& omu)
      : omu_(&omu), coder_(omu.config().resolution) {}

  using map::MapBackend::classify;

  std::string name() const override { return "omu-accelerator"; }
  const map::KeyCoder& coder() const override { return coder_; }
  map::OccupancyParams occupancy_params() const override { return omu_->config().params; }
  void apply(const map::UpdateBatch& batch) override { omu_->feed_updates(batch); }
  void flush() override { omu_->flush(); }
  map::Occupancy classify(const map::OcKey& key) override { return omu_->query(key).occupancy; }
  std::vector<map::LeafRecord> leaves_sorted() const override { return omu_->leaves_sorted(); }
  uint64_t content_hash() const override { return omu_->content_hash(); }

  OmuAccelerator& accelerator() { return *omu_; }
  const OmuAccelerator& accelerator() const { return *omu_; }

 private:
  OmuAccelerator* omu_;
  map::KeyCoder coder_;
};

}  // namespace omu::accel
