// The hybrid dense-front write absorber: a MapBackend that composes a
// ScrollingGrid window in front of any back MapBackend.
//
// High-rate updates near the sensor land in the dense window at array
// speed; everything the window does not cover passes straight through to
// the back backend. Aggregated per-voxel deltas flush into the back —
// octree or tiled world, both through
// MapBackend::apply_aggregated — when the window scrolls (follow()), on an
// explicit flush()/snapshot export, or when the dirty-voxel high-water
// mark trips. This is the dense-front/sparse-back architecture of OHM and
// the OpenVDB mapping pipeline, and the software shape of the paper's
// "absorb fast, integrate lazily" update path.
//
// Bit-identity contract (tests/localgrid/ prove it across all three back
// ends, randomized churn included): after flush(), every query, snapshot
// and serialized map is bit-identical to feeding the same update stream
// directly into the back backend. The pieces: per-voxel update order is
// preserved (a key is either in-window for a whole apply() call or not,
// and a scroll evicts a departing voxel's aggregate before any later
// update can pass it through); the aggregate itself replays exactly
// (aggregated_delta.hpp); the flush order is deterministic (ascending
// packed key); and apply_aggregated drains asynchronous back ends first.
//
// Unknown-window semantics: like every asynchronous backend in this repo,
// the live read surface (classify, leaves_sorted, content_hash,
// export_snapshot_data) reflects only what has reached the back — content
// still absorbed in the window is invisible until the next flush
// boundary. export_snapshot_delta() *is* a flush boundary: it drains the
// window first, so published snapshots always include the absorbed tail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/vec3.hpp"
#include "localgrid/scrolling_grid.hpp"
#include "map/map_backend.hpp"
#include "map/update_batch.hpp"
#include "obs/telemetry.hpp"

namespace omu::localgrid {

/// Construction parameters of the hybrid absorber.
struct HybridConfig {
  /// Per-axis window extent in voxels; a power of two in [2, 256].
  uint32_t window_voxels = 64;
  /// Dirty-voxel count that trips an automatic window flush at the next
  /// apply() boundary; 0 = window_voxels^3 (flush only when full).
  /// Must not exceed window_voxels^3.
  std::size_t flush_high_water = 0;
};

/// Absorber-side observability counters (surfaced as Mapper stats().absorber).
struct AbsorberStats {
  uint64_t updates_absorbed = 0;     ///< updates composed into the window
  uint64_t updates_passed_through = 0;  ///< out-of-window updates forwarded directly
  uint64_t voxels_flushed = 0;       ///< aggregated records handed to the back
  uint64_t window_flushes = 0;       ///< explicit flush()/export drain boundaries
  uint64_t high_water_flushes = 0;   ///< drains forced by the dirty high-water mark
  uint64_t scrolls = 0;              ///< window moves (follow())
  uint64_t scroll_evictions = 0;     ///< records flushed because the window moved away
};

/// The hybrid dense-front backend (a map::MapBackend over a back backend).
class HybridMapBackend final : public map::MapBackend {
 public:
  /// Wraps (non-owning) `back`. Throws std::invalid_argument when the
  /// window extent is invalid or the back's sensor model is not quantized.
  HybridMapBackend(map::MapBackend& back, const HybridConfig& config);

  using map::MapBackend::classify;

  // ---- MapBackend --------------------------------------------------------

  std::string name() const override { return "hybrid[" + back_->name() + "]"; }
  const map::KeyCoder& coder() const override { return back_->coder(); }
  map::OccupancyParams occupancy_params() const override { return back_->occupancy_params(); }

  /// Splits the batch: in-window updates compose into the grid,
  /// out-of-window updates forward to the back in arrival order. Trips the
  /// high-water drain at the batch boundary.
  void apply(const map::UpdateBatch& batch) override;

  /// Drains the window into the back, then flushes the back — the barrier
  /// after which the read surface reflects every update ever applied.
  void flush() override;

  /// Classifies against the back (unknown-window semantics: absorbed but
  /// unflushed content reads as the back's current state).
  map::Occupancy classify(const map::OcKey& key) override { return back_->classify(key); }

  std::vector<map::LeafRecord> leaves_sorted() const override { return back_->leaves_sorted(); }
  uint64_t content_hash() const override { return back_->content_hash(); }

  /// Snapshot publication is a flush boundary: drains the window, then
  /// delegates the delta export to the back (whose dirty tracking sees the
  /// aggregated flush like any other mutation).
  map::MapSnapshotDelta export_snapshot_delta(uint64_t since_generation) override {
    drain_window();
    return back_->export_snapshot_delta(since_generation);
  }

  map::PhaseStats* ray_stats() override { return back_->ray_stats(); }

  // ---- Absorber surface --------------------------------------------------

  /// Re-centers the window on the sensor origin (session plumbing calls
  /// this before each scan): departing voxels' aggregates flush into the
  /// back. Out-of-range origins are ignored.
  void follow(const geom::Vec3d& origin);

  /// Drains every pending aggregate into the back without flushing the
  /// back itself (the cheap half of flush()).
  void drain_window();

  map::MapBackend& back() { return *back_; }
  const map::MapBackend& back() const { return *back_; }
  const HybridConfig& config() const { return cfg_; }
  const ScrollingGrid& grid() const { return grid_; }
  const AbsorberStats& absorber_stats() const { return stats_; }

  /// Resolves the absorber instrumentation handles ("absorber.absorb_ns"
  /// around each apply()'s split/absorb pass, "absorber.drain_ns" around
  /// each window drain into the back). Null detaches. Externally
  /// serialized like every other mutation.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  map::MapBackend* back_;
  HybridConfig cfg_;
  std::size_t high_water_ = 0;  ///< resolved trip point (cfg or window^3)
  ScrollingGrid grid_;
  AbsorberStats stats_;
  map::UpdateBatch pass_through_;                       ///< per-apply scratch
  std::vector<map::AggregatedVoxelDelta> flush_scratch_;  ///< per-drain scratch
  obs::Histogram* absorb_ns_ = nullptr;  // "absorber.absorb_ns"
  obs::Histogram* drain_ns_ = nullptr;   // "absorber.drain_ns"
  obs::TraceJournal* journal_ = nullptr;
};

}  // namespace omu::localgrid
