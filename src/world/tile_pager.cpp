#include "world/tile_pager.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "io/framing.hpp"
#include "obs/telemetry.hpp"
#include "world/budget_arbiter.hpp"
#include "world/world_manifest.hpp"

namespace omu::world {

TilePager::TilePager(TilePagerConfig config, const map::TileBackendFactory& factory,
                     TileGrid grid)
    : cfg_(std::move(config)), factory_(&factory), grid_(grid) {
  if (cfg_.byte_budget > 0 && cfg_.directory.empty()) {
    throw std::invalid_argument(
        "TilePager: a byte budget requires a world directory to evict into");
  }
  if (!cfg_.directory.empty()) {
    std::filesystem::create_directories(cfg_.directory + "/" + WorldManifest::kTilesDir);
  }
}

bool TilePager::resident(TileId id) const {
  const auto it = slots_.find(id);
  return it != slots_.end() && it->second.handle != nullptr;
}

std::vector<TileId> TilePager::known_tiles() const {
  std::vector<TileId> ids;
  ids.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string TilePager::tile_file(TileId id) const {
  return WorldManifest::tile_path(cfg_.directory, grid_, unpack_tile(id));
}

std::unique_ptr<map::TileBackend> TilePager::load_file(TileId id, const Slot& slot) {
  const std::string name = grid_.tile_name(unpack_tile(id));
  const std::string path = tile_file(id);
  if (!io::read_whole_file(path, frame_buf_)) {
    throw std::runtime_error("TilePager: cannot read tile " + name + " (" + path + ")");
  }
  map::LoadedTile loaded;
  try {
    loaded = factory_->load(frame_buf_);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("TilePager: tile " + name + " is corrupt: " + e.what());
  }
  // The decoder has verified the payload against the frame's checksum; the
  // frame must also be the one recorded for the tile.
  if (loaded.info.checksum != slot.saved.checksum) {
    throw std::runtime_error("TilePager: tile " + name +
                             " is not the file last written for it (stale or swapped file)");
  }
  if (loaded.info.leaf_count != slot.saved.leaf_count) {
    throw std::runtime_error("TilePager: tile " + name +
                             " leaf count does not match the one recorded for it");
  }
  return std::move(loaded.tile);
}

void TilePager::write_file(TileId id, Slot& slot) {
  slot.handle->backend().flush();
  const map::OctreeIo::FrameInfo info = slot.handle->save(frame_buf_);
  // Temp file + rename: an interrupted write must never clobber the only
  // on-disk copy of an (evicted) tile with a truncated stream.
  io::commit_file(
      tile_file(id),
      [this](std::ostream& os) {
        os.write(frame_buf_.data(), static_cast<std::streamsize>(frame_buf_.size()));
      },
      "TilePager");
  slot.saved = info;
  slot.dirty = false;
  slot.on_disk = true;
  counters_.tile_writes++;
}

void TilePager::set_resident_bytes(Slot& slot, std::size_t bytes) {
  if (bytes > slot.bytes) {
    counters_.max_residency_step_bytes =
        std::max(counters_.max_residency_step_bytes, bytes - slot.bytes);
  }
  if (arbiter_ != nullptr && bytes != slot.bytes) {
    arbiter_->report(arbiter_id_, static_cast<std::ptrdiff_t>(bytes) -
                                      static_cast<std::ptrdiff_t>(slot.bytes));
  }
  resident_bytes_ -= slot.bytes;
  slot.bytes = bytes;
  resident_bytes_ += bytes;
  counters_.peak_resident_bytes = std::max(counters_.peak_resident_bytes, resident_bytes_);
}

map::TileBackend& TilePager::acquire(TileId id) {
  auto [it, inserted] = slots_.try_emplace(id);
  Slot& slot = it->second;
  if (inserted) {
    slot.handle = factory_->create();
    slot.dirty = true;  // not on disk yet
    resident_tiles_++;
    set_resident_bytes(slot, slot.handle->memory_bytes());
  } else if (slot.handle == nullptr) {
    if ((cfg_.byte_budget > 0 || arbiter_ != nullptr) && resident_bytes_ > 0) {
      // Make room before paging in so mid-load residency stays bounded by
      // budget + one tile (one residency step).
      rebalance(id);
    }
    {
      obs::TraceSpan span(reload_ns_, "paging.reload");
      slot.handle = load_file(id, slot);
    }
    slot.dirty = false;
    counters_.reloads++;
    resident_tiles_++;
    set_resident_bytes(slot, slot.handle->memory_bytes());
    // Re-enforce right after the page-in so the overshoot window closes
    // here, not at the caller's next boundary.
    slot.lru_tick = ++lru_clock_;
    rebalance(id);
    return *slot.handle;
  }
  slot.lru_tick = ++lru_clock_;
  return *slot.handle;
}

map::TileBackend* TilePager::resident_backend(TileId id) {
  const auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.handle.get();
}

const map::TileBackend* TilePager::resident_backend(TileId id) const {
  const auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.handle.get();
}

void TilePager::mark_dirty(TileId id) {
  Slot& slot = slots_.at(id);
  slot.dirty = true;
  slot.version++;
  set_resident_bytes(slot, slot.handle->memory_bytes());
}

void TilePager::set_telemetry(obs::Telemetry* telemetry) {
  evict_ns_ = telemetry != nullptr ? telemetry->histogram("paging.evict_ns") : nullptr;
  reload_ns_ = telemetry != nullptr ? telemetry->histogram("paging.reload_ns") : nullptr;
}

void TilePager::evict(TileId id, Slot& slot) {
  obs::TraceSpan span(evict_ns_, "paging.evict");
  if (slot.dirty) write_file(id, slot);
  set_resident_bytes(slot, 0);
  slot.handle.reset();
  resident_tiles_--;
  counters_.evictions++;
}

TilePager::Slot* TilePager::lru_victim(TileId keep, bool allow_pinned, TileId* victim_id) {
  Slot* victim_slot = nullptr;
  bool victim_pinned = false;
  for (auto& [id, slot] : slots_) {
    if (slot.handle == nullptr || id == keep) continue;
    const bool is_pinned = pinned(slot);
    if (is_pinned && !allow_pinned) continue;
    // Unpinned beats pinned; least recently used wins within each.
    const bool better = victim_slot == nullptr || (victim_pinned && !is_pinned) ||
                        (victim_pinned == is_pinned && slot.lru_tick < victim_slot->lru_tick);
    if (better) {
      *victim_id = id;
      victim_slot = &slot;
      victim_pinned = is_pinned;
    }
  }
  return victim_slot;
}

TilePager::PinnedBatch TilePager::pin_batch(const std::vector<TileId>& pending) {
  open_batch_ = ++last_batch_;
  for (const TileId id : pending) {
    const auto it = slots_.find(id);
    if (it != slots_.end()) it->second.pinned_in = open_batch_;
  }
  return PinnedBatch(*this);
}

void TilePager::unpin(TileId id) { slots_.at(id).pinned_in = 0; }

void TilePager::rebalance(TileId keep) {
  while (cfg_.byte_budget > 0 && resident_bytes_ > cfg_.byte_budget && resident_tiles_ > 0) {
    TileId victim = 0;
    Slot* victim_slot = lru_victim(keep, /*allow_pinned=*/true, &victim);
    if (victim_slot == nullptr) break;  // only `keep` is resident
    evict(victim, *victim_slot);
  }
  if (arbiter_ == nullptr || arbiter_->budget() == 0) return;
  // Shared-budget enforcement, grower-pays: this pager just grew (or is
  // about to page in), so it gives back its own cold tiles first. A zero
  // arbiter budget means unbounded — attached for accounting only.
  while (arbiter_->total_bytes() > arbiter_->budget() && resident_tiles_ > 0) {
    TileId victim = 0;
    Slot* victim_slot = lru_victim(keep, /*allow_pinned=*/true, &victim);
    if (victim_slot == nullptr) break;  // down to the hot tile: the floor
    evict(victim, *victim_slot);
  }
  // Still over at our floor: ask the arbiter to reclaim from the other
  // participants (largest resident first; busy ones are skipped and will
  // re-check at their own next operation boundary).
  const std::size_t total = arbiter_->total_bytes();
  if (total > arbiter_->budget()) {
    arbiter_->request_shed(arbiter_id_, total - arbiter_->budget());
  }
}

void TilePager::attach_arbiter(BudgetArbiter* arbiter, uint64_t participant_id) {
  if (arbiter_ != nullptr && resident_bytes_ > 0) {
    arbiter_->report(arbiter_id_, -static_cast<std::ptrdiff_t>(resident_bytes_));
  }
  arbiter_ = arbiter;
  arbiter_id_ = participant_id;
  if (arbiter_ != nullptr && resident_bytes_ > 0) {
    arbiter_->report(arbiter_id_, static_cast<std::ptrdiff_t>(resident_bytes_));
  }
}

std::size_t TilePager::shed(std::size_t want_bytes) {
  std::size_t freed = 0;
  while (freed < want_bytes && resident_tiles_ > 0) {
    TileId victim = 0;
    Slot* victim_slot = lru_victim(kNoTile, /*allow_pinned=*/false, &victim);
    if (victim_slot == nullptr) break;
    freed += victim_slot->bytes;
    evict(victim, *victim_slot);
  }
  return freed;
}

uint64_t TilePager::version(TileId id) const { return slots_.at(id).version; }

std::unique_ptr<map::TileBackend> TilePager::read_transient(TileId id) {
  Slot& slot = slots_.at(id);
  counters_.transient_reads++;
  return load_file(id, slot);
}

void TilePager::write_back_all() {
  for (auto& [id, slot] : slots_) {
    if (slot.handle != nullptr && slot.dirty) write_file(id, slot);
  }
}

void TilePager::register_on_disk(TileId id, const SavedInfo& info) {
  auto [it, inserted] = slots_.try_emplace(id);
  if (!inserted) {
    throw std::runtime_error("TilePager: tile registered twice (corrupt manifest)");
  }
  Slot& slot = it->second;
  slot.on_disk = true;
  slot.saved = info;
  if (!std::filesystem::exists(tile_file(id))) {
    throw std::runtime_error("TilePager: manifest names missing tile " +
                             grid_.tile_name(unpack_tile(id)) + " (" + tile_file(id) + ")");
  }
}

bool TilePager::on_disk(TileId id) const {
  const auto it = slots_.find(id);
  return it != slots_.end() && it->second.on_disk;
}

TilePager::SavedInfo TilePager::saved_info(TileId id) const { return slots_.at(id).saved; }

TilePagerStats TilePager::stats() const {
  TilePagerStats s = counters_;  // peak/step are maintained by set_resident_bytes
  s.known_tiles = slots_.size();
  s.resident_tiles = resident_tiles_;
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace omu::world
