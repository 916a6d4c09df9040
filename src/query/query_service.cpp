#include "query/query_service.hpp"

#include "obs/telemetry.hpp"

namespace omu::query {

std::atomic<uint64_t> QueryService::next_version_{1};

QueryService::ReaderCacheEntry& QueryService::reader_cache_entry() const {
  thread_local ReaderCache cache;
  for (ReaderCacheEntry& entry : cache.entries) {
    if (entry.service == this) return entry;
  }
  // Miss: recycle a slot round-robin (an unused slot still has
  // service == nullptr and loses first).
  for (ReaderCacheEntry& entry : cache.entries) {
    if (entry.service == nullptr) return entry;
  }
  ReaderCacheEntry& victim = cache.entries[cache.next_evict];
  cache.next_evict = (cache.next_evict + 1) % cache.entries.size();
  victim = ReaderCacheEntry{};
  return victim;
}

QueryService::QueryService() { swap_in(MapSnapshot::build(map::MapSnapshotData{}, 0)); }

std::shared_ptr<const MapSnapshot> QueryService::snapshot() const {
  ReaderCacheEntry& cache = reader_cache_entry();
  // Fast path: nothing published since this thread last looked — the
  // acquire load pairs with the release store in swap_in, so the cached
  // pointer's contents are fully visible.
  if (cache.service == this &&
      cache.version == current_version_.load(std::memory_order_acquire)) {
    return cache.snapshot;
  }
  // Publication boundary (or first read of this service on this thread):
  // refresh the entry under the swap mutex (pointer copy only; the
  // publisher never builds while holding it).
  std::lock_guard lock(swap_mutex_);
  cache.service = this;
  cache.version = current_version_.load(std::memory_order_relaxed);
  cache.snapshot = current_;
  return cache.snapshot;
}

void QueryService::swap_in(std::shared_ptr<const MapSnapshot> next) {
  const uint64_t version = next_version_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const MapSnapshot> retired;
  {
    std::lock_guard lock(swap_mutex_);
    retired = std::move(current_);
    current_ = std::move(next);
    current_version_.store(version, std::memory_order_release);
  }
  // `retired` tears down here, outside swap_mutex_: when no reader still
  // holds the superseded snapshot, its (potentially multi-MiB) flattened
  // arrays free on the publisher's time, not under the readers' mutex.
}

void QueryService::set_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard lock(publish_mutex_);
  refresh_ns_ = telemetry != nullptr ? telemetry->histogram("publish.refresh_ns") : nullptr;
  splice_ns_ = telemetry != nullptr ? telemetry->histogram("publish.splice_ns") : nullptr;
  build_ns_ = telemetry != nullptr ? telemetry->histogram("publish.build_ns") : nullptr;
  journal_ = telemetry != nullptr ? telemetry->journal() : nullptr;
}

uint64_t QueryService::refresh_from(map::MapBackend& backend) {
  backend.flush();
  // The export runs under the publish mutex: harvesting the backend's
  // dirty accumulator and recording which snapshot it paired with must be
  // atomic against other publishers.
  std::lock_guard lock(publish_mutex_);
  obs::TraceSpan span(refresh_ns_, journal_, "publish.refresh");
  const uint64_t since = delta_source_ == &backend ? delta_generation_ : 0;
  return publish_locked(backend.export_snapshot_delta(since), &backend);
}

SnapshotPublishStats QueryService::publish_stats() const {
  std::lock_guard lock(publish_mutex_);
  return publish_stats_;
}

uint64_t QueryService::publish_locked(map::MapSnapshotDelta delta, const void* source) {
  const uint64_t generation = delta.generation;
  if (!delta.full && delta.dirty_mask == 0) {
    // Nothing changed since this source's last delta: publish-free no-op.
    // Readers keep the current epoch and all its chunks.
    publish_stats_.noop_refreshes++;
    if (delta_source_ == source) delta_generation_ = generation;
    return publications_.load(std::memory_order_relaxed);
  }

  const uint64_t epoch = publications_.load(std::memory_order_relaxed) + 1;
  MapSnapshot::BuildStats build_stats;
  std::shared_ptr<const MapSnapshot> next;
  if (delta.full || delta_source_ != source || !delta_base_) {
    if (!delta.full) {
      // refresh_from asks for generation 0 without a pairing, which forces
      // the backend to answer full — an incremental delta here is a
      // backend bug.
      throw std::logic_error("QueryService::refresh_from: incremental delta without a base");
    }
    obs::TraceSpan span(build_ns_, journal_, "publish.build");
    next = MapSnapshot::build(
        map::MapSnapshotData{std::move(delta.leaves), delta.resolution, delta.params}, epoch);
    for (int b = 0; b < 8; ++b) {
      if (const auto chunk = next->branch_chunk(b)) {
        build_stats.chunks_rebuilt++;
        build_stats.bytes_rebuilt += chunk->memory_bytes();
      }
    }
  } else {
    obs::TraceSpan span(splice_ns_, journal_, "publish.splice");
    next = MapSnapshot::build_incremental(*delta_base_, std::move(delta), epoch, &build_stats);
    publish_stats_.incremental_publications++;
  }
  publish_stats_.chunks_reused += build_stats.chunks_reused;
  publish_stats_.chunks_rebuilt += build_stats.chunks_rebuilt;
  publish_stats_.bytes_reused += build_stats.bytes_reused;
  publish_stats_.bytes_rebuilt += build_stats.bytes_rebuilt;

  delta_source_ = source;
  delta_generation_ = generation;
  delta_base_ = next;
  swap_in(next);
  publications_.store(epoch, std::memory_order_release);
  publish_stats_.publications = epoch;
  return epoch;
}

}  // namespace omu::query
