// Bounded FIFO queue model.
//
// Models the hardware queues in the OMU design (the free/occupied voxel
// queues feeding the scheduler and the per-PE input queues, paper Fig. 4/7)
// with explicit capacity and occupancy tracking so back-pressure and
// high-water marks are observable in experiments.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

namespace omu::sim {

/// Fixed-capacity FIFO with occupancy statistics.
template <typename T>
class Fifo {
 public:
  /// `capacity` = maximum number of entries (hardware queue depth).
  explicit Fifo(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() >= capacity_; }

  /// Attempts to enqueue; returns false (and counts a rejected push) when
  /// the queue is full — the producer must retry, modeling a stall. Takes
  /// by value so expensive payloads (e.g. whole UpdateBatches) can be
  /// moved in.
  bool try_push(T v) {
    if (full()) {
      ++rejected_pushes_;
      return false;
    }
    items_.push_back(std::move(v));
    ++total_pushes_;
    if (items_.size() > high_water_) high_water_ = items_.size();
    return true;
  }

  /// Dequeues the head element, or std::nullopt when empty.
  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> v(std::move(items_.front()));
    items_.pop_front();
    return v;
  }

  /// Peeks at the head element without removing it.
  const T* front() const { return items_.empty() ? nullptr : &items_.front(); }

  void clear() { items_.clear(); }

  // -- statistics ---------------------------------------------------------
  std::size_t high_water() const { return high_water_; }       ///< peak occupancy
  std::size_t total_pushes() const { return total_pushes_; }   ///< accepted pushes
  std::size_t rejected_pushes() const { return rejected_pushes_; }  ///< full-queue stalls

 private:
  std::size_t capacity_;
  std::deque<T> items_;
  std::size_t high_water_ = 0;
  std::size_t total_pushes_ = 0;
  std::size_t rejected_pushes_ = 0;
};

}  // namespace omu::sim
