// Discrete-event core for the serve engine (docs/ENGINE.md).
//
// The engine's virtual timeline is driven by one binary min-heap of plain
// 32-byte event records keyed `(virtual_time, class, seq)`:
//
//   * `virtual_time` — seconds on the run's virtual clock;
//   * `class`        — the same-instant firing priority (EventClass below),
//                      which makes the engine's co-incident ordering an
//                      explicit, tested contract instead of code order;
//   * `seq`          — a monotone push counter, so events that tie on both
//                      time and class drain in scheduling order (FIFO).
//
// Allocation contract: this header extends the Tensor
// `allocation_count()` contract (common/tensor.h) to the serve path.
// Every heap-spine growth and every pool-arena block bumps the global
// `event_core::allocation_count()`; once an `EventList` is reserved and a
// `NodePool` has grown its arenas, pushing/popping events and
// acquiring/releasing nodes never allocates — the steady-state gate
// `allocation_count()` delta == 0 over a million-event run is enforced in
// tests/event_core_test.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/error.h"

namespace nsflow::serve::event_core {

/// Same-instant firing priority, smallest first. The ordering encodes the
/// engine's observable contract (docs/ENGINE.md):
///
///   1. the environment changes (adversity faults land),
///   2. the control loop observes the changed world (autoscaler tick),
///   3. shed requests re-offer (admission retry),
///   4. new arrivals enter,
///   5. shutdown runs strictly last.
///
/// kArrival is never pushed: the engine's arrivals ride a cursor beside
/// the timeline heap and fire before its top exactly when (t, kArrival)
/// sorts first. kDispatch keys the engine's dispatched-start backlog heap,
/// a second EventList that holds nothing else. Lane closes, batch
/// completions, admission sweeps and metric snapshots have no class: they
/// are computed inside the handlers above and never sit in a heap.
enum class EventClass : std::uint8_t {
  kAdversity = 0,
  kAutoscalerTick = 1,
  kAdmissionRetry = 2,
  kArrival = 3,
  kDispatch = 4,
  kDrain = 5,
};

/// One heap record. Plain data, 32 bytes: the payload words mean whatever
/// the scheduling site wants (a dispatched batch's size) — handlers
/// for cursor-driven classes (adversity, ticks) carry no payload at all.
struct Event {
  double t_s = 0.0;
  std::uint64_t seq = 0;
  std::int64_t payload = 0;
  EventClass cls = EventClass::kArrival;
};

namespace detail {
/// The serve-path allocation counter behind `allocation_count()` — the
/// exact shape of Tensor's: an inline static atomic, bumped on every
/// heap-spine growth and arena-block allocation.
struct AllocationCounter {
  inline static std::atomic<std::int64_t> count{0};
};
inline void CountAllocation() {
  AllocationCounter::count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

/// Total heap-spine growths + pool-arena blocks allocated so far,
/// process-wide. Tests snapshot before/after a steady-state window and
/// assert the delta is zero.
inline std::int64_t allocation_count() {
  return detail::AllocationCounter::count.load(std::memory_order_relaxed);
}

/// Binary min-heap of Events keyed (t_s, class, seq). Storage is one flat
/// vector; `Reserve` pre-sizes it and any later growth is counted as an
/// allocation (see the header comment).
class EventList {
 public:
  EventList() = default;

  void Reserve(std::size_t capacity) {
    if (capacity > heap_.capacity()) {
      detail::CountAllocation();
      heap_.reserve(capacity);
    }
  }

  /// Schedules an event; returns its seq (monotone per list, so equal
  /// (t, class) pushes drain first-scheduled-first).
  std::uint64_t Push(double t_s, EventClass cls, std::int64_t payload = 0) {
    const std::uint64_t seq = next_seq_++;
    if (heap_.size() == heap_.capacity()) {
      detail::CountAllocation();
    }
    heap_.push_back(Event{t_s, seq, payload, cls});
    SiftUp(heap_.size() - 1);
    return seq;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::size_t capacity() const { return heap_.capacity(); }

  const Event& Top() const {
    NSF_CHECK_MSG(!heap_.empty(), "Top() on an empty event list");
    return heap_.front();
  }

  Event Pop() {
    NSF_CHECK_MSG(!heap_.empty(), "Pop() on an empty event list");
    const Event top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0);
    }
    return top;
  }

  void Clear() { heap_.clear(); }

 private:
  static bool Before(const Event& a, const Event& b) {
    if (a.t_s != b.t_s) {
      return a.t_s < b.t_s;
    }
    if (a.cls != b.cls) {
      return static_cast<std::uint8_t>(a.cls) <
             static_cast<std::uint8_t>(b.cls);
    }
    return a.seq < b.seq;
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!Before(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t left = 2 * i + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = i;
      if (left < n && Before(heap_[left], heap_[smallest])) {
        smallest = left;
      }
      if (right < n && Before(heap_[right], heap_[smallest])) {
        smallest = right;
      }
      if (smallest == i) {
        break;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Freelist-backed arena of intrusive nodes. `Acquire` pops the freelist
/// (LIFO — a released slot is the next one handed out, keeping hot nodes
/// cache-resident) or bump-allocates from the newest arena block; only
/// growing a fresh block allocates, and that is counted. Each slot carries
/// a generation stamp bumped on every release, so a stale handle from a
/// previous occupancy is detectable (the classic ABA guard) — tests pin
/// both the same-arena reuse and the generation bump.
template <typename T>
class NodePool {
 public:
  explicit NodePool(std::size_t block_nodes = 256)
      : block_nodes_(block_nodes == 0 ? 1 : block_nodes) {}

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  ~NodePool() {
    // Live nodes must be released (and destroyed) by the owner before the
    // pool dies; remaining slots hold no constructed T.
  }

  /// Constructs a T in a pooled slot and returns it.
  template <typename... Args>
  T* Acquire(Args&&... args) {
    Slot* slot = free_;
    if (slot != nullptr) {
      free_ = slot->next_free;
    } else {
      if (bump_ == block_nodes_ || blocks_.empty()) {
        detail::CountAllocation();
        blocks_.push_back(std::make_unique<Slot[]>(block_nodes_));
        bump_ = 0;
      }
      slot = &blocks_.back()[bump_++];
    }
    ++live_;
    return new (slot->storage) T(std::forward<Args>(args)...);
  }

  /// Destroys the node and returns its slot to the freelist.
  void Release(T* node) {
    NSF_CHECK_MSG(node != nullptr, "Release(nullptr)");
    node->~T();
    Slot* slot = SlotOf(node);
    ++slot->generation;
    slot->next_free = free_;
    free_ = slot;
    --live_;
  }

  /// The slot's occupancy generation: 0 for a never-released slot, +1 per
  /// Release. A handle that remembers the generation it was acquired
  /// under can detect reuse (ABA) by comparing.
  std::uint64_t Generation(const T* node) const {
    return SlotOf(const_cast<T*>(node))->generation;
  }

  /// Whether `node` points into one of this pool's arena blocks.
  bool Owns(const T* node) const {
    for (const auto& block : blocks_) {
      const Slot* begin = block.get();
      const Slot* end = begin + block_nodes_;
      const Slot* slot = SlotOf(const_cast<T*>(node));
      if (slot >= begin && slot < end) {
        return true;
      }
    }
    return false;
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return blocks_.size() * block_nodes_; }

 private:
  struct Slot {
    alignas(alignof(T)) unsigned char storage[sizeof(T)];
    Slot* next_free = nullptr;
    std::uint64_t generation = 0;
  };

  static Slot* SlotOf(T* node) {
    // storage is the first member, so the T* and its Slot* coincide.
    return std::launder(reinterpret_cast<Slot*>(
        reinterpret_cast<unsigned char*>(node) - offsetof(Slot, storage)));
  }

  std::size_t block_nodes_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  Slot* free_ = nullptr;
  std::size_t bump_ = 0;
  std::size_t live_ = 0;
};

}  // namespace nsflow::serve::event_core
