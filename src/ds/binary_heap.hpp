// Indexed binary min-heap with decrease-key ("insertOrAdjust").
//
// This is the heap of Prim's Algorithm 2: items are identified by a dense
// integer id in [0, capacity); each id is in the heap at most once; and
// `insert_or_adjust(id, key)` inserts the id or lowers its key in O(log n).
// A position index (id -> heap slot, stored as an Id: ids and slots are both
// below capacity) makes decrease-key and erase possible.
//
// Keys are a template parameter; MST code instantiates Key = EdgePriority
// (packed weight|edge_id, see graph/types.hpp), so ties are impossible and
// pop order is deterministic.
//
// Operation counters (pushes/pops/adjusts/erases/sift steps) are kept
// unconditionally — they cost one increment on paths that do O(log n) work
// anyway and they are what the Fig. 2 ablation reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace llpmst {

/// Statistics describing how much work a heap instance performed.
struct HeapStats {
  std::uint64_t pushes = 0;        // new ids inserted
  std::uint64_t pops = 0;          // remove-min calls
  std::uint64_t adjusts = 0;       // decrease-key on a resident id
  std::uint64_t erases = 0;        // arbitrary resident ids removed
  std::uint64_t sift_steps = 0;    // total levels moved by sift up/down

  HeapStats& operator+=(const HeapStats& o) {
    pushes += o.pushes;
    pops += o.pops;
    adjusts += o.adjusts;
    erases += o.erases;
    sift_steps += o.sift_steps;
    return *this;
  }
};

template <typename Key, typename Id = std::uint32_t>
class BinaryHeap {
 public:
  /// Creates a heap able to hold ids in [0, capacity).
  explicit BinaryHeap(std::size_t capacity)
      : pos_(capacity, kAbsent) {
    LLPMST_CHECK(capacity <= kAbsent);
    heap_.reserve(capacity);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool contains(Id id) const {
    LLPMST_ASSERT(id < pos_.size());
    return pos_[id] != kAbsent;
  }

  /// Current key of a resident id.
  [[nodiscard]] Key key_of(Id id) const {
    LLPMST_ASSERT(contains(id));
    return heap_[pos_[id]].key;
  }

  /// The minimum entry without removing it.
  [[nodiscard]] std::pair<Id, Key> peek() const {
    LLPMST_ASSERT(!empty());
    return {heap_[0].id, heap_[0].key};
  }

  /// Inserts id (must not be resident).
  void push(Id id, Key key) {
    LLPMST_ASSERT(!contains(id));
    pos_[id] = static_cast<Id>(heap_.size());
    heap_.push_back({key, id});
    ++stats_.pushes;
    sift_up(heap_.size() - 1);
  }

  /// Prim's H.insertOrAdjust: insert if absent, decrease-key if the new key
  /// is lower, no-op otherwise.  Returns true if the heap changed.
  bool insert_or_adjust(Id id, Key key) {
    LLPMST_ASSERT(id < pos_.size());
    if (pos_[id] == kAbsent) {
      push(id, key);
      return true;
    }
    const std::size_t i = pos_[id];
    if (key < heap_[i].key) {
      heap_[i].key = key;
      ++stats_.adjusts;
      sift_up(i);
      return true;
    }
    return false;
  }

  /// Removes and returns the minimum entry.
  std::pair<Id, Key> pop() {
    LLPMST_ASSERT(!empty());
    Entry top = heap_[0];
    ++stats_.pops;
    remove_at(0);
    return {top.id, top.key};
  }

  /// Removes an arbitrary resident id (used when a vertex becomes fixed
  /// through the R set and its heap entry is dead).
  void erase(Id id) {
    LLPMST_ASSERT(contains(id));
    ++stats_.erases;
    remove_at(pos_[id]);
  }

  void clear() {
    for (const Entry& e : heap_) pos_[e.id] = kAbsent;
    heap_.clear();
  }

  [[nodiscard]] const HeapStats& stats() const { return stats_; }
  void reset_stats() { stats_ = HeapStats{}; }

 private:
  struct Entry {
    Key key;
    Id id;
  };
  static constexpr Id kAbsent = static_cast<Id>(-1);

  void remove_at(std::size_t i) {
    pos_[heap_[i].id] = kAbsent;
    Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    heap_[i] = last;
    pos_[last.id] = static_cast<Id>(i);
    // The moved element may need to go either way.
    if (i > 0 && heap_[i].key < heap_[parent(i)].key) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  static std::size_t parent(std::size_t i) { return (i - 1) / 2; }

  void sift_up(std::size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      std::size_t p = parent(i);
      if (!(e.key < heap_[p].key)) break;
      heap_[i] = heap_[p];
      pos_[heap_[i].id] = static_cast<Id>(i);
      i = p;
      ++stats_.sift_steps;
    }
    heap_[i] = e;
    pos_[e.id] = static_cast<Id>(i);
  }

  void sift_down(std::size_t i) {
    Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
      if (!(heap_[child].key < e.key)) break;
      heap_[i] = heap_[child];
      pos_[heap_[i].id] = static_cast<Id>(i);
      i = child;
      ++stats_.sift_steps;
    }
    heap_[i] = e;
    pos_[e.id] = static_cast<Id>(i);
  }

  std::vector<Entry> heap_;
  std::vector<Id> pos_;  // id -> slot in heap_, or kAbsent
  HeapStats stats_;
};

}  // namespace llpmst
