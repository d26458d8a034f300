// A free-listed object pool for records that ride pending engine events.
//
// acquire() hands out a slot with a stable address (a std::deque never
// moves its elements), release() returns it for reuse. The pool grows to
// the peak number of records alive at once and then stops allocating, so a
// component that parks one record per scheduled event (a hop, a message, a
// timer) keeps its memory at its working set, not at the run's length.
// A recycled slot keeps its previous contents; callers overwrite it.
#pragma once

#include <deque>
#include <vector>

namespace wsched {

template <class T>
class Pool {
 public:
  Pool() = default;
  // Pending events hold slot addresses, and slots often point back at
  // their owner: neither may be copied.
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  T* acquire() {
    if (free_.empty()) return &items_.emplace_back();
    T* item = free_.back();
    free_.pop_back();
    return item;
  }
  void release(T* item) { free_.push_back(item); }

 private:
  std::deque<T> items_;
  std::vector<T*> free_;
};

}  // namespace wsched
