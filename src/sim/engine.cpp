#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <iterator>
#include <sstream>
#include <utility>

#include "sim/node.hpp"

namespace wsched::sim {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace {
// (t, seq) min-heap order for the overflow heap.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};
constexpr Later kLater{};
}  // namespace

Engine::Engine() { std::fill(std::begin(heads_), std::end(heads_), kNil); }

void Engine::schedule_at(Time t, Action fn) {
  if (t < now_) t = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  }
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kClosure;
  e.u.closure.slot = slot;
  insert(e);
}

void Engine::schedule_call(Time t, void (*fn)(void*), void* ctx) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kCall;
  e.u.call.fn = fn;
  e.u.call.ctx = ctx;
  insert(e);
}

void Engine::schedule_cpu_slice_end(Time t, Node* node, std::uint64_t token) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kCpuSliceEnd;
  e.u.node.node = node;
  e.u.node.token = token;
  insert(e);
}

void Engine::schedule_disk_slice_end(Time t, Node* node,
                                     std::uint64_t token) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kDiskSliceEnd;
  e.u.node.node = node;
  e.u.node.token = token;
  insert(e);
}

void Engine::schedule_node_tick(Time t, Node* node) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kNodeTick;
  e.u.node.node = node;
  e.u.node.token = 0;
  insert(e);
}

void Engine::insert(Event e) {
  ++size_;
  const std::uint64_t b = bucket_of(e.t);
  if (b >= bucket_of(now_) + kBuckets) {
    // Beyond the calendar window: park in the overflow heap. Every ring
    // event's bucket lies in [bucket_of(now_), bucket_of(now_) + kBuckets),
    // so overflow events sort strictly after all ring events.
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), kLater);
    return;
  }
  if (ring_count_ == 0 && run_.empty()) {
    // Ring fully drained: every chain is empty (consumed leftovers only
    // live in run_ until the cursor moves on), so the cursor can jump.
    // Pin it to now_'s bucket, not the event's: after a direct overflow
    // serve, other overflow events may lie inside the window ahead of `b`.
    // Pulling them into the ring first keeps the cursor from skipping
    // past them.
    cur_bucket_ = bucket_of(now_);
    drain_overflow_into_window();
  }
  // Every pop leaves the cursor on now_'s bucket and t >= now_, so a new
  // event never lands behind the cursor.
  assert(b >= cur_bucket_);
  ++ring_count_;
  if (b == cur_bucket_ && !run_.empty()) {
    // The cursor is draining this bucket. The new event carries the
    // largest sequence number in existence, so among equal times it sorts
    // last: upper_bound on time alone lands on its exact (t, seq) slot.
    const auto it =
        std::upper_bound(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                         run_.end(), e.t,
                         [](Time t, const Event& x) { return t < x.t; });
    run_.insert(it, e);
  } else {
    link(b & kBucketMask, e);
  }
  bitmap_[(b & kBucketMask) >> 6] |= 1ull << (b & 63);
}

void Engine::link(std::uint64_t slot, const Event& e) {
  std::uint32_t i;
  if (free_ != kNil) {
    i = free_;
    free_ = pool_[i].next;
    pool_[i] = e;
  } else {
    i = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(e);
  }
  pool_[i].next = heads_[slot];
  heads_[slot] = i;
}

void Engine::gather_cursor_bucket() {
  std::uint32_t& head = heads_[cur_bucket_ & kBucketMask];
  for (std::uint32_t i = head; i != kNil;) {
    run_.push_back(pool_[i]);
    const std::uint32_t next = pool_[i].next;
    pool_[i].next = free_;
    free_ = i;
    i = next;
  }
  head = kNil;
  // Chains are LIFO; reversed they are in insertion order, which is
  // mostly time order already and so cheap to sort.
  std::reverse(run_.begin(), run_.end());
  std::sort(run_.begin(), run_.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  });
}

void Engine::drain_overflow_into_window() {
  const std::uint64_t limit = bucket_of(now_) + kBuckets;
  while (!overflow_.empty() && bucket_of(overflow_.front().t) < limit) {
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    const Event e = overflow_.back();
    overflow_.pop_back();
    const std::uint64_t b = bucket_of(e.t);
    link(b & kBucketMask, e);
    bitmap_[(b & kBucketMask) >> 6] |= 1ull << (b & 63);
    ++ring_count_;
  }
}

std::uint64_t Engine::next_nonempty_after(std::uint64_t b) const {
  // Scanning ring slots in ring order starting just past `b` visits
  // absolute buckets b+1 .. b+kBuckets-1 in increasing order, because all
  // live buckets fit inside one window.
  const std::uint64_t start = (b + 1) & kBucketMask;
  constexpr std::uint64_t kWords = kBuckets / 64;
  std::uint64_t word_i = start >> 6;
  std::uint64_t word = bitmap_[word_i] & (~0ull << (start & 63));
  for (std::uint64_t i = 0; i <= kWords; ++i) {
    if (word != 0) {
      const std::uint64_t slot =
          (word_i << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
      const std::uint64_t delta = (slot - start) & kBucketMask;
      return b + 1 + delta;
    }
    word_i = (word_i + 1) & (kWords - 1);
    word = bitmap_[word_i];
  }
  assert(false && "ring_count_ > 0 but no bucket bit set");
  return b;
}

bool Engine::prepare_next() {
  next_from_overflow_ = false;
  for (;;) {
    const std::uint32_t& head = heads_[cur_bucket_ & kBucketMask];
    if (!run_.empty()) {
      if (run_pos_ < run_.size()) return true;
      // Exhausted: release the bucket and move on.
      run_.clear();
      bitmap_[(cur_bucket_ & kBucketMask) >> 6] &=
          ~(1ull << (cur_bucket_ & 63));
      run_pos_ = 0;
    } else if (head != kNil) {
      gather_cursor_bucket();
      return true;
    }
    if (size_ == 0) return false;
    drain_overflow_into_window();
    if (head != kNil) continue;  // overflow drained into the cursor bucket
    if (ring_count_ > 0) {
      cur_bucket_ = next_nonempty_after(cur_bucket_);
      continue;
    }
    // Ring empty, overflow holding only beyond-window events: serve the
    // heap top directly (rare — far-future faults, end-of-run stragglers).
    next_from_overflow_ = true;
    return true;
  }
}

Engine::Event Engine::take_next() {
  --size_;
  if (next_from_overflow_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    const Event e = overflow_.back();
    overflow_.pop_back();
    // Re-anchor the cursor at the event's bucket. Overflow events now
    // inside the window stay in the heap until the handler's first ring
    // insert() or the following prepare_next() drains them, before the
    // cursor can move past them.
    cur_bucket_ = bucket_of(e.t);
    return e;
  }
  --ring_count_;
  return run_[run_pos_++];
}

void Engine::dispatch(const Event& e) {
  switch (e.kind) {
    case EventKind::kCall:
      e.u.call.fn(e.u.call.ctx);
      break;
    case EventKind::kCpuSliceEnd:
      e.u.node.node->on_cpu_slice_end(e.u.node.token);
      break;
    case EventKind::kDiskSliceEnd:
      e.u.node.node->on_disk_slice_end(e.u.node.token);
      break;
    case EventKind::kNodeTick:
      e.u.node.node->on_tick();
      break;
    case EventKind::kClosure: {
      const std::uint32_t slot = e.u.closure.slot;
      Action fn = std::move(slab_[slot]);
      free_slots_.push_back(slot);  // slot reusable while fn runs
      fn();
      break;
    }
  }
}

void Engine::set_guard(std::uint64_t max_events, double wall_budget_s) {
  guard_max_events_ = max_events;
  guard_wall_budget_s_ = wall_budget_s;
  guard_wall_deadline_ns_ = 0;  // re-anchored on the next processed event
  rearm_guard_check();
}

void Engine::rearm_guard_check() {
  std::uint64_t next = UINT64_MAX;
  if (guard_max_events_ > 0) next = guard_max_events_;
  if (guard_wall_budget_s_ > 0.0) {
    if (guard_wall_deadline_ns_ == 0) {
      next = std::min(next, processed_ + 1);  // anchor the deadline ASAP
    } else {
      // The clock read is amortized: once every 8192 events keeps the
      // guard out of the per-event cost while bounding overshoot.
      next = std::min(next, (processed_ & ~std::uint64_t{0x1FFF}) + 0x2000);
    }
  }
  guard_check_at_ = next;
}

void Engine::guard_abort(const char* which) {
  std::ostringstream message;
  message << "engine guard tripped (" << which << "): t="
          << to_seconds(now_) << "s processed=" << processed_
          << " pending=" << size_;
  if (guard_max_events_ > 0)
    message << " max_events=" << guard_max_events_;
  if (guard_wall_budget_s_ > 0.0)
    message << " wall_budget=" << guard_wall_budget_s_ << "s";
  if (guard_diagnostics_) {
    const std::string context = guard_diagnostics_();
    if (!context.empty()) message << "; " << context;
  }
  throw EngineGuardError(message.str(), now_, processed_, size_);
}

void Engine::guard_tick() {
  if (guard_max_events_ > 0 && processed_ >= guard_max_events_)
    guard_abort("max events");
  if (guard_wall_budget_s_ > 0.0) {
    if (guard_wall_deadline_ns_ == 0) {
      guard_wall_deadline_ns_ =
          steady_now_ns() +
          static_cast<std::int64_t>(guard_wall_budget_s_ * 1e9);
    } else if ((processed_ & 0x1FFF) == 0 &&
               steady_now_ns() > guard_wall_deadline_ns_) {
      guard_abort("wall clock");
    }
  }
  rearm_guard_check();
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && prepare_next()) {
    const Event e = take_next();
    now_ = e.t;
    ++processed_;
    if (processed_ >= guard_check_at_) guard_tick();
    dispatch(e);
  }
}

}  // namespace wsched::sim
