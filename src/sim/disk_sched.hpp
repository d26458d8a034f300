// Round-robin disk scheduler (§5.1: "The I/O queue also maintains a set of
// I/O processes and is scheduled using round-robin."). The disk serves one
// process at a time in fixed page-access slices; a process with more I/O
// left after its slice goes to the back of the ring. The ring is an
// intrusive FIFO (ProcQueue) threaded through the processes.
#pragma once

#include <cstddef>

#include "sim/params.hpp"
#include "sim/process.hpp"

namespace wsched::sim {

class DiskScheduler {
 public:
  explicit DiskScheduler(const OsParams& os) : os_(&os) {}

  /// Adds a process with pending io_left to the ring.
  void enqueue(Process* proc) {
    ring_.push_back(proc);
    ++size_;
    proc->state = ProcState::kDiskQueued;
  }

  /// Pops the process at the head of the ring; nullptr when idle.
  Process* pop_next() {
    if (ring_.empty()) return nullptr;
    --size_;
    return ring_.pop_front();
  }

  /// Slice duration for the given process: one page access, or the
  /// remainder if smaller.
  Time slice_for(const Process& proc) const {
    return proc.io_left < os_->io_page_access ? proc.io_left
                                              : os_->io_page_access;
  }

  bool empty() const { return ring_.empty(); }
  std::size_t size() const { return size_; }

  /// Removes one queued process from the ring (client abandonment).
  /// Returns false when the process is not queued here.
  bool remove(Process* proc) {
    if (!ring_.remove(proc)) return false;
    --size_;
    return true;
  }

  /// Drops every queued process (node crash); the owners are reclaimed by
  /// the Node's live table, so no cleanup per process is needed here.
  void clear() {
    ring_.clear();
    size_ = 0;
  }

 private:
  const OsParams* os_;
  ProcQueue ring_;
  std::size_t size_ = 0;
};

}  // namespace wsched::sim
