// Simulated request-handling processes.
//
// "Each request job will be modeled as a sequence of CPU bursts and I/O
// bursts, submitted to the CPU queue and I/O queue." (§5.1). A process owns
// its burst plan and its BSD-style decayed CPU usage; the Node drives its
// state machine.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/params.hpp"
#include "trace/record.hpp"
#include "util/time.hpp"

namespace wsched::sim {

/// One work item dispatched to a node.
struct Job {
  std::uint64_t id = 0;
  trace::TraceRecord request;
  Time cluster_arrival = 0;  ///< arrival at the cluster front end
  bool remote = false;       ///< executed away from the receiving master
  int receiver = 0;          ///< node that accepted the request
  /// Failover bookkeeping (0 / false unless the fault layer is active).
  std::uint32_t attempts = 0;  ///< re-dispatches after a node crash
  bool disrupted = false;      ///< touched by a failure window
  /// Hedged-dispatch copy: runs in parallel with the primary; the first
  /// completion settles the request and the loser is cancelled. Copies
  /// never feed the span recorder (the primary owns the request's span
  /// tree) and never fail over on their own.
  bool hedge = false;
};

/// Alternating CPU / I/O demand, one entry per cycle.
struct BurstCycle {
  Time cpu = 0;
  Time io = 0;
};

/// Splits a service demand into alternating CPU/I/O cycles. The CPU share
/// is `w`; the I/O total is carved into ~io_cycle_target chunks. Totals are
/// conserved exactly (the last cycle absorbs rounding).
std::vector<BurstCycle> plan_bursts(Time demand, double w,
                                    const OsParams& os);

/// In-place variant: overwrites `out`, reusing its capacity. This is the
/// hot-path entry point — pooled processes keep their cycle vector across
/// reuse, so steady-state dispatch plans bursts without allocating.
void plan_bursts_into(Time demand, double w, const OsParams& os,
                      std::vector<BurstCycle>& out);

enum class ProcState : std::uint8_t {
  kReady,       ///< in the CPU ready queue
  kRunning,     ///< holding the CPU
  kDiskQueued,  ///< waiting in the disk round-robin ring
  kDiskActive,  ///< the disk is transferring for this process
  kDone,
};

struct Process {
  Job job;
  std::vector<BurstCycle> cycles;
  std::size_t cycle = 0;       ///< current cycle index
  Time cpu_left = 0;           ///< CPU time left in the current cycle
  Time io_left = 0;            ///< I/O time left in the current cycle
  ProcState state = ProcState::kReady;
  /// BSD-style decayed CPU usage; determines the MLFQ level.
  Time p_cpu = 0;
  /// Pages actually granted by the memory manager (freed on completion).
  std::uint32_t granted_pages = 0;
  Time node_arrival = 0;
  /// Index into the owning Node's live-process table (for O(1) removal).
  std::size_t live_index = 0;
  /// Queue link (ProcQueue). A process waits in at most one queue at a
  /// time, the MLFQ ready queue or the disk ring, and `state` says which.
  Process* next = nullptr;

  /// Loads the next cycle's work; returns false when no cycles remain.
  bool load_cycle() {
    if (cycle >= cycles.size()) return false;
    cpu_left = cycles[cycle].cpu;
    io_left = cycles[cycle].io;
    return true;
  }
  bool advance_cycle() {
    ++cycle;
    return load_cycle();
  }
};

/// Intrusive FIFO of processes threaded through Process::next: the MLFQ
/// levels and the disk ring grow with the node's processes, never per
/// enqueue.
class ProcQueue {
 public:
  bool empty() const { return head_ == nullptr; }

  void push_back(Process* proc) {
    proc->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = proc;
    } else {
      head_ = proc;
    }
    tail_ = proc;
  }

  /// Precondition: !empty().
  Process* pop_front() {
    Process* proc = head_;
    head_ = proc->next;
    if (head_ == nullptr) tail_ = nullptr;
    proc->next = nullptr;
    return proc;
  }

  /// Unlinks `proc` wherever it sits (linear scan); false when absent.
  bool remove(Process* proc) {
    Process* prev = nullptr;
    for (Process* it = head_; it != nullptr; prev = it, it = it->next) {
      if (it != proc) continue;
      (prev != nullptr ? prev->next : head_) = it->next;
      if (tail_ == it) tail_ = prev;
      it->next = nullptr;
      return true;
    }
    return false;
  }

  /// Appends all of `other`'s processes, in order, and empties it.
  void splice_back(ProcQueue& other) {
    if (other.head_ == nullptr) return;
    if (tail_ != nullptr) {
      tail_->next = other.head_;
    } else {
      head_ = other.head_;
    }
    tail_ = other.tail_;
    other.head_ = other.tail_ = nullptr;
  }

  void clear() { head_ = tail_ = nullptr; }

 private:
  Process* head_ = nullptr;
  Process* tail_ = nullptr;
};

}  // namespace wsched::sim
