// At-least-once RPC over the lossy interconnect, with receiver-side dedup.
//
// A call sends one data message and arms a timeout; a lost message (or a
// lost ack) triggers a retransmit after a shared BackoffConfig delay, up
// to max_attempts. The receiver tracks delivered call ids in a DedupFilter
// so a retransmitted CGI dispatch whose first copy already arrived is
// dropped (counted as a duplicate) instead of executed twice — the
// idempotency the paper gets for free by assuming a perfect wire.
//
// When every attempt times out the caller's on_fail fires so the cluster
// can fail the dispatch over — unless a copy was in fact delivered (the
// acks were lost, not the data): then on_fail is suppressed, modeling the
// end-to-end request-id dedup a real system uses to keep "retry" and
// "failover" from both executing. The accounting invariant
// completed + timeouts + shed + abandoned == submitted depends on this.
//
// Storage (DESIGN.md section 12): call ids are dense from 1. A live call
// sits in the slot `id mod capacity` of a power-of-two ring, and the slot
// records the id it holds, which serves as its generation tag: a message
// or timer that outlives its call finds another id (or none) there and
// touches nothing. When a new id lands on a slot an older live call still
// holds, the ring doubles until it is longer than the span of live ids, so
// it tracks the calls in flight, not the number of calls made. Messages carry the id as their
// Delivery token; timers are pooled records. Nothing allocates per call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "obs/span.hpp"
#include "overload/backoff.hpp"
#include "sim/engine.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace wsched::net {

/// Receiver-side idempotency filter over dense ids: claim() returns true
/// exactly once per id. One bit per id, so it grows by one bit per id
/// (in doubling steps), not by a hash node.
class DedupFilter {
 public:
  bool claim(std::uint64_t id) {
    const std::size_t word = static_cast<std::size_t>(id >> 6);
    if (word >= bits_.size())
      bits_.resize(std::max(word + 1, 2 * bits_.size()), 0);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((bits_[word] & bit) != 0) return false;
    bits_[word] |= bit;
    ++claimed_;
    return true;
  }
  bool seen(std::uint64_t id) const {
    const std::size_t word = static_cast<std::size_t>(id >> 6);
    return word < bits_.size() &&
           (bits_[word] & (std::uint64_t{1} << (id & 63))) != 0;
  }
  std::size_t size() const { return claimed_; }

 private:
  std::vector<std::uint64_t> bits_;
  std::size_t claimed_ = 0;
};

class Rpc {
 public:
  struct Options {
    Time timeout = 50 * kMillisecond;
    int max_attempts = 3;
    overload::BackoffConfig backoff;
  };

  struct Hooks {
    obs::TraceSink* trace = nullptr;
    obs::SpanRecorder* spans = nullptr;
    int cluster_pid = 0;
  };

  Rpc(sim::Engine& engine, Network& network, Options options,
      std::uint64_t seed);

  void set_hooks(const Hooks& hooks) { hooks_ = hooks; }

  /// Starts one at-least-once call from node `src` to node `dst`.
  /// `on_deliver` runs exactly once, at the receiver, when the first copy
  /// arrives; `on_fail` runs when all attempts time out without any copy
  /// having been delivered. Exactly one of the two runs unless the run
  /// ends first. Returns the call id. `tag` ties the call to a request
  /// for span attribution (0 = untagged): retransmits and dedup drops
  /// become notes on that request's span tree.
  std::uint64_t call(int src, int dst, Delivery on_deliver, Delivery on_fail,
                     std::uint64_t tag = 0);

  std::uint64_t calls() const { return calls_started_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::size_t open_calls() const { return open_; }
  const DedupFilter& dedup() const { return dedup_; }

 private:
  struct Call {
    std::uint64_t id = 0;   ///< the call in this slot; 0 == free
    std::uint64_t tag = 0;  ///< owning request id for span attribution
    int src = 0;
    int dst = 0;
    int attempt = 1;
    bool delivered = false;
    Delivery on_deliver;
    Delivery on_fail;
  };
  /// A pending timeout of one attempt, or the retransmit after a backoff.
  struct Timer {
    Rpc* rpc = nullptr;
    std::uint64_t id = 0;
    int attempt = 0;
    bool retransmit = false;
  };

  /// The ring slot of `id`, whichever call holds it.
  Call& slot(std::uint64_t id) {
    return calls_[static_cast<std::size_t>(id) & (calls_.size() - 1)];
  }
  /// The live call with this id; null once it ended.
  Call* find(std::uint64_t id) {
    Call& call = slot(id);
    return call.id == id ? &call : nullptr;
  }
  /// Doubles the ring until it is longer than the span of live ids up to
  /// `id`, so each has a slot of its own.
  void grow(std::uint64_t id);
  void end(Call& call) {
    call.id = 0;
    --open_;
  }
  void arm(Time delay, std::uint64_t id, int attempt, bool retransmit);
  static void fire(void* ctx);
  static void data_landed(void* ctx, std::uint64_t id);
  static void ack_landed(void* ctx, std::uint64_t id);

  void transmit(std::uint64_t id, int attempt);
  void on_data(std::uint64_t id);
  void on_timeout(std::uint64_t id, int attempt);

  sim::Engine& engine_;
  Network& network_;
  Options options_;
  Rng rng_;
  Hooks hooks_;
  std::vector<Call> calls_;  ///< ring of live calls, size a power of two
  std::size_t open_ = 0;
  Pool<Timer> timers_;
  DedupFilter dedup_;
  std::uint64_t next_id_ = 1;
  std::uint64_t calls_started_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace wsched::net
