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
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "net/network.hpp"
#include "obs/span.hpp"
#include "overload/backoff.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace wsched::net {

/// Receiver-side idempotency filter: claim() returns true exactly once
/// per id.
class DedupFilter {
 public:
  bool claim(std::uint64_t id) { return seen_.insert(id).second; }
  bool seen(std::uint64_t id) const { return seen_.count(id) != 0; }
  std::size_t size() const { return seen_.size(); }

 private:
  std::unordered_set<std::uint64_t> seen_;
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
  /// having been delivered. Returns the call id. `tag` ties the call to a
  /// request for span attribution (0 = untagged): retransmits and dedup
  /// drops become notes on that request's span tree.
  std::uint64_t call(int src, int dst, std::function<void()> on_deliver,
                     std::function<void()> on_fail, std::uint64_t tag = 0);

  std::uint64_t calls() const { return calls_started_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::size_t open_calls() const { return calls_.size(); }
  const DedupFilter& dedup() const { return dedup_; }

 private:
  struct Call {
    int src = 0;
    int dst = 0;
    int attempt = 1;
    bool delivered = false;
    std::uint64_t tag = 0;  ///< owning request id for span attribution
    std::function<void()> on_deliver;
    std::function<void()> on_fail;
  };

  void transmit(std::uint64_t id, int attempt);
  void on_data(std::uint64_t id);
  void on_ack(std::uint64_t id);
  void on_timeout(std::uint64_t id, int attempt);

  sim::Engine& engine_;
  Network& network_;
  Options options_;
  Rng rng_;
  Hooks hooks_;
  std::unordered_map<std::uint64_t, Call> calls_;
  DedupFilter dedup_;
  std::uint64_t next_id_ = 1;
  std::uint64_t calls_started_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace wsched::net
