// Overload-control subsystem: request deadlines with client abandonment,
// admission control / load shedding, per-node circuit breakers, and a
// cluster saturation detector that flips masters into a degraded
// static-only mode.
//
// The controller is one layer of a cluster run (core/layer.hpp): the run
// attaches it when any overload feature is enabled (OverloadConfig::any())
// and it acts at the arrival, admission, dispatch, landing, completion and
// terminal hooks. With every knob at its disabled default the
// subsystem is not constructed at all and the run is bit-identical to one
// without it; an enabled-but-never-triggered configuration consumes no RNG
// draws from the shared streams (the controller owns its own).
//
// Deadline semantics: the client abandons a request `deadline` after its
// cluster arrival — wherever it is. A job abandoned on a node is aborted
// (freed from the run/disk queues, partial work charged pro rata); one
// abandoned while waiting (dispatch hop, retry backoff) is dropped when
// its pending event fires. Abandonments are terminal and counted
// separately from fault-layer timeouts.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/layer.hpp"
#include "obs/trace.hpp"
#include "overload/admission.hpp"
#include "overload/backoff.hpp"
#include "overload/breaker.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::core {
class ClusterRun;
}

namespace wsched::overload {

struct DeadlineConfig {
  /// Client patience per request class, in seconds; 0 disables the class.
  double static_s = 0.0;
  double dynamic_s = 0.0;

  bool any() const { return static_s > 0.0 || dynamic_s > 0.0; }
};

struct OverloadConfig {
  DeadlineConfig deadline;
  AdmissionConfig admission;
  BreakerConfig breaker;
  SaturationConfig saturation;
  /// Client retries of shed requests before the request counts as shed
  /// for good.
  int max_retries = 3;

  /// True when any feature is on (the cluster instantiates the controller
  /// only then).
  bool any() const {
    return deadline.any() || admission.policy != AdmissionPolicy::kNone ||
           breaker.enabled || saturation.enabled;
  }
};

class OverloadController : public core::Layer {
 public:
  OverloadController(core::ClusterRun& run, const OverloadConfig& config);

  // --- the layer hooks (see core/layer.hpp) ---

  /// Schedules the periodic signal tick.
  void start() override;
  /// Starts the abandonment clock (no-op for a class without a deadline).
  void on_arrival(sim::Job& job) override;
  /// Sheds (into the client retry loop) or admits.
  bool admit(sim::Job& job) override;
  /// Breaker feed: a dispatch to `node`, or a failed one.
  void on_sent(int node, bool ok) override;
  /// Tracking: the job is in flight (hop or backoff wait) / on `node`.
  void on_wait(const sim::Job& job) override;
  void on_landed(const sim::Job& job, int node) override;
  /// A job abandoned while waiting is dropped when its hop lands.
  bool on_land(const sim::Job& job) override;
  /// Closes tracking, feeds the breaker and (for static requests) the
  /// stretch-target admission signal. False for a completion racing an
  /// already-counted abandonment — a zombie the core must not count.
  bool on_complete(const sim::Job& job, int node, Time at) override;
  /// A timed-out request releases its tracking.
  void on_terminal(std::uint64_t id, obs::SpanOutcome why) override;
  /// Retry landing (tag 0) or deadline (tag 1).
  void resume(sim::Job& job, int tag) override;
  void publish(core::RunResult& result) const override;

 private:
  struct TrackedJob {
    int node = -1;  ///< executing node, or -1 while in flight
    bool abandoned = false;
    bool dynamic = false;
  };
  enum Tag : int { kRetry = 0, kDeadline = 1 };

  /// Shed verdict for an arriving (or retrying) request: null admits, a
  /// non-null reason tag ("shed-queue" / "shed-util" / "shed-stretch")
  /// sheds. Draws from the controller's own RNG stream only when the
  /// policy probability is strictly between 0 and 1.
  const char* shed_reason(bool dynamic);
  Time deadline_for(bool dynamic) const;

  /// Load shedding: a shed request is retried by the client with the
  /// shared backoff curve up to max_retries times, then counted shed for
  /// good — never silently lost. Each retry is a fresh admission.
  void shed_retry(sim::Job job, const char* reason);
  void on_deadline(std::uint64_t id);
  static void fire_tick(void* ctx);
  void on_tick();
  /// Traces (and logs) any breaker trip since the last call.
  void sync_breaker_trips();

  core::ClusterRun& run_;
  sim::Engine& engine_;
  obs::TraceSink* trace_;
  OverloadConfig config_;
  AdmissionController admission_;
  SaturationDetector saturation_;
  BreakerBank breakers_;
  bool breakers_on_;
  Rng admission_rng_;
  Rng retry_rng_;

  std::unordered_map<std::uint64_t, TrackedJob> live_;
  Time last_tick_ = 0;
  Time last_cpu_busy_ = 0;
  std::uint64_t last_trips_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace wsched::overload
