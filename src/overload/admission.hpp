// Dispatcher-side admission control (load shedding) and the cluster
// saturation detector.
//
// Admission runs at the front end, before any routing work: each arriving
// request is shed with a probability derived from a smoothed overload
// signal. Three pluggable policies:
//
//   queue-depth    — binary: shed dynamic requests while the mean per-node
//                    run+disk queue exceeds max_queue.
//   utilization    — probabilistic: shed probability ramps linearly from 0
//                    at cpu utilization max_utilization to 1 at full
//                    utilization.
//   stretch-target — SLO-driven: tracks the static-request stretch (the
//                    quantity the paper's reservation defends) and ramps
//                    shedding of *dynamic* requests as it exceeds
//                    stretch_target, reaching full shed at
//                    stretch_target * stretch_full. Mirrors the
//                    reservation philosophy: dynamic work is deferrable,
//                    static latency is the contract.
//
// All policies shed dynamic requests first; static requests are only shed
// once the driving signal exceeds static_factor times its threshold
// (static_factor = 0, the default, never sheds statics).
//
// The saturation detector watches the same queue signal with hysteresis:
// enter degraded mode above enter_queue, exit below exit_queue, never
// switching twice within min_dwell_s. The cluster maps "degraded" to
// static-only masters (reservation admission clamped to zero).
#pragma once

#include <cstdint>
#include <string>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace wsched::overload {

enum class AdmissionPolicy : std::uint8_t {
  kNone,
  kQueueDepth,
  kUtilization,
  kStretchTarget,
};

const char* to_string(AdmissionPolicy policy);
/// Parses "none" | "queue" | "util" | "stretch" (CLI spelling).
AdmissionPolicy parse_admission_policy(const std::string& name);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kNone;
  /// Queue-depth policy: mean per-alive-node run+disk queue threshold. A
  /// negative cap sheds every dynamic request from t = 0.
  double max_queue = 48.0;
  /// Utilization policy: shed ramps from this mean cpu utilization to 1.0.
  double max_utilization = 0.90;
  /// Stretch-target policy: static-stretch SLO and the multiple of it at
  /// which shedding saturates at probability 1.
  double stretch_target = 5.0;
  double stretch_full = 3.0;
  /// Static requests shed only past static_factor * threshold (0 = never).
  double static_factor = 0.0;
  /// EWMA weight for the periodic queue/utilization signals and the
  /// per-completion static-stretch signal.
  double signal_alpha = 0.3;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  /// Periodic signal sample from the cluster.
  void on_signal(double mean_queue, double utilization);
  /// Static-request completion (stretch = response / demand).
  void on_static_completion(double stretch);

  /// Probability in [0, 1] that the next request of this class is shed.
  /// Pure; the caller owns the Bernoulli draw (and skips it when the
  /// probability is 0 or 1, preserving RNG-draw parity for inert configs).
  double shed_probability(bool dynamic) const;

  double queue_signal() const { return queue_.primed() ? queue_.value() : 0.0; }
  double util_signal() const { return util_.primed() ? util_.value() : 0.0; }
  double stretch_signal() const {
    return stretch_.primed() ? stretch_.value() : 0.0;
  }

 private:
  /// Shed probability given the thresholds scaled by `factor` (1 for
  /// dynamic requests, static_factor for static ones).
  double probability_scaled(double factor) const;

  AdmissionConfig config_;
  Ewma queue_;
  Ewma util_;
  Ewma stretch_;
};

struct SaturationConfig {
  bool enabled = false;
  /// Mean per-alive-node run+disk queue depth entering degraded mode.
  double enter_queue = 32.0;
  /// ... and restoring normal operation (hysteresis band).
  double exit_queue = 8.0;
  /// Minimum time between mode switches.
  double min_dwell_s = 2.0;
  /// EWMA weight for the queue signal.
  double signal_alpha = 0.3;
};

class SaturationDetector {
 public:
  explicit SaturationDetector(const SaturationConfig& config);

  /// Feeds one queue sample. Returns +1 on entering degraded mode, -1 on
  /// exiting, 0 otherwise.
  int on_signal(double mean_queue, Time now);

  bool degraded() const { return degraded_; }
  std::uint64_t entries() const { return entries_; }
  /// Total time spent degraded up to `now` (open interval included).
  Time degraded_time(Time now) const {
    return accumulated_ + (degraded_ ? now - entered_at_ : 0);
  }
  double signal() const { return signal_.primed() ? signal_.value() : 0.0; }

 private:
  SaturationConfig config_;
  Ewma signal_;
  bool degraded_ = false;
  Time last_switch_ = 0;
  bool switched_once_ = false;
  Time entered_at_ = 0;
  Time accumulated_ = 0;
  std::uint64_t entries_ = 0;
};

}  // namespace wsched::overload
