// Reservation for static request processing (§4).
//
// Masters reserve capacity for static requests by capping the fraction of
// dynamic requests they execute locally at
//
//   theta'_2 = m/p - r_hat * (p - m) / (a_hat * p)
//
// — the upper end of Theorem 1's window, beyond which M/S falls behind the
// flat architecture. The controller monitors the arrival mix for a_hat and
// approximates r_hat from the relative response times of the two classes
// ("we use current relative response times of static and dynamic content
// requests to approximate r"), recomputing theta'_2 periodically. The
// adjustment is self-stabilizing (§4): if theta'_2 is too low, masters run
// few CGI, static responses speed up, r_hat falls, theta'_2 rises — and
// vice versa.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace wsched::core {

struct ReservationConfig {
  int p = 32;
  int m = 4;
  /// Priors used until real measurements arrive.
  double initial_r = 1.0 / 40.0;
  double initial_a = 0.3;
  /// EWMA weight for response-time estimates.
  double estimate_alpha = 0.05;
  /// EWMA weight for the routed-to-master fraction (per dynamic request).
  double routing_alpha = 0.01;
};

class ReservationController {
 public:
  explicit ReservationController(const ReservationConfig& config);

  /// Called by the dispatcher for every arrival (a_hat bookkeeping).
  void record_arrival(bool dynamic);

  /// Called on completion with the request's response time.
  void record_completion(bool dynamic, Time response);

  /// Called for every dynamic routing decision (true = sent to a master).
  void record_dynamic_routing(bool to_master);

  /// Recomputes theta'_2 from the current estimates; call periodically
  /// (the load managers "update theta'_2 periodically", §4).
  void update();

  /// Control-plane retune (src/ctrl/): replaces the internal (a, r)
  /// estimates with the control plane's and moves theta'_2 toward the
  /// Theorem 1 target by at most `max_step` (slew-rate limiting, so a
  /// noisy estimate cannot slam the reservation open or shut in one
  /// tick). Composes with the other theta writers: set_membership still
  /// re-solves immediately on churn (the cluster changed, not the
  /// estimate) and degraded mode still clamps to zero — retune holds the
  /// limit at zero while degraded or masterless.
  void retune(double a, double r, double max_step);

  /// Membership change under churn: re-sizes Theorem 1 from the
  /// *effective* node/master counts (crashed nodes excluded, promoted
  /// slaves included) and recomputes theta'_2 immediately. m == 0 (all
  /// masters dead, nothing promotable) closes the reservation entirely
  /// (theta'_2 = 0) until a master returns. The self-stabilizing r_hat /
  /// a_hat estimates are kept: the workload did not change, the cluster
  /// did.
  void set_membership(int p, int m);

  /// Probability that masters are admitted as candidates for the next
  /// dynamic request. A binary fraction-below-limit gate causes pulsed
  /// herding: while closed, dynamic work piles onto the slaves, so the
  /// moment it reopens the (comparatively idle) masters win every min-RSRC
  /// pick until the smoothed fraction crosses the limit again — slamming
  /// bursts of CGI into the nodes the reservation exists to protect.
  /// Tapering the admission linearly to zero as the routed fraction
  /// approaches theta'_2 keeps the inflow smooth: full admission below
  /// half the limit, zero at the limit.
  double master_admission() const {
    if (theta_limit_ <= 0.0) return 0.0;
    const double headroom = 1.0 - master_fraction_ / theta_limit_;
    return std::clamp(2.0 * headroom, 0.0, 1.0);
  }

  /// Convenience for tests/diagnostics: any admission possible right now?
  bool master_allowed() const { return master_admission() > 0.0; }

  /// Degraded static-only mode (overload layer): while set, the effective
  /// limit is clamped to zero — masters accept no dynamic work at all, the
  /// full reservation defends static traffic. The underlying theta'_2 and
  /// the r_hat / a_hat estimators keep updating so restore is seamless.
  void set_degraded(bool degraded) {
    degraded_ = degraded;
    if (degraded_) {
      theta_limit_ = 0.0;
    } else {
      update();
    }
  }
  bool degraded() const { return degraded_; }

  /// The naive binary gate (fraction strictly below the limit), kept for
  /// the ablation study of the tapered admission.
  bool binary_gate_open() const { return master_fraction_ < theta_limit_; }

  double theta_limit() const { return theta_limit_; }
  double master_fraction() const { return master_fraction_; }
  double a_hat() const { return a_hat_; }
  /// Current arrival-mix estimate of a without committing it — the
  /// control plane reads this each tick and feeds it back via retune()
  /// (the committed a_hat_ then moves under the slew-limited schedule).
  double a_hat_live() const {
    if (!arrival_mix_.primed()) return a_hat_;
    const double frac = std::clamp(arrival_mix_.value(), 0.0, 0.999);
    return frac / (1.0 - frac);
  }
  double r_hat() const { return r_hat_; }
  int masters() const { return config_.m; }
  int nodes() const { return config_.p; }

  /// theta'_2 for given parameters (exposed for tests/benches).
  static double theta_limit_for(int p, int m, double r, double a);

 private:
  ReservationConfig config_;
  Ewma static_resp_;
  Ewma dynamic_resp_;
  Ewma arrival_mix_;  ///< EWMA of the is-dynamic indicator
  double a_hat_;
  double r_hat_;
  double theta_limit_ = 0.0;
  double master_fraction_ = 0.0;
  bool routing_primed_ = false;
  bool degraded_ = false;
};

}  // namespace wsched::core
