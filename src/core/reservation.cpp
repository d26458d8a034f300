#include "core/reservation.hpp"

#include <algorithm>
#include <stdexcept>

namespace wsched::core {

namespace {

/// EWMA weight for the arrival-mix indicator. Much smaller than
/// estimate_alpha: at hundreds of arrivals per second a per-arrival
/// indicator EWMA is extremely noisy unless heavily smoothed.
constexpr double kArrivalAlpha = 0.005;
/// Clamp for r_hat; response-ratio estimates are noisy at low load.
constexpr double kRMin = 1e-4;
constexpr double kRMax = 1.0;

}  // namespace

ReservationController::ReservationController(const ReservationConfig& config)
    : config_(config),
      static_resp_(config.estimate_alpha),
      dynamic_resp_(config.estimate_alpha),
      arrival_mix_(kArrivalAlpha),
      a_hat_(config.initial_a),
      r_hat_(config.initial_r) {
  if (config.m < 1 || config.m > config.p)
    throw std::invalid_argument("reservation: need 1 <= m <= p");
  theta_limit_ = theta_limit_for(config.p, config.m, r_hat_, a_hat_);
}

double ReservationController::theta_limit_for(int p, int m, double r,
                                              double a) {
  const double pd = p;
  const double theta =
      static_cast<double>(m) / pd - r * (pd - m) / (std::max(a, 1e-9) * pd);
  return std::clamp(theta, 0.0, 1.0);
}

void ReservationController::record_arrival(bool dynamic) {
  arrival_mix_.add(dynamic ? 1.0 : 0.0);
}

void ReservationController::record_completion(bool dynamic, Time response) {
  if (response <= 0) response = 1;
  if (dynamic) {
    dynamic_resp_.add(static_cast<double>(response));
  } else {
    static_resp_.add(static_cast<double>(response));
  }
}

void ReservationController::record_dynamic_routing(bool to_master) {
  const double x = to_master ? 1.0 : 0.0;
  if (!routing_primed_) {
    // Start the feedback loop from the limit itself rather than from the
    // first sample, so one early master-routed request does not lock the
    // masters out for a long warmup period.
    master_fraction_ = theta_limit_ * 0.5;
    routing_primed_ = true;
  }
  master_fraction_ += config_.routing_alpha * (x - master_fraction_);
}

void ReservationController::retune(double a, double r, double max_step) {
  a_hat_ = std::max(a, 1e-9);
  r_hat_ = std::clamp(r, kRMin, kRMax);
  if (config_.m == 0 || degraded_) {
    theta_limit_ = 0.0;
    return;
  }
  const double target =
      theta_limit_for(config_.p, config_.m, r_hat_, a_hat_);
  theta_limit_ +=
      std::clamp(target - theta_limit_, -max_step, max_step);
}

void ReservationController::set_membership(int p, int m) {
  // p == 0 is a legitimate transient — a total outage with every node
  // declared dead — and simply closes the reservation until nodes return.
  if (p < 0 || m < 0 || m > p)
    throw std::invalid_argument("reservation: need 0 <= m <= p");
  config_.p = p;
  config_.m = m;
  if (m == 0 || degraded_) {
    theta_limit_ = 0.0;
    return;
  }
  theta_limit_ = theta_limit_for(p, m, r_hat_, a_hat_);
}

void ReservationController::update() {
  if (arrival_mix_.primed()) {
    const double frac = std::clamp(arrival_mix_.value(), 0.0, 0.999);
    a_hat_ = frac / (1.0 - frac);
  }
  if (static_resp_.primed() && dynamic_resp_.primed() &&
      dynamic_resp_.value() > 0) {
    r_hat_ = std::clamp(static_resp_.value() / dynamic_resp_.value(), kRMin,
                        kRMax);
  }
  theta_limit_ = (config_.m == 0 || degraded_)
                     ? 0.0
                     : theta_limit_for(config_.p, config_.m, r_hat_, a_hat_);
}

}  // namespace wsched::core
