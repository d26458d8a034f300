#include "ctrl/estimator.hpp"

#include <algorithm>

namespace wsched::ctrl {

namespace {

/// Static service rate reported until the first static completion.
constexpr double kInitialMuH = 1200.0;

}  // namespace

ParamEstimator::ParamEstimator(const EstimatorConfig& config)
    : config_(config),
      w_(config.alpha),
      dynamic_demand_(config.alpha),
      static_demand_(config.alpha),
      rate_(config.alpha),
      w_cache_(config.initial_w) {}

void ParamEstimator::on_completion(bool dynamic, double demand_s,
                                   double cpu_share) {
  if (demand_s <= 0.0) return;
  if (dynamic) {
    ++dynamic_n_;
    dynamic_demand_.add(demand_s);
    w_.add(std::clamp(cpu_share, 0.0, 1.0));
    w_cache_ = w_.value();
  } else {
    ++static_n_;
    static_demand_.add(demand_s);
  }
}

void ParamEstimator::on_arrival() { ++arrivals_since_tick_; }

void ParamEstimator::tick(double interval_s) {
  if (interval_s <= 0.0) return;
  rate_.add(static_cast<double>(arrivals_since_tick_) / interval_s);
  arrivals_since_tick_ = 0;
}

double ParamEstimator::r_hat() const {
  if (!static_demand_.primed() || !dynamic_demand_.primed() ||
      dynamic_demand_.value() <= 0.0)
    return config_.initial_r;
  return static_demand_.value() / dynamic_demand_.value();
}

double ParamEstimator::mu_h_hat() const {
  if (!static_demand_.primed() || static_demand_.value() <= 0.0)
    return kInitialMuH;
  return 1.0 / static_demand_.value();
}

double ParamEstimator::lambda_hat() const {
  return rate_.primed() ? rate_.value() : 0.0;
}

}  // namespace wsched::ctrl
