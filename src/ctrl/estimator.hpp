// Online parameter estimation for the control plane (ROADMAP item 5).
//
// The paper fixes the RSRC weight `w` by off-line demand sampling and the
// service-rate ratio `r` by measurement before the run. The estimator
// replaces both with completed-job accounting: every finished request
// feeds per-class EWMAs of its service demand and CPU share, so the
// control plane learns (w, r, mu_h, lambda) online and tracks workload
// shifts mid-run instead of trusting a pre-run oracle.
//
// Accounting convention: the simulator does not re-measure a finished
// job's CPU/disk split — the OS model *consumed* the trace record's
// demand and cpu_fraction, so those fields ARE the completed job's ground
// truth, exactly what a real server would log per request (rusage). The
// estimator therefore reads them post hoc, per completion; it never sees
// a request that has not finished, which is what makes it honest under
// workload flips (it lags by the in-flight population, like a real one).
#pragma once

#include <cstdint>

#include "util/stats.hpp"

namespace wsched::ctrl {

struct EstimatorConfig {
  /// EWMA weight per completed job (and per control tick for lambda_hat).
  double alpha = 0.05;
  /// Priors reported until the first completion of the relevant class.
  double initial_w = 0.5;
  double initial_r = 1.0 / 40.0;
};

class ParamEstimator {
 public:
  explicit ParamEstimator(const EstimatorConfig& config);

  /// Completed-job accounting: request class, total service demand in
  /// seconds and CPU share of that demand.
  void on_completion(bool dynamic, double demand_s, double cpu_share);

  /// Front-end arrival (lambda_hat bookkeeping).
  void on_arrival();

  /// Control-interval boundary: folds the arrivals seen since the last
  /// tick into the smoothed rate estimate.
  void tick(double interval_s);

  /// Estimated CPU share of dynamic service demand (Equation 5's w).
  double w_hat() const { return w_cache_; }
  /// Estimated service-rate ratio r = mu_c / mu_h, i.e. the mean static
  /// demand over the mean dynamic demand.
  double r_hat() const;
  /// Estimated static service rate (1 / mean static demand).
  double mu_h_hat() const;
  /// Smoothed arrival rate (requests per second).
  double lambda_hat() const;

  std::uint64_t dynamic_completions() const { return dynamic_n_; }
  std::uint64_t static_completions() const { return static_n_; }

  /// Stable pointer to the live w estimate for ClusterView::ctrl_w; valid
  /// for the estimator's lifetime and always holds a usable value (the
  /// prior until the first dynamic completion).
  const double* w_ref() const { return &w_cache_; }

 private:
  EstimatorConfig config_;
  Ewma w_;
  Ewma dynamic_demand_;  ///< seconds
  Ewma static_demand_;   ///< seconds
  Ewma rate_;            ///< arrivals per second, per control tick
  double w_cache_;
  std::uint64_t dynamic_n_ = 0;
  std::uint64_t static_n_ = 0;
  std::uint64_t arrivals_since_tick_ = 0;
};

}  // namespace wsched::ctrl
