// Request-level metrics. The primary metric is the paper's stretch factor:
// mean over requests of (response time at the server site / service
// demand), where service demand is the unloaded processing time (for CGI,
// including the fork that local execution would also pay). Internet delay
// is excluded by construction — times are measured at the cluster.
#pragma once

#include <cstdint>

#include "sim/process.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace wsched::core {

/// Aggregated results of one run.
struct MetricsSummary {
  std::uint64_t completed = 0;
  std::uint64_t completed_static = 0;
  std::uint64_t completed_dynamic = 0;
  double stretch = 0.0;          ///< the paper's headline metric
  double stretch_static = 0.0;
  double stretch_dynamic = 0.0;
  double mean_response_s = 0.0;
  double mean_response_static_s = 0.0;
  double mean_response_dynamic_s = 0.0;
  double p50_response_s = 0.0;
  double p95_response_s = 0.0;
  double p99_response_s = 0.0;
  /// Per-class percentile split: the aggregate tail hides which request
  /// class pays it (static medians are milliseconds, CGI tails seconds).
  double p50_response_static_s = 0.0;
  double p95_response_static_s = 0.0;
  double p99_response_static_s = 0.0;
  double p50_response_dynamic_s = 0.0;
  double p95_response_dynamic_s = 0.0;
  double p99_response_dynamic_s = 0.0;
  double max_stretch = 0.0;
  /// Failure-window metrics (all zero when fault injection is off).
  /// "Disrupted" requests were re-dispatched after a crash or arrived
  /// while at least one node was down; their stretch quantifies how much
  /// a failure episode costs the requests caught in it.
  std::uint64_t completed_disrupted = 0;
  double stretch_disrupted = 0.0;
  /// Metrics over requests arriving at/after a configured tail window
  /// (used to measure recovery: post-failover stretch vs. a clean run).
  std::uint64_t completed_tail = 0;
  double stretch_tail = 0.0;
  /// Tail-of-distribution stretch: under overload the mean is dominated by
  /// the shed survivors, so the p95 is what the admission policies defend.
  double p95_stretch = 0.0;
  double p95_stretch_static = 0.0;
  double p95_stretch_dynamic = 0.0;
  /// SLO attainment (overload layer): fraction of completed requests whose
  /// response beat the per-class deadline. 1.0 when no deadline configured.
  std::uint64_t completed_in_slo = 0;
  double slo_attainment = 1.0;
  double slo_attainment_static = 1.0;
  double slo_attainment_dynamic = 1.0;
};

class MetricsCollector {
 public:
  /// Requests arriving before `warmup` are excluded from the aggregates
  /// (transient fill-up); `fork_overhead` is added to the demand basis of
  /// dynamic requests.
  MetricsCollector(Time warmup, Time fork_overhead);

  void record(const sim::Job& job, Time completion);

  MetricsSummary summary() const;

  /// Enables the tail window: requests with cluster_arrival >= `start`
  /// additionally feed the stretch_tail aggregate.
  void set_tail_start(Time start) {
    tail_start_ = start;
    tail_enabled_ = true;
  }

  /// Per-class SLO deadlines for attainment accounting; 0 disables a class
  /// (every completion of that class counts as in-SLO).
  void set_deadlines(Time static_deadline, Time dynamic_deadline) {
    static_deadline_ = static_deadline;
    dynamic_deadline_ = dynamic_deadline;
  }

 private:
  Time warmup_;
  Time fork_overhead_;
  Time tail_start_ = 0;
  bool tail_enabled_ = false;
  Time static_deadline_ = 0;
  Time dynamic_deadline_ = 0;
  std::uint64_t in_slo_ = 0;
  std::uint64_t in_slo_static_ = 0;
  std::uint64_t in_slo_dynamic_ = 0;
  RunningStats stretch_all_;
  RunningStats stretch_static_;
  RunningStats stretch_dynamic_;
  RunningStats stretch_disrupted_;
  RunningStats stretch_tail_;
  RunningStats response_all_;
  RunningStats response_static_;
  RunningStats response_dynamic_;
  PercentileSampler response_pct_;
  PercentileSampler response_pct_static_;
  PercentileSampler response_pct_dynamic_;
  PercentileSampler stretch_pct_;
  PercentileSampler stretch_pct_static_;
  PercentileSampler stretch_pct_dynamic_;
};

}  // namespace wsched::core
