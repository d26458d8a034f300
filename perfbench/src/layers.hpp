// Per-layer measurements of the traced run that are not spans: fixed
// kernels through single modules, and the layer-cost matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of the samples (0 for none).
double median(std::vector<double> v);

/// Host ns per event of a fixed self-rescheduling pattern through
/// sim::Engine::schedule_at / run (median of several repetitions).
double engine_ns_per_event(std::uint64_t seed);

/// Host ns per core::pick_min_rsrc call over `p` candidates.
double rsrc_pick_ns(int p, std::uint64_t seed);

/// Host ms for MetricsCollector::record over `completions` synthetic
/// completions plus one summary().
double summary_ms(std::uint64_t completions, std::uint64_t seed);

/// One row of the layer-cost matrix: the fixed trace replayed with exactly
/// this layer on, relative to the all-off replay.
struct LayerCost {
  std::string layer;
  double host_ratio = 0.0;   ///< ClusterSim::run host time / all-off
  double event_ratio = 0.0;  ///< engine events / all-off
};

/// Replays one fixed trace (drawn from `seed`) all-off and then with each
/// layer alone (net, fault, gray, overload, ctrl, hedge, spans, trace,
/// decisions, probes); host times are medians of three interleaved replays.
std::vector<LayerCost> layer_matrix(std::uint64_t seed, bool tiny);

}  // namespace perfbench
