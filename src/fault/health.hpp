// Failure detection layered on the cluster's periodic monitoring.
//
// The LoadMonitor's rstat()-style sampling is also the cluster's liveness
// signal: a healthy node answers every sampling round (a heartbeat), a
// crashed node goes silent. The HealthMonitor counts consecutive missed
// heartbeats per node and declares it kSuspected after `suspect_misses`
// and kDead after `dead_misses` — so detection latency is
// `dead_misses * period`, not zero. A dead node is *not* an idle node:
// its busy counters freeze, so to a naive min-RSRC dispatcher it looks
// perfectly idle, which is exactly why dispatch must route by declared
// health and not by sampled load alone. Recovery is detected on the first
// heartbeat that comes back.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/layer.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace wsched::core {
class ClusterRun;
}

namespace wsched::fault {

/// kDegraded is the gray-failure state: the node answers heartbeats (so
/// the heartbeat HealthMonitor never produces it) but completes requests
/// anomalously slowly. Only the latency watchdog below enters it.
enum class NodeHealth : std::uint8_t {
  kHealthy,
  kDegraded,
  kSuspected,
  kDead,
};

const char* to_string(NodeHealth health);

class HealthMonitor {
 public:
  /// Invoked on every state change, after the internal state is updated.
  using TransitionFn =
      std::function<void(int node, NodeHealth from, NodeHealth to)>;

  /// `period` is the heartbeat interval (typically the load sampling
  /// period); misses thresholds must satisfy 1 <= suspect <= dead.
  HealthMonitor(sim::Engine& engine, std::vector<sim::Node*> nodes,
                Time period, int suspect_misses, int dead_misses);

  /// Schedules the periodic heartbeat check; call once before the run.
  void start();

  NodeHealth health(int node) const {
    return state_[static_cast<std::size_t>(node)];
  }
  bool healthy(int node) const {
    return health(node) == NodeHealth::kHealthy;
  }
  const std::vector<NodeHealth>& all() const { return state_; }
  int healthy_count() const { return healthy_count_; }
  Time period() const { return period_; }
  /// Worst-case time from a crash to the kDead declaration.
  Time detection_latency() const { return period_ * (dead_misses_ + 1); }

  void set_on_transition(TransitionFn fn) { on_transition_ = std::move(fn); }

  /// Runs one heartbeat round immediately (also used by the periodic tick).
  void check_now();

 private:
  void transition(int node, NodeHealth to);
  void on_tick();

  sim::Engine& engine_;
  std::vector<sim::Node*> nodes_;
  Time period_;
  int suspect_misses_;
  int dead_misses_;
  std::vector<NodeHealth> state_;
  std::vector<int> misses_;
  int healthy_count_;
  TransitionFn on_transition_;
};

/// Latency-based gray-failure detection. Off by default; the disabled
/// config constructs nothing and perturbs nothing.
struct SlowHealthConfig {
  bool enabled = false;
  /// EWMA weight of each completion's stretch sample. Deliberately small:
  /// per-request stretch is noisy (one queued burst inflates every sample
  /// behind it), and a heavy weight makes healthy nodes flap kDegraded.
  double alpha = 0.05;
  /// A node enters kDegraded when its stretch EWMA exceeds
  /// `degrade_ratio` times the median EWMA across primed alive nodes...
  double degrade_ratio = 3.5;
  /// ...and recovers once it drops back below `recover_ratio` times the
  /// median (recover < degrade gives hysteresis).
  double recover_ratio = 1.75;
  /// Completions a node must report before its EWMA is trusted.
  int min_samples = 20;
  /// RSRC slowness penalty: a kDegraded candidate's cost is scaled by
  /// (1 + penalty), composing multiplicatively with the staleness scale.
  double penalty = 1.0;
  /// Exclude kDegraded nodes from dispatch outright instead of (only)
  /// penalizing them — the circuit-breaker-style hard form.
  bool exclude = false;
  /// Watchdog period; 0 rides the cluster's load sampling period.
  double check_period_s = 0.0;
};

/// Per-node completion-latency EWMA watchdog. Each completion feeds a
/// stretch sample (sojourn / service demand — the paper's own normalized
/// latency); a periodic check compares every primed node against the
/// median of its alive peers and flags relative outliers kDegraded. A
/// relative threshold is what makes this *gray-failure* detection: under
/// uniform overload all nodes slow down together and nobody is flagged,
/// but a limping node stands out at any load level. Deterministic — no
/// RNG, and the period rides the existing sampling cadence.
class SlowHealthMonitor : public core::Layer {
 public:
  SlowHealthMonitor(int nodes, const SlowHealthConfig& config);

  /// Feeds one completion: `sojourn` is time-on-cluster, `demand` the
  /// request's service demand (both in Time ticks).
  void on_completion(int node, Time sojourn, Time demand);

  /// A node that crashed or powered down loses its history (its EWMA
  /// describes a machine that no longer exists) and its degraded flag.
  void on_node_down(int node) override;

  /// As a cluster-run layer: feeds the RSRC slowness penalty through the
  /// routing view, samples every counted completion, and runs a watchdog
  /// round on the load-sampling cadence unless check_period_s is set.
  void attach(core::ClusterRun& run);
  void start() override;
  void tick() override;
  void on_completed(const sim::Job& job, int node, Time at) override;
  void publish(core::RunResult& result) const override;

  /// Runs one watchdog round over the given liveness view.
  void check_now(const std::vector<sim::Node*>& nodes);

  NodeHealth health(int node) const {
    return state_[static_cast<std::size_t>(node)];
  }
  const std::vector<NodeHealth>& all() const { return state_; }
  /// Per-node RSRC cost multipliers: 1.0 healthy, 1 + penalty degraded.
  const std::vector<double>& scale() const { return scale_; }
  double ewma(int node) const {
    return ewma_[static_cast<std::size_t>(node)].value();
  }
  std::uint64_t degrade_transitions() const { return degraded_; }
  std::uint64_t recover_transitions() const { return recovered_; }
  int degraded_count() const { return degraded_count_; }

 private:
  void transition(int node, NodeHealth to);

  core::ClusterRun* run_ = nullptr;
  SlowHealthConfig config_;
  std::vector<Ewma> ewma_;
  std::vector<int> samples_;
  std::vector<NodeHealth> state_;
  std::vector<double> scale_;
  std::vector<double> scratch_;
  int degraded_count_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t recovered_ = 0;
};

}  // namespace wsched::fault
