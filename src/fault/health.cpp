#include "fault/health.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/run.hpp"
#include "obs/log.hpp"

namespace wsched::fault {

const char* to_string(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kDegraded: return "degraded";
    case NodeHealth::kSuspected: return "suspected";
    case NodeHealth::kDead: return "dead";
  }
  return "?";
}

HealthMonitor::HealthMonitor(sim::Engine& engine,
                             std::vector<sim::Node*> nodes, Time period,
                             int suspect_misses, int dead_misses)
    : engine_(engine),
      nodes_(std::move(nodes)),
      period_(period),
      suspect_misses_(suspect_misses),
      dead_misses_(dead_misses),
      state_(nodes_.size(), NodeHealth::kHealthy),
      misses_(nodes_.size(), 0),
      healthy_count_(static_cast<int>(nodes_.size())) {
  if (period_ <= 0)
    throw std::invalid_argument("health: heartbeat period must be > 0");
  if (suspect_misses_ < 1 || dead_misses_ < suspect_misses_)
    throw std::invalid_argument("health: need 1 <= suspect <= dead misses");
}

void HealthMonitor::start() {
  engine_.schedule_after(period_, [this] { on_tick(); });
}

void HealthMonitor::transition(int node, NodeHealth to) {
  const auto idx = static_cast<std::size_t>(node);
  const NodeHealth from = state_[idx];
  if (from == to) return;
  if (from == NodeHealth::kHealthy) --healthy_count_;
  if (to == NodeHealth::kHealthy) ++healthy_count_;
  state_[idx] = to;
  if (on_transition_) on_transition_(node, from, to);
}

void HealthMonitor::check_now() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int node = static_cast<int>(i);
    if (nodes_[i]->alive()) {
      misses_[i] = 0;
      transition(node, NodeHealth::kHealthy);
      continue;
    }
    ++misses_[i];
    if (misses_[i] >= dead_misses_) {
      transition(node, NodeHealth::kDead);
    } else if (misses_[i] >= suspect_misses_) {
      transition(node, NodeHealth::kSuspected);
    }
  }
}

void HealthMonitor::on_tick() {
  check_now();
  engine_.schedule_after(period_, [this] { on_tick(); });
}

SlowHealthMonitor::SlowHealthMonitor(int nodes,
                                     const SlowHealthConfig& config)
    : config_(config),
      ewma_(static_cast<std::size_t>(nodes), Ewma(config.alpha)),
      samples_(static_cast<std::size_t>(nodes), 0),
      state_(static_cast<std::size_t>(nodes), NodeHealth::kHealthy),
      scale_(static_cast<std::size_t>(nodes), 1.0) {
  if (config_.alpha <= 0.0 || config_.alpha > 1.0)
    throw std::invalid_argument("slow-health: alpha must be in (0, 1]");
  if (config_.degrade_ratio <= 1.0 ||
      config_.recover_ratio > config_.degrade_ratio)
    throw std::invalid_argument(
        "slow-health: need 1 < recover_ratio <= degrade_ratio");
  if (config_.min_samples < 1)
    throw std::invalid_argument("slow-health: min_samples must be >= 1");
  if (config_.penalty < 0.0)
    throw std::invalid_argument("slow-health: penalty must be >= 0");
  scratch_.reserve(static_cast<std::size_t>(nodes));
}

void SlowHealthMonitor::on_completion(int node, Time sojourn, Time demand) {
  if (demand <= 0) return;
  const auto idx = static_cast<std::size_t>(node);
  ewma_[idx].add(static_cast<double>(sojourn) / static_cast<double>(demand));
  ++samples_[idx];
}

void SlowHealthMonitor::on_node_down(int node) {
  const auto idx = static_cast<std::size_t>(node);
  ewma_[idx].reset();
  samples_[idx] = 0;
  transition(node, NodeHealth::kHealthy);
}

void SlowHealthMonitor::transition(int node, NodeHealth to) {
  const auto idx = static_cast<std::size_t>(node);
  const NodeHealth from = state_[idx];
  if (from == to) return;
  state_[idx] = to;
  if (to == NodeHealth::kDegraded) {
    ++degraded_;
    ++degraded_count_;
    scale_[idx] = 1.0 + config_.penalty;
  } else {
    ++recovered_;
    --degraded_count_;
    scale_[idx] = 1.0;
  }
  if (run_ == nullptr) return;
  // Attached to a run: the transition lands on the node's fault lane.
  const Time now = run_->engine().now();
  if (obs::TraceSink* tracer = run_->tracer())
    tracer->instant(obs::Category::kFault, "slow-health", node,
                    obs::kLaneFault, now,
                    {{"from", to_string(from)},
                     {"to", to_string(to)},
                     {"ewma", ewma(node)}});
  obs::logf(obs::LogLevel::kInfo, "slow-health",
            "t=%.3fs node %d %s -> %s (stretch ewma %.2f)", to_seconds(now),
            node, to_string(from), to_string(to), ewma(node));
}

void SlowHealthMonitor::check_now(const std::vector<sim::Node*>& nodes) {
  // Median stretch EWMA across primed alive peers: the baseline the
  // outlier test compares against. With fewer than two primed nodes there
  // is no peer group and nothing is flagged.
  scratch_.clear();
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (!nodes[i]->alive()) continue;
    if (samples_[i] < config_.min_samples) continue;
    scratch_.push_back(ewma_[i].value());
  }
  if (scratch_.size() < 2) return;
  const auto mid = scratch_.begin() +
                   static_cast<std::ptrdiff_t>(scratch_.size() / 2);
  std::nth_element(scratch_.begin(), mid, scratch_.end());
  const double median = *mid;
  if (median <= 0.0) return;

  for (std::size_t i = 0; i < state_.size(); ++i) {
    const int node = static_cast<int>(i);
    if (!nodes[i]->alive() || samples_[i] < config_.min_samples) continue;
    const double ratio = ewma_[i].value() / median;
    if (state_[i] == NodeHealth::kHealthy) {
      if (ratio > config_.degrade_ratio)
        transition(node, NodeHealth::kDegraded);
    } else if (state_[i] == NodeHealth::kDegraded) {
      if (ratio < config_.recover_ratio)
        transition(node, NodeHealth::kHealthy);
    }
  }
}

void SlowHealthMonitor::attach(core::ClusterRun& run) {
  run_ = &run;
  core::ClusterView& view = run.view();
  view.slow_health = &state_;
  view.slow_scale = &scale_;
  view.slow_exclude = config_.exclude;
  // The slow_penalty / hedged decision-log columns are opt-in so gray-off
  // logs keep their exact bytes.
  if (view.decisions != nullptr) view.decisions->enable_gray_columns();
}

void SlowHealthMonitor::start() {
  // Watchdog rounds ride the load-sampling cadence unless a dedicated
  // period is configured — no new clock, no RNG, fully deterministic.
  run_->every(config_.check_period_s > 0.0
                  ? from_seconds(config_.check_period_s)
                  : run_->config().load_sample_period,
              this);
}

void SlowHealthMonitor::tick() { check_now(run_->nodes()); }

void SlowHealthMonitor::on_completed(const sim::Job& job, int node, Time at) {
  // The node that served the request is charged its normalized latency.
  on_completion(node, at - job.cluster_arrival, job.request.service_demand);
}

void SlowHealthMonitor::publish(core::RunResult& result) const {
  result.slow_degraded = degraded_;
  result.slow_recovered = recovered_;
}

}  // namespace wsched::fault
