#include "ctrl/controller.hpp"

#include <algorithm>
#include <cmath>

#include "core/run.hpp"
#include "model/optimize.hpp"
#include "model/queueing.hpp"
#include "obs/log.hpp"

namespace wsched::ctrl {

ControlLoop::ControlLoop(const CtrlConfig& config, int total_nodes)
    : config_(config),
      total_(total_nodes),
      scaler_([&config] {
        AutoscalerConfig sc;
        sc.up_threshold = config.scale_up_util;
        sc.down_threshold = config.scale_down_util;
        sc.dwell_s = config.dwell_s;
        sc.min_powered = config.min_powered;
        sc.signal_alpha = config.signal_alpha;
        return sc;
      }()) {}

int ControlLoop::masters_for(const Telemetry& telemetry,
                             const ParamEstimator& estimator) const {
  if (telemetry.powered < 2) return 1;
  model::Workload w;
  w.p = telemetry.powered;
  w.lambda = estimator.lambda_hat();
  w.mu_h = estimator.mu_h_hat();
  w.a = std::max(telemetry.a_hat, 1e-6);
  w.r = std::max(estimator.r_hat(), 1e-6);
  if (w.lambda <= 0.0 || w.mu_h <= 0.0) return telemetry.masters;
  if (const auto plan = model::optimize_ms(w)) return plan->m;
  // Static share of total offered load, as a node count (the same sizing
  // experiment.cpp falls back to when Theorem 1 has no stable answer).
  const double share = 1.0 / (1.0 + w.a / w.r);
  const int m = static_cast<int>(std::lround(share * w.p));
  return std::clamp(m, 1, w.p - 1);
}

Actions ControlLoop::plan(const Telemetry& telemetry,
                          ParamEstimator& estimator) {
  estimator.tick(config_.interval_s);

  Actions actions;
  actions.masters_target = telemetry.masters;
  actions.a = telemetry.a_hat;
  actions.r = estimator.r_hat();
  actions.slew = config_.theta_slew;
  if (!config_.autoscale) return actions;

  double busy = 0.0;
  for (double b : telemetry.busy) busy += b;
  if (!telemetry.busy.empty())
    busy /= static_cast<double>(telemetry.busy.size());
  actions.scale =
      scaler_.on_signal(busy, telemetry.powered, total_, telemetry.now);

  if (config_.retarget_masters) {
    // Master retargeting shares the power dwell so membership never moves
    // faster than the autoscaler's own pace.
    const bool dwelling =
        retargeted_once_ &&
        telemetry.now - last_retarget_ < from_seconds(config_.dwell_s);
    // After a power action the prefix length changes; retarget against the
    // post-action powered count so the plan is internally consistent.
    int powered_after = telemetry.powered;
    if (actions.scale == ScaleAction::kUp) ++powered_after;
    if (actions.scale == ScaleAction::kDown) --powered_after;
    if (!dwelling) {
      Telemetry t = telemetry;
      t.powered = powered_after;
      const int desired = masters_for(t, estimator);
      int next = telemetry.masters;
      if (desired > next) ++next;
      if (desired < next) --next;
      next = std::clamp(next, 1, std::max(1, powered_after - 1));
      if (next != telemetry.masters) {
        actions.masters_target = next;
        last_retarget_ = telemetry.now;
        retargeted_once_ = true;
      }
    }
  }
  return actions;
}

void ControlLoop::attach(core::ClusterRun& run) {
  run_ = &run;
  EstimatorConfig est;
  est.alpha = config_.estimate_alpha;
  est.initial_w = config_.initial_w;
  est.initial_r = run.config().reservation.initial_r;
  estimator_.emplace(est);
  powered_ = powered_low_ = total_;
  core::ClusterView& view = run.view();
  view.ctrl_active = true;
  // RSRC reads the estimated w in place of the per-request oracle w.
  view.ctrl_w = estimator_->w_ref();
  if (config_.autoscale) {
    powered_state_.assign(static_cast<std::size_t>(total_), 1);
    view.powered = &powered_state_;
  }
  // The slew-limited retune owns theta'_2; the unslewed periodic update
  // would stomp it.
  run.hand_off_reservation_tuning();
  if (obs::TraceSink* tracer = run.tracer())
    tracer->name_thread(run.cluster_pid(), obs::kLaneCtrl, "ctrl");
}

Time ControlLoop::tick_period() const {
  return from_seconds(config_.interval_s);
}

void ControlLoop::on_arrival(sim::Job&) { estimator_->on_arrival(); }

void ControlLoop::on_completed(const sim::Job& job, int, Time) {
  // The OS model consumed exactly the record's demand and CPU share, so
  // they are the finished request's ground truth (what a real server
  // reads from rusage at response time).
  estimator_->on_completion(job.request.is_dynamic(),
                            to_seconds(job.request.service_demand),
                            job.request.cpu_fraction);
}

void ControlLoop::tick() {
  core::ClusterRun& run = *run_;
  core::ClusterView& view = run.view();
  const Time now = run.engine().now();
  Telemetry telemetry;
  telemetry.now = now;
  telemetry.powered = powered_;
  telemetry.masters = view.m;
  telemetry.a_hat = run.reservation().a_hat_live();
  const core::LoadVec& seen =
      view.stale != nullptr ? view.stale->seen_by(0) : run.monitor().all();
  telemetry.busy.reserve(static_cast<std::size_t>(powered_));
  for (int n = 0; n < powered_; ++n) {
    const core::LoadInfo info = seen[static_cast<std::size_t>(n)];
    telemetry.busy.push_back(
        std::max(1.0 - info.cpu_idle_ratio, 1.0 - info.disk_avail_ratio));
  }
  const Actions actions = plan(telemetry, *estimator_);
  obs::TraceSink* tracer = run.tracer();

  run.reservation().retune(actions.a, actions.r, actions.slew);
  ++retunes_;
  if (tracer != nullptr)
    tracer->instant(obs::Category::kCtrl, "retune", run.cluster_pid(),
                    obs::kLaneCtrl, now,
                    {{"theta", run.reservation().theta_limit()},
                     {"w_hat", estimator_->w_hat()},
                     {"r_hat", actions.r},
                     {"a_hat", actions.a}});
  bool membership_dirty = false;
  if (actions.scale == ScaleAction::kUp && powered_ < total_) {
    scale_up(now);
    membership_dirty = true;
  } else if (actions.scale == ScaleAction::kDown &&
             powered_ - 1 >= view.m && powered_ - 1 >= config_.min_powered) {
    scale_down(now);
    membership_dirty = true;
  }
  if (actions.masters_target != view.m) {
    view.m = actions.masters_target;
    ++retargets_;
    membership_dirty = true;
    if (tracer != nullptr)
      tracer->instant(obs::Category::kCtrl, "retarget", run.cluster_pid(),
                      obs::kLaneCtrl, now, {{"m", view.m}});
    obs::logf(obs::LogLevel::kInfo, "ctrl", "t=%.3fs retarget: m -> %d",
              to_seconds(now), view.m);
  }
  if (membership_dirty)
    // Theorem 1 re-solves immediately on a cluster-shape change (the
    // cluster changed, not the estimate) — same rule as failover.
    run.reservation().set_membership(powered_, view.m);
}

void ControlLoop::account_energy(Time now) {
  energy_node_s_ +=
      static_cast<double>(powered_) * to_seconds(now - energy_mark_);
  energy_mark_ = now;
}

void ControlLoop::scale_up(Time now) {
  const int woken = powered_;
  account_energy(now);
  run_->node(woken).power_up();
  powered_state_[static_cast<std::size_t>(woken)] = 1;
  ++powered_;
  ++scale_ups_;
  if (obs::TraceSink* tracer = run_->tracer())
    tracer->instant(obs::Category::kCtrl, "scale-up", run_->cluster_pid(),
                    obs::kLaneCtrl, now,
                    {{"node", woken}, {"powered", powered_}});
  obs::logf(obs::LogLevel::kInfo, "ctrl",
            "t=%.3fs scale-up: node %d powered (now %d)", to_seconds(now),
            woken, powered_);
}

void ControlLoop::scale_down(Time now) {
  // Powered-prefix invariant: drain the highest powered node, which is
  // never a master.
  const int victim = powered_ - 1;
  account_energy(now);
  powered_state_[static_cast<std::size_t>(victim)] = 0;
  --powered_;
  powered_low_ = std::min(powered_low_, powered_);
  std::vector<sim::Job> drained = run_->node(victim).power_down();
  ++scale_downs_;
  if (obs::TraceSink* tracer = run_->tracer())
    tracer->instant(
        obs::Category::kCtrl, "scale-down", run_->cluster_pid(),
        obs::kLaneCtrl, now,
        {{"node", victim},
         {"powered", powered_},
         {"drained", static_cast<std::uint64_t>(drained.size())}});
  obs::logf(obs::LogLevel::kInfo, "ctrl",
            "t=%.3fs scale-down: node %d drained (%zu jobs migrate, now %d "
            "powered)",
            to_seconds(now), victim, drained.size(), powered_);
  run_->node_down(victim);
  for (sim::Job& job : drained) run_->strand(job, victim, core::Strand::kDrain);
}

bool ControlLoop::on_stranded(sim::Job& job, int node, core::Strand why) {
  if (!config_.autoscale) return false;
  if (why == core::Strand::kLanding) {
    // Powered down mid-hop (the fault layer is excluded by construction):
    // re-route, don't burn a failover retry.
    ++migrations_;
    run_->route(std::move(job));
    return true;
  }
  if (why != core::Strand::kDrain) return false;
  // Drained jobs migrate over the remote-dispatch hop, never lost.
  ++migrations_;
  const Time now = run_->engine().now();
  if (obs::SpanRecorder* spans = run_->spans()) {
    spans->begin_hop(job.id, now);
    spans->note(job.id, "migrate", now, node);
  }
  run_->hop(run_->config().os.remote_cgi_latency, std::move(job), -1);
  return true;
}

void ControlLoop::probe(obs::ClusterProbe& sample) const {
  sample.ctrl_active = true;
  sample.ctrl_w_hat = estimator_->w_hat();
  sample.ctrl_r_hat = estimator_->r_hat();
  sample.ctrl_theta_target = run_->reservation().theta_limit();
  sample.ctrl_powered = static_cast<double>(powered_);
  sample.ctrl_m = static_cast<double>(run_->view().m);
}

void ControlLoop::publish(core::RunResult& result) const {
  result.ctrl_enabled = true;
  result.ctrl_retunes = retunes_;
  result.ctrl_scale_ups = scale_ups_;
  result.ctrl_scale_downs = scale_downs_;
  result.ctrl_migrations = migrations_;
  result.ctrl_retargets = retargets_;
  result.ctrl_w_hat = estimator_->w_hat();
  result.ctrl_r_hat = estimator_->r_hat();
  result.powered_min = powered_low_;
  if (config_.autoscale)
    result.energy_node_s =
        energy_node_s_ +
        static_cast<double>(powered_) *
            to_seconds(run_->engine().now() - energy_mark_);
}

}  // namespace wsched::ctrl
