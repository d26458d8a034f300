// The control plane's tick driver: every control interval it turns the
// telemetry the cluster hands it into a plan — retune theta'_2 toward the
// Theorem 1 target computed from the *estimated* (a, r), possibly power a
// node up or down, possibly step the master count toward the analytic
// optimum for the estimated workload.
//
// The loop itself is a pure decision sequencer: it never touches nodes or
// the reservation controller directly. The cluster builds the Telemetry
// (from the stale probe feed when the net model is on — the controller
// must degrade honestly under partitions, never read oracle state) and
// executes the returned Actions, so every side effect lives in one place
// and the loop is trivially unit-testable.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/layer.hpp"
#include "ctrl/autoscaler.hpp"
#include "ctrl/estimator.hpp"
#include "util/time.hpp"

namespace wsched::core {
class ClusterRun;
}

namespace wsched::ctrl {

/// Master switch plus knobs for all four components. Every default keeps
/// the subsystem inert: with enabled == false the cluster constructs
/// nothing and the run stays byte-identical to a build without src/ctrl/.
struct CtrlConfig {
  bool enabled = false;
  /// Control interval (seconds simulated time).
  double interval_s = 0.5;
  /// EWMA weight for the completed-job estimators.
  double estimate_alpha = 0.05;
  /// Prior w until the first dynamic completion.
  double initial_w = 0.5;
  /// Max theta'_2 movement per control tick (slew-rate limit).
  double theta_slew = 0.05;
  /// Power slaves on/off with hysteretic thresholds.
  bool autoscale = false;
  double scale_up_util = 0.75;
  double scale_down_util = 0.30;
  double dwell_s = 2.0;
  int min_powered = 2;
  /// Step the master count toward the Theorem 1 optimum for the estimated
  /// workload (only meaningful with autoscale; needs the fault layer off).
  bool retarget_masters = false;
  /// EWMA weight for the autoscaler's busy signal.
  double signal_alpha = 0.3;

  bool any() const { return enabled; }
};

/// What the cluster observed this control interval. Built from the stale
/// per-node report feed when the net model is on, from the load monitor
/// otherwise — never from ground-truth node internals.
struct Telemetry {
  /// Busy fraction per *powered* node: max(1 - cpu_idle, 1 - disk_avail).
  std::vector<double> busy;
  /// The reservation controller's own arrival-mix estimate.
  double a_hat = 0.0;
  int powered = 0;
  int masters = 0;
  Time now = 0;
};

/// What the cluster should do before the next interval.
struct Actions {
  double a = 0.0;     ///< a_hat fed to the reservation retune
  double r = 0.0;     ///< r_hat fed to the reservation retune
  double slew = 0.0;  ///< max theta movement this tick
  ScaleAction scale = ScaleAction::kNone;
  /// Desired master count after this tick (== telemetry.masters when
  /// unchanged; moves by at most one per tick).
  int masters_target = 0;
};

class ControlLoop : public core::Layer {
 public:
  ControlLoop(const CtrlConfig& config, int total_nodes);

  /// One control tick. Also advances the estimator's rate bookkeeping.
  Actions plan(const Telemetry& telemetry, ParamEstimator& estimator);

  const Autoscaler& autoscaler() const { return scaler_; }

  /// As a cluster-run layer the loop owns the online estimator, the power
  /// state and the energy account, and executes its own plans every
  /// control interval. Telemetry comes from the front-end master's stale
  /// report feed under the net model (the controller sees exactly what
  /// crossed the wire), from the load monitor otherwise.
  void attach(core::ClusterRun& run);
  Time tick_period() const override;
  void tick() override;
  void on_arrival(sim::Job& job) override;
  void on_completed(const sim::Job& job, int node, Time at) override;
  /// Drained and powered-down-on-landing jobs migrate; nothing is lost.
  bool on_stranded(sim::Job& job, int node, core::Strand why) override;
  void probe(obs::ClusterProbe& sample) const override;
  void publish(core::RunResult& result) const override;

 private:
  void scale_up(Time now);
  void scale_down(Time now);
  /// Closes the open energy window at `now` (powered node-seconds).
  void account_energy(Time now);

  /// Theorem 1 master count for the estimated workload on the currently
  /// powered nodes; load-proportional fallback when no stable plan exists.
  int masters_for(const Telemetry& telemetry,
                  const ParamEstimator& estimator) const;

  CtrlConfig config_;
  int total_;
  Autoscaler scaler_;
  Time last_retarget_ = 0;
  bool retargeted_once_ = false;

  // Layer state (attach()).
  core::ClusterRun* run_ = nullptr;
  std::optional<ParamEstimator> estimator_;
  std::vector<char> powered_state_;  ///< autoscaling only
  int powered_ = 0;
  int powered_low_ = 0;
  double energy_node_s_ = 0.0;  ///< powered node-seconds, closed windows
  Time energy_mark_ = 0;        ///< start of the open window
  std::uint64_t retunes_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t retargets_ = 0;
};

}  // namespace wsched::ctrl
