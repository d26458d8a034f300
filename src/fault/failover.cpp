// The fault-injection and failover layer of a cluster run (see
// fault::FaultConfig): crash/recover/fail-slow injection, heartbeat
// failure detection (the omniscient HealthMonitor, or NetHealth's
// distributed observer matrix when the net model is on), membership with
// master promotion, and re-dispatch of stranded requests over the shared
// backoff curve up to the retry cap.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/run.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "fault/membership.hpp"
#include "net/net_health.hpp"
#include "net/network.hpp"
#include "obs/log.hpp"
#include "overload/backoff.hpp"
#include "util/rng.hpp"

namespace wsched::fault {
namespace {

/// Heartbeat detection: a node is suspected after this many consecutive
/// silent rounds and declared dead after kDeadMisses.
constexpr int kSuspectMisses = 1;
constexpr int kDeadMisses = 2;

class FailoverLayer final : public core::Layer {
 public:
  explicit FailoverLayer(core::ClusterRun& run)
      : run_(run),
        network_(run.network()),
        membership_(run.config().p, run.config().m),
        injector_(run.engine(), run.nodes(), run.config().fault,
                  run.config().seed),
        backoff_rng_(run.config().seed, 0xFA11B0FF) {
    const core::ClusterConfig& config = run.config();
    // Heartbeats ride the load sampling cadence.
    const Time heartbeat = config.load_sample_period;
    injector_.set_trace(run.tracer());
    injector_.set_on_crash([this](int node, std::vector<sim::Job> dropped) {
      for (sim::Job& job : dropped) run_.strand(job, node, core::Strand::kCrash);
    });
    const auto on_transition = [this](int node, NodeHealth from, NodeHealth to) {
      on_health(node, from, to);
    };
    if (network_ != nullptr) {
      // Fail-slow episodes with a network face ride the net model's per-node
      // degradation (extra loss, latency factor).
      injector_.set_on_net_degrade(
          [this](int node, double extra_loss, double latency_factor) {
            network_->set_node_degradation(node, extra_loss, latency_factor);
          });
      // Distributed detection: the (p + 1) x p observer matrix replaces the
      // single omniscient HealthMonitor (see net/net_health.hpp).
      net::NetHealth::Config nh;
      nh.period = heartbeat;
      nh.suspect_misses = kSuspectMisses;
      nh.dead_misses = kDeadMisses;
      nh.loss = config.net.loss;
      nh.quorum = config.net.quorum ? config.p / 2 + 1 : 0;
      nh.masters = config.m;
      net_health_ = std::make_unique<net::NetHealth>(
          run.engine(), run.nodes(), *network_, nh, config.seed);
      net_health_->set_hooks({run.tracer(), run.cluster_pid()});
      net_health_->set_on_transition(on_transition);
      // Split-brain safety: a dead master's role moves only when a majority
      // of live observers corroborate the death AND the serving side holds
      // quorum; the replacement must itself be reachable from the front end
      // (never elect a minority-side slave).
      membership_.set_promotion_gate([this](int dead) {
        if (!run_.config().net.quorum) return true;
        const int q = run_.config().p / 2 + 1;
        return net_health_->dead_votes(dead) >= q &&
               net_health_->healthy_count() >= q;
      });
      membership_.set_promotion_filter(
          [this](int candidate) { return network_->front_end_reaches(candidate); });
      net_health_->set_on_round([this] { retry_promotions(); });
    } else {
      health_ = std::make_unique<HealthMonitor>(
          run.engine(), run.nodes(), heartbeat, kSuspectMisses, kDeadMisses);
      health_->set_on_transition(on_transition);
    }
    run.view().membership = &membership_;
    // The front end routes on the distributed detector's own (lossy) row
    // under the net model — partitions cause false suspicion there.
    run.view().health =
        net_health_ != nullptr ? &net_health_->view() : &health_->all();
  }

  void start() override {
    if (net_health_ != nullptr)
      net_health_->start();
    else
      health_->start();
    injector_.start();
  }

  bool admit(sim::Job& job) override {
    if (declared_healthy() > 0) return true;
    // Total outage: no declared-healthy front end can accept the request;
    // hold it in the failover queue (it retries with backoff and times out
    // at the cap if the outage persists).
    redispatch(std::move(job));
    return false;
  }

  void on_dispatch(sim::Job& job, core::Dispatch&) override {
    if (injector_.any_down()) job.disrupted = true;
  }

  bool on_stranded(sim::Job& job, int node, core::Strand) override {
    // Each stranded request is one failed dispatch for the breaker.
    run_.sent(node, false);
    redispatch(std::move(job));
    return true;
  }

  void resume(sim::Job& job, int) override {
    if (declared_healthy() == 0) {
      // Total outage at retry time: go around again (and eventually time
      // out at the cap).
      redispatch(std::move(job));
      return;
    }
    const core::Decision decision = run_.decide(job.request);
    job.receiver = decision.receiver;
    job.remote = true;
    if (decision.rsrc_w >= 0.0 && job.request.is_dynamic())
      run_.feedbacks()[static_cast<std::size_t>(decision.receiver)].on_dispatch(
          static_cast<std::size_t>(decision.node), decision.rsrc_w);
    if (network_ != nullptr) {
      // Every failover hop crosses the wire: loss / partition drops surface
      // as RPC retries and, at the cap, another failover.
      run_.sent(decision.node, true);
      run_.send(std::move(job), decision.node);
      return;
    }
    // The hop latency was charged in the backoff: land now. A target that
    // crashed again (or is still undetected) strands the job: another retry.
    if (run_.node(decision.node).alive()) run_.sent(decision.node, true);
    run_.land(std::move(job), decision.node);
  }

  void probe(obs::ClusterProbe& sample) const override {
    if (net_health_ != nullptr)
      sample.net_split_brain_rounds =
          static_cast<double>(net_health_->split_brain_rounds());
  }

  void publish(core::RunResult& result) const override {
    const Time end = run_.engine().now();
    result.availability = injector_.availability(end);
    result.node_crashes = injector_.crashes();
    result.redispatches = redispatches_;
    result.promotions = membership_.promotions();
    result.degrade_events = injector_.degrade_events();
    result.degraded_node_s = to_seconds(injector_.degraded_until(end));
    if (net_health_ != nullptr) {
      result.net_stepdowns = net_health_->stepdowns();
      result.net_split_brain_rounds = net_health_->split_brain_rounds();
    }
  }

 private:
  /// Failover: a stranded job re-dispatches after the backoff delay (the
  /// remote hop folded in without the net model); past the retry cap it
  /// times out — never silently lost.
  void redispatch(sim::Job job) {
    // A settled request (its hedge copy won meanwhile) must not re-enter.
    if (run_.settled(job.id)) return;
    job.disrupted = true;
    ++job.attempts;
    const Time now = run_.engine().now();
    if (static_cast<int>(job.attempts) > run_.config().fault.max_redispatch) {
      obs::logf(obs::LogLevel::kWarn, "failover",
                "t=%.3fs job %llu timed out after %u attempts", to_seconds(now),
                static_cast<unsigned long long>(job.id), job.attempts);
      run_.settle(job.id, obs::SpanOutcome::kTimeout,
                  run_.here(obs::kLaneDispatch), job.attempts);
      return;
    }
    ++redispatches_;
    if (obs::TraceSink* tracer = run_.tracer())
      tracer->instant(obs::Category::kDispatch, "redispatch", run_.cluster_pid(),
                      obs::kLaneDispatch, now,
                      {{"job", job.id},
                       {"attempts", static_cast<std::uint64_t>(job.attempts)}});
    if (obs::SpanRecorder* spans = run_.spans()) {
      // Failover wait charges to the backoff phase. Without the net model
      // the flat remote hop latency is folded into this same delay, so it
      // lands in backoff too (DESIGN.md section 15).
      spans->begin_backoff(job.id, now, /*admission=*/false);
      spans->note(job.id, "redispatch", now, job.attempts);
    }
    // With the net model on, the hop cost is the RPC wire itself (sampled
    // latency, retransmits) — not a flat add-on here.
    Time delay = overload::backoff_delay(run_.config().fault.redispatch_backoff,
                                         job.attempts, &backoff_rng_);
    if (network_ == nullptr) delay += run_.config().os.remote_cgi_latency;
    run_.hop(delay, std::move(job), -1, this);
  }

  /// Healthy count as the front end *believes* it (the distributed
  /// detector's row under the net model, false suspicion included).
  int declared_healthy() const {
    return net_health_ != nullptr ? net_health_->healthy_count()
                                  : health_->healthy_count();
  }

  void on_health(int node, NodeHealth from, NodeHealth to) {
    const Time now = run_.engine().now();
    if (obs::TraceSink* tracer = run_.tracer())
      tracer->instant(obs::Category::kFault, "health", node, obs::kLaneFault,
                      now,
                      {{"from", to_string(from)}, {"to", to_string(to)}});
    obs::logf(obs::LogLevel::kDebug, "health", "t=%.3fs node %d %s -> %s",
              to_seconds(now), node, to_string(from), to_string(to));
    // Roles follow *declared* state: promotion and the Theorem-1 re-sizing
    // of theta'_2 happen at detection time, not crash time.
    if (to == NodeHealth::kDead) {
      run_.node_down(node);
      const bool was_master = membership_.is_master(node);
      const int promoted = membership_.mark_dead(node);
      if (promoted >= 0) {
        note_promotion(promoted, node);
      } else if (net_health_ != nullptr && was_master) {
        // Quorum gate (or reachability filter) blocked the election; park
        // it for the per-round retry.
        pending_promotions_.push_back(node);
      }
    } else if (to == NodeHealth::kHealthy) {
      membership_.mark_alive(node);
      if (net_health_ != nullptr) {
        pending_promotions_.erase(std::remove(pending_promotions_.begin(),
                                              pending_promotions_.end(), node),
                                  pending_promotions_.end());
        net_health_->set_claim(node, membership_.is_master(node));
      }
    } else {
      return;  // suspected: candidate pools shrink, roles unchanged
    }
    run_.reservation().set_membership(membership_.effective_p(),
                                      membership_.effective_m());
  }

  void note_promotion(int promoted, int replaced) {
    const Time now = run_.engine().now();
    if (obs::TraceSink* tracer = run_.tracer())
      tracer->instant(obs::Category::kFault, "promote", promoted,
                      obs::kLaneFault, now, {{"replaces", replaced}});
    obs::logf(obs::LogLevel::kInfo, "membership",
              "t=%.3fs slave %d promoted to master (replacing %d)",
              to_seconds(now), promoted, replaced);
    // The promoted node now claims the role in the distributed view.
    if (net_health_ != nullptr) net_health_->set_claim(promoted, true);
  }

  void retry_promotions() {
    for (std::size_t i = 0; i < pending_promotions_.size();) {
      const int dead = pending_promotions_[i];
      const int promoted = membership_.retry_promotion(dead);
      if (promoted >= 0) {
        note_promotion(promoted, dead);
        run_.reservation().set_membership(membership_.effective_p(),
                                          membership_.effective_m());
      }
      // Drop the entry once resolved: the role moved, or the node came back
      // (retry_promotion returns -1 for both and the kHealthy transition
      // also erases revived nodes).
      if (promoted >= 0 || !membership_.is_master(dead) ||
          run_.node(dead).alive()) {
        pending_promotions_.erase(pending_promotions_.begin() +
                                  static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  core::ClusterRun& run_;
  /// The net layer's wire (null without the net model): detection then
  /// runs on the distributed NetHealth riding it.
  net::Network* network_;
  Membership membership_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<net::NetHealth> net_health_;
  FaultInjector injector_;
  /// Quorum-deferred promotions: dead masters whose replacement could not
  /// be elected yet (no majority corroboration, or the front end itself
  /// lost quorum). Retried every detection round.
  std::vector<int> pending_promotions_;
  /// Re-dispatch delays follow the shared backoff curve on a dedicated
  /// stream, so every other consumer's draws stay untouched.
  Rng backoff_rng_;
  std::uint64_t redispatches_ = 0;
};

}  // namespace

std::unique_ptr<core::Layer> make_failover_layer(core::ClusterRun& run) {
  return std::make_unique<FailoverLayer>(run);
}

}  // namespace wsched::fault
