// Hedged dispatch against tail latency (gray-failure defense; see
// core::HedgeConfig). When a request is still unsettled after its hedge
// delay, a copy goes to the next-best node (the primary's node excluded);
// the first completion wins and the loser is cancelled, freeing its
// queue/CPU/disk occupancy.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/run.hpp"
#include "net/rpc.hpp"
#include "obs/log.hpp"
#include "util/stats.hpp"

namespace wsched::fault {
namespace {

class HedgeLayer final : public core::Layer {
 public:
  explicit HedgeLayer(core::ClusterRun& run)
      : run_(run), state_(run.trace().records.size() + 1) {
    stretch_dynamic_.set_min_samples(16);
    stretch_static_.set_min_samples(16);
    // The slow_penalty / hedged decision-log columns are opt-in so gray-off
    // logs keep their exact bytes.
    if (run.view().decisions != nullptr)
      run.view().decisions->enable_gray_columns();
  }

  void on_dispatch(sim::Job& job, core::Dispatch& dispatch) override {
    // Arm the timer on first admission (client retries and drain
    // migrations route again; the armed flag keeps one timer per job).
    // Until the trailing window primes there is no trustworthy tail
    // estimate, so early requests simply don't hedge.
    const core::HedgeConfig& config = run_.config().hedge;
    const bool dynamic = job.request.is_dynamic();
    if (job.hedge || dispatch.cache_hit || (!dynamic && !config.hedge_static))
      return;
    State& s = state(job.id);
    if (s.armed) return;
    Time delay = 0;
    if (config.delay_s > 0.0) {
      delay = from_seconds(config.delay_s);
    } else {
      const TrailingQuantile& q = dynamic ? stretch_dynamic_ : stretch_static_;
      // Adaptive rule: this request is overdue once it has been on the
      // cluster `delay_factor * p95-stretch` times its own demand. Scaling
      // by the demand gives every request the same *relative* patience —
      // elephants get hours, mice milliseconds.
      if (q.primed())
        delay = std::max(from_seconds(config.min_delay_s),
                         static_cast<Time>(
                             config.delay_factor * q.value() *
                             static_cast<double>(job.request.service_demand)));
    }
    if (delay <= 0) return;
    s.armed = true;
    run_.hop(delay, job, -1, this, /*checked=*/false);
  }

  void resume(sim::Job& job, int) override { fire(job.id); }

  void on_landed(const sim::Job& job, int node) override {
    State& s = state(job.id);
    (job.hedge ? s.hedge_node : s.primary_node) = node;
  }

  bool on_stranded(sim::Job& job, int, core::Strand) override {
    State& s = state(job.id);
    if (job.hedge) {
      // A copy dies with its node (or never lands); the primary still
      // carries the request, so nothing fails over or migrates.
      s.hedge_node = -1;
      return true;
    }
    s.primary_node = -1;
    return false;
  }

  bool on_complete(const sim::Job& job, int node, Time at) override {
    State& s = state(job.id);
    if (!s.armed) return true;
    // First completion wins. A loser that finished before its cancellation
    // landed (or after a terminal settle) fails the claim and is dropped
    // without touching any counter.
    if (!settled_.claim(job.id)) return false;
    const int loser =
        job.hedge ? s.primary_node : (s.launched ? s.hedge_node : -1);
    if (job.hedge) {
      ++wins_;
      if (obs::SpanRecorder* spans = run_.spans())
        spans->note(job.id, "hedge-win", at, node);
    }
    if (loser >= 0 && loser != node && run_.node(loser).cancel(job.id))
      ++cancellations_;
    return true;
  }

  void on_completed(const sim::Job& job, int, Time at) override {
    // Every counted completion feeds the trailing stretch quantile the
    // adaptive delay reads.
    (job.request.is_dynamic() ? stretch_dynamic_ : stretch_static_)
        .add(static_cast<double>(at - job.cluster_arrival) /
             static_cast<double>(
                 std::max<Time>(job.request.service_demand, 1)));
  }

  void on_terminal(std::uint64_t id, obs::SpanOutcome) override {
    // A request leaving without completing (timeout, shed for good,
    // abandonment) cancels its outstanding copy, so the ledger
    // submitted == completed + timeouts + shed + abandoned closes exactly
    // even when a copy is still in flight at terminal time.
    State& s = state(id);
    if (!s.armed || !settled_.claim(id)) return;
    if (s.launched && s.hedge_node >= 0 && run_.node(s.hedge_node).cancel(id))
      ++cancellations_;
  }

  bool settled(std::uint64_t id) const override { return settled_.seen(id); }

  void publish(core::RunResult& result) const override {
    result.hedging_enabled = true;
    result.hedges_launched = launched_;
    result.hedge_wins = wins_;
    result.hedge_cancellations = cancellations_;
    result.hedges_skipped = skipped_;
  }

 private:
  /// Per-request bookkeeping, indexed by the dense job id. The node fields
  /// track where each leg sits so the winner can cancel the loser and the
  /// timer can exclude the primary's node from the copy's candidates.
  struct State {
    bool armed = false;     ///< hedge timer scheduled for this request
    bool launched = false;  ///< a copy was actually dispatched
    int primary_node = -1;  ///< node the primary occupies (-1 = in flight)
    int hedge_node = -1;    ///< node the copy occupies (-1 = none)
  };

  State& state(std::uint64_t id) {
    return state_[static_cast<std::size_t>(id)];
  }

  /// The timer: launch a copy of a still-unsettled request.
  void fire(std::uint64_t id) {
    if (settled_.seen(id)) return;
    State& s = state(id);
    if (s.launched) return;
    if (s.primary_node < 0) {
      // The primary is mid-hop or mid-backoff: check again shortly (the
      // terminal paths settle the id, so the re-check always ends).
      sim::Job timer;
      timer.id = id;
      run_.hop(std::max<Time>(from_seconds(run_.config().hedge.min_delay_s),
                              kMillisecond),
               timer, -1, this, /*checked=*/false);
      return;
    }
    // Job ids are dense and assigned in trace order, so the original
    // (pre-cache-demotion) record is recoverable by index.
    const trace::TraceRecord& rec =
        run_.trace().records[static_cast<std::size_t>(id - 1)];
    core::ClusterView& view = run_.view();
    view.exclude_node = s.primary_node;
    view.hedge_route = true;
    const core::Decision decision = run_.decide(rec);
    view.exclude_node = -1;
    view.hedge_route = false;
    if (decision.node == s.primary_node ||
        !run_.node(decision.node).alive()) {
      ++skipped_;  // no distinct healthy target to hedge to
      return;
    }
    s.launched = true;
    s.hedge_node = decision.node;
    ++launched_;
    const Time now = run_.engine().now();
    if (obs::TraceSink* tracer = run_.tracer())
      tracer->instant(obs::Category::kDispatch, "hedge", run_.cluster_pid(),
                      obs::kLaneDispatch, now,
                      {{"job", id},
                       {"node", decision.node},
                       {"primary", s.primary_node}});
    if (obs::SpanRecorder* spans = run_.spans())
      spans->note(id, "hedge", now, decision.node);
    obs::logf(obs::LogLevel::kDebug, "hedge",
              "t=%.3fs job %llu hedged to node %d (primary %d)",
              to_seconds(now), static_cast<unsigned long long>(id),
              decision.node, s.primary_node);
    sim::Job copy;
    copy.id = id;
    copy.request = rec;
    copy.cluster_arrival = rec.arrival;
    copy.receiver = decision.receiver;
    copy.remote = true;
    copy.hedge = true;
    // The copy charges the flat remote hop; if the target dies (or the
    // request settles) before it lands, the copy just evaporates — the
    // primary still carries the request.
    run_.hop(run_.config().os.remote_cgi_latency, std::move(copy),
             decision.node);
  }

  core::ClusterRun& run_;
  std::vector<State> state_;
  /// First settlement wins: claim(id) succeeds exactly once per request,
  /// so a racing loser completion (finished before its cancellation
  /// landed) is dropped and never double-counted.
  net::DedupFilter settled_;
  // Trailing per-class *stretch* p95 (sojourn normalized by the request's
  // demand) driving the adaptive delay. Normalizing keeps hedging from
  // duplicating elephants: with heavy-tailed demands the largest jobs
  // dominate any raw-latency tail even on a healthy cluster, and re-running
  // them doubles real work. A stretch tail fires only when a request has
  // waited far longer than *its own* size predicts — the signature of a
  // limping or stalled server.
  TrailingQuantile stretch_dynamic_{0.95};
  TrailingQuantile stretch_static_{0.95};
  std::uint64_t launched_ = 0;
  std::uint64_t wins_ = 0;
  std::uint64_t cancellations_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace

std::unique_ptr<core::Layer> make_hedge_layer(core::ClusterRun& run) {
  return std::make_unique<HedgeLayer>(run);
}

}  // namespace wsched::fault
