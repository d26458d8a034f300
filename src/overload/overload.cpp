#include "overload/overload.hpp"

#include <algorithm>

#include "core/run.hpp"
#include "obs/log.hpp"

namespace wsched::overload {

namespace {

/// Sampling period of the queue/utilization signals driving admission,
/// queue-trip breakers and the saturation detector.
constexpr Time kSignalPeriod = 100 * kMillisecond;
/// Client retry delays for shed requests: the shared default curve.
constexpr BackoffConfig kRetryBackoff{};

}  // namespace

OverloadController::OverloadController(core::ClusterRun& run,
                                       const OverloadConfig& config)
    : run_(run),
      engine_(run.engine()),
      trace_(run.tracer()),
      config_(config),
      admission_(config.admission),
      saturation_(config.saturation),
      breakers_(run.config().p, config.breaker),
      breakers_on_(config.breaker.enabled),
      admission_rng_(run.config().seed, 0xAD7115),
      retry_rng_(run.config().seed, 0xB0FF) {
  run.view().breakers = breakers_on_ ? &breakers_ : nullptr;
}

void OverloadController::start() {
  engine_.schedule_call_after(kSignalPeriod, &OverloadController::fire_tick,
                              this);
}

void OverloadController::fire_tick(void* ctx) {
  static_cast<OverloadController*>(ctx)->on_tick();
}

void OverloadController::on_tick() {
  const Time now = engine_.now();
  double queue_sum = 0.0;
  int alive = 0;
  Time cpu_busy = 0;
  const std::vector<sim::Node*>& nodes = run_.nodes();
  for (sim::Node* node : nodes) {
    const double depth =
        static_cast<double>(node->run_queue_length() +
                            node->disk_queue_length());
    cpu_busy += node->cpu_busy_until(now);
    if (node->alive()) {
      queue_sum += depth;
      ++alive;
    }
    if (breakers_on_) breakers_.node(node->id()).note_queue_depth(depth, now);
  }
  const double mean_queue = alive > 0 ? queue_sum / alive : 0.0;
  const double dt = to_seconds(now - last_tick_);
  const double util =
      dt > 0.0 ? std::clamp(to_seconds(cpu_busy - last_cpu_busy_) /
                                (static_cast<double>(nodes.size()) * dt),
                            0.0, 1.0)
               : 0.0;
  last_tick_ = now;
  last_cpu_busy_ = cpu_busy;

  admission_.on_signal(mean_queue, util);
  if (breakers_on_) sync_breaker_trips();
  if (config_.saturation.enabled) {
    const int change = saturation_.on_signal(mean_queue, now);
    if (change != 0) {
      const bool entered = change > 0;
      if (trace_ != nullptr)
        trace_->instant(obs::Category::kDispatch,
                        entered ? "degraded-enter" : "degraded-exit",
                        run_.cluster_pid(), obs::kLaneOverload, now,
                        {{"queue_signal", saturation_.signal()}});
      obs::logf(obs::LogLevel::kInfo, "overload",
                "t=%.3fs %s degraded static-only mode (queue signal %.1f)",
                to_seconds(now), entered ? "entering" : "leaving",
                saturation_.signal());
      // Degraded static-only mode clamps the reservation: masters stop
      // accepting dynamic work entirely until the detector restores.
      run_.reservation().set_degraded(entered);
    }
  }
  if (trace_ != nullptr) {
    trace_->counter(obs::Category::kDispatch, "overload.queue_signal",
                    run_.cluster_pid(), now, mean_queue);
    trace_->counter(obs::Category::kDispatch, "overload.degraded",
                    run_.cluster_pid(), now,
                    saturation_.degraded() ? 1.0 : 0.0);
  }
  engine_.schedule_call_after(kSignalPeriod, &OverloadController::fire_tick,
                              this);
}

const char* OverloadController::shed_reason(bool dynamic) {
  const double p = admission_.shed_probability(dynamic);
  if (p <= 0.0) return nullptr;
  // Draw only for a fractional probability: an inert policy (p always 0)
  // and a hard gate (p = 1) must consume no randomness.
  if (p < 1.0 && !(admission_rng_.uniform() < p)) return nullptr;
  switch (config_.admission.policy) {
    case AdmissionPolicy::kQueueDepth: return "shed-queue";
    case AdmissionPolicy::kUtilization: return "shed-util";
    case AdmissionPolicy::kStretchTarget: return "shed-stretch";
    case AdmissionPolicy::kNone: break;
  }
  return nullptr;
}

Time OverloadController::deadline_for(bool dynamic) const {
  const double seconds =
      dynamic ? config_.deadline.dynamic_s : config_.deadline.static_s;
  return seconds > 0.0 ? from_seconds(seconds) : 0;
}

void OverloadController::on_arrival(sim::Job& job) {
  const Time deadline = deadline_for(job.request.is_dynamic());
  if (deadline <= 0) return;
  live_.emplace(job.id, TrackedJob{-1, false, job.request.is_dynamic()});
  run_.hop(deadline, job, kDeadline, this, /*checked=*/false);
}

void OverloadController::resume(sim::Job& job, int tag) {
  if (tag == kDeadline) {
    on_deadline(job.id);
    return;
  }
  // A retry is a fresh admission (the failover layer's outage hold, then
  // the shed verdict), then a fresh route.
  if (run_.admit(job)) run_.route(std::move(job));
}

void OverloadController::on_deadline(std::uint64_t id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;  // already settled
  bool freed = false;
  if (it->second.node >= 0) {
    sim::Node& node = run_.node(it->second.node);
    if (node.alive()) freed = node.abort(id);
  }
  ++abandoned_;
  if (trace_ != nullptr)
    trace_->instant(obs::Category::kDispatch, "abandon", run_.cluster_pid(),
                    obs::kLaneOverload, engine_.now(),
                    {{"job", id}, {"dynamic", it->second.dynamic ? 1 : 0}});
  obs::logf(obs::LogLevel::kDebug, "overload",
            "t=%.3fs job %llu abandoned past its deadline",
            to_seconds(engine_.now()),
            static_cast<unsigned long long>(id));
  if (freed) {
    live_.erase(it);
  } else {
    // In flight (dispatch hop or retry backoff): the pending event that
    // holds the job observes the flag at its landing check and drops it.
    it->second.abandoned = true;
  }
  // Abandonment is terminal: the request leaves the system here.
  run_.settle(id, obs::SpanOutcome::kAbandoned,
              run_.here(obs::kLaneOverload));
}

bool OverloadController::admit(sim::Job& job) {
  const char* reason = shed_reason(job.request.is_dynamic());
  if (reason == nullptr) return true;
  shed_retry(std::move(job), reason);
  return false;
}

void OverloadController::shed_retry(sim::Job job, const char* reason) {
  const Time now = engine_.now();
  if (obs::DecisionLog* decisions = run_.view().decisions) {
    obs::DecisionRecord record;
    record.at = now;
    record.dynamic = job.request.is_dynamic();
    record.receiver = -1;
    record.chosen = -1;
    record.remote = false;
    record.w = -1.0;
    record.reason = reason;
    decisions->record(std::move(record));
  }
  if (static_cast<int>(job.attempts) >= config_.max_retries) {
    live_.erase(job.id);
    ++shed_;
    if (trace_ != nullptr)
      trace_->instant(obs::Category::kDispatch, "shed", run_.cluster_pid(),
                      obs::kLaneOverload, now, {{"job", job.id}});
    obs::logf(obs::LogLevel::kDebug, "overload",
              "t=%.3fs job %llu shed for good (%s, %u retries)",
              to_seconds(now), static_cast<unsigned long long>(job.id),
              reason, job.attempts);
    run_.settle(job.id, obs::SpanOutcome::kShed,
                run_.here(obs::kLaneOverload));
    return;
  }
  ++job.attempts;
  if (obs::SpanRecorder* spans = run_.spans()) {
    // Client retry wait is part of getting admitted, so it charges to the
    // admission phase (not failover backoff).
    spans->begin_backoff(job.id, now, /*admission=*/true);
    spans->note(job.id, "retry", now, job.attempts);
  }
  ++retries_;
  if (trace_ != nullptr)
    trace_->instant(obs::Category::kDispatch, "retry", run_.cluster_pid(),
                    obs::kLaneOverload, now, {{"job", job.id}});
  const Time delay = backoff_delay(kRetryBackoff, job.attempts, &retry_rng_);
  run_.hop(delay, std::move(job), kRetry, this);
}

void OverloadController::on_wait(const sim::Job& job) {
  if (!config_.deadline.any() || job.hedge) return;
  const auto it = live_.find(job.id);
  if (it != live_.end()) it->second.node = -1;
}

void OverloadController::on_landed(const sim::Job& job, int node) {
  if (!config_.deadline.any() || job.hedge) return;
  const auto it = live_.find(job.id);
  if (it != live_.end()) it->second.node = node;
}

bool OverloadController::on_land(const sim::Job& job) {
  if (!config_.deadline.any() || job.hedge) return true;
  const auto it = live_.find(job.id);
  if (it == live_.end() || !it->second.abandoned) return true;
  live_.erase(it);
  return false;
}

void OverloadController::on_terminal(std::uint64_t id,
                                     obs::SpanOutcome why) {
  if (why == obs::SpanOutcome::kTimeout && config_.deadline.any())
    live_.erase(id);
}

bool OverloadController::on_complete(const sim::Job& job, int node,
                                     Time at) {
  if (breakers_on_) breakers_.node(node).note_success();
  if (config_.admission.policy == AdmissionPolicy::kStretchTarget &&
      !job.request.is_dynamic()) {
    const Time response = std::max<Time>(1, at - job.cluster_arrival);
    const Time demand = std::max<Time>(1, job.request.service_demand);
    admission_.on_static_completion(static_cast<double>(response) /
                                    static_cast<double>(demand));
  }
  if (!config_.deadline.any()) return true;
  const auto it = live_.find(job.id);
  if (it == live_.end()) return true;  // class without a deadline
  const bool settled = it->second.abandoned;
  live_.erase(it);
  // A completion racing an already-counted abandonment is a zombie; the
  // core must not account it a second time.
  return !settled;
}

void OverloadController::on_sent(int node, bool ok) {
  if (!breakers_on_) return;
  if (ok) {
    breakers_.node(node).note_dispatch();
    return;
  }
  breakers_.node(node).note_failure(engine_.now());
  sync_breaker_trips();
}

void OverloadController::sync_breaker_trips() {
  const std::uint64_t trips = breakers_.trips();
  if (trips == last_trips_) return;
  if (trace_ != nullptr)
    trace_->instant(obs::Category::kDispatch, "breaker-open",
                    run_.cluster_pid(), obs::kLaneOverload, engine_.now(),
                    {{"tripped", breakers_.tripped_count()}});
  obs::logf(obs::LogLevel::kInfo, "overload",
            "t=%.3fs circuit breaker tripped (%d node(s) not closed)",
            to_seconds(engine_.now()), breakers_.tripped_count());
  last_trips_ = trips;
}

void OverloadController::publish(core::RunResult& result) const {
  const Time end = engine_.now();
  result.shed = shed_;
  result.abandoned = abandoned_;
  result.overload_retries = retries_;
  result.breaker_trips = breakers_.trips();
  result.degraded_entries = saturation_.entries();
  result.degraded_seconds = to_seconds(saturation_.degraded_time(end));
}

}  // namespace wsched::overload
