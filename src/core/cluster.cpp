#include "core/cluster.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/run.hpp"

namespace wsched::core {

ClusterSim::ClusterSim(ClusterConfig config,
                       std::unique_ptr<Dispatcher> dispatcher)
    : config_(std::move(config)), dispatcher_(std::move(dispatcher)) {
  if (config_.p < 1) throw std::invalid_argument("cluster: p must be >= 1");
  if (config_.m < 1 || config_.m > config_.p)
    throw std::invalid_argument("cluster: need 1 <= m <= p");
  if (!config_.node_params.empty() &&
      config_.node_params.size() != static_cast<std::size_t>(config_.p))
    throw std::invalid_argument("cluster: node_params size mismatch");
  if (dispatcher_ == nullptr)
    throw std::invalid_argument("cluster: dispatcher required");
  if (config_.net.enabled && !config_.net.partitions.empty() &&
      !config_.fault.enabled)
    throw std::invalid_argument(
        "cluster: network partitions require the fault layer "
        "(fault.enabled) so membership and health can react");
  // Range checks come before any layer gate: a negative deadline would
  // otherwise read as "off" and switch the overload layer off silently.
  const overload::OverloadConfig& o = config_.overload;
  if (o.deadline.static_s < 0.0)
    throw std::invalid_argument("cluster: deadline.static_s must be >= 0");
  if (o.deadline.dynamic_s < 0.0)
    throw std::invalid_argument("cluster: deadline.dynamic_s must be >= 0");
  if (o.max_retries < 0)
    throw std::invalid_argument("cluster: overload max_retries must be >= 0");
  if (o.admission.max_utilization < 0.0 || o.admission.max_utilization > 1.0)
    throw std::invalid_argument(
        "cluster: admission max_utilization must be in [0, 1]");
  if (o.admission.stretch_target <= 0.0)
    throw std::invalid_argument(
        "cluster: admission stretch_target must be > 0");
  if (config_.net.stale_max_age_s < 0.0)
    throw std::invalid_argument("cluster: net stale_max_age_s must be >= 0");
  if (config_.net.load_report_interval_s < 0.0)
    throw std::invalid_argument(
        "cluster: net load_report_interval_s must be >= 0");
  // A negative jitter would read as "no jitter" (nothing is drawn).
  if (config_.net.latency_base_s < 0.0)
    throw std::invalid_argument("cluster: net latency_base_s must be >= 0");
  if (config_.net.latency_jitter_s < 0.0)
    throw std::invalid_argument("cluster: net latency_jitter_s must be >= 0");
  if (config_.slow_health.check_period_s < 0.0)
    throw std::invalid_argument(
        "cluster: slow_health check_period_s must be >= 0");
  // A speed factor above 1 would make a limping or stalled node faster.
  const fault::FaultConfig& f = config_.fault;
  for (const auto& [name, factor] :
       {std::pair{"stall_factor", f.stall_factor},
        {"degrade_cpu_factor", f.degrade_cpu_factor},
        {"degrade_disk_factor", f.degrade_disk_factor}})
    if (factor <= 0.0 || factor > 1.0)
      throw std::invalid_argument(std::string("cluster: fault ") + name +
                                  " must be in (0, 1]");
  const ctrl::CtrlConfig& c = config_.ctrl;
  if (c.enabled) {
    if (c.interval_s <= 0.0)
      throw std::invalid_argument("cluster: ctrl interval must be > 0");
    if (c.estimate_alpha <= 0.0 || c.estimate_alpha > 1.0)
      throw std::invalid_argument(
          "cluster: ctrl estimate_alpha must be in (0, 1]");
    if (c.theta_slew < 0.0)
      throw std::invalid_argument("cluster: ctrl theta_slew must be >= 0");
    if (c.scale_up_util < 0.0 || c.scale_up_util > 1.0)
      throw std::invalid_argument(
          "cluster: ctrl scale_up_util must be in [0, 1]");
    if (c.scale_down_util < 0.0 || c.scale_down_util > 1.0)
      throw std::invalid_argument(
          "cluster: ctrl scale_down_util must be in [0, 1]");
    if (c.dwell_s < 0.0)
      throw std::invalid_argument("cluster: ctrl dwell_s must be >= 0");
    if (c.min_powered < 1)
      throw std::invalid_argument("cluster: ctrl min_powered must be >= 1");
    if (c.autoscale && config_.fault.enabled)
      throw std::invalid_argument(
          "cluster: autoscaling and the fault layer are mutually "
          "exclusive (the health monitor would declare drained nodes dead "
          "and the injector would recover them behind the scaler's back)");
  }
  if (config_.hedge.enabled &&
      (config_.hedge.delay_s < 0.0 || config_.hedge.min_delay_s < 0.0 ||
       config_.hedge.delay_factor <= 0.0))
    throw std::invalid_argument("cluster: invalid hedge config");
}

RunResult ClusterSim::run(const trace::Trace& trace) {
  if (trace.records.empty()) return RunResult{};
  return ClusterRun(config_, *dispatcher_, trace).run();
}

namespace {

/// Period of the core's theta'_2 recomputation (reservation_tick).
constexpr Time kReservationUpdatePeriod = 1 * kSecond;

std::vector<std::unique_ptr<sim::Node>> build_nodes(
    sim::Engine& engine, const ClusterConfig& config) {
  obs::CounterRegistry* counters = config.obs.counters;
  const auto counter = [counters](const char* name) -> std::uint64_t* {
    return counters != nullptr ? counters->handle(name) : nullptr;
  };
  sim::NodeObsHooks hooks;
  hooks.trace = config.obs.trace;
  hooks.spans = config.obs.spans;
  hooks.forks = counter("cpu.forks");
  hooks.context_switches = counter("cpu.context_switches");
  hooks.preemptions = counter("cpu.preemptions");
  hooks.cpu_slices = counter("cpu.slices");
  hooks.disk_slices = counter("disk.slices");
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (int i = 0; i < config.p; ++i) {
    const sim::NodeParams params =
        config.node_params.empty()
            ? sim::NodeParams{}
            : config.node_params[static_cast<std::size_t>(i)];
    nodes.push_back(std::make_unique<sim::Node>(engine, config.os, params, i));
    nodes.back()->set_obs(hooks);
  }
  return nodes;
}

std::vector<sim::Node*> raw(const std::vector<std::unique_ptr<sim::Node>>& v) {
  std::vector<sim::Node*> out;
  for (const auto& node : v) out.push_back(node.get());
  return out;
}

ReservationConfig reservation_config(const ClusterConfig& config) {
  ReservationConfig res = config.reservation;
  res.p = config.p;
  res.m = config.m;
  return res;
}

}  // namespace

ClusterRun::ClusterRun(const ClusterConfig& config, Dispatcher& dispatcher,
                       const trace::Trace& trace)
    : config_(config),
      dispatcher_(dispatcher),
      trace_(trace),
      tracer_(config.obs.trace),
      spans_(config.obs.spans),
      // Flow events ride the trace but only exist when spans are on, so a
      // span-off trace keeps its exact bytes.
      flow_(spans_ != nullptr ? tracer_ : nullptr),
      nodes_(build_nodes(engine_, config)),
      node_ptrs_(raw(nodes_)),
      monitor_(engine_, node_ptrs_, config.load_sample_period),
      // One dispatch-knowledge instance per potential receiver: a master
      // only sees the shared periodic sample plus its own redirections.
      feedbacks_(static_cast<std::size_t>(config.p),
                 DispatchFeedback(static_cast<std::size_t>(config.p),
                                  config.load_sample_period,
                                  config.initial_dynamic_demand_s)),
      reservation_(reservation_config(config)),
      dispatch_rng_(config.seed, 0xD15),
      metrics_(config.warmup, config.os.fork_overhead),
      remaining_(trace.records.size()) {
  if (config_.max_events > 0 || config_.wall_budget_s > 0.0) {
    engine_.set_guard(config_.max_events, config_.wall_budget_s);
    if (tracer_ != nullptr)
      engine_.set_guard_diagnostics(
          [tracer = tracer_] { return tracer->recent_summary(); });
  }
  name_lanes();
  view_.load = &monitor_.all();
  if (config_.use_dispatch_feedback) view_.feedbacks = &feedbacks_;
  if (!config_.node_params.empty()) view_.node_params = &config_.node_params;
  view_.p = config_.p;
  view_.m = config_.m;
  view_.reservation = &reservation_;
  view_.rng = &dispatch_rng_;
  view_.decisions = config_.obs.decisions;
  if (config_.obs.counters != nullptr)
    view_.reservation_rejections =
        config_.obs.counters->handle("dispatch.reservation_rejections");
  if (config_.metrics_tail_start > 0)
    metrics_.set_tail_start(config_.metrics_tail_start);
  if (config_.overload.deadline.any())
    metrics_.set_deadlines(from_seconds(config_.overload.deadline.static_s),
                           from_seconds(config_.overload.deadline.dynamic_s));
  attach_layers();
  // With a transport the monitor is no longer an oracle feed: feedbacks
  // refresh only from load reports that crossed the wire.
  if (transport_ == nullptr)
    monitor_.set_on_sample([this] {
      for (auto& feedback : feedbacks_) feedback.on_sample(monitor_.all());
    });
  for (int i = 0; i < config_.p; ++i)
    node(i).set_completion_callback(
        [this, i](const sim::Job& job, Time at) { complete(job, i, at); });
}

void ClusterRun::name_lanes() {
  if (tracer_ == nullptr) return;
  for (int i = 0; i < config_.p; ++i) {
    tracer_->name_process(
        i, (i < config_.m ? "master " : "slave ") + std::to_string(i));
    tracer_->name_thread(i, obs::kLaneRequest, "requests");
    tracer_->name_thread(i, obs::kLaneCpu, "cpu");
    tracer_->name_thread(i, obs::kLaneDisk, "disk");
    tracer_->name_thread(i, obs::kLaneFault, "fault");
  }
  tracer_->name_process(cluster_pid(), "cluster");
  tracer_->name_thread(cluster_pid(), obs::kLaneDispatch, "dispatch");
  tracer_->name_thread(cluster_pid(), obs::kLaneControl, "control");
  tracer_->name_thread(cluster_pid(), obs::kLaneOverload, "overload");
}

void ClusterRun::attach_layers() {
  // Construction follows what each layer reads from another (the failover
  // layer's distributed detector rides the net layer's wire; the net and
  // ctrl layers name their trace lanes in that order). Hook order is the
  // order of `layers_` below (DESIGN.md section 18).
  std::unique_ptr<Layer> net, cache, hedge, failover, overload, slow, ctrl;
  if (config_.net.enabled) net = net::make_net_layer(*this);
  if (config_.cgi_cache_entries > 0) cache = make_cache_layer(*this);
  if (config_.hedge.enabled) hedge = fault::make_hedge_layer(*this);
  if (config_.fault.enabled) failover = fault::make_failover_layer(*this);
  if (config_.overload.any())
    overload = std::make_unique<overload::OverloadController>(
        *this, config_.overload);
  if (config_.slow_health.enabled) {
    auto monitor = std::make_unique<fault::SlowHealthMonitor>(
        config_.p, config_.slow_health);
    monitor->attach(*this);
    slow = std::move(monitor);
  }
  if (config_.ctrl.any()) {
    auto loop = std::make_unique<ctrl::ControlLoop>(config_.ctrl, config_.p);
    loop->attach(*this);
    ctrl = std::move(loop);
  }
  std::unique_ptr<Layer> ordered[] = {std::move(cache),    std::move(hedge),
                                      std::move(failover), std::move(overload),
                                      std::move(slow),     std::move(net),
                                      std::move(ctrl)};
  for (auto& layer : ordered) {
    if (layer == nullptr) continue;
    layers_.push_back(layer.get());
    owned_.push_back(std::move(layer));
  }
}

// --- periodic ticks and the arrival cursor (function-pointer events) ---

void ClusterRun::every(Time period, Layer* layer, void (ClusterRun::*own)()) {
  tickers_.push_back({this, layer, period, own});
  engine_.schedule_call_after(period, &ClusterRun::fire_tick, &tickers_.back());
}

void ClusterRun::fire_tick(void* ctx) {
  Ticker& t = *static_cast<Ticker*>(ctx);
  if (t.layer != nullptr)
    t.layer->tick();
  else
    (t.run->*t.own)();
  if (t.run->remaining_ > 0)
    t.run->engine_.schedule_call_after(t.period, &ClusterRun::fire_tick, ctx);
}

void ClusterRun::fire_arrival(void* ctx) {
  static_cast<ClusterRun*>(ctx)->arrive();
}

RunResult ClusterRun::run() {
  monitor_.start();
  for (Layer* layer : layers_) layer->start();
  every(kReservationUpdatePeriod, nullptr, &ClusterRun::reservation_tick);
  if (config_.obs.probes != nullptr)
    every(config_.obs.probes->interval(), nullptr, &ClusterRun::probe_tick);
  for (Layer* layer : layers_)
    if (layer->tick_period() > 0) every(layer->tick_period(), layer);
  engine_.schedule_call(trace_.records.front().arrival,
                        &ClusterRun::fire_arrival, this);
  engine_.run();
  return publish();
}

// --- the request lifecycle ---

void ClusterRun::arrive() {
  // Arrival cursor: submits record i, then schedules record i+1, which
  // keeps the calendar small regardless of trace length. Job ids are dense
  // and follow trace order.
  const trace::TraceRecord& rec = trace_.records[cursor_];
  sim::Job job;
  job.id = cursor_ + 1;
  job.request = rec;
  job.cluster_arrival = engine_.now();
  if (spans_ != nullptr)
    spans_->on_arrival(job.id, engine_.now(), rec.is_dynamic(),
                       rec.service_demand, cluster_pid());
  if (flow_ != nullptr)
    flow_->flow(obs::Category::kRequest, 's', "req", cluster_pid(),
                obs::kLaneDispatch, engine_.now(), job.id);
  for (Layer* layer : layers_) layer->on_arrival(job);
  if (admit(job)) route(std::move(job));
  if (++cursor_ < trace_.records.size())
    engine_.schedule_call(trace_.records[cursor_].arrival,
                          &ClusterRun::fire_arrival, this);
}

bool ClusterRun::admit(sim::Job& job) {
  for (Layer* layer : layers_)
    if (!layer->admit(job)) return false;
  return true;
}

Decision ClusterRun::decide(const trace::TraceRecord& rec) {
  view_.now = engine_.now();
  const Decision decision = dispatcher_.route(rec, view_);
  if (decision.node < 0 || decision.node >= config_.p)
    throw std::out_of_range("dispatcher routed outside the cluster");
  return decision;
}

void ClusterRun::route(sim::Job job) {
  Decision decision = decide(job.request);
  job.receiver = decision.receiver;
  Dispatch dispatch{decision};
  for (Layer* layer : layers_) layer->on_dispatch(job, dispatch);
  const bool was_dynamic = job.request.is_dynamic() || dispatch.cache_hit;
  job.remote = decision.remote;
  ++requests_;
  if (decision.remote) ++remote_;
  if (tracer_ != nullptr)
    tracer_->instant(obs::Category::kDispatch,
                     dispatch.cache_hit ? "cache-hit" : "dispatch",
                     cluster_pid(), obs::kLaneDispatch, engine_.now(),
                     {{"job", job.id},
                      {"receiver", decision.receiver},
                      {"node", decision.node},
                      {"remote", decision.remote ? 1 : 0},
                      {"dynamic", was_dynamic ? 1 : 0}});
  if (flow_ != nullptr)
    flow_->flow(obs::Category::kRequest, 't', "req", cluster_pid(),
                obs::kLaneDispatch, engine_.now(), job.id);
  if (!dispatch.cache_hit && decision.rsrc_w >= 0.0 && was_dynamic)
    feedbacks_[static_cast<std::size_t>(decision.receiver)].on_dispatch(
        static_cast<std::size_t>(decision.node), decision.rsrc_w);
  sent(decision.node, true);
  if (decision.remote && job.request.is_dynamic())
    send(std::move(job), decision.node);
  else
    land(std::move(job), decision.node);
}

void ClusterRun::send(sim::Job job, int node) {
  if (transport_ != nullptr) {
    for (Layer* layer : layers_) layer->on_wait(job);
    transport_->carry(job, node);
    return;
  }
  if (spans_ != nullptr) spans_->begin_hop(job.id, engine_.now());
  hop(config_.os.remote_cgi_latency, std::move(job), node);
}

void ClusterRun::hop(Time delay, sim::Job job, int node, Layer* resume,
                     bool checked) {
  if (checked)
    for (Layer* layer : layers_) layer->on_wait(job);
  Hop* h = hops_.acquire();
  h->run = this;
  h->job = std::move(job);
  h->node = node;
  h->resume = resume;
  h->checked = checked;
  engine_.schedule_call_after(delay, &ClusterRun::fire_hop, h);
}

void ClusterRun::fire_hop(void* ctx) {
  Hop& h = *static_cast<Hop*>(ctx);
  ClusterRun& run = *h.run;
  sim::Job job = std::move(h.job);
  const int node = h.node;
  Layer* resume = h.resume;
  const bool checked = h.checked;
  run.hops_.release(&h);
  if (checked && !run.passes_landing(job)) return;
  if (resume != nullptr)
    resume->resume(job, node);
  else if (node >= 0)
    run.land(std::move(job), node);
  else
    run.route(std::move(job));
}

bool ClusterRun::passes_landing(const sim::Job& job) {
  for (Layer* layer : layers_)
    if (!layer->on_land(job)) return false;
  return !settled(job.id);
}

void ClusterRun::land(sim::Job job, int node) {
  sim::Node& target = this->node(node);
  if (!target.alive()) {
    strand(job, node, Strand::kLanding);
    return;
  }
  for (Layer* layer : layers_) layer->on_landed(job, node);
  target.submit(std::move(job));
}

bool ClusterRun::strand(sim::Job& job, int node, Strand why) {
  for (Layer* layer : layers_)
    if (layer->on_stranded(job, node, why)) return true;
  return false;
}

void ClusterRun::sent(int node, bool ok) {
  for (Layer* layer : layers_) layer->on_sent(node, ok);
}

void ClusterRun::node_down(int node) {
  for (Layer* layer : layers_) layer->on_node_down(node);
}

bool ClusterRun::settled(std::uint64_t id) const {
  for (const Layer* layer : layers_)
    if (layer->settled(id)) return true;
  return false;
}

void ClusterRun::complete(const sim::Job& job, int node, Time at) {
  for (Layer* layer : layers_)
    if (!layer->on_complete(job, node, at)) return;
  if (spans_ != nullptr)
    // The final job is authoritative for class/demand (a cache hit may
    // have demoted a dynamic request mid-flight).
    spans_->on_class(job.id, job.request.is_dynamic(),
                     job.request.service_demand);
  settle(job.id, obs::SpanOutcome::kCompleted, {node, obs::kLaneRequest, at});
  metrics_.record(job, at);
  reservation_.record_completion(job.request.is_dynamic(),
                                 at - job.cluster_arrival);
  if (job.request.is_dynamic()) {
    if (transport_ != nullptr) {
      // No oracle broadcast over a transport: only the master that served
      // the response learns its demand.
      feedbacks_[static_cast<std::size_t>(job.receiver)].note_dynamic_demand(
          job.request.service_demand);
    } else {
      for (auto& feedback : feedbacks_)
        feedback.note_dynamic_demand(job.request.service_demand);
    }
  }
  for (Layer* layer : layers_) layer->on_completed(job, node, at);
}

void ClusterRun::settle(std::uint64_t id, obs::SpanOutcome outcome,
                        Exit where, std::uint32_t attempts) {
  if (outcome == obs::SpanOutcome::kCompleted) {
    ++completed_;
  } else {
    for (Layer* layer : layers_) layer->on_terminal(id, outcome);
  }
  if (outcome == obs::SpanOutcome::kTimeout) {
    ++timeouts_;
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kDispatch, "timeout", cluster_pid(),
                       obs::kLaneDispatch, where.at,
                       {{"job", id},
                        {"attempts", static_cast<std::uint64_t>(attempts)}});
  }
  if (spans_ != nullptr) spans_->terminal(id, outcome, where.at);
  if (flow_ != nullptr)
    flow_->flow(obs::Category::kRequest, 'f', "req", where.pid, where.lane,
                where.at, id);
  if (--remaining_ == 0) engine_.stop();
}

// --- the core's periodic ticks ---

void ClusterRun::reservation_tick() {
  // Periodic theta'_2 recomputation. When the control plane owns the
  // tuning, the unslewed update() would stomp the slew-limited retune; the
  // tick then only snapshots the estimates.
  if (reservation_self_tuned_) reservation_.update();
  ++reservation_updates_;
  if (tracer_ == nullptr) return;
  const Time now = engine_.now();
  tracer_->counter(obs::Category::kReservation, "theta_limit", cluster_pid(),
                   now, reservation_.theta_limit());
  tracer_->counter(obs::Category::kReservation, "a_hat", cluster_pid(), now,
                   reservation_.a_hat());
  tracer_->counter(obs::Category::kReservation, "r_hat", cluster_pid(), now,
                   reservation_.r_hat());
  tracer_->counter(obs::Category::kReservation, "master_fraction",
                   cluster_pid(), now, reservation_.master_fraction());
}

void ClusterRun::probe_tick() {
  // The recorder is passive (no RNG, no state the simulation reads back),
  // so probing cannot perturb results.
  const Time now = engine_.now();
  node_probes_.clear();
  for (const auto& n : nodes_) {
    obs::NodeProbe probe;
    probe.cpu_busy = n->cpu_busy_until(now);
    probe.disk_busy = n->disk_busy_until(now);
    probe.run_queue = static_cast<int>(n->run_queue_length());
    probe.disk_queue = static_cast<int>(n->disk_queue_length());
    probe.mem_used_ratio = static_cast<double>(n->memory().used_pages()) /
                           static_cast<double>(n->memory().capacity_pages());
    probe.alive = n->alive();
    node_probes_.push_back(probe);
  }
  obs::ClusterProbe sample;
  sample.a_hat = reservation_.a_hat();
  sample.r_hat = reservation_.r_hat();
  sample.theta_limit = reservation_.theta_limit();
  sample.master_fraction = reservation_.master_fraction();
  for (const Layer* layer : layers_) layer->probe(sample);
  config_.obs.probes->sample(now, node_probes_, sample);
}

// --- run end ---

std::span<const RunMetric> run_metrics() {
  using enum MetricBlock;
  using enum MetricGate;
  using R = RunResult;
  using M = MetricsSummary;
  static constexpr RunMetric kTable[] = {
      {&M::stretch, "stretch"},
      {&M::stretch_static, "stretch_static"},
      {&M::stretch_dynamic, "stretch_dynamic"},
      {&M::mean_response_s, "mean_response_s"},
      {&M::p95_response_s, "p95_response_s"},
      {&M::p99_response_s, "p99_response_s"},
      {&M::max_stretch, "max_stretch"},
      {&M::completed, "completed"},
      {&R::cache_hit_ratio, "cache_hit_ratio"},
      {&R::availability, "availability"},
      {&R::redispatches, "redispatches", "fault.redispatches"},
      {&R::timeouts, "timeouts", "fault.timeouts"},
      {&R::promotions, "promotions", "fault.promotions"},
      {&R::node_crashes, "node_crashes"},
      {&M::stretch_tail, "stretch_tail"},
      {&M::stretch_disrupted, "stretch_disrupted"},
      {&M::completed_disrupted, "completed_disrupted"},
      {&R::theta_limit, "theta_limit"},
      {&R::a_hat, "a_hat"},
      {&R::r_hat, "r_hat"},
      {&R::goodput_rps, "goodput_rps"},
      {&M::slo_attainment, "slo_attainment"},
      {&M::p95_stretch, "p95_stretch"},
      {&M::p95_stretch_static, "p95_stretch_static"},
      {&R::shed, "shed", "overload.shed"},
      {&R::abandoned, "abandoned", "overload.abandoned"},
      {&R::overload_retries, "overload_retries", "overload.retries"},
      {&R::breaker_trips, "breaker_trips", "overload.breaker_trips"},
      {&R::degraded_entries, "degraded_entries", "overload.degraded_entries"},
      {&R::cache_lookups, nullptr, "cache.lookups"},
      {&R::cache_hits, nullptr, "cache.hits"},
      {&R::submitted, "submitted", nullptr, kLedger},
      {&R::completed, "completed_total", nullptr, kLedger},
      {&R::net_sent, "net_sent", "net.sent", kNet, kIfNet},
      {&R::net_lost, "net_lost", nullptr, kNet},
      {&R::net_duplicates, "net_duplicates", "net.duplicates", kNet, kIfNet},
      {&R::net_rpc_retries, "net_rpc_retries", "net.rpc_retries", kNet, kIfNet},
      {&R::net_rpc_failures, "net_rpc_failures", "net.rpc_failures", kNet,
       kIfNet},
      {&R::net_reports, "net_reports", "net.reports", kNet, kIfNet},
      {&R::net_stale_fallbacks, "net_stale_fallbacks", "net.stale_fallbacks",
       kNet, kIfNet},
      {&R::net_partitions, "net_partitions", "net.partitions", kNet, kIfNet},
      {&R::net_stepdowns, "net_stepdowns", "net.stepdowns", kNet, kIfNet},
      {&R::net_split_brain_rounds, "net_split_brain_rounds",
       "net.split_brain_rounds", kNet, kIfNet},
      {&R::ctrl_retunes, "ctrl_retunes", "ctrl.retunes", kCtrl, kIfCtrl},
      {&R::ctrl_scale_ups, "ctrl_scale_ups", "ctrl.scale_ups", kCtrl, kIfCtrl},
      {&R::ctrl_scale_downs, "ctrl_scale_downs", "ctrl.scale_downs", kCtrl,
       kIfCtrl},
      {&R::ctrl_migrations, "ctrl_migrations", "ctrl.migrations", kCtrl,
       kIfCtrl},
      {&R::ctrl_retargets, "ctrl_retargets", "ctrl.retargets", kCtrl, kIfCtrl},
      {&R::ctrl_w_hat, "ctrl_w_hat", nullptr, kCtrl},
      {&R::ctrl_r_hat, "ctrl_r_hat", nullptr, kCtrl},
      {&R::energy_node_s, "energy_node_s", nullptr, kCtrl},
      {&R::powered_min, "powered_min", nullptr, kCtrl},
      {&R::degrade_events, "degrade_events", nullptr, kGray},
      {&R::degraded_node_s, "degraded_node_s", nullptr, kGray},
      {&R::slow_degraded, "slow_degraded", "slow_health.degraded", kGray,
       kIfSlowHealth},
      {&R::slow_recovered, "slow_recovered", "slow_health.recovered", kGray,
       kIfSlowHealth},
      {&R::hedges_launched, "hedges_launched", "hedge.launched", kGray,
       kIfHedge},
      {&R::hedge_wins, "hedge_wins", "hedge.wins", kGray, kIfHedge},
      {&R::hedge_cancellations, "hedge_cancellations", "hedge.cancelled", kGray,
       kIfHedge},
      {&R::hedges_skipped, "hedges_skipped", "hedge.skipped", kGray, kIfHedge},
  };
  return kTable;
}

RunResult ClusterRun::publish() {
  RunResult result;
  const Time end = engine_.now();
  result.submitted = trace_.records.size();
  result.metrics = metrics_.summary();
  result.events = engine_.events_processed();
  result.sim_seconds = to_seconds(end);
  result.completed = completed_;
  result.timeouts = timeouts_;
  result.powered_min = config_.p;
  result.energy_node_s = static_cast<double>(config_.p) * to_seconds(end);
  // Goodput: in-SLO completions per second of measured simulated time
  // (plain throughput when no deadline is configured).
  const double measured_s = result.sim_seconds - to_seconds(config_.warmup);
  if (measured_s > 0.0)
    result.goodput_rps =
        static_cast<double>(result.metrics.completed_in_slo) / measured_s;
  double cpu_sum = 0.0, disk_sum = 0.0;
  const double denom = end > 0 ? static_cast<double>(end) : 1.0;
  for (const auto& n : nodes_) {
    const double cpu = static_cast<double>(n->cpu_busy_until(end)) / denom;
    const double disk = static_cast<double>(n->disk_busy_until(end)) / denom;
    result.node_cpu_utilization.push_back(cpu);
    result.node_disk_utilization.push_back(disk);
    cpu_sum += cpu;
    disk_sum += disk;
  }
  result.mean_cpu_utilization = cpu_sum / static_cast<double>(config_.p);
  result.mean_disk_utilization = disk_sum / static_cast<double>(config_.p);
  result.theta_limit = reservation_.theta_limit();
  result.a_hat = reservation_.a_hat();
  result.r_hat = reservation_.r_hat();
  result.master_fraction = reservation_.master_fraction();
  for (const Layer* layer : layers_) layer->publish(result);

  obs::CounterRegistry* counters = config_.obs.counters;
  if (counters == nullptr) return result;
  // Indexed by MetricGate: whether that gate's layer is attached.
  const bool attached[] = {true, config_.net.enabled, config_.ctrl.any(),
                           config_.hedge.enabled, config_.slow_health.enabled};
  for (const RunMetric& metric : run_metrics())
    if (metric.counter != nullptr &&
        attached[static_cast<std::size_t>(metric.gate)])
      *counters->handle(metric.counter) +=
          result.*std::get<std::uint64_t RunResult::*>(metric.field);
  // The counts with no RunResult field of their own.
  *counters->handle("dispatch.requests") += requests_;
  *counters->handle("dispatch.remote") += remote_;
  *counters->handle("reservation.updates") += reservation_updates_;
  if (network_ != nullptr) {
    *counters->handle("net.lost") += network_->lost();
    *counters->handle("net.partition_drops") += network_->partition_drops();
  }
  return result;
}

}  // namespace wsched::core
