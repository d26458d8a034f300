// One cluster run: the request core and the layers attached to it.
//
// ClusterRun owns everything one replay needs (engine, nodes, load
// monitor, dispatch feedback, reservation controller, metrics) and walks
// each request through the paper's lifecycle as member functions:
//
//   arrive -> admit -> route -> hop -> land -> serve -> complete | settle
//
// Optional model layers (core/layer.hpp) act at the hook points; the
// services below are what they call back into. Every hop — the remote-CGI
// dispatch, a failover backoff, a shed-request retry, a drain migration, a
// hedge copy or timer — is one pooled record scheduled through
// Engine::schedule_call, and every request leaves through settle().
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/layer.hpp"
#include "util/pool.hpp"

namespace wsched::core {

class ClusterRun {
 public:
  ClusterRun(const ClusterConfig& config, Dispatcher& dispatcher,
             const trace::Trace& trace);
  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  RunResult run();

  // --- state the layers read ---
  sim::Engine& engine() { return engine_; }
  const ClusterConfig& config() const { return config_; }
  const trace::Trace& trace() const { return trace_; }
  const std::vector<sim::Node*>& nodes() const { return node_ptrs_; }
  sim::Node& node(int i) { return *node_ptrs_[static_cast<std::size_t>(i)]; }
  LoadMonitor& monitor() { return monitor_; }
  std::vector<DispatchFeedback>& feedbacks() { return feedbacks_; }
  ReservationController& reservation() { return reservation_; }
  ClusterView& view() { return view_; }
  obs::TraceSink* tracer() const { return tracer_; }
  obs::SpanRecorder* spans() const { return spans_; }
  int cluster_pid() const { return config_.p; }

  // --- wiring, called by layers while they attach ---
  /// The layer becomes the dispatch transport (net) over `network`: remote
  /// hops go over it, and dispatch knowledge no longer broadcasts as an
  /// oracle.
  void set_transport(Layer* layer, net::Network* network) {
    transport_ = layer;
    network_ = network;
  }
  /// The transport's wire (null without the net model).
  net::Network* network() const { return network_; }
  /// The ctrl layer owns theta'_2 tuning: the reservation tick stops
  /// calling ReservationController::update().
  void hand_off_reservation_tuning() { reservation_self_tuned_ = false; }
  /// Runs `layer->tick()` every `period` while requests remain. A layer's
  /// start() uses it for rounds that precede the core's own ticks; a
  /// nonzero Layer::tick_period() schedules the tick after them instead.
  void every(Time period, Layer* layer) { every(period, layer, nullptr); }

  // --- the lifecycle services ---
  /// Routes `rec` through the dispatcher at the current time.
  Decision decide(const trace::TraceRecord& rec);
  /// Runs the admit hooks: false when a layer took the job.
  bool admit(sim::Job& job);
  /// Routes an admitted job and hands it to its node (or its hop).
  void route(sim::Job job);
  /// Starts the remote-dispatch hop: over the transport when one is
  /// attached, else the flat remote-CGI latency.
  void send(sim::Job job, int node);
  /// Schedules one pooled hop. When it fires, a checked hop passes the
  /// landing check first; then `resume` continues it, or the job lands on
  /// `node` (>= 0), or it is routed afresh (node < 0).
  void hop(Time delay, sim::Job job, int node, Layer* resume = nullptr,
           bool checked = true);
  /// The landing check: layer vetoes (abandoned mid-hop), then settled.
  bool passes_landing(const sim::Job& job);
  /// Submits the job to `node`, or strands it there if the node is down.
  void land(sim::Job job, int node);
  /// Offers a job that cannot stay on `node` to the layers.
  bool strand(sim::Job& job, int node, Strand why);
  void sent(int node, bool ok);
  void node_down(int node);
  bool settled(std::uint64_t id) const;

  /// Where and when a request left (its span end and flow arrow).
  struct Exit {
    int pid;
    int lane;
    Time at;
  };
  Exit here(int lane) const { return {cluster_pid(), lane, engine_.now()}; }
  /// The one place a request leaves the system: completion, failover or
  /// wire timeout, shed for good, abandonment.
  void settle(std::uint64_t id, obs::SpanOutcome outcome, Exit where,
              std::uint32_t attempts = 0);

 private:
  struct Hop {
    ClusterRun* run = nullptr;
    Layer* resume = nullptr;
    sim::Job job;
    int node = -1;
    bool checked = true;
  };
  /// A periodic tick: the core's own (layer null) or a layer's.
  struct Ticker {
    ClusterRun* run;
    Layer* layer;
    Time period;
    void (ClusterRun::*own)();
  };

  static void fire_hop(void* ctx);
  static void fire_tick(void* ctx);
  static void fire_arrival(void* ctx);
  void every(Time period, Layer* layer, void (ClusterRun::*own)());

  void name_lanes();
  void attach_layers();
  void arrive();
  void complete(const sim::Job& job, int node, Time at);
  void reservation_tick();
  void probe_tick();
  RunResult publish();

  const ClusterConfig& config_;
  Dispatcher& dispatcher_;
  const trace::Trace& trace_;
  sim::Engine engine_;
  obs::TraceSink* tracer_;
  obs::SpanRecorder* spans_;
  obs::TraceSink* flow_;  ///< the tracer when spans are on (flow arrows)
  std::vector<std::unique_ptr<sim::Node>> nodes_;
  std::vector<sim::Node*> node_ptrs_;
  LoadMonitor monitor_;
  std::vector<DispatchFeedback> feedbacks_;
  ReservationController reservation_;
  Rng dispatch_rng_;
  ClusterView view_;
  MetricsCollector metrics_;

  /// Hook order (attach order); owns the layers.
  std::vector<std::unique_ptr<Layer>> owned_;
  std::vector<Layer*> layers_;
  Layer* transport_ = nullptr;
  net::Network* network_ = nullptr;
  bool reservation_self_tuned_ = true;

  Pool<Hop> hops_;
  std::deque<Ticker> tickers_;
  std::vector<obs::NodeProbe> node_probes_;  ///< reused across probe ticks

  std::uint64_t remaining_;
  std::size_t cursor_ = 0;  ///< next trace record to arrive
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t remote_ = 0;
  std::uint64_t reservation_updates_ = 0;
};

// The layers that are not classes of their own subsystem, one file each.
std::unique_ptr<Layer> make_cache_layer(ClusterRun& run);  // core/cache.cpp

}  // namespace wsched::core

namespace wsched::fault {
std::unique_ptr<core::Layer> make_failover_layer(core::ClusterRun& run);
std::unique_ptr<core::Layer> make_hedge_layer(core::ClusterRun& run);
}  // namespace wsched::fault

namespace wsched::net {
std::unique_ptr<core::Layer> make_net_layer(core::ClusterRun& run);
}  // namespace wsched::net
