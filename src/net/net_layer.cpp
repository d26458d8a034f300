// The network fault model as a cluster-run layer (see net::NetworkParams):
// the remote-dispatch hop becomes an at-least-once RPC over a lossy,
// partitionable wire, and dispatch knowledge refreshes only from in-band
// load reports that were actually delivered (the staleness-aware RSRC
// reads their age).
#include <cstdint>
#include <optional>
#include <utility>

#include "core/run.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/stale_view.hpp"
#include "obs/log.hpp"
#include "util/pool.hpp"

namespace wsched::net {
namespace {

/// The dispatch hop's at-least-once RPC: per-attempt timeout, attempt cap
/// and retransmit backoff.
constexpr Time kRpcTimeout = 50 * kMillisecond;
constexpr int kRpcMaxAttempts = 3;
constexpr overload::BackoffConfig kRpcBackoff{
    overload::BackoffKind::kExponential, 10 * kMillisecond, 2.0,
    500 * kMillisecond, 0.1};
/// RSRC staleness penalty: a candidate's cost is scaled by
/// (1 + penalty * age_s), where age is the receiver's report age.
constexpr double kStalePenaltyPerS = 0.25;

class NetLayer final : public core::Layer {
 public:
  NetLayer(core::ClusterRun& run)
      : run_(run),
        network_(run.engine(), run.config().net, run.config().p,
                 run.config().seed),
        stale_(run.config().p) {
    network_.set_hooks({run.tracer(), run.cluster_pid()});
    rpc_.emplace(run.engine(), network_,
                 Rpc::Options{kRpcTimeout, kRpcMaxAttempts, kRpcBackoff},
                 run.config().seed);
    rpc_->set_hooks({run.tracer(), run.spans(), run.cluster_pid()});
    core::ClusterView& view = run.view();
    view.network = &network_;
    view.stale = &stale_;
    view.stale_penalty_per_s = kStalePenaltyPerS;
    view.stale_max_age_s = run.config().net.stale_max_age_s;
    view.stale_fallbacks = &stale_fallbacks_;
    run.set_transport(this, &network_);
    // Named only when the net model is on: naming the lane in a net-off run
    // would change the trace bytes.
    if (obs::TraceSink* tracer = run.tracer())
      tracer->name_thread(run.cluster_pid(), obs::kLaneNet, "net");
  }

  void start() override {
    network_.start();
    const double interval = run_.config().net.load_report_interval_s;
    run_.every(interval > 0 ? from_seconds(interval)
                            : run_.config().load_sample_period,
               this);
  }

  /// In-band load reports: every live node reports its last monitor
  /// sample to each (current) master over the control plane.
  void tick() override {
    // The receiver's dispatch knowledge refreshes only from reports that
    // were actually delivered — lost or partitioned reports age the view,
    // which the RSRC staleness penalty and the two-choices fallback read.
    const Time origin = run_.monitor().last_sample_time();
    const std::vector<int>* masters =
        run_.view().membership != nullptr ? &run_.view().membership->masters()
                                          : nullptr;
    const std::size_t receivers =
        masters != nullptr ? masters->size()
                           : static_cast<std::size_t>(run_.config().m);
    for (int n = 0; n < run_.config().p; ++n) {
      if (!run_.node(n).alive()) continue;
      const core::LoadInfo info = run_.monitor().info(static_cast<std::size_t>(n));
      for (std::size_t ri = 0; ri < receivers; ++ri) {
        const int r = masters != nullptr ? (*masters)[ri] : static_cast<int>(ri);
        if (r == n) {
          // A master's knowledge of itself never crosses the wire.
          stale_.apply_report(r, n, info, origin);
          if (run_.config().use_dispatch_feedback)
            run_.feedbacks()[static_cast<std::size_t>(r)].on_node_report(
                static_cast<std::size_t>(n), info);
          continue;
        }
        Report* report = reports_in_flight_.acquire();
        *report = {this, n, r, info, origin};
        if (!network_.send(n, r, MsgKind::kControl,
                           {&NetLayer::report_landed, report, 0}))
          reports_in_flight_.release(report);
      }
    }
  }

  /// The remote-dispatch hop: sampled latency, loss surfacing as RPC
  /// retransmits, a failover (or, without the fault layer, a timeout) past
  /// the attempt cap.
  void carry(sim::Job& job, int node) override {
    if (obs::SpanRecorder* spans = run_.spans())
      spans->begin_net(job.id, run_.engine().now());
    const int receiver = job.receiver;
    const std::uint64_t id = job.id;
    Dispatch* dispatch = dispatches_.acquire();
    dispatch->layer = this;
    dispatch->job = std::move(job);
    dispatch->node = node;
    rpc_->call(receiver, node, {&NetLayer::dispatch_landed, dispatch, 0},
               {&NetLayer::dispatch_lost, dispatch, 0}, /*tag=*/id);
  }

  void probe(obs::ClusterProbe& sample) const override {
    sample.net_active = true;
    sample.net_sent = static_cast<double>(network_.sent());
    sample.net_lost =
        static_cast<double>(network_.lost() + network_.partition_drops());
    sample.net_rpc_retries = static_cast<double>(rpc_->retries());
    sample.net_stale_fallbacks = static_cast<double>(stale_fallbacks_);
    sample.net_partition_active = network_.partition_active() ? 1.0 : 0.0;
  }

  void publish(core::RunResult& result) const override {
    result.net_enabled = true;
    result.net_sent = network_.sent();
    result.net_lost = network_.lost() + network_.partition_drops();
    result.net_duplicates = rpc_->duplicates();
    result.net_rpc_retries = rpc_->retries();
    result.net_rpc_failures = rpc_->failures();
    result.net_reports = reports_;
    result.net_stale_fallbacks = stale_fallbacks_;
    result.net_partitions = network_.partitions_seen();
  }

 private:
  /// A dispatch on the wire: the job and its target, held until the RPC
  /// either delivers it or gives up (exactly one of the two happens).
  struct Dispatch {
    NetLayer* layer = nullptr;
    sim::Job job;
    int node = -1;
  };
  /// One load report on the wire: what node `n` told receiver `r`.
  struct Report {
    NetLayer* layer;
    int n;
    int r;
    core::LoadInfo info;
    Time origin;
  };

  /// Moves a dispatch out of its slot and frees the slot.
  static Dispatch take(void* ctx) {
    Dispatch& slot = *static_cast<Dispatch*>(ctx);
    Dispatch dispatch = std::move(slot);
    dispatch.layer->dispatches_.release(&slot);
    return dispatch;
  }

  static void dispatch_landed(void* ctx, std::uint64_t) {
    Dispatch d = take(ctx);
    core::ClusterRun& run = d.layer->run_;
    if (run.passes_landing(d.job)) run.land(std::move(d.job), d.node);
  }

  static void dispatch_lost(void* ctx, std::uint64_t) {
    Dispatch d = take(ctx);
    core::ClusterRun& run = d.layer->run_;
    if (!run.passes_landing(d.job)) return;
    // Past the attempt cap the fault layer fails the job over; without it
    // the dispatch is lost on the wire for good and counted as a timeout —
    // never silently dropped.
    if (run.strand(d.job, d.node, core::Strand::kWire)) return;
    run.sent(d.node, false);
    obs::logf(obs::LogLevel::kWarn, "net",
              "t=%.3fs job %llu lost on the wire after %d attempts",
              to_seconds(run.engine().now()),
              static_cast<unsigned long long>(d.job.id), kRpcMaxAttempts);
    run.settle(d.job.id, obs::SpanOutcome::kTimeout, run.here(obs::kLaneNet),
               d.job.attempts);
  }

  static void report_landed(void* ctx, std::uint64_t) {
    Report& report = *static_cast<Report*>(ctx);
    NetLayer& self = *report.layer;
    const Report r = report;
    self.reports_in_flight_.release(&report);
    if (!self.run_.node(r.r).alive()) return;
    self.stale_.apply_report(r.r, r.n, r.info, r.origin);
    if (self.run_.config().use_dispatch_feedback)
      self.run_.feedbacks()[static_cast<std::size_t>(r.r)].on_node_report(
          static_cast<std::size_t>(r.n), r.info);
    ++self.reports_;
  }

  core::ClusterRun& run_;
  Network network_;
  std::optional<Rpc> rpc_;
  StaleClusterView stale_;
  std::uint64_t stale_fallbacks_ = 0;  ///< bumped through the routing view
  std::uint64_t reports_ = 0;          ///< load reports delivered remotely
  Pool<Dispatch> dispatches_;
  Pool<Report> reports_in_flight_;
};

}  // namespace

std::unique_ptr<core::Layer> make_net_layer(core::ClusterRun& run) {
  return std::make_unique<NetLayer>(run);
}

}  // namespace wsched::net
