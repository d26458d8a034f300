// The optional model layers' interface to the request core.
//
// A cluster run (core::ClusterRun, core/run.hpp) carries each request
// through the paper's lifecycle as straight-line code: arrive, admit,
// route, hop, land, serve, complete or settle. Every optional model layer
// — failover, net, overload, ctrl, slow-health, hedge, cache — hooks into
// that lifecycle through this interface and nothing else; a run with every
// layer off attaches none and takes the plain path.
//
// Hooks run in attach order (cache, hedge, fault, overload, slow-health,
// net, ctrl; DESIGN.md section 18), which reproduces the order the layers
// acted in when their logic was threaded through one function. Every hook
// defaults to "no opinion", so a layer overrides only the points it acts at.
#pragma once

#include <cstdint>

#include "obs/span.hpp"
#include "sim/process.hpp"
#include "util/time.hpp"

namespace wsched::obs {
struct ClusterProbe;
}  // namespace wsched::obs

namespace wsched::core {

struct Decision;
struct RunResult;

/// One routing decision being carried out; on_dispatch may rewrite it.
struct Dispatch {
  Decision& decision;
  /// Set by the cache layer: a cached response demoted the request to a
  /// static file fetch at the receiving master.
  bool cache_hit = false;
};

/// Why a job cannot stay where it is (Layer::on_stranded).
enum class Strand : std::uint8_t {
  kCrash,    ///< its node crashed under it
  kDrain,    ///< its node was powered down
  kLanding,  ///< its target was down when it landed
  kWire,     ///< the RPC carrying it exhausted its attempts
};

class Layer {
 public:
  Layer() = default;
  // The run and the engine hold layer addresses (hooks, pooled hops).
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  virtual ~Layer() = default;

  /// Schedules the layer's own timers; runs before the core schedules its
  /// reservation and probe ticks.
  virtual void start() {}
  /// A periodic control tick the core schedules after its own (0 = none).
  virtual Time tick_period() const { return 0; }
  virtual void tick() {}

  /// A request arrived at the front end.
  virtual void on_arrival(sim::Job& /*job*/) {}
  /// Admission (at arrival and when a shed request retries): false means
  /// the layer took the job (failover queue, shed-retry loop).
  virtual bool admit(sim::Job& /*job*/) { return true; }
  /// The front end routed the job; runs before the dispatch is traced.
  virtual void on_dispatch(sim::Job& /*job*/, Dispatch& /*dispatch*/) {}
  /// A dispatch to `node` was made (ok) or could not be taken (!ok).
  virtual void on_sent(int /*node*/, bool /*ok*/) {}
  /// The job left for a hop (remote dispatch, backoff, migration).
  virtual void on_wait(const sim::Job& /*job*/) {}
  /// Transport only (the net layer): carries the job to `node`.
  virtual void carry(sim::Job& /*job*/, int /*node*/) {}

  /// Landing check of a job a hop delivered: false drops it.
  virtual bool on_land(const sim::Job& /*job*/) { return true; }
  /// The job was submitted to live node `node`.
  virtual void on_landed(const sim::Job& /*job*/, int /*node*/) {}
  /// The job cannot stay on / land at `node`: true when the layer took it.
  virtual bool on_stranded(sim::Job& /*job*/, int /*node*/, Strand /*why*/) {
    return false;
  }
  /// `node` went down (declared dead or drained).
  virtual void on_node_down(int /*node*/) {}
  /// A hop this layer scheduled fired (after the landing check when the
  /// hop was checked). `tag` is the layer's own.
  virtual void resume(sim::Job& /*job*/, int /*tag*/) {}

  /// A node finished the job: false vetoes the completion (a hedge loser
  /// or a completion racing an abandonment).
  virtual bool on_complete(const sim::Job& /*job*/, int /*node*/,
                           Time /*at*/) {
    return true;
  }
  /// The completion was counted.
  virtual void on_completed(const sim::Job& /*job*/, int /*node*/,
                            Time /*at*/) {}
  /// The request left without completing.
  virtual void on_terminal(std::uint64_t /*id*/, obs::SpanOutcome /*why*/) {}
  /// True when the request already left the system (a hedge copy won).
  virtual bool settled(std::uint64_t /*id*/) const { return false; }

  /// Fills the layer's fields of a probe sample.
  virtual void probe(obs::ClusterProbe& /*sample*/) const {}
  /// Run end: writes the layer's RunResult fields. The run publishes the
  /// counters from them (core::run_metrics, DESIGN.md section 18).
  virtual void publish(RunResult& /*result*/) const {}
};

}  // namespace wsched::core
