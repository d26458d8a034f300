#include "layers.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/rsrc.hpp"
#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = wsched::core;
namespace obs = wsched::obs;
using wsched::Time;

namespace {

constexpr int kRepeats = 5;

/// One self-rescheduling event chain of the engine kernel.
struct Chain {
  wsched::sim::Engine* engine;
  std::uint64_t state;
  std::uint64_t* remaining;
};

void step(Chain* chain) {
  if (*chain->remaining == 0) return;
  --*chain->remaining;
  const std::uint64_t draw = wsched::splitmix64(chain->state);
  // Mostly sub-2ms gaps (inside the calendar window), one in 64 far enough
  // ahead to land in the overflow heap, like fault and repair timers.
  const Time gap = draw % 64 == 0
                       ? 1500 * wsched::kMillisecond
                       : static_cast<Time>((draw >> 8) %
                                           (2 * wsched::kMillisecond));
  chain->engine->schedule_at(chain->engine->now() + gap,
                             [chain] { step(chain); });
}

/// A 100 ms periodic event, like the cluster's load sampler: while the
/// kernel runs, the calendar is never empty, as in a cluster replay.
void sample(Chain* ticker) {
  if (*ticker->remaining == 0) return;
  ticker->engine->schedule_at(
      ticker->engine->now() + 100 * wsched::kMillisecond,
      [ticker] { sample(ticker); });
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double engine_ns_per_event(std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 1 << 20;
  constexpr int kChains = 64;
  std::vector<double> samples;
  for (int rep = 0; rep < kRepeats; ++rep) {
    wsched::sim::Engine engine;
    std::uint64_t remaining = kEvents;
    std::vector<Chain> chains(kChains);
    for (int c = 0; c < kChains; ++c) {
      chains[static_cast<std::size_t>(c)] = {
          &engine, seed ^ (0x1234567ULL * static_cast<std::uint64_t>(c + 1)),
          &remaining};
    }
    Chain ticker{&engine, 0, &remaining};
    const std::int64_t start = now_ns();
    sample(&ticker);
    for (Chain& chain : chains) step(&chain);
    engine.run();
    const std::int64_t elapsed = now_ns() - start;
    samples.push_back(static_cast<double>(elapsed) /
                      static_cast<double>(engine.events_processed()));
  }
  return median(samples);
}

double rsrc_pick_ns(int p, std::uint64_t seed) {
  constexpr int kCalls = 200000;
  wsched::Rng rng(seed, static_cast<std::uint64_t>(p));
  core::LoadVec load;
  for (int i = 0; i < p; ++i)
    load.push_back({rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)});
  std::vector<int> candidates(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) candidates[static_cast<std::size_t>(i)] = i;

  std::vector<double> samples;
  std::size_t sink = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const std::int64_t start = now_ns();
    for (int call = 0; call < kCalls; ++call) {
      // A load report refreshes one node every 32 picks.
      if (call % 32 == 0)
        load[static_cast<std::size_t>(call / 32 % p)] =
            core::LoadInfo{rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)};
      sink += core::pick_min_rsrc(rng.uniform(0.2, 0.8), candidates, load,
                                  rng);
    }
    samples.push_back(static_cast<double>(now_ns() - start) / kCalls);
  }
  if (sink == static_cast<std::size_t>(-1)) throw std::logic_error("sink");
  return median(samples);
}

double summary_ms(std::uint64_t completions, std::uint64_t seed) {
  wsched::Rng rng(seed, 0x5u);
  std::vector<wsched::sim::Job> jobs(completions);
  std::vector<Time> done(completions);
  Time arrival = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    wsched::sim::Job& job = jobs[i];
    job.id = i;
    arrival += static_cast<Time>(rng.uniform(0.0, 2.0) * wsched::kMillisecond);
    job.cluster_arrival = arrival;
    job.request.cls = rng.bernoulli(0.3)
                          ? wsched::trace::RequestClass::kDynamic
                          : wsched::trace::RequestClass::kStatic;
    job.request.service_demand =
        static_cast<Time>(rng.uniform(0.1, 20.0) * wsched::kMillisecond);
    done[i] = arrival + static_cast<Time>(
                            static_cast<double>(job.request.service_demand) *
                            rng.uniform(1.0, 8.0));
  }
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const std::int64_t start = now_ns();
    core::MetricsCollector collector(0, 3 * wsched::kMillisecond);
    for (std::size_t i = 0; i < jobs.size(); ++i)
      collector.record(jobs[i], done[i]);
    sink += collector.summary().p99_response_s;
    samples.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  if (sink < 0.0) throw std::logic_error("sink");
  return median(samples);
}

namespace {

/// The layer-cost matrix rows, in report order.
const char* const kLayers[] = {
    "net",   "fault", "gray",  "overload",  "ctrl",
    "hedge", "spans", "trace", "decisions", "probes"};

/// Collectors a single obs layer attaches to one replay.
struct LayerCollectors {
  std::unique_ptr<obs::ChromeTraceSink> trace;
  std::unique_ptr<obs::DecisionLog> decisions;
  std::unique_ptr<obs::ProbeRecorder> probes;
  std::unique_ptr<obs::SpanRecorder> spans;
};

/// Turns exactly one layer on in `spec`, with the moderate settings the
/// chaos generator and the drills use.
void enable(const std::string& layer, core::ExperimentSpec& spec,
            LayerCollectors& collectors) {
  if (layer == "net") {
    spec.net.enabled = true;
    spec.net.loss = 0.01;
    spec.net.latency_jitter_s = 0.0005;
  } else if (layer == "fault") {
    spec.fault.enabled = true;
    spec.fault.mttf_s = 30.0;
    spec.fault.mttr_s = 1.0;
  } else if (layer == "gray") {
    spec.fault.enabled = true;
    spec.fault.degrade_mttf_s = 10.0;
    spec.fault.degrade_mttr_s = 1.0;
    spec.fault.stall_period_s = 0.5;
    spec.slow_health.enabled = true;
  } else if (layer == "overload") {
    spec.overload.deadline.static_s = 1.0;
    spec.overload.deadline.dynamic_s = 8.0;
    spec.overload.admission.policy = wsched::overload::AdmissionPolicy::kQueueDepth;
    spec.overload.admission.max_queue = 24.0;
    spec.overload.breaker.enabled = true;
    spec.overload.breaker.queue_trip = 64.0;
    spec.overload.saturation.enabled = true;
    spec.overload.saturation.enter_queue = 12.0;
    spec.overload.saturation.exit_queue = 4.0;
  } else if (layer == "ctrl") {
    spec.ctrl.enabled = true;
  } else if (layer == "hedge") {
    spec.hedge.enabled = true;
  } else if (layer == "spans") {
    collectors.spans = std::make_unique<obs::SpanRecorder>();
    spec.observer.spans = collectors.spans.get();
  } else if (layer == "trace") {
    collectors.trace = std::make_unique<obs::ChromeTraceSink>();
    spec.observer.trace = collectors.trace.get();
  } else if (layer == "decisions") {
    collectors.decisions = std::make_unique<obs::DecisionLog>();
    spec.observer.decisions = collectors.decisions.get();
  } else if (layer == "probes") {
    collectors.probes = std::make_unique<obs::ProbeRecorder>(
        wsched::from_seconds(0.05));
    spec.observer.probes = collectors.probes.get();
  } else if (layer != "off") {
    throw std::invalid_argument("unknown layer " + layer);
  }
}

}  // namespace

std::vector<LayerCost> layer_matrix(std::uint64_t seed, bool tiny) {
  core::ExperimentSpec base;
  base.profile = wsched::trace::ucb_profile();
  base.p = 32;
  base.lambda = 1000.0;
  base.r = 1.0 / 40.0;
  base.duration_s = tiny ? 0.5 : 3.0;
  base.warmup_s = tiny ? 0.1 : 1.0;
  base.kind = core::SchedulerKind::kMs;
  std::uint64_t state = seed ^ 0xC057ULL;
  base.seed = wsched::splitmix64(state);
  base.m = core::masters_from_theorem(core::analytic_workload(base));
  const wsched::trace::Trace trace = core::generate_trace(base);

  std::vector<std::string> configs{"off"};
  configs.insert(configs.end(), std::begin(kLayers), std::end(kLayers));
  std::vector<std::vector<double>> host_ms(configs.size());
  std::vector<std::uint64_t> events(configs.size(), 0);
  Tracer off;
  LayerCounts counts;
  const int repeats = tiny ? 1 : 3;
  // Interleaved so slow drift in the host's speed spreads over every row.
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      core::ExperimentSpec spec = base;
      LayerCollectors collectors;
      enable(configs[c], spec, collectors);
      Prepared prep = prepare(spec, off, counts);
      core::ClusterSim cluster(prep.config, std::move(prep.dispatcher));
      const std::int64_t start = now_ns();
      const core::RunResult run = cluster.run(trace);
      host_ms[c].push_back(static_cast<double>(now_ns() - start) / 1e6);
      events[c] = run.events;
    }
  }
  std::vector<LayerCost> out;
  const double off_ms = median(host_ms[0]);
  for (std::size_t c = 1; c < configs.size(); ++c) {
    LayerCost cost;
    cost.layer = configs[c];
    cost.host_ratio = median(host_ms[c]) / off_ms;
    cost.event_ratio =
        static_cast<double>(events[c]) / static_cast<double>(events[0]);
    out.push_back(cost);
  }
  return out;
}

}  // namespace perfbench
