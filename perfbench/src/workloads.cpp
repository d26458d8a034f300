#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "check/invariants.hpp"
#include "check/runner.hpp"
#include "harness/grids.hpp"
#include "harness/sweep.hpp"
#include "obs/observer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = wsched::core;
namespace check = wsched::check;
namespace harness = wsched::harness;
namespace obs = wsched::obs;

namespace {

// --- workload sizes --------------------------------------------------------
// Full sizes give every pass at least 100 experiments. The tiny sizes are
// for the self-test only.

struct Fig4Size {
  /// (p, replications). A p=128 replay costs about five p=32 replays, so
  /// the two sizes form two clusters of experiment times; 3:1 replications
  /// put the p50 inside the p=32 cluster and the p90 inside the p=128 one
  /// instead of on the gap between them, where they would jump from run to
  /// run.
  std::vector<std::pair<int, int>> clusters;
  std::size_t traces;  ///< leading Table-2 traces used (UCB, KSU, ADL)
  std::vector<double> inv_r;
  double duration_s;
  double warmup_s;
};
const Fig4Size kFig4Full{{{32, 3}, {128, 1}}, 3, {20, 40, 80, 160}, 4.0, 1.0};
const Fig4Size kFig4Tiny{{{32, 1}}, 1, {40}, 1.0, 0.25};

struct ChaosSize {
  std::uint64_t schedules;
  bool quick_band;  ///< ChaosGenConfig::quick() instead of full()
};
const ChaosSize kChaosFull{300, false};
const ChaosSize kChaosTiny{4, true};

struct ObsSize {
  int replays;
  double duration_s;
  double warmup_s;
};
const ObsSize kObsFull{100, 2.0, 0.5};
const ObsSize kObsTiny{3, 0.5, 0.1};

/// Probe sampling interval of the obs-replay collectors (simulated s).
constexpr double kProbeInterval_s = 0.05;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL ^ (salt + 0x51ED);
  return wsched::splitmix64(state);
}

/// A streambuf appending into one reusable string in 64 KiB chunks, so
/// artifacts serialize into memory without disk I/O or per-artifact
/// reallocation once the buffer has grown.
class CaptureBuf : public std::streambuf {
 public:
  CaptureBuf() : chunk_(1 << 16) { reset_put_area(); }

  const std::string& text() {
    drain();
    return out_;
  }
  void clear() {
    reset_put_area();
    out_.clear();
  }

 protected:
  int_type overflow(int_type c) override {
    drain();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void reset_put_area() { setp(chunk_.data(), chunk_.data() + chunk_.size()); }
  void drain() {
    out_.append(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    reset_put_area();
  }

  std::vector<char> chunk_;
  std::string out_;
};

/// The collectors obs-replay attaches to every replay, caller-owned.
struct Collectors {
  obs::ChromeTraceSink trace;
  obs::CounterRegistry counters;
  obs::DecisionLog decisions;
  obs::ProbeRecorder probes{wsched::from_seconds(kProbeInterval_s)};
  obs::SpanRecorder spans;

  obs::Observability bundle() {
    return {&trace, &counters, &decisions, &probes, &spans};
  }
};

/// Everything core::generate_trace reads from a spec, as one key.
std::string trace_key(const core::ExperimentSpec& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s|%a|%a|%a|%a|%" PRIu64 "|%d|%d|%a|%a|%"
                PRIu64 "|%a|%a|%s",
                s.profile.name.c_str(), s.lambda, s.duration_s, s.mu_h, s.r,
                s.seed, s.bursty, s.diurnal, s.diurnal_period_s,
                s.diurnal_amplitude, s.cgi_distinct_urls, s.cgi_zipf_s,
                s.flip_at_s, s.flip_profile.name.c_str());
  return buf;
}

Plan fig4_plan(std::uint64_t seed, bool tiny, Tracer& tracer,
               LayerCounts& counts) {
  const Fig4Size& size = tiny ? kFig4Tiny : kFig4Full;
  const auto grid = harness::table2_grid();
  Plan plan;
  plan.workload = Workload::kFig4Grid;
  std::uint64_t cell = 0;
  for (const auto& [p, reps] : size.clusters) {
    for (std::size_t t = 0; t < size.traces && t < grid.size(); ++t) {
      const harness::TraceGrid& trace = grid[t];
      const double lambda =
          (p == 32 ? trace.lambdas_p32 : trace.lambdas_p128).front();
      for (const double inv_r : size.inv_r) {
        core::ExperimentSpec spec;
        spec.profile = trace.profile;
        spec.p = p;
        spec.lambda = lambda;
        spec.r = 1.0 / inv_r;
        spec.duration_s = size.duration_s;
        spec.warmup_s = size.warmup_s;
        {
          Scope span(tracer, "model.optimize");
          ++counts.model_calls;
          spec.m = core::masters_from_theorem(core::analytic_workload(spec));
        }
        const std::uint64_t cell_seed = mix(seed, cell++);
        for (int rep = 0; rep < reps; ++rep) {
          // The paper's ablation: M/S and its three variants replay the
          // identical trace with the same master count.
          spec.seed = cell_seed + static_cast<std::uint64_t>(rep) * 7919;
          for (const core::SchedulerKind kind :
               {core::SchedulerKind::kMs, core::SchedulerKind::kMsNs,
                core::SchedulerKind::kMsNr, core::SchedulerKind::kMs1}) {
            spec.kind = kind;
            plan.specs.push_back(spec);
            harness::ResultRow row;
            row.set("trace", trace.profile.name)
                .set("p", p)
                .set("lambda", lambda)
                .set("inv_r", inv_r)
                .set("rep", rep);
            plan.coords.push_back(std::move(row));
          }
        }
      }
    }
  }
  return plan;
}

Plan chaos_plan(std::uint64_t seed, bool tiny, Tracer& tracer) {
  const ChaosSize& size = tiny ? kChaosTiny : kChaosFull;
  const check::ChaosGenConfig band = size.quick_band
                                         ? check::ChaosGenConfig::quick()
                                         : check::ChaosGenConfig::full();
  Plan plan;
  plan.workload = Workload::kChaosBatch;
  for (std::uint64_t i = 1; i <= size.schedules; ++i) {
    Scope span(tracer, "check.schedule");
    // The scenario shapes are the generator's consecutive seeds 1..N, the
    // same for every benchmark seed; the benchmark seed re-salts each
    // schedule's workload stream. Every run thus composes the same layers,
    // and runs with different seeds differ only in the generated requests.
    check::ChaosSchedule schedule = check::generate_schedule(i, band);
    schedule.seed = mix(seed, i);
    plan.specs.push_back(check::to_spec(schedule));
    harness::ResultRow row;
    row.set("seed", static_cast<unsigned long long>(schedule.seed));
    plan.coords.push_back(std::move(row));
    plan.schedules.push_back(std::move(schedule));
  }
  return plan;
}

Plan obs_plan(std::uint64_t seed, bool tiny, Tracer& tracer,
              LayerCounts& counts) {
  const ObsSize& size = tiny ? kObsTiny : kObsFull;
  core::ExperimentSpec spec;
  spec.profile = wsched::trace::ucb_profile();
  spec.p = 32;
  spec.lambda = 1500.0;
  spec.r = 1.0 / 80.0;
  spec.duration_s = size.duration_s;
  spec.warmup_s = size.warmup_s;
  spec.kind = core::SchedulerKind::kMs;
  {
    Scope span(tracer, "model.optimize");
    ++counts.model_calls;
    spec.m = core::masters_from_theorem(core::analytic_workload(spec));
  }
  Plan plan;
  plan.workload = Workload::kObsReplay;
  for (int i = 0; i < size.replays; ++i) {
    spec.seed = mix(seed, static_cast<std::uint64_t>(i));
    plan.specs.push_back(spec);
    harness::ResultRow row;
    row.set("replay", i);
    plan.coords.push_back(std::move(row));
  }
  return plan;
}

/// One replay. Untraced it is core::run_experiment; decomposed it is the
/// same steps under spans: prepare (with any Theorem-1 sizing), generate
/// the trace, run the cluster.
core::ExperimentResult replay(const core::ExperimentSpec& spec,
                              Tracer& tracer, bool decompose,
                              LayerCounts& counts,
                              std::set<std::string>& trace_keys) {
  if (!decompose) return core::run_experiment(spec);
  Prepared prep = prepare(spec, tracer, counts);
  wsched::trace::Trace trace;
  {
    Scope span(tracer, "trace.generate");
    trace = core::generate_trace(spec);
  }
  ++counts.trace_calls;
  counts.trace_records += trace.size();
  trace_keys.insert(trace_key(spec));

  core::ExperimentResult result;
  result.scheduler = core::to_string(spec.kind);
  result.m_used = prep.config.m;
  result.k_used = prep.k_used;
  {
    Scope span(tracer, "replay");
    core::ClusterSim cluster(prep.config, std::move(prep.dispatcher));
    result.run = cluster.run(trace);
  }
  counts.replay_events += result.run.events;
  if (prep.config.obs.spans != nullptr)
    result.spans = prep.config.obs.spans->summarize();
  return result;
}

/// The output checks every experiment must pass; empty when it does.
std::string check_outputs(const core::ExperimentResult& result) {
  const core::RunResult& run = result.run;
  char buf[256];
  if (run.completed + run.timeouts + run.shed + run.abandoned !=
      run.submitted) {
    std::snprintf(buf, sizeof buf,
                  "ledger: completed %" PRIu64 " + timeouts %" PRIu64
                  " + shed %" PRIu64 " + abandoned %" PRIu64
                  " != submitted %" PRIu64,
                  run.completed, run.timeouts, run.shed, run.abandoned,
                  run.submitted);
    return buf;
  }
  const double stretch = run.metrics.stretch;
  if (!std::isfinite(stretch) || stretch < 1.0) {
    std::snprintf(buf, sizeof buf, "stretch %.17g is not finite and >= 1",
                  stretch);
    return buf;
  }
  if (result.spans.enabled && result.spans.closure_violations != 0) {
    std::snprintf(buf, sizeof buf, "span closure: %" PRIu64 " violations",
                  result.spans.closure_violations);
    return buf;
  }
  return "";
}

/// Serializes one obs artifact into `buf` under its span, counts its bytes
/// and records its FNV-1a in the row.
template <typename Write>
void capture(Tracer& tracer, const char* span_name, CaptureBuf& buf,
             Write&& write, std::uint64_t& bytes, std::uint64_t& total,
             harness::ResultRow& row, const char* column) {
  buf.clear();
  {
    Scope span(tracer, span_name);
    std::ostream out(&buf);
    write(out);
    out.flush();
  }
  const std::string& text = buf.text();
  if (text.empty())
    throw std::runtime_error(std::string(column) + ": empty artifact");
  bytes += text.size();
  total += text.size();
  Scope span(tracer, "check.fingerprint");
  row.set(column, hex64(check::fnv1a(text)));
}

/// One experiment: replay, serialization, checks and its result row.
Outcome run_one(const Plan& plan, std::size_t i, Tracer& tracer,
                bool decompose, LayerCounts& counts,
                std::set<std::string>& trace_keys, CaptureBuf& buf,
                std::uint64_t& obs_bytes,
                std::vector<harness::ResultRow>& rows) {
  tracer.set_experiment(static_cast<int>(i));
  const std::int64_t start = now_ns();
  Outcome out;
  {
    Scope experiment(tracer, "experiment");
    try {
      core::ExperimentSpec spec = plan.specs[i];
      std::unique_ptr<Collectors> collectors;
      if (plan.workload == Workload::kObsReplay) {
        collectors = std::make_unique<Collectors>();
        spec.observer = collectors->bundle();
      }
      const core::ExperimentResult result =
          replay(spec, tracer, decompose, counts, trace_keys);
      harness::ResultRow row = plan.coords[i];
      harness::append_metrics(row, result);
      std::string failure;
      if (plan.workload == Workload::kChaosBatch) {
        // The rest of check::run_schedule: invariants, the full-schema
        // row and its hash.
        check::InvariantReport report;
        {
          Scope span(tracer, "check.invariants");
          report = check::InvariantRegistry::builtin().check(spec, result);
        }
        counts.violations += report.violations.size();
        if (!report.ok()) failure = "invariants: " + report.to_string();
        harness::append_net_metrics(row, result);
        harness::append_ctrl_metrics(row, result);
        harness::append_gray_metrics(row, result);
        harness::append_span_metrics(row, result);
        Scope span(tracer, "check.fingerprint");
        out.artifact_hash = check::fnv1a(harness::csv_string({row}));
      } else if (plan.workload == Workload::kObsReplay) {
        harness::append_span_metrics(row, result);
        capture(tracer, "obs.trace_write", buf,
                [&](std::ostream& o) { collectors->trace.write(o); },
                counts.trace_bytes, obs_bytes, row, "trace_hash");
        capture(tracer, "obs.decisions_write", buf,
                [&](std::ostream& o) { collectors->decisions.write_csv(o); },
                counts.decisions_bytes, obs_bytes, row, "decisions_hash");
        capture(tracer, "obs.probes_write", buf,
                [&](std::ostream& o) { collectors->probes.write_csv(o); },
                counts.probes_bytes, obs_bytes, row, "probes_hash");
        capture(tracer, "obs.spans_write", buf,
                [&](std::ostream& o) {
                  collectors->spans.write_exemplars(o, 3);
                },
                counts.spans_bytes, obs_bytes, row, "spans_hash");
        std::uint64_t counter_total = 0;
        for (const auto& [name, value] : collectors->counters.snapshot())
          counter_total += value;
        row.set("counter_total", static_cast<unsigned long long>(counter_total));
      }
      if (failure.empty()) failure = check_outputs(result);
      out.failure = failure;
      out.events = result.run.events;
      out.stretch = result.run.metrics.stretch;
      out.completed = result.run.completed;
      if (out.failure.empty()) rows.push_back(std::move(row));
    } catch (const std::exception& e) {
      out.failure = std::string("exception: ") + e.what();
    }
  }
  out.host_ms = static_cast<double>(now_ns() - start) / 1e6;
  tracer.set_experiment(-1);
  return out;
}

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::kFig4Grid, Workload::kChaosBatch,
                           Workload::kObsReplay}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kFig4Grid:
      return "fig4-grid";
    case Workload::kChaosBatch:
      return "chaos-batch";
    case Workload::kObsReplay:
      return "obs-replay";
  }
  return "?";
}

Plan make_plan(Workload workload, std::uint64_t seed, bool tiny,
               Tracer& tracer, LayerCounts& counts) {
  switch (workload) {
    case Workload::kFig4Grid:
      return fig4_plan(seed, tiny, tracer, counts);
    case Workload::kChaosBatch:
      return chaos_plan(seed, tiny, tracer);
    case Workload::kObsReplay:
      return obs_plan(seed, tiny, tracer, counts);
  }
  throw std::logic_error("make_plan: unknown workload");
}

Prepared prepare(const core::ExperimentSpec& spec, Tracer& tracer,
                 LayerCounts& counts) {
  if (spec.dispatcher_factory || !spec.obs.trace_path.empty() ||
      spec.obs.probe_interval_s > 0.0 ||
      !spec.obs.decision_log_path.empty() || !spec.obs.span_path.empty())
    throw std::invalid_argument(
        "prepare: file-backed collectors and custom dispatchers are not "
        "part of any workload");
  const wsched::model::Workload analytic = core::analytic_workload(spec);

  Prepared prep;
  core::ClusterConfig& config = prep.config;
  config.p = spec.p;
  config.os = spec.os;
  config.seed = spec.seed;
  config.warmup = wsched::from_seconds(spec.warmup_s);
  config.load_sample_period = wsched::from_seconds(spec.load_sample_period_s);
  config.fault = spec.fault;
  config.overload = spec.overload;
  config.net = spec.net;
  config.ctrl = spec.ctrl;
  config.slow_health = spec.slow_health;
  config.hedge = spec.hedge;
  if (spec.metrics_tail_start_s > 0.0)
    config.metrics_tail_start = wsched::from_seconds(spec.metrics_tail_start_s);
  config.node_params = spec.node_params;
  config.use_dispatch_feedback = spec.use_dispatch_feedback;
  config.cgi_cache_entries = spec.cgi_cache_entries;
  config.cgi_cache_ttl = wsched::from_seconds(spec.cgi_cache_ttl_s);
  config.cache_hit_mu = spec.mu_h;

  int m = spec.m;
  if (spec.kind == core::SchedulerKind::kFlat ||
      spec.kind == core::SchedulerKind::kMs1) {
    m = std::max(1, std::min(spec.p, m > 0 ? m : 1));
  } else if (m <= 0) {
    Scope span(tracer, "model.optimize");
    ++counts.model_calls;
    m = core::masters_from_theorem(analytic);
  }
  config.m = std::clamp(m, 1, spec.p);

  int k = spec.msprime_k;
  if (spec.kind == core::SchedulerKind::kMsPrime && k <= 0) {
    Scope span(tracer, "model.optimize");
    ++counts.model_calls;
    k = core::msprime_k_from_model(analytic);
  }
  prep.k_used = k;

  config.reservation.initial_r = spec.r;
  config.reservation.initial_a = analytic.a;
  config.initial_dynamic_demand_s = 1.0 / (spec.r * spec.mu_h);

  core::MsOptions ms;
  ms.rsrc_tolerance = spec.rsrc_tolerance;
  ms.binary_admission = spec.binary_admission;
  ms.speed_aware = spec.speed_aware;
  ms.fixed_w = spec.fixed_w;
  switch (spec.kind) {
    case core::SchedulerKind::kFlat:
      prep.dispatcher = core::make_flat();
      break;
    case core::SchedulerKind::kMs:
      prep.dispatcher = core::make_ms(ms);
      break;
    case core::SchedulerKind::kMsNs:
      ms.sample_demand = false;
      prep.dispatcher = core::make_ms(ms);
      break;
    case core::SchedulerKind::kMsNr:
      ms.reserve = false;
      prep.dispatcher = core::make_ms(ms);
      break;
    case core::SchedulerKind::kMs1:
      ms.all_masters = true;
      prep.dispatcher = core::make_ms(ms);
      break;
    case core::SchedulerKind::kMsPrime:
      prep.dispatcher = core::make_msprime(std::max(1, k));
      break;
  }

  config.obs = spec.observer;
  if (spec.obs.spans_on() && config.obs.spans == nullptr) {
    prep.owned_spans = std::make_unique<obs::SpanRecorder>();
    config.obs.spans = prep.owned_spans.get();
  }
  config.max_events = spec.max_events;
  config.wall_budget_s = spec.wall_budget_s;
  return prep;
}

PassResult run_pass(Workload workload, std::uint64_t seed, bool tiny,
                    Tracer& tracer, bool decompose,
                    std::int64_t setup_start_ns) {
  PassResult pass;
  Scope whole(tracer, "pass");
  Plan plan;
  {
    Scope span(tracer, "setup");
    plan = make_plan(workload, seed, tiny, tracer, pass.counts);
  }
  pass.setup_s = static_cast<double>(now_ns() - setup_start_ns) / 1e9;

  std::set<std::string> trace_keys;
  CaptureBuf buf;
  std::uint64_t obs_bytes = 0;
  std::vector<harness::ResultRow> rows;
  rows.reserve(plan.specs.size());
  double stretch_sum = 0.0;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    Outcome out = run_one(plan, i, tracer, decompose, pass.counts,
                          trace_keys, buf, obs_bytes, rows);
    pass.events += out.events;
    stretch_sum += out.stretch;
    if (!out.failure.empty()) ++pass.failed;
    pass.outcomes.push_back(std::move(out));
  }
  pass.counts.trace_distinct = trace_keys.size();
  pass.stretch_mean =
      stretch_sum / static_cast<double>(std::max<std::size_t>(1, plan.specs.size()));

  std::string csv;
  {
    Scope span(tracer, "harness.rows_write");
    csv = harness::csv_string(rows);
  }
  pass.counts.rows_bytes = csv.size();
  pass.artifact_bytes = csv.size() + obs_bytes;
  {
    Scope span(tracer, "check.fingerprint");
    pass.fingerprint = check::fnv1a(csv);
  }
  pass.wall_s = static_cast<double>(now_ns() - setup_start_ns) / 1e9;
  return pass;
}

double obs_hook_ratio(std::uint64_t seed, bool tiny) {
  Tracer off;
  LayerCounts counts;
  const Plan plan = make_plan(Workload::kObsReplay, seed, tiny, off, counts);
  std::int64_t with_ns = 0;
  std::int64_t without_ns = 0;
  for (const core::ExperimentSpec& base : plan.specs) {
    const wsched::trace::Trace trace = core::generate_trace(base);
    for (const bool attached : {false, true}) {
      core::ExperimentSpec spec = base;
      Collectors collectors;
      if (attached) spec.observer = collectors.bundle();
      Prepared prep = prepare(spec, off, counts);
      core::ClusterSim cluster(prep.config, std::move(prep.dispatcher));
      const std::int64_t start = now_ns();
      cluster.run(trace);
      (attached ? with_ns : without_ns) += now_ns() - start;
    }
  }
  return without_ns > 0 ? static_cast<double>(with_ns) /
                              static_cast<double>(without_ns)
                        : 0.0;
}

}  // namespace perfbench
