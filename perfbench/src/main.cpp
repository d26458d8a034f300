// wsched benchmark: one workload, one seed, one time budget.
//
//   perfbench --workload fig4-grid|chaos-batch|obs-replay --seed N
//             --seconds S --trace 0|1 [--size full|tiny]
//             [--spans-out PATH] [--git-rev REV]
//
// --trace 0 measures the end-to-end metrics: whole passes of the workload
// (set-up, every experiment, result serialization) repeat until S seconds
// have passed, and every timing is reported as a median over passes or
// experiments. --trace 1 alternates an untraced pass with a traced one
// (spans around each call into a layer, each replay decomposed into trace
// generation and ClusterSim::run), then runs the per-layer kernels and the
// layer-cost matrix, and reports the per-layer metrics.
//
// Every experiment's outputs are checked (ledger closure, finite stretch
// >= 1, span closure, a clean invariant report on chaos-batch); passes of
// one run must agree bit for bit. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check/runner.hpp"
#include "layers.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  Workload workload = Workload::kFig4Grid;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig4-grid|chaos-batch|obs-replay --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--spans-out PATH] "
               "[--git-rev REV]\n",
               problem);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage(("unexpected argument " + arg).c_str());
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      if (i + 1 >= argc) usage(("missing value for --" + arg).c_str());
      kv[arg] = argv[++i];
    }
  }
  Options o;
  const auto take = [&](const char* key) -> std::string {
    const auto it = kv.find(key);
    if (it == kv.end()) return "";
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  const auto number = [&](const char* key, const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v))
      usage((std::string("bad value for --") + key).c_str());
    return v;
  };
  const std::string workload = take("workload");
  if (!parse_workload(workload, o.workload))
    usage(("unknown workload '" + workload + "'").c_str());
  const std::string seed = take("seed");
  const double seed_value = number("seed", seed);
  if (seed_value < 0 || seed_value != std::floor(seed_value) ||
      seed_value > 1e15)
    usage("--seed must be a whole number >= 0");
  o.seed = static_cast<std::uint64_t>(seed_value);
  o.seconds = number("seconds", take("seconds"));
  if (o.seconds <= 0.0 || o.seconds > 3600.0)
    usage("--seconds must be in (0, 3600]");
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
  o.trace = trace == "1";
  const std::string size = take("size");
  if (!size.empty() && size != "full" && size != "tiny")
    usage("--size must be full or tiny");
  o.tiny = size == "tiny";
  o.spans_out = take("spans-out");
  const std::string rev = take("git-rev");
  if (!rev.empty()) o.git_rev = rev;
  if (!kv.empty()) usage(("unknown option --" + kv.begin()->first).c_str());
  return o;
}

/// Linear-interpolation percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A named metric in the result, with its unit and what it measures.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* basis;  ///< "host", "sim" or "count"
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_conditions(const Options& o) {
  std::printf(
      "{\"conditions\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"size\": \"%s\", \"nproc\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_rev\": \"%s\"}}\n",
      workload_name(o.workload), o.seed, fmt(o.seconds).c_str(),
      o.trace ? 1 : 0, o.tiny ? "tiny" : "full",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, o.git_rev.c_str());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %22s %-6s (%s)\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str(), m.basis);
}

/// The table, then the JSON result line (always the last stdout line).
void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  print_metrics(metrics);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Passes of one run must replay the same simulated program: identical
/// fingerprints, event counts, stretch and artifact sizes.
bool passes_agree(const std::vector<PassResult>& passes) {
  for (const PassResult& p : passes) {
    if (p.fingerprint != passes[0].fingerprint ||
        p.events != passes[0].events ||
        p.stretch_mean != passes[0].stretch_mean ||
        p.artifact_bytes != passes[0].artifact_bytes)
      return false;
  }
  return true;
}

void report_failures(const PassResult& pass) {
  std::size_t shown = 0;
  for (std::size_t i = 0; i < pass.outcomes.size() && shown < 10; ++i) {
    if (pass.outcomes[i].failure.empty()) continue;
    std::fprintf(stderr, "perfbench: experiment %zu failed: %s\n", i,
                 pass.outcomes[i].failure.c_str());
    ++shown;
  }
}

/// Extra check on chaos-batch: the benchmark's inlined chaos replay gives
/// the first schedule the same artifact hash as check::run_schedule.
bool chaos_matches_runner(const Options& o, const PassResult& pass) {
  if (o.workload != Workload::kChaosBatch || pass.outcomes.empty())
    return true;
  Tracer off;
  LayerCounts counts;
  const Plan plan = make_plan(o.workload, o.seed, o.tiny, off, counts);
  const wsched::check::ChaosOutcome outcome =
      wsched::check::run_schedule(plan.schedules.front());
  const bool same = outcome.ok() &&
                    outcome.artifact_hash == pass.outcomes[0].artifact_hash;
  if (!same)
    std::fprintf(stderr,
                 "perfbench: run_schedule hash %s != inlined replay %s\n",
                 hex64(outcome.artifact_hash).c_str(),
                 hex64(pass.outcomes[0].artifact_hash).c_str());
  return same;
}

int run_untraced(const Options& o, std::int64_t process_start) {
  Tracer off;
  std::vector<PassResult> passes;
  const std::int64_t budget_end =
      process_start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::int64_t setup_start = process_start;
  do {
    passes.push_back(
        run_pass(o.workload, o.seed, o.tiny, off, false, setup_start));
    setup_start = now_ns();
  } while (now_ns() < budget_end);

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, wall, replay_ms;
  for (const PassResult& p : passes) {
    attempted += p.outcomes.size();
    failed += p.failed;
    setup.push_back(p.setup_s);
    wall.push_back(p.wall_s);
    for (const Outcome& out : p.outcomes) replay_ms.push_back(out.host_ms);
  }
  if (failed > 0) report_failures(passes.front());
  const bool agree = passes_agree(passes);
  if (!agree) std::fprintf(stderr, "perfbench: passes disagree\n");
  const bool runner_ok = chaos_matches_runner(o, passes.front());
  const bool correct = failed == 0 && agree && runner_ok;

  const PassResult& first = passes.front();
  const double wall_s = median(wall);
  std::printf("passes %zu, experiments per pass %zu, replay samples %zu\n",
              passes.size(), first.outcomes.size(), replay_ms.size());
  std::printf("fingerprint %s, events per pass %" PRIu64 "\npass wall_s:",
              hex64(first.fingerprint).c_str(), first.events);
  for (const double w : wall) std::printf(" %.4f", w);
  std::printf("\n");
  // Printed with the gated metrics but not part of the JSON result:
  // stretch_mean is a deterministic simulated output whose spread across
  // seeds is workload content (chaos-batch's heavy tail), and failed_ratio
  // is 0 on a correct tree; the JSON carries it as failed / attempted.
  print_metrics({
      {"stretch_mean", first.stretch_mean, "ratio", "sim"},
      {"failed_ratio",
       static_cast<double>(failed) /
           static_cast<double>(std::max<std::uint64_t>(1, attempted)),
       "ratio", "count"},
  });
  print_result(
      {
          {"setup_s", median(setup), "s", "host"},
          {"wall_s", wall_s, "s", "host"},
          {"events_per_s", static_cast<double>(first.events) / wall_s, "1/s",
           "sim events per host s"},
          {"replay_ms_p50", percentile(replay_ms, 0.50), "ms", "host"},
          {"replay_ms_p90", percentile(replay_ms, 0.90), "ms", "host"},
          {"peak_rss_mb", peak_rss_mb(), "MB", "host"},
          {"artifact_bytes", static_cast<double>(first.artifact_bytes),
           "bytes", "count"},
      },
      correct, attempted, failed);
  return 0;
}

int run_traced(const Options& o, std::int64_t process_start) {
  Tracer tracer;
  std::vector<PassResult> plain, traced;
  const std::int64_t budget_end =
      process_start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::int64_t setup_start = process_start;
  do {
    tracer.set_enabled(false);
    plain.push_back(
        run_pass(o.workload, o.seed, o.tiny, tracer, false, setup_start));
    tracer.set_enabled(true);
    traced.push_back(
        run_pass(o.workload, o.seed, o.tiny, tracer, true, now_ns()));
    tracer.set_enabled(false);
    setup_start = now_ns();
  } while (now_ns() < budget_end);

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.outcomes.size();
      failed += p.failed;
    }
  }
  if (failed > 0) report_failures(traced.front());

  // Decomposition check: generate_trace + ClusterSim::run, built the way
  // run_experiment builds it, replays the same program experiment by
  // experiment.
  bool decomposition_ok = true;
  const PassResult& ref = plain.front();
  for (const PassResult& t : traced) {
    if (t.outcomes.size() != ref.outcomes.size() ||
        t.fingerprint != ref.fingerprint) {
      decomposition_ok = false;
      break;
    }
    for (std::size_t i = 0; i < t.outcomes.size(); ++i) {
      if (t.outcomes[i].stretch != ref.outcomes[i].stretch ||
          t.outcomes[i].events != ref.outcomes[i].events)
        decomposition_ok = false;
    }
  }
  std::printf("decomposition check: %s\n", decomposition_ok ? "ok" : "FAILED");
  const bool agree = passes_agree(plain) && passes_agree(traced);
  const bool correct =
      failed == 0 && decomposition_ok && agree && chaos_matches_runner(o, ref);

  // Self times per span name, per traced pass (only traced passes record
  // spans).
  std::map<std::string, double> self_ms;
  for (const auto& [name, t] : tracer.self_times())
    self_ms[name] = static_cast<double>(t.self_ns) / 1e6 /
                    static_cast<double>(traced.size());

  const LayerCounts& c = traced.front().counts;
  std::vector<double> plain_wall, traced_wall;
  for (const PassResult& p : plain) plain_wall.push_back(p.wall_s);
  for (const PassResult& p : traced) traced_wall.push_back(p.wall_s);

  const auto self = [&](const char* name) {
    const auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : it->second;
  };
  std::vector<Metric> metrics;
  const auto add = [&](const std::string& name, double value,
                       const char* unit, const char* basis) {
    metrics.push_back({name, value, unit, basis});
  };

  add("sim.engine_ns_per_event", engine_ns_per_event(o.seed), "ns", "host");
  add("core.rsrc_pick_ns_p32", rsrc_pick_ns(32, o.seed), "ns", "host");
  add("core.rsrc_pick_ns_p128", rsrc_pick_ns(128, o.seed), "ns", "host");
  std::uint64_t completed = 0;
  for (const Outcome& out : ref.outcomes) completed += out.completed;
  add("core.summary_ms",
      summary_ms(completed / std::max<std::size_t>(1, ref.outcomes.size()),
                 o.seed),
      "ms", "host");
  add("trace.generate_ms", self("trace.generate"), "ms", "host");
  add("trace.calls", static_cast<double>(c.trace_calls), "count", "count");
  add("trace.records", static_cast<double>(c.trace_records), "count",
      "count");
  add("trace.distinct_ratio",
      c.trace_calls ? static_cast<double>(c.trace_distinct) /
                          static_cast<double>(c.trace_calls)
                    : 0.0,
      "ratio", "count");
  add("model.optimize_ms", self("model.optimize"), "ms", "host");
  add("model.calls", static_cast<double>(c.model_calls), "count", "count");
  add("replay.ms", self("replay"), "ms", "host");
  add("replay.events", static_cast<double>(c.replay_events), "count", "sim");
  add("replay.ns_per_event",
      c.replay_events ? self("replay") * 1e6 /
                            static_cast<double>(c.replay_events)
                      : 0.0,
      "ns", "host");
  add("harness.rows_write_ms", self("harness.rows_write"), "ms", "host");
  add("harness.rows_bytes", static_cast<double>(c.rows_bytes), "bytes",
      "count");
  add("obs.trace_write_ms", self("obs.trace_write"), "ms", "host");
  add("obs.decisions_write_ms", self("obs.decisions_write"), "ms", "host");
  add("obs.probes_write_ms", self("obs.probes_write"), "ms", "host");
  add("obs.spans_write_ms", self("obs.spans_write"), "ms", "host");
  add("obs.trace_bytes", static_cast<double>(c.trace_bytes), "bytes",
      "count");
  add("obs.decisions_bytes", static_cast<double>(c.decisions_bytes), "bytes",
      "count");
  add("obs.probes_bytes", static_cast<double>(c.probes_bytes), "bytes",
      "count");
  add("obs.spans_bytes", static_cast<double>(c.spans_bytes), "bytes",
      "count");
  add("obs.hook_ratio",
      o.workload == Workload::kObsReplay ? obs_hook_ratio(o.seed, o.tiny)
                                         : 0.0,
      "ratio", "host");
  add("check.schedule_ms", self("check.schedule"), "ms", "host");
  add("check.invariants_ms", self("check.invariants"), "ms", "host");
  add("check.fingerprint_ms", self("check.fingerprint"), "ms", "host");
  add("check.violations", static_cast<double>(c.violations), "count",
      "count");
  for (const LayerCost& cost : layer_matrix(o.seed, o.tiny)) {
    add("layer." + cost.layer + ".host_ratio", cost.host_ratio, "ratio",
        "host");
    add("layer." + cost.layer + ".event_ratio", cost.event_ratio, "ratio",
        "sim");
  }
  add("bench.trace_overhead", median(traced_wall) / median(plain_wall),
      "ratio", "host");

  const std::string spans_path =
      o.spans_out.empty() ? ".bench_build/spans.json" : o.spans_out;
  std::ofstream spans(spans_path);
  if (spans) {
    tracer.write_json(spans);
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                spans_path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_path.c_str());
  }
  std::printf("passes %zu untraced + %zu traced, fingerprint %s\n",
              plain.size(), traced.size(), hex64(ref.fingerprint).c_str());
  print_result(metrics, correct && static_cast<bool>(spans), attempted,
               failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const Options options = parse(argc, argv);
  print_conditions(options);
  try {
    return options.trace ? run_traced(options, process_start)
                         : run_untraced(options, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
