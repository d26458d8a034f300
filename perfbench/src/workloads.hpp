// The benchmark's workloads and the per-experiment replay, checks and
// serialization shared by the untraced and traced runs.
//
// Every workload is a closed batch on one thread: set-up builds the list of
// experiments, then each experiment starts when the previous one returns.
// A pass is one set-up plus the whole batch plus the serialization of the
// result rows; a run repeats passes until its time budget is spent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "harness/artifacts.hpp"
#include "tracer.hpp"

namespace perfbench {

enum class Workload { kFig4Grid, kChaosBatch, kObsReplay };

/// "fig4-grid" / "chaos-batch" / "obs-replay"; false for anything else.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload workload);

/// "0x" plus 16 hex digits: how fingerprints and hashes are printed.
std::string hex64(std::uint64_t v);

/// The experiments one pass replays, built by the set-up phase.
struct Plan {
  Workload workload = Workload::kFig4Grid;
  std::vector<wsched::core::ExperimentSpec> specs;
  /// Leading result-row columns of each experiment (its coordinates).
  std::vector<wsched::harness::ResultRow> coords;
  /// chaos-batch: the schedule each spec was lowered from.
  std::vector<wsched::check::ChaosSchedule> schedules;
};

/// Counts gathered at layer boundaries during a pass.
struct LayerCounts {
  std::uint64_t trace_calls = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t trace_distinct = 0;  ///< distinct generator inputs
  std::uint64_t model_calls = 0;
  std::uint64_t replay_events = 0;
  std::uint64_t rows_bytes = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t decisions_bytes = 0;
  std::uint64_t probes_bytes = 0;
  std::uint64_t spans_bytes = 0;
  std::uint64_t violations = 0;  ///< invariant violations reported
};

/// One experiment as the pass saw it.
struct Outcome {
  double host_ms = 0.0;  ///< the whole experiment, checks included
  std::uint64_t events = 0;
  double stretch = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t artifact_hash = 0;  ///< chaos-batch: run_schedule's hash
  std::string failure;              ///< empty when every check passed
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<Outcome> outcomes;
  std::uint64_t events = 0;
  double stretch_mean = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t artifact_bytes = 0;  ///< result rows plus obs artifacts
  std::uint64_t fingerprint = 0;     ///< FNV-1a over the result-row CSV
  LayerCounts counts;
};

/// Builds a workload's experiments from the seed (the set-up phase).
/// `tiny` shrinks every workload to a few short experiments.
Plan make_plan(Workload workload, std::uint64_t seed, bool tiny,
               Tracer& tracer, LayerCounts& counts);

/// A cluster ready to replay one spec, configured exactly the way
/// core::run_experiment configures it (including Theorem-1 sizing when the
/// spec leaves m at 0, and the span recorder spec.obs asks for).
struct Prepared {
  wsched::core::ClusterConfig config;
  std::unique_ptr<wsched::core::Dispatcher> dispatcher;
  int k_used = 0;
  std::unique_ptr<wsched::obs::SpanRecorder> owned_spans;
};
Prepared prepare(const wsched::core::ExperimentSpec& spec, Tracer& tracer,
                 LayerCounts& counts);

/// One pass: set-up, every experiment, then the result rows serialized and
/// fingerprinted. `setup_start_ns` is when set-up timing starts (process
/// start for a run's first pass). With `decompose` each experiment calls
/// core::generate_trace and ClusterSim::run separately (under spans)
/// instead of core::run_experiment.
PassResult run_pass(Workload workload, std::uint64_t seed, bool tiny,
                    Tracer& tracer, bool decompose,
                    std::int64_t setup_start_ns);

/// obs-replay: host time of ClusterSim::run with the collectors attached,
/// divided by the same replays with none attached, on the plan's traces.
double obs_hook_ratio(std::uint64_t seed, bool tiny);

}  // namespace perfbench
