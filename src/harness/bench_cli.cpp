#include "harness/bench_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "obs/log.hpp"
#include "util/artifact_writer.hpp"

namespace wsched::harness {

namespace {

/// Adds one subsystem's flags: giving any of them switches it on.
void add_group(std::vector<Flag>& table, bool& enables,
               std::vector<Flag> group) {
  for (Flag& entry : group) {
    entry.enables = &enables;
    table.push_back(std::move(entry));
  }
}

/// The shared flag table, bound to `c`'s fields.
std::vector<Flag> shared_flags(BenchCli& c) {
  overload::OverloadConfig& o = c.overload;
  net::NetworkParams& n = c.net;
  ctrl::CtrlConfig& ctl = c.ctrl;
  fault::FaultConfig& g = c.gray;
  fault::SlowHealthConfig& sh = c.slow_health;
  core::HedgeConfig& h = c.hedge;
  std::vector<Flag> table = {
      flag("jobs", c.options.jobs,
           "worker threads for point evaluation (0 = all cores)"),
      flag("filter", c.options.filters,
           "run only points whose id contains S (repeatable, OR)"),
      flag("out", c.out,
           "write PATH.csv / PATH.json (a named sweep: PATH-<name>.*)"),
      flag("list", c.list, "print the (filtered) point ids and exit"),
      flag("quick", c.quick, "CI-sized runs (also via WSCHED_QUICK=1)"),
      // With several points, each obs file path gets a -p<index> suffix.
      flag("trace", c.obs.trace_path,
           "Chrome trace_event JSON per evaluated point (Perfetto)"),
      flag("probe-interval", c.obs.probe_interval_s,
           "sample per-node/cluster series every S simulated seconds"),
      flag("probe-out", c.obs.probe_path,
           "probe CSV path (default: derived from --trace, else probes.csv)"),
      flag("decision-log", c.obs.decision_log_path,
           "per-dispatch decision records as CSV"),
      flag("spans", c.obs.spans,
           "request-causal spans: span_* columns, flow arrows in --trace"),
      flag("span-out", c.obs.span_path,
           "worst-K exemplar span trees as JSON (implies --spans)"),
      flag("exemplars", c.obs.exemplars, "exemplars per request class"),
      {"log", "diagnostics verbosity off|warn|info|debug (or WSCHED_LOG)",
       [](const std::string& v) {
         obs::set_log_level(obs::parse_log_level(v));
       }},
      flag("ctrl", ctl.enabled, "self-tuning control plane (w/r, theta'_2)"),
      flag("slow-health", sh.enabled, "latency watchdog, default settings"),
      flag("hedge", h.enabled, "hedged dispatch, adaptive p95 delay"),
  };
  add_group(table, c.overload_set, {
      flag("deadline-static", o.deadline.static_s,
           "client abandons static requests after S seconds"),
      flag("deadline-dynamic", o.deadline.dynamic_s,
           "client abandons dynamic requests after S seconds"),
      {"shed-policy", "admission policy: none|queue|util|stretch",
       [&o](const std::string& v) {
         o.admission.policy = overload::parse_admission_policy(v);
       }},
      flag("shed-queue", o.admission.max_queue, "mean per-node queue cap"),
      flag("shed-util", o.admission.max_utilization, "shed ramp start"),
      flag("shed-target", o.admission.stretch_target, "static-stretch SLO"),
      flag("breakers", o.breaker.enabled, "per-node circuit breakers"),
      flag("degraded-mode", o.saturation.enabled, "static-only when saturated"),
      flag("overload-retries", o.max_retries, "retries of shed requests"),
  });
  add_group(table, n.enabled, {
      flag("net-loss", n.loss, "per-message drop probability"),
      {"net-latency", "dispatch hop B[:J] s: base B + exponential jitter J",
       [&n](const std::string& v) {
         const std::size_t colon = v.find(':');
         n.latency_base_s = parse_double(v.substr(0, colon));
         if (colon != std::string::npos)
           n.latency_jitter_s = parse_double(v.substr(colon + 1));
       }},
      {"net-partition", "window T0:T1:G (repeatable), e.g. 6:10:0-5|6,7",
       [&n](const std::string& v) {
         n.partitions.push_back(net::parse_partition_spec(v));
       }},
      flag("load-report-interval", n.load_report_interval_s,
           "per-node load-report period (0 rides load sampling)"),
      flag("stale-fallback", n.stale_max_age_s,
           "power-of-two choices once every report is older than S s"),
      flag("net-quorum", n.quorum, "quorum-gated promotion (false: split)"),
  });
  add_group(table, ctl.enabled, {
      flag("ctrl-interval", ctl.interval_s, "control-loop tick period (s)"),
      flag("ctrl-alpha", ctl.estimate_alpha, "estimator EWMA weight"),
      flag("ctrl-slew", ctl.theta_slew, "max theta'_2 step per tick"),
      flag("ctrl-autoscale", ctl.autoscale,
           "hysteretic slave power-down/up (excludes the fault layer)"),
      flag("ctrl-up", ctl.scale_up_util, "scale-up mean-busy threshold"),
      flag("ctrl-down", ctl.scale_down_util, "scale-down mean-busy threshold"),
      flag("ctrl-dwell", ctl.dwell_s, "minimum seconds between actions"),
      flag("ctrl-min-nodes", ctl.min_powered, "floor on powered nodes"),
      flag("ctrl-masters", ctl.retarget_masters, "Theorem-1 master count"),
  });
  add_group(table, g.enabled, {
      flag("gray-mttf", g.degrade_mttf_s, "mean time to a fail-slow episode"),
      flag("gray-mttr", g.degrade_mttr_s, "mean episode length"),
      flag("gray-cpu", g.degrade_cpu_factor, "limping CPU speed factor, in (0, 1]"),
      flag("gray-disk", g.degrade_disk_factor, "limping disk speed factor, in (0, 1]"),
      flag("gray-stall-period", g.stall_period_s, "mean gap between stalls"),
      flag("gray-stall-len", g.stall_len_s, "stall burst length"),
      flag("gray-stall-factor", g.stall_factor, "speed factor in a stall"),
      flag("gray-net-loss", g.degrade_net_loss, "extra loss while limping"),
      flag("gray-net-latency", g.degrade_net_latency_factor,
           "latency multiplier while limping"),
  });
  add_group(table, sh.enabled, {
      flag("slow-health-alpha", sh.alpha, "stretch EWMA weight"),
      flag("slow-health-degrade", sh.degrade_ratio, "EWMA > R x median"),
      flag("slow-health-recover", sh.recover_ratio, "EWMA < R x median"),
      flag("slow-health-min-samples", sh.min_samples, "trusted after N"),
      flag("slow-health-penalty", sh.penalty, "RSRC cost x (1 + X)"),
      flag("slow-health-exclude", sh.exclude, "drop degraded candidates"),
      flag("slow-health-period", sh.check_period_s, "watchdog period (s)"),
  });
  add_group(table, h.enabled, {
      flag("hedge-delay", h.delay_s, "fixed delay (0: adaptive rule)"),
      flag("hedge-factor", h.delay_factor, "delay = X * p95 stretch * demand"),
      flag("hedge-min-delay", h.min_delay_s, "floor of the adaptive delay"),
      flag("hedge-static", h.hedge_static, "hedge static requests too"),
  });
  return table;
}

}  // namespace

BenchCli::BenchCli(int argc, const char* const* argv,
                   std::vector<Flag> bench_flags, int default_jobs) {
  options.jobs = default_jobs;
  // Benches quarantine broken points (EngineGuardError and friends) into
  // SweepRun::failures instead of aborting a long sweep on one bad
  // configuration; library callers keep fail-fast semantics by default.
  options.quarantine = true;
  std::vector<Flag> table = shared_flags(*this);
  for (Flag& entry : bench_flags) table.push_back(std::move(entry));
  try {
    obs::init_log_from_env();  // --log overrides
    parse_flags(CliArgs(argc, argv), table);
    // Values only the command line sets; config ranges are checked by the
    // simulator itself.
    if (options.jobs < 0)
      throw std::invalid_argument("--jobs must be >= 0 (0 = all cores)");
    if (obs.probe_interval_s < 0.0)
      throw std::invalid_argument("--probe-interval must be >= 0");
    if (obs.exemplars < 0)
      throw std::invalid_argument("--exemplars must be >= 0");
    // The library reads a negative cap as "shed every dynamic request".
    if (overload.admission.max_queue < 0.0)
      throw std::invalid_argument(
          "--shed-queue (admission max_queue) must be >= 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench",
                 e.what());
    std::exit(2);
  }
  quick = quick || env_flag("WSCHED_QUICK", false);
}

namespace {

/// "out.json" + index 3 -> "out-p3.json"; extensionless paths get the
/// suffix appended.
std::string suffix_path(const std::string& path, std::size_t index) {
  if (path.empty()) return path;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t slash = path.find_last_of('/');
  const bool has_ext =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  const std::string tag = "-p" + std::to_string(index);
  return has_ext ? path.substr(0, dot) + tag + path.substr(dot)
                 : path + tag;
}

}  // namespace

obs::ObsConfig obs_for_point(const obs::ObsConfig& base, std::size_t index,
                             bool multi) {
  if (!multi) return base;
  obs::ObsConfig result = base;
  result.trace_path = suffix_path(base.trace_path, index);
  result.probe_path = suffix_path(base.probe_path, index);
  result.decision_log_path = suffix_path(base.decision_log_path, index);
  result.span_path = suffix_path(base.span_path, index);
  // Probes on with neither an explicit path nor a trace to derive from
  // would collapse every point onto "probes.csv"; pin the default here.
  if (base.probe_interval_s > 0.0 && base.probe_path.empty() &&
      base.trace_path.empty())
    result.probe_path = suffix_path("probes.csv", index);
  return result;
}

std::string artifact_stem(const SweepSpec& spec, const BenchCli& cli) {
  if (cli.out.empty()) return "";
  return spec.name.empty() ? cli.out : cli.out + "-" + spec.name;
}

std::optional<SweepRun> run_bench(const SweepSpec& spec, const BenchCli& cli,
                                  const EvalFn& eval) {
  if (cli.list) {
    for (const GridPoint& point : expand(spec))
      if (matches_filters(point.id, cli.options.filters))
        std::printf("%s\n", point.id.c_str());
    return std::nullopt;
  }

  // Observability injection: each evaluated point gets the CLI's obs
  // request in its spec (run_experiment materializes the collectors).
  // With several points, file paths are suffixed by grid index so parallel
  // evaluation never interleaves writers.
  EvalFn wrapped = eval;
  if (cli.obs.any() || cli.overload_set || cli.net.enabled ||
      cli.ctrl.enabled || cli.gray.enabled || cli.slow_health.enabled ||
      cli.hedge.enabled) {
    std::size_t filtered = 0;
    for (const GridPoint& point : expand(spec))
      if (matches_filters(point.id, cli.options.filters)) ++filtered;
    const bool multi = filtered > 1;
    wrapped = [&eval, &cli, multi](const GridPoint& point) {
      GridPoint traced = point;
      if (cli.obs.any())
        traced.spec.obs = obs_for_point(cli.obs, point.index, multi);
      if (cli.overload_set) traced.spec.overload = cli.overload;
      if (cli.net.enabled) traced.spec.net = cli.net;
      if (cli.ctrl.enabled) traced.spec.ctrl = cli.ctrl;
      if (cli.gray.enabled) {
        // Merge (don't clobber): a bench's own scripted crashes survive,
        // only the fail-slow churn fields come from the CLI.
        fault::FaultConfig& fault = traced.spec.fault;
        fault.enabled = true;
        fault.degrade_mttf_s = cli.gray.degrade_mttf_s;
        fault.degrade_mttr_s = cli.gray.degrade_mttr_s;
        fault.degrade_cpu_factor = cli.gray.degrade_cpu_factor;
        fault.degrade_disk_factor = cli.gray.degrade_disk_factor;
        fault.stall_period_s = cli.gray.stall_period_s;
        fault.stall_len_s = cli.gray.stall_len_s;
        fault.stall_factor = cli.gray.stall_factor;
        fault.degrade_net_loss = cli.gray.degrade_net_loss;
        fault.degrade_net_latency_factor =
            cli.gray.degrade_net_latency_factor;
      }
      if (cli.slow_health.enabled) traced.spec.slow_health = cli.slow_health;
      if (cli.hedge.enabled) traced.spec.hedge = cli.hedge;
      return eval(traced);
    };
  }

  // Bad input (a config the simulator rejects, an obs artifact that cannot
  // be written) ends the bench: one line, exit 2. Runaway-guard trips and
  // other run failures are quarantined per point instead.
  SweepRun run;
  try {
    run = run_sweep(spec, cli.options, wrapped);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    std::exit(2);
  } catch (const ArtifactWriteError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  for (const SweepFailure& failure : run.failures)
    std::fprintf(stderr, "quarantined point %zu (%s): %s\n", failure.index,
                 failure.id.c_str(), failure.error.c_str());

  const std::string stem = artifact_stem(spec, cli);
  if (!stem.empty()) {
    try {
      write_artifact_file(stem + ".csv", "sweep CSV", [&](std::ostream& out) {
        write_csv(out, run.rows);
      });
      write_artifact_file(stem + ".json", "sweep JSON", [&](std::ostream& out) {
        write_json(out, run.rows);
      });
    } catch (const std::runtime_error& e) {
      // An unwritable --out is bad input: one line naming the path, exit 2.
      std::fprintf(stderr, "--out: %s\n", e.what());
      std::exit(2);
    }
    std::printf("wrote %s.csv and %s.json (%zu rows)\n", stem.c_str(),
                stem.c_str(), run.rows.size());
  }
  return run;
}

}  // namespace wsched::harness
