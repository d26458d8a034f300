// Extension bench: drills over the self-tuning control plane (src/ctrl/).
//
//   flip    — adaptation speed after a mid-run workload flip. The CGI mix
//             flips from CPU-bound (w = 0.95, WebSTONE-like) to disk-bound
//             (w = 0.10, ADL-like) halfway through the run. Three cells
//             route the same trace:
//               oracle — per-request sampled w (the paper's off-line
//                        demand sampling, magically still correct),
//               frozen — the pre-flip sampled w = 0.95 held for the whole
//                        run (what off-line sampling actually gives you),
//               online — the control plane's completed-job estimate.
//             The post-flip tail stretch measures each cell; the drill
//             *asserts* that the online controller recovers at least 80%
//             of the oracle-vs-frozen gap — the acceptance bar for the
//             estimator replacing the oracle.
//   pareto  — energy x stretch under diurnal arrivals. A thinned-sinusoid
//             day/night cycle drives the hysteretic autoscaler; cells off /
//             conservative / aggressive trade powered-node-seconds against
//             stretch, and every cell must keep the request ledger closed
//             (drained nodes migrate their queues, nothing vanishes).
//
// Exit status is nonzero when the flip recovery bar or any ledger check
// fails — CI runs this binary as the control-plane smoke test.
//
// Shared harness CLI: --jobs/--filter/--out/--list plus the --ctrl-* knobs
// (see harness/bench_cli.hpp).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "harness/bench_cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

/// KSU arrival statistics with a single-family CGI mix whose CPU share we
/// control exactly — the flip drill needs a known w on each side.
trace::WorkloadProfile mix_profile(double w) {
  trace::WorkloadProfile profile = trace::ksu_profile();
  profile.cgi_types.clear();
  profile.cgi_fraction = 0.3;  // dynamic routing must carry real weight
  profile.cgi_cpu_fraction = w;
  profile.cgi_cpu_spread = 0.02;
  return profile;
}

core::ExperimentSpec base_spec(const harness::BenchCli& cli) {
  core::ExperimentSpec spec;
  spec.profile = mix_profile(0.95);
  spec.p = 8;
  spec.lambda = 700.0;
  spec.r = 1.0 / 40.0;
  spec.duration_s = cli.quick ? 12.0 : 24.0;
  spec.warmup_s = 2.0;
  spec.seed = 2041;
  spec.kind = core::SchedulerKind::kMs;
  spec.m = 2;
  spec.max_events = 60'000'000;
  return spec;
}

/// Stable metrics plus the ctrl.* statistics every drill reports on.
harness::ResultRow ctrl_row(const harness::GridPoint& point) {
  harness::ResultRow row;
  const core::ExperimentResult result = core::run_experiment(point.spec);
  harness::append_metrics(row, result);
  harness::append_ctrl_metrics(row, result);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::BenchCli cli(argc, argv);
  int failures = 0;

  // --- drill 1: workload flip, oracle vs frozen vs online w ---------------
  harness::SweepSpec flip;
  flip.name = "flip";
  flip.base = base_spec(cli);
  const double flip_at = flip.base.duration_s / 2.0;
  flip.base.flip_at_s = flip_at;
  flip.base.flip_profile = mix_profile(0.10);
  // Tail window == post-flip: stretch_tail is the adaptation metric.
  flip.base.metrics_tail_start_s = flip_at;
  harness::Axis ctrl_axis{"controller", {}, false};  // same trace per cell
  ctrl_axis.values = {
      {"oracle", [](core::ExperimentSpec&) {}, {}},
      {"frozen", [](core::ExperimentSpec& s) { s.fixed_w = 0.95; }, {}},
      {"online",
       [](core::ExperimentSpec& s) {
         s.ctrl.enabled = true;
         s.ctrl.interval_s = 0.25;
         s.ctrl.initial_w = 0.95;  // the pre-flip sampled value
       },
       {}},
  };
  flip.axes = {ctrl_axis};

  const auto flip_run = harness::run_bench(flip, cli, ctrl_row);
  if (flip_run) {
    std::printf("\nFlip drill: CGI mix flips w 0.95 -> 0.10 at t=%gs; "
                "stretch_tail covers the post-flip half\n\n",
                flip_at);
    Table table({"controller", "stretch", "stretch_tail", "retunes",
                 "w_hat_end", "theta_end", "ledger"});
    double oracle_tail = 0.0, frozen_tail = 0.0, online_tail = 0.0;
    for (const harness::ResultRow& row : flip_run->rows) {
      // completed + timeouts + shed + abandoned == submitted: draining a node
      // must migrate its queue, never lose it.
      const bool ok = check::InvariantRegistry::row_ledger_closed(row);
      if (!ok) ++failures;
      const double tail = row.number("stretch_tail");
      if (row.text("controller") == "oracle") oracle_tail = tail;
      if (row.text("controller") == "frozen") frozen_tail = tail;
      if (row.text("controller") == "online") online_tail = tail;
      table.row()
          .cell(row.text("controller"))
          .cell(row.number("stretch"), 2)
          .cell(tail, 2)
          .cell(row.text("ctrl_retunes"))
          .cell(row.number("ctrl_w_hat"), 2)
          .cell(row.number("theta_limit"), 3)
          .cell(ok ? "closed" : "LEAK");
    }
    std::fputs(table.str().c_str(), stdout);
    // Acceptance bar: the online controller must deliver at least 80% of
    // the oracle-w post-flip performance (tail stretch within 1/0.8 of the
    // oracle's) — the estimator has to re-learn w from completions while
    // the tail window is already running.
    if (online_tail > 1e-9) {
      const double recovery = oracle_tail / online_tail;
      const bool pass = recovery >= 0.8;
      if (!pass) ++failures;
      std::printf("\nonline reaches %.0f%% of oracle-w tail performance "
                  "(bar: 80%%) — %s\n",
                  100.0 * recovery, pass ? "PASS" : "FAIL");
      const double gap = frozen_tail - oracle_tail;
      if (gap > 1e-9)
        std::printf("frozen baseline pays %.0f%% over oracle; online "
                    "recovers %.0f%% of that gap\n",
                    100.0 * gap / oracle_tail,
                    100.0 * (frozen_tail - online_tail) / gap);
      else
        std::printf("frozen baseline held up at this operating point "
                    "(gap %.3f) — see the recovery ratio above\n", gap);
    } else {
      ++failures;
      std::printf("\nno online tail measured — drill inconclusive, FAIL\n");
    }
  }

  // --- drill 2: energy x stretch Pareto under diurnal arrivals ------------
  harness::SweepSpec pareto;
  pareto.name = "pareto";
  pareto.base = base_spec(cli);
  pareto.base.profile = trace::ksu_profile();
  // Mean load low enough that the diurnal trough actually drains: the
  // night shift is when powering slaves down is supposed to pay.
  pareto.base.lambda = 400.0;
  pareto.base.diurnal = true;
  pareto.base.diurnal_period_s = cli.quick ? 6.0 : 12.0;
  pareto.base.diurnal_amplitude = 0.7;
  harness::Axis scaler_axis{"autoscale", {}, false};
  scaler_axis.values = {
      {"off",
       [](core::ExperimentSpec& s) {
         s.ctrl.enabled = true;  // estimator + tuner, full power
       },
       {}},
      {"conservative",
       [](core::ExperimentSpec& s) {
         s.ctrl.enabled = true;
         s.ctrl.autoscale = true;
         s.ctrl.scale_up_util = 0.70;
         s.ctrl.scale_down_util = 0.25;
         s.ctrl.dwell_s = 2.0;
       },
       {}},
      {"aggressive",
       [](core::ExperimentSpec& s) {
         s.ctrl.enabled = true;
         s.ctrl.autoscale = true;
         s.ctrl.scale_up_util = 0.55;
         s.ctrl.scale_down_util = 0.40;
         s.ctrl.dwell_s = 1.0;
       },
       {}},
  };
  pareto.axes = {scaler_axis};

  const auto pareto_run = harness::run_bench(pareto, cli, ctrl_row);
  if (pareto_run) {
    std::printf("\nPareto drill: diurnal lambda (A=0.7, T=%gs), autoscaler "
                "trades powered node-seconds for stretch\n\n",
                pareto.base.diurnal_period_s);
    Table table({"autoscale", "stretch", "p95_s", "energy_node_s", "min_p",
                 "ups", "downs", "migrated", "ledger"});
    for (const harness::ResultRow& row : pareto_run->rows) {
      const bool ok = check::InvariantRegistry::row_ledger_closed(row);
      if (!ok) ++failures;
      table.row()
          .cell(row.text("autoscale"))
          .cell(row.number("stretch"), 2)
          .cell(row.number("p95_response_s"), 3)
          .cell(row.number("energy_node_s"), 1)
          .cell(row.text("powered_min"))
          .cell(row.text("ctrl_scale_ups"))
          .cell(row.text("ctrl_scale_downs"))
          .cell(row.text("ctrl_migrations"))
          .cell(ok ? "closed" : "LEAK");
    }
    std::fputs(table.str().c_str(), stdout);
  }

  if (cli.list) return 0;
  if (failures > 0)
    std::printf("\n%d drill failure(s) — see rows above.\n", failures);
  return failures == 0 ? 0 : 1;
}
