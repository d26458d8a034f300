// Extension bench: scheduling under node churn. The paper's experiments
// assume a cluster that never fails; this harness injects crash/recovery
// faults (exponential MTTF/MTTR per node) and measures how the scheduler
// variants degrade — headline stretch, delivered availability, failover
// traffic (re-dispatch hops), requests lost to the retry cap, and slave
// promotions replacing dead masters.
//
// Two sweeps:
//   1. "churn": MTTF in {none, 60 s, 20 s, 5 s} x {M/S, M/S-1, Flat};
//      both axes are comparison axes, so all cells replay the same trace;
//   2. "drill": the reproducible scenario from the tests — one master
//      crashes at t = 5 s and stays down, and the tail window (arrivals
//      after 7 s) shows the post-promotion stretch against a clean run on
//      the same trace.
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
// With --out, artifacts are written per sweep (<out>-churn.*, <out>-drill.*).
#include <cstdio>
#include <vector>

#include "check/invariants.hpp"
#include "harness/bench_cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

core::ExperimentSpec base_spec(const harness::BenchCli& cli, double lambda,
                               double mttr) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 16;
  spec.lambda = lambda;
  spec.r = 1.0 / 40.0;
  spec.duration_s = cli.quick ? 8.0 : 20.0;
  spec.warmup_s = 2.0;
  spec.seed = 1999;
  spec.fault.mttr_s = mttr;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  double lambda = 600;
  double mttr = 4.0;
  const harness::BenchCli cli(
      argc, argv,
      {flag("lambda", lambda, "arrival rate (req/s)"),
       flag("mttr", mttr, "mean time to repair a crashed node (s)")});

  core::ExperimentSpec spec = base_spec(cli, lambda, mttr);
  if (spec.lambda <= 0.0 || spec.fault.mttr_s <= 0.0) {
    std::fprintf(stderr, "error: --lambda and --mttr must be > 0\n");
    return 2;
  }

  // Sweep 1: exponential churn across scheduler variants.
  harness::SweepSpec churn;
  churn.name = "churn";
  churn.base = spec;
  churn.axes = {
      harness::scheduler_axis({core::SchedulerKind::kMs,
                               core::SchedulerKind::kMs1,
                               core::SchedulerKind::kFlat}),
      harness::make_axis(
          "mttf", std::vector<double>{0.0, 60.0, 20.0, 5.0},
          [](double v) { return v > 0.0 ? fixed(v, 0) : std::string("none"); },
          [](core::ExperimentSpec& s, double v) {
            s.fault.enabled = v > 0.0;
            s.fault.mttf_s = v;
          }),
  };
  churn.axes[1].reseed = false;  // every cell replays the same trace

  // Sweep 2: deterministic master-crash drill vs a clean run.
  harness::SweepSpec drill;
  drill.name = "drill";
  drill.base = base_spec(cli, lambda, mttr);
  drill.base.kind = core::SchedulerKind::kMs;
  drill.base.duration_s = cli.quick ? 10.0 : 20.0;
  drill.base.metrics_tail_start_s = 7.0;
  harness::Axis scenario{"scenario", {}, false};
  scenario.values = {
      {"clean", {}, {}},
      {"master-crash",
       [](core::ExperimentSpec& s) {
         s.fault.enabled = true;
         s.fault.script.push_back(
             {5 * kSecond, 0, fault::FaultKind::kCrash, 1.0, 1.0});
       },
       {}},
  };
  drill.axes = {scenario};

  // ledger_row == experiment_row + the submitted/completed_total pair, so
  // every cell can assert ledger closure through the shared registry.
  const auto churn_run =
      harness::run_bench(churn, cli, check::InvariantRegistry::ledger_row);
  const auto drill_run =
      harness::run_bench(drill, cli, check::InvariantRegistry::ledger_row);
  if (!churn_run || !drill_run) return 0;  // --list mode
  int failures = 0;

  std::printf("Fault injection: p=%d, KSU profile, lambda=%.0f, 1/r=%.0f, "
              "%.0f s runs, MTTR=%.0f s\n\n",
              spec.p, spec.lambda, 1.0 / spec.r, spec.duration_s,
              spec.fault.mttr_s);

  Table sweep_table({"scheduler", "mttf", "stretch", "avail", "crashes",
                     "redisp", "timeout", "promote", "ledger"});
  for (const harness::ResultRow& row : churn_run->rows) {
    const std::string mttf = row.text("mttf");
    const bool closed = check::InvariantRegistry::row_ledger_closed(row);
    if (!closed) ++failures;
    sweep_table.row()
        .cell(row.text("scheduler"))
        .cell(mttf == "none" ? mttf : mttf + " s")
        .cell(row.number("stretch"), 3)
        .cell_percent(row.number("availability"), 2)
        .cell(row.text("node_crashes"))
        .cell(row.text("redispatches"))
        .cell(row.text("timeouts"))
        .cell(row.text("promotions"))
        .cell(closed ? "closed" : "LEAK");
  }
  std::fputs(sweep_table.str().c_str(), stdout);

  std::printf("\nMaster-crash drill (M/S): node 0 dies at t=5 s, tail "
              "window = arrivals after 7 s\n\n");
  Table d({"run", "stretch", "tail stretch", "avail", "redisp", "timeout",
           "promote", "ledger"});
  const harness::ResultRow* clean = nullptr;
  const harness::ResultRow* hit = nullptr;
  for (const harness::ResultRow& row : drill_run->rows) {
    if (row.text("scenario") == "clean") clean = &row;
    else hit = &row;
    const bool closed = check::InvariantRegistry::row_ledger_closed(row);
    if (!closed) ++failures;
    d.row()
        .cell(row.text("scenario") == "clean" ? "clean" : "master crash")
        .cell(row.number("stretch"), 3)
        .cell(row.number("stretch_tail"), 3)
        .cell_percent(row.number("availability"), 2)
        .cell(row.text("redispatches"))
        .cell(row.text("timeouts"))
        .cell(row.text("promotions"))
        .cell(closed ? "closed" : "LEAK");
  }
  std::fputs(d.str().c_str(), stdout);
  if (clean && hit) {
    if (clean->number("stretch_tail") > 0.0)
      std::printf("\nPost-promotion tail stretch vs clean run: %s\n",
                  percent(hit->number("stretch_tail") /
                              clean->number("stretch_tail") -
                          1.0)
                      .c_str());
    std::printf("Disrupted requests completed: %s (stretch %.3f)\n",
                hit->text("completed_disrupted").c_str(),
                hit->number("stretch_disrupted"));
  }
  if (failures > 0)
    std::printf("\n%d ledger violation(s) — see rows above.\n", failures);
  return failures == 0 ? 0 : 1;
}
