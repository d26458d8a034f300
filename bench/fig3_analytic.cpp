// Figure 3 — analytic improvement of optimized M/S over the flat model
// (3a) and over the M/S' alternative (3b), computed from the Section 3
// queueing formulas on the paper's grid: lambda = 1000, p = 32,
// mu_h = 1200, a in {2/8, 3/7, 4/6}, 1/r in {10, 20, 40, 80}.
//
// Paper expectation: 3a tops out around 60%; 3b around 18%. See the note
// in model/optimize.hpp — the text-literal M/S' degenerates to the flat
// model under processor sharing, so we print both that variant and the
// fixed-partition reading.
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
#include <cstdio>
#include <limits>

#include "harness/bench_cli.hpp"
#include "model/optimize.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  harness::SweepSpec sweep;
  sweep.base.p = 32;
  sweep.base.lambda = 1000;
  sweep.base.mu_h = 1200;
  const harness::BenchCli cli(
      argc, argv,
      {flag("p", sweep.base.p, "cluster size"),
       flag("lambda", sweep.base.lambda, "arrival rate (req/s)"),
       flag("mu_h", sweep.base.mu_h, "per-node static service rate (req/s)")});
  sweep.axes = {
      harness::make_axis(
          "a", std::vector<double>{2.0 / 8.0, 3.0 / 7.0, 4.0 / 6.0},
          [](double a) { return fixed(a, 2); },
          [](core::ExperimentSpec& s, double a) { s.a = a; }),
      harness::inv_r_axis({10, 20, 40, 80}),
  };

  const auto eval = [](const harness::GridPoint& point) {
    const model::Workload w = core::analytic_workload(point.spec);
    const auto pt = model::figure3_grid(w, {w.a}, {1.0 / w.r}).front();
    const auto ms = model::optimize_ms(w);
    const auto part = model::optimize_ms_partition(w);
    const bool feasible = pt.feasible && ms.has_value() && part.has_value();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    harness::ResultRow row;
    row.set_bool("feasible", feasible)
        .set("flat_stretch", feasible ? pt.flat_stretch : nan)
        .set("ms_stretch", feasible ? pt.ms_stretch : nan)
        .set("ms_m", feasible ? pt.best_m : 0)
        .set("ms_theta", feasible ? ms->theta : nan)
        .set("part_stretch", feasible ? part->stretch : nan)
        .set("part_m", feasible ? part->m : 0)
        .set("imp_vs_flat", feasible ? pt.improvement_vs_flat : nan)
        .set("imp_vs_part",
             feasible ? part->stretch / pt.ms_stretch - 1.0 : nan)
        .set("imp_vs_literal", feasible ? pt.improvement_vs_msprime : nan);
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;

  std::printf("Figure 3: analytic M/S improvement, lambda=%.0f p=%d mu_h=%.0f\n\n",
              sweep.base.lambda, sweep.base.p, sweep.base.mu_h);
  Table table({"a", "1/r", "SF", "SM (m, theta)", "SM' part (m)",
               "3a: vs flat", "3b: vs M/S' part", "vs M/S' literal"});
  for (const harness::ResultRow& row : run->rows) {
    if (row.number("feasible") == 0.0) {
      table.row().cell(row.text("a")).cell(row.text("inv_r")).cell("-")
          .cell("unstable").cell("-").cell("-").cell("-").cell("-");
      continue;
    }
    table.row()
        .cell(row.text("a"))
        .cell(row.text("inv_r"))
        .cell(row.number("flat_stretch"), 3)
        .cell(fixed(row.number("ms_stretch"), 3) + " (m=" + row.text("ms_m") +
              ", th=" + fixed(row.number("ms_theta"), 3) + ")")
        .cell(fixed(row.number("part_stretch"), 3) + " (m=" +
              row.text("part_m") + ")")
        .cell_percent(row.number("imp_vs_flat"))
        .cell_percent(row.number("imp_vs_part"))
        .cell_percent(row.number("imp_vs_literal"));
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nPaper: 3a up to ~60%%; 3b up to ~18%%. The literal M/S' column\n"
      "degenerates to the flat column (optimal k = p) under processor\n"
      "sharing, so it reproduces 3a; the partition column shows that the\n"
      "theta-window advantage in the *analytic* model is small — the\n"
      "paper's M/S advantage over fixed assignment appears in the\n"
      "trace-driven simulation (fig4), where transient idle master\n"
      "capacity and min-RSRC dispatch matter.\n");
  return 0;
}
