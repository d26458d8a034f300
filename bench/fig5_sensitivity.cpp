// Figure 5 — "Performance degradation when using a fixed number of
// masters".
//
// The master count is normally re-derived from sampled rates (Theorem 1).
// This bench fixes m once — from r = 1/60, a = 0.44, lambda = 750 (p=32)
// and lambda = 3000 (p=128), as in the paper (which obtained m = 6 and
// m = 25) — and measures the stretch degradation versus adapting m to each
// configuration, across the 12 bar groups of the Table 2 grid. The bar
// value is the mean over the 1/r sweep, matching the figure's granularity.
//
// Paper expectation: at most ~9% degradation, average ~4% — fixed m is
// robust.
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>

#include "harness/bench_cli.hpp"
#include "harness/grids.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  harness::SweepSpec sweep;
  sweep.base.seed = 1999;
  std::optional<double> duration, warmup;
  const harness::BenchCli cli(
      argc, argv,
      {flag("duration", duration, "simulated seconds (default 10, quick 4)"),
       flag("warmup", warmup, "warm-up seconds (default 2, quick 1)"),
       flag("seed", sweep.base.seed, "base seed of the sweep")});
  const bool quick = cli.quick;

  // Fixed-m derivation, as sampled by an administrator once.
  const auto fixed_masters = [](int p, double lambda) {
    model::Workload w;
    w.p = p;
    w.lambda = lambda;
    w.mu_h = 1200;
    w.a = 0.44;
    w.r = 1.0 / 60.0;
    return core::masters_from_theorem(w);
  };
  const int m32 = fixed_masters(32, 750);
  const int m128 = fixed_masters(128, 3000);

  sweep.base.duration_s = duration.value_or(quick ? 4.0 : 10.0);
  sweep.base.warmup_s = warmup.value_or(quick ? 1.0 : 2.0);
  sweep.base.kind = core::SchedulerKind::kMs;
  sweep.axes = {
      harness::table2_cell_axis(quick ? std::vector<int>{32}
                                      : std::vector<int>{32, 128},
                                quick ? 1 : 0),
      harness::inv_r_axis(quick ? std::vector<double>{40, 160}
                                : harness::table2_inv_r()),
  };

  const auto eval = [m32, m128](const harness::GridPoint& point) {
    const int fixed_m = point.spec.p == 32 ? m32 : m128;
    harness::ResultRow row;
    row.set("m_fixed", fixed_m);
    // Consistent with fig4: saturated combinations are skipped — in
    // steady-state overload the ratio only measures drain order.
    const double offered =
        core::analytic_workload(point.spec).offered_load() / point.spec.p;
    row.set("offered_load", offered).set_bool("saturated", offered > 1.0);
    if (offered > 1.0) {
      row.set("m_adaptive", 0)
          .set("degradation", std::numeric_limits<double>::quiet_NaN());
      return row;
    }
    core::ExperimentSpec spec = point.spec;
    const auto adaptive = core::run_experiment(spec);
    spec.m = fixed_m;
    const auto fixed_run = core::run_experiment(spec);
    // Degradation of fixed-m relative to adaptive-m (>= 0 when adapting
    // helps; slightly negative values are sampling noise / cases where the
    // fixed split happens to win).
    row.set("m_adaptive", adaptive.m_used)
        .set("degradation", core::improvement(adaptive, fixed_run));
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;

  std::printf("Fixed master counts: m=%d for p=32, m=%d for p=128 "
              "(paper derived 6 and 25)\n\n", m32, m128);

  Table table({"trace", "p", "lambda", "m fixed", "m adaptive (per 1/r)",
               "degradation (avg over 1/r)", "max"});
  RunningStats all;
  double global_max = 0;

  // The inv_r axis varies fastest: aggregate each run of rows sharing the
  // (p, trace, lambda) cell coordinates into one printed line.
  std::string cell_key;
  std::vector<std::vector<const harness::ResultRow*>> groups;
  for (const harness::ResultRow& row : run->rows) {
    const std::string key =
        row.text("p") + "/" + row.text("trace") + "/" + row.text("lambda");
    if (key != cell_key) {
      cell_key = key;
      groups.emplace_back();
    }
    groups.back().push_back(&row);
  }
  for (const auto& group : groups) {
    RunningStats stats;
    std::string adaptive_ms;
    for (const harness::ResultRow* row : group) {
      if (row->number("saturated") != 0.0) {
        adaptive_ms += adaptive_ms.empty() ? "-" : ",-";
        continue;
      }
      const double degradation = row->number("degradation");
      stats.add(degradation);
      all.add(degradation);
      global_max = std::max(global_max, degradation);
      adaptive_ms +=
          (adaptive_ms.empty() ? "" : ",") + row->text("m_adaptive");
    }
    const harness::ResultRow& first = *group.front();
    table.row()
        .cell(first.text("trace"))
        .cell(first.text("p"))
        .cell(first.text("lambda"))
        .cell(first.text("m_fixed"))
        .cell(adaptive_ms)
        .cell_percent(stats.mean())
        .cell_percent(stats.max());
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nOverall: avg %s, max %s   (paper: avg ~4%%, max ~9%%)\n",
              percent(all.mean()).c_str(), percent(global_max).c_str());
  return 0;
}
