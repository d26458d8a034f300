// Capacity planning with the analytic model.
//
// Scenario: you operate a Web site whose dynamic-content share is growing.
// Given a cluster size, per-node static capacity, and a forecast request
// mix, this example uses the Section 3 queueing model to answer the
// operator questions the paper poses:
//   * can the cluster take the load at all?
//   * how many nodes should be masters (Theorem 1)?
//   * what fraction of CGI may run on masters (the theta window)?
//   * what stretch should users expect under flat vs M/S dispatch?
//
// The m exploration is a harness sweep over the master-count axis (a pure
// analytic evaluation — each point is a Theorem 1 feasibility check), so
// --jobs/--filter/--out/--list work; --out dumps the whole m table as
// CSV/JSON for plotting.
//
// Usage:
//   capacity_planning [--p 32] [--mu_h 1200] [--lambda 1000]
//                     [--cgi-fraction 0.3] [--inv-r 40]
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>

#include "harness/bench_cli.hpp"
#include "model/optimize.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  harness::SweepSpec sweep;
  sweep.base.p = 32;
  sweep.base.mu_h = 1200;
  sweep.base.lambda = 1000;
  double cgi_fraction = 0.30;
  double inv_r = 40;
  const harness::BenchCli cli(
      argc, argv,
      {flag("p", sweep.base.p, "cluster size"),
       flag("mu_h", sweep.base.mu_h, "per-node static service rate (req/s)"),
       flag("lambda", sweep.base.lambda, "arrival rate (req/s)"),
       flag("cgi-fraction", cgi_fraction, "share of dynamic (CGI) requests"),
       flag("inv-r", inv_r, "1/r: dynamic-to-static demand ratio")});
  sweep.base.a = cgi_fraction / (1.0 - cgi_fraction);
  sweep.base.r = 1.0 / inv_r;
  const model::Workload base = core::analytic_workload(sweep.base);

  std::vector<int> ms(static_cast<std::size_t>(
      sweep.base.p > 1 ? sweep.base.p - 1 : 0));
  std::iota(ms.begin(), ms.end(), 1);
  sweep.axes = {harness::make_axis(
      "m", ms, [](int m) { return std::to_string(m); },
      [](core::ExperimentSpec& s, int m) { s.m = m; })};

  const auto eval = [](const harness::GridPoint& point) {
    const model::Workload w = core::analytic_workload(point.spec);
    const int m = point.spec.m;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    harness::ResultRow row;
    const model::ThetaWindow window = model::theta_window(w, m);
    std::optional<double> theta;
    if (window.valid) theta = model::best_theta(w, m);
    std::optional<double> stretch;
    if (theta) stretch = model::ms_stretch(w, m, *theta);
    const bool feasible = stretch.has_value();
    row.set_bool("feasible", feasible)
        .set("theta_lo", window.valid ? window.lo : nan)
        .set("theta_hi", window.valid ? window.hi : nan)
        .set("theta", feasible ? *theta : nan)
        .set("stretch", feasible ? *stretch : nan)
        .set("master_util",
             feasible ? model::ms_master_utilization(w, m, *theta) : nan)
        .set("slave_util",
             feasible ? model::ms_slave_utilization(w, m, *theta) : nan);
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;

  std::printf("Cluster: p=%d nodes, mu_h=%.0f static req/s per node\n",
              base.p, base.mu_h);
  std::printf("Forecast: lambda=%.0f req/s, %.0f%% dynamic, CGI cost %.0fx "
              "a file fetch\n\n",
              base.lambda, cgi_fraction * 100.0, 1.0 / base.r);

  // 1. Feasibility: the offered load must fit the cluster.
  const double load = base.offered_load();
  std::printf("Offered load: %.1f node-equivalents (%.0f%% of capacity)\n",
              load, 100.0 * load / base.p);
  if (load >= base.p) {
    std::printf("=> The cluster saturates. Minimum size for this forecast: "
                "%d nodes.\n",
                static_cast<int>(load / 0.85) + 1);
    return 0;
  }

  // 2. Expected stretch under flat dispatch.
  if (const auto flat = model::flat_stretch(base))
    std::printf("Flat dispatch: expected stretch %.2f\n\n", *flat);

  // 3. Theorem 1: master pool sizing and the theta window, per m.
  Table table({"m", "theta window", "theta*", "predicted SM",
               "master util", "slave util"});
  for (const harness::ResultRow& row : run->rows) {
    if (row.number("feasible") == 0.0) continue;
    table.row()
        .cell(row.text("m"))
        .cell(std::string("[") + fixed(row.number("theta_lo"), 3) + ", " +
              fixed(row.number("theta_hi"), 3) + "]")
        .cell(row.number("theta"), 3)
        .cell(row.number("stretch"), 3)
        .cell_percent(row.number("master_util"))
        .cell_percent(row.number("slave_util"));
  }
  std::fputs(table.str().c_str(), stdout);

  if (const auto plan = model::optimize_ms(base)) {
    std::printf("\nRecommended configuration: m=%d masters, theta=%.3f "
                "(predicted stretch %.2f)\n",
                plan->m, plan->theta, plan->stretch);
    const double theta2 = model::theta2_closed_form(base, plan->m);
    std::printf("Reservation limit theta'2 = m/p - r(p-m)/(ap) = %.3f\n",
                theta2);
    if (const auto flat = model::flat_stretch(base)) {
      std::printf("Predicted M/S improvement over flat: %s\n",
                  percent(*flat / plan->stretch - 1.0).c_str());
    }
  } else {
    std::printf("\nNo M/S split beats flat for this forecast "
                "(Theorem 1 window empty for every m).\n");
  }
  return 0;
}
