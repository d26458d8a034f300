// Extension bench: heterogeneous nodes ("The presented results are focused
// on a homogeneous cluster and we are making an extension for managing
// heterogeneous nodes", §6; the relative-speed treatment follows the
// authors' earlier work [36]).
//
// The cluster mixes fast and slow slaves (2x CPU on half of them, 2x disk
// on a quarter). Three dispatchers race on the same trace (the dispatcher
// axis is a comparison axis, reseed=false):
//   * M/S speed-blind — Equation 5 as printed, treating all nodes equal;
//   * M/S speed-aware — RSRC divided by per-node speed factors;
//   * Flat — the usual random baseline.
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  harness::SweepSpec sweep;
  sweep.base.lambda = 500;
  const harness::BenchCli cli(
      argc, argv, {flag("lambda", sweep.base.lambda, "arrival rate (req/s)")});

  sweep.base.profile = trace::adl_profile();
  sweep.base.p = 16;
  sweep.base.r = 1.0 / 40.0;
  sweep.base.duration_s = cli.quick ? 6.0 : 12.0;
  sweep.base.warmup_s = 2.0;
  sweep.base.seed = 1999;
  const int m =
      core::masters_from_theorem(core::analytic_workload(sweep.base));
  sweep.base.m = m;

  // Heterogeneous slave pool: half the slaves have 2x CPUs, a quarter have
  // 2x disks (RAID-era upgrades bought at different times).
  sweep.base.node_params.resize(static_cast<std::size_t>(sweep.base.p));
  for (int i = m; i < sweep.base.p; ++i) {
    auto& node = sweep.base.node_params[static_cast<std::size_t>(i)];
    if ((i - m) % 2 == 0) node.cpu_speed = 2.0;
    if ((i - m) % 4 == 1) node.disk_speed = 2.0;
  }

  harness::Axis dispatcher{"dispatcher", {}, false};
  dispatcher.values = {
      {"blind",
       [](core::ExperimentSpec& s) { s.kind = core::SchedulerKind::kMs; },
       {}},
      {"aware",
       [](core::ExperimentSpec& s) {
         s.kind = core::SchedulerKind::kMs;
         s.speed_aware = true;
       },
       {}},
      {"flat",
       [](core::ExperimentSpec& s) { s.kind = core::SchedulerKind::kFlat; },
       {}},
  };
  sweep.axes = {dispatcher};

  const auto run = harness::run_bench(sweep, cli, harness::experiment_row);
  if (!run) return 0;

  std::printf("Heterogeneous cluster: p=%d (m=%d masters), ADL profile, "
              "lambda=%.0f, 1/r=%.0f\n",
              sweep.base.p, m, sweep.base.lambda, 1.0 / sweep.base.r);
  std::printf("Slaves: every other has 2x CPU; every fourth has 2x disk.\n\n");

  Table table({"dispatcher", "stretch", "static", "dynamic"});
  double blind_stretch = 0.0, aware_stretch = 0.0;
  for (const harness::ResultRow& row : run->rows) {
    const std::string& which = row.text("dispatcher");
    const double stretch = row.number("stretch");
    if (which == "blind") blind_stretch = stretch;
    if (which == "aware") aware_stretch = stretch;
    table.row()
        .cell(which == "flat" ? "Flat"
                              : "M/S speed-" + which)
        .cell(stretch, 3)
        .cell(row.number("stretch_static"), 3)
        .cell(row.number("stretch_dynamic"), 3);
  }
  std::fputs(table.str().c_str(), stdout);
  if (aware_stretch > 0.0)
    std::printf("\nSpeed-aware improvement over speed-blind: %s\n",
                percent(blind_stretch / aware_stretch - 1.0).c_str());
  return 0;
}
