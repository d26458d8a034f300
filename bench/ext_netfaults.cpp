// Extension bench: chaos drills over the network fault model. Three
// sweeps exercise the interconnect layer (see src/net/) end to end:
//
//   flaky      — message-loss ramp 0 -> 10% on the same workload. Lost
//                dispatches surface as RPC retransmits, then failover
//                redispatches past the attempt cap; the drill shows the
//                stretch cost of an increasingly lossy wire and that
//                nothing is silently dropped along the way.
//   partition  — a scripted partition isolates one master (plus a slave)
//                for a few seconds, once with quorum-gated membership and
//                once without. With quorum on, the minority master steps
//                down and the majority elects a replacement only after a
//                majority of observers corroborate the death: the drill
//                *asserts* zero split-brain rounds and a closed request
//                ledger (completed + timeouts + shed + abandoned ==
//                submitted), and prints the split-brain rounds the
//                quorum-off cell pays as the counterexample.
//   staleness  — load-report-interval ramp with the RSRC staleness
//                penalty, with and without the power-of-two-choices
//                fallback, showing graceful degradation as dispatch
//                information ages and the fallback's recovery.
//
// Exit status is nonzero when any partition-drill invariant fails — CI
// runs this binary as the no-split-brain smoke test.
//
// Shared harness CLI: --jobs/--filter/--out/--list plus the net knobs
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

core::ExperimentSpec base_spec(const harness::BenchCli& cli) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 700.0;
  spec.r = 1.0 / 40.0;
  spec.duration_s = cli.quick ? 10.0 : 20.0;
  spec.warmup_s = 2.0;
  spec.seed = 2041;
  spec.kind = core::SchedulerKind::kMs;
  spec.m = 2;
  spec.max_events = 60'000'000;
  return spec;
}

/// Stable metrics plus the net.* statistics every drill reports on.
harness::ResultRow net_row(const harness::GridPoint& point) {
  harness::ResultRow row;
  const core::ExperimentResult result = core::run_experiment(point.spec);
  harness::append_metrics(row, result);
  harness::append_net_metrics(row, result);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::BenchCli cli(argc, argv);
  int failures = 0;

  // --- drill 1: flaky-link loss ramp -------------------------------------
  harness::SweepSpec flaky;
  flaky.name = "flaky";
  flaky.base = base_spec(cli);
  flaky.base.fault.enabled = true;  // lost dispatches fail over, not vanish
  flaky.base.net.enabled = true;
  flaky.base.net.latency_jitter_s = 0.0005;
  harness::Axis loss_axis{"loss", {}, false};  // same trace per cell
  for (double loss : {0.0, 0.005, 0.01, 0.02, 0.05, 0.10}) {
    char label[16];
    std::snprintf(label, sizeof label, "%g", loss);
    loss_axis.values.push_back(
        {label, [loss](core::ExperimentSpec& s) { s.net.loss = loss; }, {}});
  }
  flaky.axes = {loss_axis};

  const auto flaky_run = harness::run_bench(flaky, cli, net_row);
  if (!flaky_run && cli.list) {
    // --list mode: fall through so every sweep prints its points.
  } else if (flaky_run) {
    std::printf("\nFlaky-link drill: p=8 m=2 KSU M/S, loss 0 -> 10%%, "
                "identical trace per cell\n\n");
    Table table({"loss", "stretch", "goodput", "sent", "lost", "rpc retry",
                 "redisp", "timeout", "ledger"});
    for (const harness::ResultRow& row : flaky_run->rows) {
      // completed + timeouts + shed + abandoned == submitted: no request may
      // vanish, however hostile the wire.
      const bool ok = check::InvariantRegistry::row_ledger_closed(row);
      if (!ok) ++failures;
      table.row()
          .cell(row.text("loss"))
          .cell(row.number("stretch"), 2)
          .cell(row.number("goodput_rps"), 1)
          .cell(row.text("net_sent"))
          .cell(row.text("net_lost"))
          .cell(row.text("net_rpc_retries"))
          .cell(row.text("redispatches"))
          .cell(row.text("timeouts"))
          .cell(ok ? "closed" : "LEAK");
    }
    std::fputs(table.str().c_str(), stdout);
  }

  // --- drill 2: partition / heal, quorum on vs off ------------------------
  harness::SweepSpec part;
  part.name = "partition";
  part.base = base_spec(cli);
  part.base.fault.enabled = true;
  part.base.net.enabled = true;
  {
    net::PartitionSpec window;
    window.from = from_seconds(cli.quick ? 3.0 : 6.0);
    window.until = from_seconds(cli.quick ? 5.0 : 10.0);
    // Minority side takes master 1 with it; majority keeps master 0 and
    // must elect a replacement without ever fielding three claimants.
    window.groups = {{0, 2, 3, 4, 5, 6}, {1, 7}};
    part.base.net.partitions.push_back(window);
  }
  harness::Axis quorum_axis{"quorum", {}, false};
  quorum_axis.values = {
      {"on", [](core::ExperimentSpec& s) { s.net.quorum = true; }, {}},
      {"off", [](core::ExperimentSpec& s) { s.net.quorum = false; }, {}},
  };
  part.axes = {quorum_axis};

  const auto part_run = harness::run_bench(part, cli, net_row);
  if (part_run) {
    std::printf("\nPartition drill: master 1 + slave 7 isolated for %s s, "
                "then healed\n\n",
                cli.quick ? "2" : "4");
    Table table({"quorum", "stretch", "promote", "stepdown", "split-brain",
                 "partitions", "timeout", "ledger"});
    for (const harness::ResultRow& row : part_run->rows) {
      const bool closed = check::InvariantRegistry::row_ledger_closed(row);
      const bool safe =
          row.text("quorum") != "on" ||
          check::InvariantRegistry::row_split_brain_rounds(row) == 0;
      if (!closed || !safe) ++failures;
      table.row()
          .cell(row.text("quorum"))
          .cell(row.number("stretch"), 2)
          .cell(row.text("promotions"))
          .cell(row.text("net_stepdowns"))
          .cell(row.text("net_split_brain_rounds"))
          .cell(row.text("net_partitions"))
          .cell(row.text("timeouts"))
          .cell(closed ? (safe ? "closed" : "SPLIT-BRAIN") : "LEAK");
    }
    std::fputs(table.str().c_str(), stdout);
    for (const harness::ResultRow& row : part_run->rows) {
      if (row.text("quorum") == "off" &&
          row.number("net_split_brain_rounds") > 0)
        std::printf("\nquorum=off paid %s split-brain round(s) — the unsafe "
                    "window quorum gating removes.\n",
                    row.text("net_split_brain_rounds").c_str());
    }
  }

  // --- drill 3: load-report staleness, with/without two-choices fallback --
  harness::SweepSpec stale;
  stale.name = "staleness";
  stale.base = base_spec(cli);
  stale.base.net.enabled = true;
  harness::Axis interval_axis{"report_s", {}, false};
  for (double interval : {0.1, 0.25, 0.5, 1.0, 2.0}) {
    char label[16];
    std::snprintf(label, sizeof label, "%g", interval);
    interval_axis.values.push_back(
        {label,
         [interval](core::ExperimentSpec& s) {
           s.net.load_report_interval_s = interval;
         },
         {}});
  }
  harness::Axis fallback_axis{"fallback", {}, false};
  fallback_axis.values = {
      {"off", [](core::ExperimentSpec& s) { s.net.stale_max_age_s = 0.0; }, {}},
      {"on",
       [](core::ExperimentSpec& s) { s.net.stale_max_age_s = 0.45; }, {}},
  };
  stale.axes = {interval_axis, fallback_axis};

  const auto stale_run = harness::run_bench(stale, cli, net_row);
  if (stale_run) {
    std::printf("\nStaleness drill: dispatch routes on reported load only "
                "(no oracle reads);\nfallback=on degrades to "
                "power-of-two-choices past 0.45 s report age\n\n");
    Table table({"report_s", "fallback", "stretch", "goodput", "po2 picks",
                 "reports", "ledger"});
    for (const harness::ResultRow& row : stale_run->rows) {
      const bool ok = check::InvariantRegistry::row_ledger_closed(row);
      if (!ok) ++failures;
      table.row()
          .cell(row.text("report_s"))
          .cell(row.text("fallback"))
          .cell(row.number("stretch"), 2)
          .cell(row.number("goodput_rps"), 1)
          .cell(row.text("net_stale_fallbacks"))
          .cell(row.text("net_reports"))
          .cell(ok ? "closed" : "LEAK");
    }
    std::fputs(table.str().c_str(), stdout);
  }

  if (cli.list) return 0;
  if (failures > 0)
    std::printf("\n%d invariant violation(s) — see rows above.\n", failures);
  return failures == 0 ? 0 : 1;
}
