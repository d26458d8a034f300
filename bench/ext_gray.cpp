// Extension bench: gray-failure defense. Crash faults are loud — the
// heartbeat monitor declares the node dead and dispatch routes around it.
// A *limping* node is worse: it answers every heartbeat while serving
// requests several times slower, so load-based dispatch keeps feeding it
// and the victims pile up in the tail. This harness injects fail-slow
// faults and measures the two defenses layered against them — the
// latency watchdog (kDegraded + RSRC slowness penalty) and hedged
// dispatch with cancellation — on the identical trace.
//
// Two sweeps:
//   1. "defense": the limping-node drill. Nodes limp stochastically
//      (exponential fail-slow episodes at 0.15x CPU with intermittent
//      stall bursts); the four cells replay the identical trace *and*
//      the identical limp schedule (the scenario axis is reseed=false
//      and the fault injector draws from dedicated per-node streams of
//      the same base seed) with no fault / fault only / fault +
//      slow-health / fault + both defenses. The drill *asserts* that
//      the full defense stack wins back at least half of the
//      p95-stretch gap the limps opened against the no-fault run, and
//      that every cell's request ledger closes exactly (completed +
//      timeouts + shed + abandoned == submitted — hedging must never
//      double-count or lose a request).
//   2. "churn": the same episodes at increasing rates, undefended vs
//      defended, showing graceful degradation as gray failures become
//      endemic. Ledger closure is asserted per cell here too.
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
// With --out, artifacts are written per sweep (<out>-defense.*,
// <out>-churn.*). Exits nonzero when any assertion fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "check/invariants.hpp"
#include "harness/bench_cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

core::ExperimentSpec base_spec(const harness::BenchCli& cli, double lambda) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 16;
  spec.lambda = lambda;
  spec.r = 1.0 / 40.0;
  spec.duration_s = cli.quick ? 10.0 : 20.0;
  spec.warmup_s = 2.0;
  spec.seed = 2027;
  return spec;
}

/// The drill's gray failure: fail-slow episodes (mean one per node every
/// 15 s, healing after ~3 s) that drop the node to 0.15x CPU and freeze
/// it almost completely for 50 ms out of every second. The stall bursts
/// are what defeats load-based dispatch on their own: between bursts the
/// node's queue drains and its sampled load looks healthy, so RSRC keeps
/// feeding it fresh victims.
void add_limp(core::ExperimentSpec& s) {
  s.fault.enabled = true;
  s.fault.degrade_mttf_s = 15.0;
  s.fault.degrade_mttr_s = 3.0;
  s.fault.degrade_cpu_factor = 0.15;
  s.fault.degrade_disk_factor = 0.3;
  s.fault.stall_period_s = 1.0;
  s.fault.stall_len_s = 0.05;
}

void add_slow_health(core::ExperimentSpec& s) {
  s.slow_health.enabled = true;
}

void add_hedge(core::ExperimentSpec& s) { s.hedge.enabled = true; }

harness::ResultRow gray_row(const harness::GridPoint& point) {
  harness::ResultRow row;
  const core::ExperimentResult result = core::run_experiment(point.spec);
  harness::append_metrics(row, result);
  harness::append_gray_metrics(row, result);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  double lambda = 500;
  const harness::BenchCli cli(
      argc, argv, {flag("lambda", lambda, "arrival rate (req/s)")});

  core::ExperimentSpec spec = base_spec(cli, lambda);
  if (spec.lambda <= 0.0) {
    std::fprintf(stderr, "error: --lambda must be > 0\n");
    return 2;
  }

  int failures = 0;

  // Sweep 1: the limping-node drill. The scenario axis is a comparison
  // axis (reseed=false): all four cells replay the identical trace.
  harness::SweepSpec defense;
  defense.name = "defense";
  defense.base = spec;
  defense.base.kind = core::SchedulerKind::kMs;
  harness::Axis scenario{"scenario", {}, false};
  scenario.values = {
      {"no-fault", {}, {}},
      {"baseline", add_limp, {}},
      {"slow-health",
       [](core::ExperimentSpec& s) {
         add_limp(s);
         add_slow_health(s);
       },
       {}},
      {"hedge",
       [](core::ExperimentSpec& s) {
         add_limp(s);
         add_slow_health(s);
         add_hedge(s);
       },
       {}},
  };
  defense.axes = {scenario};

  const auto defense_run = harness::run_bench(defense, cli, gray_row);
  if (defense_run) {
    std::printf("Limping-node drill: p=%d KSU M/S, lambda=%.0f; fail-slow "
                "episodes (MTTF 15 s, MTTR 3 s, 0.15x CPU,\n50 ms stall "
                "bursts); identical trace and limp schedule per cell\n\n",
                spec.p, spec.lambda);
    Table table({"scenario", "stretch", "p95 stretch", "degraded", "hedges",
                 "wins", "cancel", "skip", "ledger"});
    const harness::ResultRow* no_fault = nullptr;
    const harness::ResultRow* baseline = nullptr;
    const harness::ResultRow* hedged = nullptr;
    for (const harness::ResultRow& row : defense_run->rows) {
      // completed + timeouts + shed + abandoned == submitted: a hedge loser is
      // cancelled, never counted, and no request may vanish however slow the
      // node it landed on.
      const bool ok = check::InvariantRegistry::row_ledger_closed(row);
      if (!ok) ++failures;
      const std::string scen = row.text("scenario");
      if (scen == "no-fault") no_fault = &row;
      if (scen == "baseline") baseline = &row;
      if (scen == "hedge") hedged = &row;
      table.row()
          .cell(scen)
          .cell(row.number("stretch"), 3)
          .cell(row.number("p95_stretch"), 3)
          .cell(row.text("slow_degraded"))
          .cell(row.text("hedges_launched"))
          .cell(row.text("hedge_wins"))
          .cell(row.text("hedge_cancellations"))
          .cell(row.text("hedges_skipped"))
          .cell(ok ? "closed" : "LEAK");
    }
    std::fputs(table.str().c_str(), stdout);

    if (no_fault && baseline && hedged) {
      const double clean = no_fault->number("p95_stretch");
      const double hurt = baseline->number("p95_stretch");
      const double defended = hedged->number("p95_stretch");
      const double gap = hurt - clean;
      const double recovered = hurt - defended;
      std::printf("\np95-stretch gap opened by the limps: %.3f; "
                  "full defense stack recovered %.3f (%s)\n",
                  gap, recovered,
                  gap > 0.0 ? percent(recovered / gap).c_str() : "-");
      // The headline assertion: hedging + the watchdog must win back at
      // least half of the tail damage. Guard against a degenerate drill
      // where the limps opened no measurable gap at all.
      if (gap < 0.5) {
        std::fprintf(stderr,
                     "FAIL: limp opened no measurable p95-stretch gap "
                     "(%.3f) — drill is not exercising the defense\n",
                     gap);
        ++failures;
      } else if (recovered < 0.5 * gap) {
        std::fprintf(stderr,
                     "FAIL: defenses recovered %.3f of a %.3f p95-stretch "
                     "gap (< 50%%)\n",
                     recovered, gap);
        ++failures;
      }
      if (std::llround(hedged->number("hedges_launched")) == 0) {
        std::fprintf(stderr, "FAIL: hedge cell launched no hedges\n");
        ++failures;
      }
    }
  }

  // Sweep 2: stochastic fail-slow churn with intermittent stalls,
  // undefended vs the full defense stack on the identical trace.
  harness::SweepSpec churn;
  churn.name = "churn";
  churn.base = base_spec(cli, lambda);
  churn.base.kind = core::SchedulerKind::kMs;
  churn.axes = {
      harness::make_axis(
          "mttf", std::vector<double>{0.0, 30.0, 10.0},
          [](double v) { return v > 0.0 ? fixed(v, 0) : std::string("none"); },
          [](core::ExperimentSpec& s, double v) {
            if (v <= 0.0) return;
            s.fault.enabled = true;
            s.fault.degrade_mttf_s = v;
            s.fault.degrade_mttr_s = 3.0;
            s.fault.degrade_cpu_factor = 0.2;
            s.fault.degrade_disk_factor = 0.4;
            s.fault.stall_period_s = 1.0;
            s.fault.stall_len_s = 0.05;
          }),
      harness::make_axis(
          "defense", std::vector<bool>{false, true},
          [](bool on) { return on ? std::string("on") : std::string("off"); },
          [](core::ExperimentSpec& s, bool on) {
            if (!on) return;
            add_slow_health(s);
            add_hedge(s);
          }),
  };
  churn.axes[0].reseed = false;
  churn.axes[1].reseed = false;

  const auto churn_run = harness::run_bench(churn, cli, gray_row);
  if (churn_run) {
    std::printf("\nFail-slow churn: exponential degrade episodes "
                "(MTTR=3 s, 0.2x CPU, 1 s stall bursts),\n"
                "defense = slow-health watchdog + hedged dispatch\n\n");
    Table table({"mttf", "defense", "stretch", "p95 stretch", "episodes",
                 "degraded", "hedges", "wins", "ledger"});
    for (const harness::ResultRow& row : churn_run->rows) {
      const bool ok = check::InvariantRegistry::row_ledger_closed(row);
      if (!ok) ++failures;
      const std::string mttf = row.text("mttf");
      table.row()
          .cell(mttf == "none" ? mttf : mttf + " s")
          .cell(row.text("defense"))
          .cell(row.number("stretch"), 3)
          .cell(row.number("p95_stretch"), 3)
          .cell(row.text("degrade_events"))
          .cell(row.text("slow_degraded"))
          .cell(row.text("hedges_launched"))
          .cell(row.text("hedge_wins"))
          .cell(ok ? "closed" : "LEAK");
    }
    std::fputs(table.str().c_str(), stdout);
  }

  if (failures > 0) {
    std::fprintf(stderr, "\n%d gray-failure assertion(s) failed\n", failures);
    return 1;
  }
  return 0;
}
