// Tests for the sweep harness layer: axis expansion, seed derivation,
// filtering, artifact serialization, and the headline determinism
// contract — a parallel sweep's artifacts are byte-identical to a serial
// run's.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/artifacts.hpp"
#include "harness/bench_cli.hpp"
#include "harness/grids.hpp"
#include "harness/sweep.hpp"
#include "obs/log.hpp"

namespace wsched::harness {
namespace {

SweepSpec small_sweep() {
  // A genuine 2x2x2 simulation sweep, sized for test time: tiny cluster,
  // short horizon.
  SweepSpec sweep;
  sweep.base.profile = trace::ksu_profile();
  sweep.base.p = 4;
  sweep.base.duration_s = 1.5;
  sweep.base.warmup_s = 0.25;
  sweep.base.seed = 1999;
  sweep.axes = {
      lambda_axis({80, 120}),
      inv_r_axis({20, 40}),
      scheduler_axis({core::SchedulerKind::kMs, core::SchedulerKind::kFlat}),
  };
  return sweep;
}

TEST(Expand, RowMajorOrderLastAxisFastest) {
  SweepSpec sweep;
  sweep.axes = {lambda_axis({1, 2}), inv_r_axis({10, 20})};
  const auto points = expand(sweep);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].id, "lambda=1/inv_r=10");
  EXPECT_EQ(points[1].id, "lambda=1/inv_r=20");
  EXPECT_EQ(points[2].id, "lambda=2/inv_r=10");
  EXPECT_EQ(points[3].id, "lambda=2/inv_r=20");
  EXPECT_EQ(points[3].index, 3u);
  EXPECT_DOUBLE_EQ(points[3].spec.lambda, 2.0);
  EXPECT_DOUBLE_EQ(points[3].spec.r, 1.0 / 20.0);
}

TEST(Expand, CoordsComeFromAxes) {
  SweepSpec sweep;
  sweep.axes = {table2_cell_axis({32}, 1), inv_r_axis({20})};
  const auto points = expand(sweep);
  ASSERT_EQ(points.size(), 3u);  // one lambda per (trace) cell at p=32
  ASSERT_EQ(points[0].coords.size(), 4u);
  EXPECT_EQ(points[0].coords[0].first, "p");
  EXPECT_EQ(points[0].coords[1].first, "trace");
  EXPECT_EQ(points[0].coords[1].second, "UCB");
  EXPECT_EQ(points[0].coords[2].first, "lambda");
  EXPECT_EQ(points[0].coords[3].first, "inv_r");
  EXPECT_EQ(points[0].spec.p, 32);
}

TEST(Expand, ReseedAxesGiveDistinctSeeds) {
  const auto points = expand(small_sweep());
  ASSERT_EQ(points.size(), 8u);
  // The scheduler axis must not contribute to the seed: consecutive pairs
  // share one workload...
  for (std::size_t i = 0; i < points.size(); i += 2)
    EXPECT_EQ(points[i].spec.seed, points[i + 1].spec.seed) << i;
  // ...while distinct workload coordinates never collide.
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < points.size(); i += 2)
    seeds.insert(points[i].spec.seed);
  EXPECT_EQ(seeds.size(), 4u);
}

TEST(Expand, PointSeedIsInjectiveOverManyIndices) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100000; ++i)
    seeds.insert(point_seed(1999, i));
  EXPECT_EQ(seeds.size(), 100000u);
  // A different base seed permutes to different values.
  EXPECT_NE(point_seed(1, 0), point_seed(2, 0));
}

TEST(Expand, EmptyAxisThrows) {
  SweepSpec sweep;
  sweep.axes = {lambda_axis({})};
  EXPECT_THROW(expand(sweep), std::invalid_argument);
}

TEST(Filters, SubstringOrSemantics) {
  EXPECT_TRUE(matches_filters("lambda=1/inv_r=10", {}));
  EXPECT_TRUE(matches_filters("lambda=1/inv_r=10", {"inv_r=10"}));
  EXPECT_TRUE(matches_filters("lambda=1/inv_r=10", {"nope", "lambda=1"}));
  EXPECT_FALSE(matches_filters("lambda=1/inv_r=10", {"lambda=2"}));
}

TEST(Artifacts, CsvAndJsonAreCanonical) {
  ResultRow row;
  row.set("name", "a \"quoted\" label")
      .set("value", 1.5)
      .set("count", 3)
      .set("bad", std::numeric_limits<double>::infinity());
  const std::string csv = csv_string({row});
  EXPECT_EQ(csv,
            "name,value,count,bad\n\"a \"\"quoted\"\" label\",1.5,3,inf\n");
  const std::string json = json_string({row});
  EXPECT_NE(json.find("\"name\":\"a \\\"quoted\\\" label\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bad\":null"), std::string::npos);
}

TEST(Artifacts, SchemaMismatchThrows) {
  ResultRow a, b;
  a.set("x", 1);
  b.set("y", 1);
  EXPECT_THROW(csv_string({a, b}), std::invalid_argument);
  EXPECT_THROW(json_string({a, b}), std::invalid_argument);
}

TEST(Artifacts, SetOverwritesInPlaceAndMergePreservesNumeric) {
  ResultRow row;
  row.set("a", 1).set("b", "text").set("a", 2);
  ASSERT_EQ(row.fields().size(), 2u);
  EXPECT_EQ(row.fields()[0].name, "a");
  EXPECT_EQ(row.text("a"), "2");
  ResultRow other;
  other.set("c", 2.5);
  row.merge(other);
  EXPECT_TRUE(row.fields()[2].numeric);
  EXPECT_DOUBLE_EQ(row.number("c"), 2.5);
}

// The tentpole contract: running the same sweep serially and on four
// workers produces byte-identical CSV and JSON artifacts, because each
// point's evaluation depends only on its own GridPoint and rows are
// emitted in grid order.
TEST(RunSweep, ParallelArtifactsAreByteIdenticalToSerial) {
  const SweepSpec sweep = small_sweep();
  SweepOptions serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 4;

  const SweepRun run1 = run_sweep(sweep, serial, experiment_row);
  const SweepRun run4 = run_sweep(sweep, parallel, experiment_row);

  ASSERT_EQ(run1.rows.size(), 8u);
  EXPECT_EQ(csv_string(run1.rows), csv_string(run4.rows));
  EXPECT_EQ(json_string(run1.rows), json_string(run4.rows));
  // And the artifacts are non-trivial: the stable schema with real data.
  const std::string csv = csv_string(run1.rows);
  EXPECT_NE(csv.find("point,lambda,inv_r,scheduler,"), std::string::npos);
  EXPECT_NE(csv.find("M/S"), std::string::npos);
}

TEST(RunSweep, FiltersSelectSubgrid) {
  SweepOptions options;
  options.jobs = 2;
  options.filters = {"scheduler=Flat"};
  const SweepRun run = run_sweep(small_sweep(), options, experiment_row);
  ASSERT_EQ(run.rows.size(), 4u);
  for (const ResultRow& row : run.rows)
    EXPECT_EQ(row.text("scheduler"), "Flat");
}

TEST(RunSweep, EvalExceptionPropagatesFromWait) {
  SweepSpec sweep;
  sweep.axes = {lambda_axis({1, 2, 3})};
  SweepOptions options;
  options.jobs = 2;
  EXPECT_THROW(run_sweep(sweep, options,
                         [](const GridPoint&) -> ResultRow {
                           throw std::runtime_error("boom");
                         }),
               std::runtime_error);
}

TEST(RunSweep, QuarantineRecordsFailedPointsAndKeepsTheRest) {
  // With quarantine on, a point whose evaluation throws (a guard-tripped
  // runaway configuration, say) lands in SweepRun::failures instead of
  // aborting the sweep; the surviving rows keep grid order and the stable
  // schema.
  SweepSpec sweep;
  sweep.axes = {lambda_axis({1, 2, 3})};
  SweepOptions options;
  options.jobs = 2;
  options.quarantine = true;
  const SweepRun run =
      run_sweep(sweep, options, [](const GridPoint& point) -> ResultRow {
        if (point.id == "lambda=2")
          throw std::runtime_error("engine guard: too many events");
        ResultRow row;
        row.set("ok", 1);
        return row;
      });
  ASSERT_EQ(run.failures.size(), 1u);
  EXPECT_EQ(run.failures[0].index, 1u);
  EXPECT_EQ(run.failures[0].id, "lambda=2");
  EXPECT_EQ(run.failures[0].error, "engine guard: too many events");
  ASSERT_EQ(run.rows.size(), 2u);
  EXPECT_EQ(run.rows[0].text("lambda"), "1");
  EXPECT_EQ(run.rows[1].text("lambda"), "3");
  EXPECT_EQ(run.points.size(), 2u);
}

// Every shared flag set to a distinct non-default value must land in its
// own field: a misrouted flag-table entry shows up as a wrong field here.
TEST(BenchCli, EverySharedFlagReachesItsField) {
  const char* argv[] = {
      "bench", "--jobs", "3", "--filter", "trace=UCB", "--filter=p=32",
      "--out", "o", "--list", "--quick", "--trace", "t.json",
      "--probe-interval", "0.25", "--probe-out", "p.csv", "--decision-log",
      "d.csv", "--spans", "--span-out", "s.json", "--exemplars", "5",
      "--log", "warn",
      // overload
      "--deadline-static", "1.5", "--deadline-dynamic", "2.5",
      "--shed-policy", "util", "--shed-queue", "7", "--shed-util", "0.6",
      "--shed-target", "4.5", "--breakers", "--degraded-mode",
      "--overload-retries", "1",
      // net
      "--net-loss", "0.05", "--net-latency", "0.004:0.002",
      "--net-partition", "1:2:0|1-3", "--load-report-interval", "0.3",
      "--stale-fallback", "1.25", "--net-quorum=false",
      // ctrl
      "--ctrl", "--ctrl-interval", "0.7", "--ctrl-alpha", "0.11",
      "--ctrl-slew", "0.08", "--ctrl-autoscale", "--ctrl-up", "0.9",
      "--ctrl-down", "0.2", "--ctrl-dwell", "4", "--ctrl-min-nodes", "3",
      "--ctrl-masters",
      // gray
      "--gray-mttf", "10", "--gray-mttr", "3", "--gray-cpu", "0.15",
      "--gray-disk", "0.4", "--gray-stall-period", "1.1",
      "--gray-stall-len", "0.05", "--gray-stall-factor", "0.01",
      "--gray-net-loss", "0.12", "--gray-net-latency", "5",
      // slow health
      "--slow-health", "--slow-health-alpha", "0.2",
      "--slow-health-degrade", "4.25", "--slow-health-recover", "2.25",
      "--slow-health-min-samples", "30", "--slow-health-penalty", "2.5",
      "--slow-health-exclude", "--slow-health-period", "0.35",
      // hedge
      "--hedge", "--hedge-delay", "0.045", "--hedge-factor", "1.5",
      "--hedge-min-delay", "0.03", "--hedge-static"};
  const BenchCli cli(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(obs::log_level(), obs::LogLevel::kWarn);
  obs::set_log_level(obs::LogLevel::kOff);

  EXPECT_EQ(cli.options.jobs, 3);
  EXPECT_EQ(cli.options.filters,
            (std::vector<std::string>{"trace=UCB", "p=32"}));
  EXPECT_TRUE(cli.options.quarantine);
  EXPECT_EQ(cli.out, "o");
  EXPECT_TRUE(cli.list);
  EXPECT_TRUE(cli.quick);

  EXPECT_EQ(cli.obs.trace_path, "t.json");
  EXPECT_DOUBLE_EQ(cli.obs.probe_interval_s, 0.25);
  EXPECT_EQ(cli.obs.probe_path, "p.csv");
  EXPECT_EQ(cli.obs.decision_log_path, "d.csv");
  EXPECT_TRUE(cli.obs.spans);
  EXPECT_EQ(cli.obs.span_path, "s.json");
  EXPECT_EQ(cli.obs.exemplars, 5);

  EXPECT_TRUE(cli.overload_set);
  EXPECT_DOUBLE_EQ(cli.overload.deadline.static_s, 1.5);
  EXPECT_DOUBLE_EQ(cli.overload.deadline.dynamic_s, 2.5);
  EXPECT_EQ(cli.overload.admission.policy,
            overload::AdmissionPolicy::kUtilization);
  EXPECT_DOUBLE_EQ(cli.overload.admission.max_queue, 7.0);
  EXPECT_DOUBLE_EQ(cli.overload.admission.max_utilization, 0.6);
  EXPECT_DOUBLE_EQ(cli.overload.admission.stretch_target, 4.5);
  EXPECT_TRUE(cli.overload.breaker.enabled);
  EXPECT_TRUE(cli.overload.saturation.enabled);
  EXPECT_EQ(cli.overload.max_retries, 1);

  EXPECT_TRUE(cli.net.enabled);
  EXPECT_DOUBLE_EQ(cli.net.loss, 0.05);
  EXPECT_DOUBLE_EQ(cli.net.latency_base_s, 0.004);
  EXPECT_DOUBLE_EQ(cli.net.latency_jitter_s, 0.002);
  ASSERT_EQ(cli.net.partitions.size(), 1u);
  EXPECT_EQ(cli.net.partitions[0].from, from_seconds(1.0));
  EXPECT_EQ(cli.net.partitions[0].until, from_seconds(2.0));
  EXPECT_EQ(cli.net.partitions[0].groups,
            (std::vector<std::vector<int>>{{0}, {1, 2, 3}}));
  EXPECT_DOUBLE_EQ(cli.net.load_report_interval_s, 0.3);
  EXPECT_DOUBLE_EQ(cli.net.stale_max_age_s, 1.25);
  EXPECT_FALSE(cli.net.quorum);

  EXPECT_TRUE(cli.ctrl.enabled);
  EXPECT_DOUBLE_EQ(cli.ctrl.interval_s, 0.7);
  EXPECT_DOUBLE_EQ(cli.ctrl.estimate_alpha, 0.11);
  EXPECT_DOUBLE_EQ(cli.ctrl.theta_slew, 0.08);
  EXPECT_TRUE(cli.ctrl.autoscale);
  EXPECT_DOUBLE_EQ(cli.ctrl.scale_up_util, 0.9);
  EXPECT_DOUBLE_EQ(cli.ctrl.scale_down_util, 0.2);
  EXPECT_DOUBLE_EQ(cli.ctrl.dwell_s, 4.0);
  EXPECT_EQ(cli.ctrl.min_powered, 3);
  EXPECT_TRUE(cli.ctrl.retarget_masters);

  EXPECT_TRUE(cli.gray.enabled);
  EXPECT_DOUBLE_EQ(cli.gray.degrade_mttf_s, 10.0);
  EXPECT_DOUBLE_EQ(cli.gray.degrade_mttr_s, 3.0);
  EXPECT_DOUBLE_EQ(cli.gray.degrade_cpu_factor, 0.15);
  EXPECT_DOUBLE_EQ(cli.gray.degrade_disk_factor, 0.4);
  EXPECT_DOUBLE_EQ(cli.gray.stall_period_s, 1.1);
  EXPECT_DOUBLE_EQ(cli.gray.stall_len_s, 0.05);
  EXPECT_DOUBLE_EQ(cli.gray.stall_factor, 0.01);
  EXPECT_DOUBLE_EQ(cli.gray.degrade_net_loss, 0.12);
  EXPECT_DOUBLE_EQ(cli.gray.degrade_net_latency_factor, 5.0);

  EXPECT_TRUE(cli.slow_health.enabled);
  EXPECT_DOUBLE_EQ(cli.slow_health.alpha, 0.2);
  EXPECT_DOUBLE_EQ(cli.slow_health.degrade_ratio, 4.25);
  EXPECT_DOUBLE_EQ(cli.slow_health.recover_ratio, 2.25);
  EXPECT_EQ(cli.slow_health.min_samples, 30);
  EXPECT_DOUBLE_EQ(cli.slow_health.penalty, 2.5);
  EXPECT_TRUE(cli.slow_health.exclude);
  EXPECT_DOUBLE_EQ(cli.slow_health.check_period_s, 0.35);

  EXPECT_TRUE(cli.hedge.enabled);
  EXPECT_DOUBLE_EQ(cli.hedge.delay_s, 0.045);
  EXPECT_DOUBLE_EQ(cli.hedge.delay_factor, 1.5);
  EXPECT_DOUBLE_EQ(cli.hedge.min_delay_s, 0.03);
  EXPECT_TRUE(cli.hedge.hedge_static);
}

// No flags leaves every layer off; one tuning flag of a layer turns that
// layer on with the rest of its config at the struct defaults.
TEST(BenchCli, AnyTuningFlagEnablesItsLayer) {
  const char* bare[] = {"bench"};
  const BenchCli off(1, bare);
  EXPECT_FALSE(off.overload_set);
  EXPECT_FALSE(off.net.enabled);
  EXPECT_FALSE(off.ctrl.enabled);
  EXPECT_FALSE(off.gray.enabled);
  EXPECT_FALSE(off.slow_health.enabled);
  EXPECT_FALSE(off.hedge.enabled);
  EXPECT_EQ(off.options.jobs, 0);

  const char* argv[] = {"bench",           "--shed-queue=9",
                        "--net-quorum=true", "--ctrl-dwell=3",
                        "--gray-mttr=4",   "--slow-health-period=0.5",
                        "--hedge-factor=2", "--ctrl=false"};
  const BenchCli on(static_cast<int>(std::size(argv)), argv);
  EXPECT_TRUE(on.overload_set);
  EXPECT_TRUE(on.net.enabled);
  EXPECT_TRUE(on.ctrl.enabled);  // a tuning flag wins over --ctrl=false
  EXPECT_TRUE(on.gray.enabled);
  EXPECT_TRUE(on.slow_health.enabled);
  EXPECT_TRUE(on.hedge.enabled);
  EXPECT_DOUBLE_EQ(on.hedge.min_delay_s, core::HedgeConfig{}.min_delay_s);
  EXPECT_DOUBLE_EQ(on.net.loss, net::NetworkParams{}.loss);
}

// Bad command lines exit with status 2 and a message naming the flag.
TEST(BenchCliDeathTest, BadInputExitsWithStatus2) {
  const auto exits_2 = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "bench");
    const BenchCli cli(static_cast<int>(argv.size()), argv.data());
  };
  EXPECT_EXIT(exits_2({"--net-los=0.5"}), ::testing::ExitedWithCode(2),
              "unknown flag --net-los");
  EXPECT_EXIT(exits_2({"--jobs=two"}), ::testing::ExitedWithCode(2),
              "--jobs=two");
  EXPECT_EXIT(exits_2({"--breakers=ture"}), ::testing::ExitedWithCode(2),
              "--breakers=ture");
  EXPECT_EXIT(exits_2({"--log=verbose"}), ::testing::ExitedWithCode(2),
              "--log=verbose");
  EXPECT_EXIT(exits_2({"--net-latency=0.1:x"}), ::testing::ExitedWithCode(2),
              "--net-latency=0.1:x");
}

}  // namespace
}  // namespace wsched::harness
