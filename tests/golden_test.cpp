// Golden-artifact anchors for the hot-path engine rebuild: the refactor
// (event calendar, pooled processes, SoA load state, batched obs) promises
// byte-identical behavior, so these tests pin seed-era output hashes for
// one M/S grid point and one ctrl-enabled observability run. Further pins
// cover the serializer paths those runs leave untouched: the gray-failure
// decision columns, span exemplars, JSON escaping in traces, and CSV
// quoting / JSON nulls in result rows. Any change to event ordering, RNG
// draw sequence or artifact formatting trips them.
//
// To re-pin after an *intentional* semantic change, run with
// WSCHED_PRINT_GOLDEN=1 and copy the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "core/experiment.hpp"
#include "harness/artifacts.hpp"
#include "obs/decision_log.hpp"
#include "obs/probes.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "trace/profile.hpp"

namespace wsched {
namespace {

using check::fnv1a;

bool print_golden() {
  return std::getenv("WSCHED_PRINT_GOLDEN") != nullptr;
}

// Seed-era pinned values (p=8, lambda=300, ksu, seed=1234, 2s/0.5s).
constexpr double kGridStretch = 1.8589433084799023;
constexpr std::uint64_t kGridEvents = 3386;
constexpr std::uint64_t kGridTraceHash = 9404565998790318021ull;
constexpr std::uint64_t kGridDecisionsHash = 14219026472456607891ull;
constexpr std::uint64_t kGridProbesHash = 1344076430845906592ull;
constexpr double kCtrlStretch = 1.7674564679738916;
constexpr std::uint64_t kCtrlEvents = 3378;
constexpr std::uint64_t kCtrlTraceHash = 3963131497190702515ull;
constexpr std::uint64_t kCtrlDecisionsHash = 12732148973856617977ull;
// Serializer paths the two runs above leave unpinned.
constexpr std::uint64_t kGrayDecisionsHash = 7538269823439998705ull;
constexpr std::uint64_t kGrayExemplarsHash = 39481576795981865ull;
constexpr std::uint64_t kEscapedTraceHash = 3348251429252437782ull;
constexpr std::uint64_t kQuotedCsvHash = 10541208045348033563ull;
constexpr std::uint64_t kQuotedJsonHash = 18359589229549184117ull;

core::ExperimentSpec grid_point_spec() {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 300;
  spec.duration_s = 2.0;
  spec.warmup_s = 0.5;
  spec.seed = 1234;
  spec.kind = core::SchedulerKind::kMs;
  return spec;
}

TEST(GoldenArtifacts, MsGridPointIsBitStable) {
  obs::ChromeTraceSink sink;
  obs::DecisionLog decisions;
  obs::ProbeRecorder probes(from_seconds(0.5));
  core::ExperimentSpec spec = grid_point_spec();
  spec.observer.trace = &sink;
  spec.observer.decisions = &decisions;
  spec.observer.probes = &probes;
  const auto result = core::run_experiment(spec);

  std::ostringstream decision_csv;
  decisions.write_csv(decision_csv);
  std::ostringstream probe_csv;
  probes.write_csv(probe_csv);
  const std::uint64_t trace_hash = fnv1a(sink.str());
  const std::uint64_t decisions_hash = fnv1a(decision_csv.str());
  const std::uint64_t probes_hash = fnv1a(probe_csv.str());
  if (print_golden()) {
    std::printf("ms-grid: stretch=%.17g events=%llu trace=%llux "
                "decisions=%llux probes=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash),
                static_cast<unsigned long long>(decisions_hash),
                static_cast<unsigned long long>(probes_hash));
  }
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kGridStretch);
  EXPECT_EQ(result.run.events, kGridEvents);
  EXPECT_EQ(trace_hash, kGridTraceHash);
  EXPECT_EQ(decisions_hash, kGridDecisionsHash);
  EXPECT_EQ(probes_hash, kGridProbesHash);
}

TEST(GoldenArtifacts, CtrlEnabledRunIsBitStable) {
  obs::ChromeTraceSink sink;
  obs::DecisionLog decisions;
  core::ExperimentSpec spec = grid_point_spec();
  spec.ctrl.enabled = true;
  spec.observer.trace = &sink;
  spec.observer.decisions = &decisions;
  const auto result = core::run_experiment(spec);

  std::ostringstream decision_csv;
  decisions.write_csv(decision_csv);
  const std::uint64_t trace_hash = fnv1a(sink.str());
  const std::uint64_t decisions_hash = fnv1a(decision_csv.str());
  if (print_golden()) {
    std::printf("ctrl-run: stretch=%.17g events=%llu trace=%llux "
                "decisions=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash),
                static_cast<unsigned long long>(decisions_hash));
  }
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kCtrlStretch);
  EXPECT_EQ(result.run.events, kCtrlEvents);
  EXPECT_EQ(trace_hash, kCtrlTraceHash);
  EXPECT_EQ(decisions_hash, kCtrlDecisionsHash);
}

TEST(GoldenArtifacts, GrayDecisionLogAndSpanExemplarsAreBitStable) {
  // Slow health and hedging switch on the slow_penalty / hedged decision
  // columns; the span recorder's worst-K exemplar dump rides along.
  obs::DecisionLog decisions;
  obs::SpanRecorder spans;
  core::ExperimentSpec spec = grid_point_spec();
  spec.slow_health.enabled = true;
  spec.slow_health.min_samples = 8;
  spec.hedge.enabled = true;
  spec.observer.decisions = &decisions;
  spec.observer.spans = &spans;
  core::run_experiment(spec);
  ASSERT_TRUE(decisions.gray_columns());

  std::ostringstream decision_csv;
  decisions.write_csv(decision_csv);
  const std::string exemplars = spans.exemplars_str(3);
  EXPECT_NE(decision_csv.str().find(",slow_penalty,hedged,"),
            std::string::npos);
  const std::uint64_t decisions_hash = fnv1a(decision_csv.str());
  const std::uint64_t exemplars_hash = fnv1a(exemplars);
  if (print_golden()) {
    std::printf("gray-run: decisions=%llux exemplars=%llux\n",
                static_cast<unsigned long long>(decisions_hash),
                static_cast<unsigned long long>(exemplars_hash));
  }
  EXPECT_EQ(decisions_hash, kGrayDecisionsHash);
  EXPECT_EQ(exemplars_hash, kGrayExemplarsHash);
}

TEST(GoldenArtifacts, EscapedTraceIsBitStable) {
  // Names and text args that need JSON escaping, numeric args across the
  // canonical formatting's branches, and every event phase.
  obs::ChromeTraceSink sink;
  sink.name_process(0, "front \"end\"\\0");
  sink.name_thread(0, 1, "lane\twith\ncontrol\x01chars");
  sink.span(obs::Category::kCpu, "slice \"q\"", 0, 1, 1234567, 89,
            {{"pages", 42},
             {"ratio", 0.1},
             {"big", 1e15},
             {"tiny", -2.5e-7},
             {"why", "a \"quoted\", back\\slash\r\n"}});
  sink.instant(obs::Category::kDispatch, "pick\x1f", 0, 4, 1000000001,
               {{"w", 0.3333333333333333}, {"neg", -7}});
  sink.counter(obs::Category::kReservation, "theta", -1, 5, 1.0 / 3.0);
  sink.async_begin(obs::Category::kRequest, "req", 0, 0xbeefULL, 10,
                   {{"class", "dynamic"}});
  sink.async_end(obs::Category::kRequest, "req", 0, 0xbeefULL, 999999);
  sink.flow(obs::Category::kRequest, 's', "flow", 0, 0, 11, 7);
  sink.flow(obs::Category::kRequest, 't', "flow", 1, 2, 12, 7);
  sink.flow(obs::Category::kRequest, 'f', "flow", 2, 3, 13, 7);
  sink.instant(obs::Category::kLog, nullptr, 0, 5, 14);
  const std::uint64_t hash = fnv1a(sink.str());
  if (print_golden())
    std::printf("escaped-trace: %llux\n",
                static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, kEscapedTraceHash);
}

TEST(GoldenArtifacts, QuotedCsvAndJsonRowsAreBitStable) {
  // Cells that need CSV quoting (comma, quote, newline, carriage return)
  // and JSON escaping, plus non-finite numbers (JSON null).
  std::vector<harness::ResultRow> rows(2);
  rows[0]
      .set("name", "plain")
      .set("note", "a,b")
      .set("x", 0.5)
      .set("n", 3)
      .set_bool("ok", true);
  rows[1]
      .set("name", "say \"hi\"")
      .set("note", "line\nbreak\r")
      .set("x", std::numeric_limits<double>::infinity())
      .set("n", -12345678901234LL)
      .set_bool("ok", false);
  const std::uint64_t csv_hash = fnv1a(harness::csv_string(rows));
  const std::uint64_t json_hash = fnv1a(harness::json_string(rows));
  if (print_golden())
    std::printf("quoted-rows: csv=%llux json=%llux\n",
                static_cast<unsigned long long>(csv_hash),
                static_cast<unsigned long long>(json_hash));
  EXPECT_EQ(csv_hash, kQuotedCsvHash);
  EXPECT_EQ(json_hash, kQuotedJsonHash);
}

}  // namespace
}  // namespace wsched
