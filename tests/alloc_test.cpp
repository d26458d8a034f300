// Allocation-growth contract of the all-off replay path: the event
// calendar, the node ready/disk queues and the process pool grow with a
// replay's peak working set, not with its length. Replaying the same
// configuration four times longer may add only a small constant number of
// heap allocations (vectors that double a few more times).
//
// Its own binary: it replaces the global operator new to count calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/policy.hpp"
#include "trace/profile.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace wsched::core {
namespace {

/// Heap allocations made by one ClusterSim::run of the all-off M/S
/// configuration (p=32, UCB at λ=1000, 1/r=40) over `duration_s` simulated
/// seconds. Trace generation and set-up happen before counting starts.
std::uint64_t run_allocations(double duration_s) {
  ExperimentSpec spec;
  spec.profile = trace::ucb_profile();
  spec.p = 32;
  spec.lambda = 1000.0;
  spec.r = 1.0 / 40.0;
  spec.duration_s = duration_s;
  spec.warmup_s = 0.5;
  spec.kind = SchedulerKind::kMs;
  spec.seed = 11;
  const model::Workload analytic = analytic_workload(spec);
  const trace::Trace trace = generate_trace(spec);

  ClusterConfig config;
  config.p = spec.p;
  config.m = masters_from_theorem(analytic);
  config.seed = spec.seed;
  config.warmup = from_seconds(spec.warmup_s);
  config.reservation.initial_r = spec.r;
  config.reservation.initial_a = analytic.a;
  config.initial_dynamic_demand_s = 1.0 / (spec.r * spec.mu_h);
  ClusterSim sim(config, make_ms());

  const std::uint64_t before = g_allocations.load();
  const RunResult result = sim.run(trace);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_GT(result.metrics.completed, 0u);
  std::printf("%.0f s replay: %zu requests, %llu allocations\n", duration_s,
              trace.size(), static_cast<unsigned long long>(allocations));
  return allocations;
}

TEST(AllocationGrowth, LongerReplayAddsAtMostAConstant) {
  const std::uint64_t short_run = run_allocations(1.0);
  const std::uint64_t long_run = run_allocations(4.0);
  // Measured: 501 allocations at 1 s and 607 at 4 s, the difference being
  // capacity growth as the peak working set rises (burst plans, free
  // lists, the process arena). Per-bucket event vectors and deque-backed
  // node queues made it 5976 and 9036, growing linearly with the run.
  EXPECT_LE(long_run, short_run + 200)
      << "short " << short_run << ", long " << long_run;
}

}  // namespace
}  // namespace wsched::core
