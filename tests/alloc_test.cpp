// Allocation-growth contract, one row per layer: the event calendar, the
// node ready/disk queues, the process pool, the span ledger and the net
// layer's RPC calls and messages grow with a replay's peak working set, not
// with its length. Replaying the same configuration four times longer may
// add only a small constant number of heap allocations (vectors that
// double a few more times).
//
// Its own binary: it replaces the global operator new to count calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <ostream>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/policy.hpp"
#include "trace/profile.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void count_live(void* p, int sign) {
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live_bytes.fetch_add(sign * bytes) + sign * bytes;
  std::int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
}

}  // namespace

// Kept out of line: inlined into a caller, GCC reads the free() below as
// freeing an operator-new pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    count_live(p, 1);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) count_live(p, -1);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace wsched::core {
namespace {

/// One row of the table: a name and the layer settings it switches on
/// over the all-off M/S configuration.
struct LayerCase {
  const char* name;
  void (*configure)(ExperimentSpec& spec);
};

void PrintTo(const LayerCase& layer, std::ostream* os) { *os << layer.name; }

/// What one replay asked of the heap.
struct HeapUse {
  std::uint64_t allocations = 0;
  std::int64_t peak_bytes = 0;  ///< peak live heap over the replay's start
  std::uint64_t requests = 0;
};

/// Heap use of one run_experiment of the M/S configuration (p=32, UCB at
/// λ=1000, 1/r=40) with `layer` on, over `duration_s` simulated seconds.
HeapUse run_heap_use(const LayerCase& layer, double duration_s) {
  ExperimentSpec spec;
  spec.profile = trace::ucb_profile();
  spec.p = 32;
  spec.lambda = 1000.0;
  spec.r = 1.0 / 40.0;
  spec.duration_s = duration_s;
  spec.warmup_s = 0.5;
  spec.kind = SchedulerKind::kMs;
  spec.seed = 11;
  layer.configure(spec);

  const std::uint64_t before = g_allocations.load();
  const std::int64_t live_before = g_live_bytes.load();
  g_peak_bytes.store(live_before);
  const ExperimentResult result = run_experiment(spec);
  HeapUse use;
  use.allocations = g_allocations.load() - before;
  use.peak_bytes = g_peak_bytes.load() - live_before;
  use.requests = result.run.submitted;
  EXPECT_GT(result.run.metrics.completed, 0u);
  std::printf("%s, %.0f s replay: %llu requests, %llu allocations, "
              "%lld peak bytes\n",
              layer.name, duration_s,
              static_cast<unsigned long long>(use.requests),
              static_cast<unsigned long long>(use.allocations),
              static_cast<long long>(use.peak_bytes));
  return use;
}

const LayerCase kAllOff{"off", [](ExperimentSpec&) {}};

class AllocationGrowth : public testing::TestWithParam<LayerCase> {};

TEST_P(AllocationGrowth, LongerReplayAddsAtMostAConstant) {
  const HeapUse short_run = run_heap_use(GetParam(), 1.0);
  const HeapUse long_run = run_heap_use(GetParam(), 4.0);
  // Measured all-off: 483 allocations at 1 s and 589 at 4 s, the difference
  // being capacity growth as the peak working set rises (burst plans, free
  // lists, the process arena). Per-bucket event vectors and deque-backed
  // node queues made it 5976 and 9036, growing linearly with the run.
  EXPECT_LE(long_run.allocations, short_run.allocations + 200)
      << "short " << short_run.allocations << ", long "
      << long_run.allocations;
}

TEST_P(AllocationGrowth, PerRequestStateIsOneFixedRecord) {
  // A vector that doubles makes few allocations however much it holds, so
  // the count above cannot see a structure that grows with each request's
  // activity (a span node per CPU slice). The peak live heap can: beyond
  // what the all-off replay grows by (the trace, the stretch samples), a
  // layer may keep at most one fixed-size record per request (the span
  // ledger's, 136 bytes, in a vector of up to twice that capacity).
  const HeapUse off_short = run_heap_use(kAllOff, 1.0);
  const HeapUse off_long = run_heap_use(kAllOff, 4.0);
  const HeapUse short_run = run_heap_use(GetParam(), 1.0);
  const HeapUse long_run = run_heap_use(GetParam(), 4.0);
  const std::int64_t added = (long_run.peak_bytes - short_run.peak_bytes) -
                             (off_long.peak_bytes - off_short.peak_bytes);
  const auto extra_requests =
      static_cast<std::int64_t>(long_run.requests - short_run.requests);
  ASSERT_GT(extra_requests, 0);
  EXPECT_LE(added, 320 * extra_requests)
      << "layer adds " << added << " bytes over " << extra_requests
      << " more requests";
}

INSTANTIATE_TEST_SUITE_P(
    Layers, AllocationGrowth,
    testing::Values(
        kAllOff,
        // A chaos schedule's spans: the phase ledger, no exemplar file.
        LayerCase{"spans", [](ExperimentSpec& spec) { spec.obs.spans = true; }},
        // The layer matrix's net row: 1% loss and a jittered hop.
        LayerCase{"net",
                  [](ExperimentSpec& spec) {
                    spec.net.enabled = true;
                    spec.net.loss = 0.01;
                    spec.net.latency_jitter_s = 0.0005;
                  }}),
    [](const testing::TestParamInfo<LayerCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace wsched::core
