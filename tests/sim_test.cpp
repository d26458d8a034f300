// Tests for the discrete-event OS simulator: engine ordering, burst
// planning, the BSD-style MLFQ, the round-robin disk, the paging model and
// the Node state machine (single-job latency, timesharing, conservation).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "sim/cpu_sched.hpp"
#include "sim/disk_sched.hpp"
#include "sim/engine.hpp"
#include "sim/memory.hpp"
#include "sim/node.hpp"
#include "sim/params.hpp"
#include "sim/process.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace wsched::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    engine.schedule_at(100, [&order, i] { order.push_back(i); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, PastTimesClampToNow) {
  Engine engine;
  Time seen = -1;
  engine.schedule_at(50, [&] {
    engine.schedule_at(10, [&] { seen = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(seen, 50);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.schedule_after(5, recurse);
  };
  engine.schedule_at(0, recurse);
  engine.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(engine.now(), 45);
}

TEST(Engine, StopHaltsExecution) {
  Engine engine;
  int ran = 0;
  engine.schedule_at(1, [&] {
    ++ran;
    engine.stop();
  });
  engine.schedule_at(2, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(engine.pending(), 1u);
}

OsParams default_os() { return OsParams{}; }

TEST(PlanBursts, PureCpu) {
  const auto plan = plan_bursts(40 * kMillisecond, 1.0, default_os());
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].cpu, 40 * kMillisecond);
  EXPECT_EQ(plan[0].io, 0);
}

TEST(PlanBursts, PureIoSplitsIntoCycles) {
  const auto plan = plan_bursts(40 * kMillisecond, 0.0, default_os());
  EXPECT_EQ(plan.size(), 5u);  // 40ms / 8ms target
  Time io_total = 0;
  for (const auto& cycle : plan) {
    EXPECT_EQ(cycle.cpu, 0);
    io_total += cycle.io;
  }
  EXPECT_EQ(io_total, 40 * kMillisecond);
}

TEST(PlanBursts, ConservesTotalsExactly) {
  for (double w : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    for (Time demand : {kMillisecond, 7 * kMillisecond, 133 * kMillisecond,
                        kSecond}) {
      const auto plan = plan_bursts(demand, w, default_os());
      Time total = 0;
      for (const auto& cycle : plan) total += cycle.cpu + cycle.io;
      EXPECT_EQ(total, demand) << "w=" << w << " demand=" << demand;
    }
  }
}

TEST(PlanBursts, ZeroDemand) {
  const auto plan = plan_bursts(0, 0.5, default_os());
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].cpu + plan[0].io, 0);
}

TEST(CpuSched, PopsBestPriorityFirst) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process hog, fresh;
  hog.p_cpu = 100 * kMillisecond;  // level 10
  fresh.p_cpu = 0;                 // level 0
  sched.enqueue(&hog);
  sched.enqueue(&fresh);
  EXPECT_EQ(sched.pop_best(), &fresh);
  EXPECT_EQ(sched.pop_best(), &hog);
  EXPECT_EQ(sched.pop_best(), nullptr);
}

TEST(CpuSched, FifoWithinLevel) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process a, b, c;
  sched.enqueue(&a);
  sched.enqueue(&b);
  sched.enqueue(&c);
  EXPECT_EQ(sched.pop_best(), &a);
  EXPECT_EQ(sched.pop_best(), &b);
  EXPECT_EQ(sched.pop_best(), &c);
}

TEST(CpuSched, LevelClampsAtTop) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process monster;
  monster.p_cpu = 100 * kSecond;
  EXPECT_EQ(sched.level_of(monster), os.priority_levels - 1);
}

TEST(CpuSched, PreemptsOnlyStrictlyBetter) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process a, b;
  a.p_cpu = 0;
  b.p_cpu = 0;
  EXPECT_FALSE(sched.preempts(a, b));
  b.p_cpu = 50 * kMillisecond;
  EXPECT_TRUE(sched.preempts(a, b));
  EXPECT_FALSE(sched.preempts(b, a));
}

TEST(CpuSched, DecayFilterShrinks) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  const Time decayed1 = sched.decayed(100 * kMillisecond, 1);
  EXPECT_LT(decayed1, 100 * kMillisecond);
  // Higher load decays more slowly (BSD behaviour).
  const Time decayed8 = sched.decayed(100 * kMillisecond, 8);
  EXPECT_GT(decayed8, decayed1);
}

TEST(CpuSched, RebucketReflectsNewPcpu) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process a, b;
  a.p_cpu = 0;
  b.p_cpu = 200 * kMillisecond;
  sched.enqueue(&a);
  sched.enqueue(&b);
  // Invert the priorities and rebucket: b should now pop first.
  a.p_cpu = 200 * kMillisecond;
  b.p_cpu = 0;
  sched.rebucket_all();
  EXPECT_EQ(sched.pop_best(), &b);
  EXPECT_EQ(sched.pop_best(), &a);
}

TEST(CpuSched, InvalidLevelsThrow) {
  OsParams os = default_os();
  os.priority_levels = 0;
  EXPECT_THROW(CpuScheduler{os}, std::invalid_argument);
  os.priority_levels = 65;
  EXPECT_THROW(CpuScheduler{os}, std::invalid_argument);
}

TEST(DiskSched, RoundRobinOrder) {
  const OsParams os = default_os();
  DiskScheduler disk(os);
  Process a, b;
  a.io_left = 5 * kMillisecond;
  b.io_left = kMillisecond;
  disk.enqueue(&a);
  disk.enqueue(&b);
  EXPECT_EQ(disk.pop_next(), &a);
  EXPECT_EQ(disk.slice_for(a), os.io_page_access);
  EXPECT_EQ(disk.pop_next(), &b);
  EXPECT_EQ(disk.slice_for(b), kMillisecond);  // remainder < page access
  EXPECT_TRUE(disk.empty());
}

TEST(Memory, GrantAndRelease) {
  OsParams os = default_os();
  os.memory_pages = 100;
  MemoryManager memory(os);
  const auto alloc = memory.allocate(60, kSecond);
  EXPECT_EQ(alloc.granted, 60u);
  EXPECT_EQ(alloc.paging_io, 0);
  EXPECT_EQ(memory.free_pages(), 40u);
  memory.release(alloc.granted);
  EXPECT_EQ(memory.free_pages(), 100u);
}

TEST(Memory, ShortfallIncursPagingIo) {
  OsParams os = default_os();
  os.memory_pages = 100;
  MemoryManager memory(os);
  (void)memory.allocate(90, kSecond);
  const auto alloc = memory.allocate(30, kSecond);
  EXPECT_EQ(alloc.granted, 10u);  // only 10 pages left
  EXPECT_EQ(alloc.paging_io, 20 * os.io_page_access);
}

TEST(Memory, PagingPenaltyCapped) {
  OsParams os = default_os();
  os.memory_pages = 10;
  os.paging_penalty_cap = 2.0;
  MemoryManager memory(os);
  (void)memory.allocate(10, kSecond);
  const Time demand = 5 * kMillisecond;
  const auto alloc = memory.allocate(5000, demand);
  EXPECT_EQ(alloc.granted, 0u);
  EXPECT_EQ(alloc.paging_io, 2 * demand);  // capped, not 10 seconds
}

TEST(Memory, OverReleaseClamped) {
  OsParams os = default_os();
  os.memory_pages = 50;
  MemoryManager memory(os);
  (void)memory.allocate(20, kSecond);
  memory.release(9999);
  EXPECT_EQ(memory.used_pages(), 0u);
}

// --- Node-level behaviour ---

Job make_job(std::uint64_t id, Time demand, double w, bool dynamic,
             std::uint32_t pages = 4) {
  Job job;
  job.id = id;
  job.request.cls =
      dynamic ? trace::RequestClass::kDynamic : trace::RequestClass::kStatic;
  job.request.service_demand = demand;
  job.request.cpu_fraction = w;
  job.request.mem_pages = pages;
  job.cluster_arrival = 0;
  return job;
}

struct Completion {
  std::uint64_t id;
  Time at;
};

struct NodeHarness {
  Engine engine;
  OsParams os;
  std::unique_ptr<Node> node;
  std::vector<Completion> done;

  explicit NodeHarness(NodeParams params = {}) {
    node = std::make_unique<Node>(engine, os, params, 0);
    node->set_completion_callback([this](const Job& job, Time at) {
      done.push_back({job.id, at});
    });
  }
};

TEST(Node, SingleStaticJobLatencyEqualsDemandPlusSwitch) {
  NodeHarness h;
  // Pure-CPU static request, well under one quantum.
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, kMillisecond, 1.0, false)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].at, kMillisecond + h.os.context_switch);
}

TEST(Node, DynamicJobPaysFork) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, 10 * kMillisecond, 1.0, true)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 1u);
  // 3ms fork + 10ms demand = 13ms of CPU; quantum splits add no time, only
  // context switches when another process intervenes (none here).
  EXPECT_EQ(h.done[0].at,
            13 * kMillisecond + h.os.context_switch);
}

TEST(Node, MixedJobAlternatesCpuAndIo) {
  NodeHarness h;
  // 16ms demand, half CPU half IO -> 1 cycle (8ms io target): 8ms CPU
  // then 8ms IO.
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, 16 * kMillisecond, 0.5, false)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].at, 16 * kMillisecond + h.os.context_switch);
  EXPECT_EQ(h.node->total_cpu_service(), 8 * kMillisecond);
  EXPECT_EQ(h.node->total_disk_service(), 8 * kMillisecond);
}

TEST(Node, TwoCpuJobsTimeshare) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 50 * kMillisecond, 1.0, false));
    h.node->submit(make_job(2, 50 * kMillisecond, 1.0, false));
  });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 2u);
  // Both jobs finish near 100ms (plus switches): neither runs to completion
  // before the other starts.
  const Time last = std::max(h.done[0].at, h.done[1].at);
  const Time first = std::min(h.done[0].at, h.done[1].at);
  EXPECT_GT(first, 85 * kMillisecond);
  EXPECT_LE(last, 105 * kMillisecond);
}

TEST(Node, CpuAndIoOverlap) {
  NodeHarness h;
  // One pure-CPU and one pure-IO job: they overlap almost perfectly.
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 40 * kMillisecond, 1.0, false));
    h.node->submit(make_job(2, 40 * kMillisecond, 0.0, false));
  });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 2u);
  const Time last = std::max(h.done[0].at, h.done[1].at);
  EXPECT_LT(last, 50 * kMillisecond);  // far less than 80ms serialized
}

TEST(Node, ShortJobNotStuckBehindHog) {
  NodeHarness h;
  // A 400ms CPU hog arrives first; a 1ms static request arrives at 50ms.
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, 400 * kMillisecond, 1.0, false)); });
  h.engine.schedule_at(50 * kMillisecond, [&] { h.node->submit(make_job(2, kMillisecond, 1.0, false)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 2u);
  const auto& quick = h.done[0].id == 2 ? h.done[0] : h.done[1];
  // The MLFQ runs the fresh short job at the next quantum boundary: it
  // completes within ~12ms of its arrival, not after the hog's 400ms.
  EXPECT_LT(quick.at, 65 * kMillisecond);
}

TEST(Node, WorkConservation) {
  NodeHarness h;
  Time total_demand = 0;
  h.engine.schedule_at(0, [&] {
    for (int i = 0; i < 20; ++i) {
      const Time demand = (1 + i % 7) * 3 * kMillisecond;
      const double w = (i % 2) ? 0.7 : 0.3;
      h.node->submit(make_job(static_cast<std::uint64_t>(i), demand, w, false));
      total_demand += demand;
    }
  });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 20u);
  // plan_bursts conserves demand exactly, so CPU + disk service time must
  // equal the sum of demands (rounding each split at worst by 1ns/cycle).
  const Time serviced =
      h.node->total_cpu_service() + h.node->total_disk_service();
  EXPECT_NEAR(static_cast<double>(serviced),
              static_cast<double>(total_demand), 40.0);
}

TEST(Node, BusyCountersMatchServiceTimes) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 30 * kMillisecond, 0.6, false));
    h.node->submit(make_job(2, 20 * kMillisecond, 0.4, false));
  });
  h.engine.run();
  const Time end = h.engine.now();
  EXPECT_EQ(h.node->cpu_busy_until(end),
            h.node->total_cpu_service() + h.node->total_context_switch());
  EXPECT_EQ(h.node->disk_busy_until(end), h.node->total_disk_service());
}

TEST(Node, MemoryReleasedAfterCompletion) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 5 * kMillisecond, 0.5, true, 500));
  });
  h.engine.run();
  EXPECT_EQ(h.node->memory().used_pages(), 0u);
  EXPECT_EQ(h.node->live_processes(), 0u);
}

TEST(Node, PagingShortfallDelaysCompletion) {
  OsParams small;
  small.memory_pages = 64;
  Engine engine;
  Node node(engine, small, NodeParams{}, 0);
  std::vector<Completion> done;
  node.set_completion_callback(
      [&](const Job& job, Time at) { done.push_back({job.id, at}); });
  engine.schedule_at(0, [&] {
    node.submit(make_job(1, 10 * kMillisecond, 1.0, false, 64));   // fills RAM
    node.submit(make_job(2, 10 * kMillisecond, 1.0, false, 32));   // pages
  });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  // Job 2's 32-page shortfall costs 32 * 2ms of paging I/O, capped at
  // 2 * demand = 20ms; with the CPU shared against job 1 it cannot finish
  // before ~30ms, while job 1 (resident) finishes much earlier.
  const auto& paged = done[0].id == 2 ? done[0] : done[1];
  const auto& resident = done[0].id == 1 ? done[0] : done[1];
  EXPECT_GT(paged.at, 29 * kMillisecond);
  EXPECT_LT(resident.at, paged.at);
}

TEST(Node, FasterCpuFinishesSooner) {
  NodeHarness slow(NodeParams{.cpu_speed = 1.0, .disk_speed = 1.0});
  NodeHarness fast(NodeParams{.cpu_speed = 2.0, .disk_speed = 1.0});
  for (auto* h : {&slow, &fast}) {
    h->engine.schedule_at(0, [h] {
      h->node->submit(make_job(1, 40 * kMillisecond, 1.0, false));
    });
    h->engine.run();
  }
  ASSERT_EQ(slow.done.size(), 1u);
  ASSERT_EQ(fast.done.size(), 1u);
  EXPECT_NEAR(static_cast<double>(fast.done[0].at),
              static_cast<double>(slow.done[0].at) / 2.0,
              static_cast<double>(kMillisecond));
}

TEST(Node, FasterDiskSpeedsIoJobs) {
  NodeHarness slow(NodeParams{.cpu_speed = 1.0, .disk_speed = 1.0});
  NodeHarness fast(NodeParams{.cpu_speed = 1.0, .disk_speed = 4.0});
  for (auto* h : {&slow, &fast}) {
    h->engine.schedule_at(0, [h] {
      h->node->submit(make_job(1, 40 * kMillisecond, 0.0, false));
    });
    h->engine.run();
  }
  EXPECT_LT(fast.done[0].at, slow.done[0].at / 3);
}

TEST(Engine, TiesBreakByInsertionOrderBeyondCalendarWindow) {
  // Times more than the calendar window (~1.07 simulated seconds) ahead
  // land in the overflow heap; FIFO-at-equal-time must survive the trip
  // through it and back into a bucket.
  Engine engine;
  constexpr Time kFar = 5'000'000'000;  // 5 s
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    engine.schedule_at(kFar, [&order, i] { order.push_back(i); });
  engine.schedule_at(10, [&order] { order.push_back(-1); });
  engine.run();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i + 1)], i);
  EXPECT_EQ(engine.now(), kFar);
}

TEST(Engine, SameTimeInsertDuringDrainRunsAfterQueuedPeers) {
  // A handler scheduling at the current time must run after every event
  // already queued for that time (later sequence number), within the same
  // drain — not be lost or reordered ahead.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(100, [&] {
    order.push_back(0);
    engine.schedule_at(100, [&order] { order.push_back(9); });
  });
  engine.schedule_at(100, [&order] { order.push_back(1); });
  engine.schedule_at(100, [&order] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(engine.now(), 100);
}

TEST(Engine, ScatteredTimesDrainInNondecreasingOrder) {
  // Stress the bucket ring + overflow heap with pseudo-random times
  // spanning several window lengths; order must be globally sorted.
  Engine engine;
  std::vector<Time> seen;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const Time t = static_cast<Time>(x % 4'000'000'000ull);
    engine.schedule_at(t, [&seen, &engine] { seen.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_LE(seen[i - 1], seen[i]) << "at event " << i;
  EXPECT_EQ(engine.events_processed(), static_cast<std::uint64_t>(kEvents));
}

/// One self-rescheduling closure chain: mostly sub-2 ms gaps, one in 64
/// far enough ahead (1.5 s) to land in the overflow heap.
struct OverflowChain {
  Engine* engine;
  std::uint64_t state;
  std::uint64_t* remaining;
  Time* last;
  std::uint64_t* regressions;
};

void overflow_chain_step(OverflowChain* chain) {
  if (chain->engine->now() < *chain->last) ++*chain->regressions;
  *chain->last = chain->engine->now();
  if (*chain->remaining == 0) return;
  --*chain->remaining;
  const std::uint64_t draw = splitmix64(chain->state);
  const Time gap = draw % 64 == 0
                       ? 1500 * kMillisecond
                       : static_cast<Time>((draw >> 8) % (2 * kMillisecond));
  chain->engine->schedule_at(chain->engine->now() + gap,
                             [chain] { overflow_chain_step(chain); });
}

TEST(Engine, EmptyRingWithSeveralOverflowEventsStaysOrdered) {
  // With no periodic event to keep the calendar busy, the ring regularly
  // runs empty while the overflow heap holds several events inside one
  // window. Serving the heap top must not let the handler's next insert
  // move the cursor past the other overflow events: that used to dispatch
  // them a window late (time going backwards) and run a recycled closure
  // slot twice (std::bad_function_call).
  Engine engine;
  constexpr int kChains = 64;
  std::uint64_t remaining = 200000;
  Time last = 0;
  std::uint64_t regressions = 0;
  std::vector<OverflowChain> chains(kChains);
  for (int c = 0; c < kChains; ++c) {
    chains[static_cast<std::size_t>(c)] = {
        &engine, 1 ^ (0x1234567ULL * static_cast<std::uint64_t>(c + 1)),
        &remaining, &last, &regressions};
  }
  for (OverflowChain& chain : chains) overflow_chain_step(&chain);
  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(regressions, 0u);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(engine.events_processed(), 200000u);
}

/// Differential harness: drives every Engine scheduling entry point with a
/// seeded random mix and checks the exact dispatch order against a
/// reference std::priority_queue on (t, seq). Closure and call events
/// report their id when they run; typed node events are no-ops on an idle
/// node (stale tokens, empty tick), so they are checked by position: each
/// reporting event must run with events_processed() equal to its rank in
/// the reference order.
class EngineDifferential {
 public:
  explicit EngineDifferential(std::uint64_t seed)
      : rng_(seed), node_(engine_, os_, NodeParams{}, 0) {}

  /// Runs the mix until `budget` events have been scheduled, then drains.
  /// The engine is stepped by checkpoint events that stop() it; between
  /// run() calls the harness inserts events into the cursor bucket, later
  /// ring buckets and the overflow heap before resuming.
  void run(std::uint64_t budget) {
    budget_ = budget;
    for (int i = 0; i < 256; ++i)
      schedule_random(static_cast<Time>(draw() % (3 * kSecond)));
    while (scheduled_ < budget_) {
      // Checkpoints land anywhere from mid-bucket to beyond the window.
      schedule_checkpoint(engine_.now() +
                          static_cast<Time>(draw() % (3 * kSecond / 2)));
      engine_.run();
      EXPECT_EQ(ref_pos_, engine_.events_processed());
      EXPECT_EQ(engine_.pending(), ref_.size());
      const Time now = engine_.now();
      // Buckets are 2^19 ns wide and the ring spans 2048 of them (~1.07 s).
      const Time cursor_left = (((now >> 19) + 1) << 19) - now;
      const int inserts = 1 + static_cast<int>(draw() % 8);
      for (int i = 0; i < inserts; ++i) {
        Time dt;
        switch (draw() % 3) {
          case 0:  // the cursor bucket, now() itself included
            dt = static_cast<Time>(draw() % static_cast<std::uint64_t>(
                                                cursor_left));
            break;
          case 1:  // a later ring bucket
            dt = cursor_left + static_cast<Time>(draw() % kSecond);
            break;
          default:  // the overflow heap
            dt = 11 * kSecond / 10 + static_cast<Time>(draw() % (2 * kSecond));
            break;
        }
        schedule_random(now + dt);
      }
      if (ref_.size() < 64) {
        for (int i = 0; i < 64; ++i)
          schedule_random(now + static_cast<Time>(draw() % kSecond));
      }
    }
    engine_.run();
    // Only non-reporting events can be left in the reference: nothing
    // popped them after the last reporting one ran.
    while (!ref_.empty()) {
      EXPECT_FALSE(ref_.top().reports)
          << "reporting event " << ref_.top().id << " never ran";
      ref_.pop();
      ++ref_pos_;
    }
    EXPECT_EQ(ref_pos_, engine_.events_processed());
    EXPECT_EQ(engine_.pending(), 0u);
    EXPECT_EQ(engine_.events_processed(), scheduled_);
  }

  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  struct Ref {
    Time t;
    std::uint64_t seq;
    std::uint64_t id;
    bool reports;  ///< closure/call events report; typed node events don't
  };
  struct Later {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  struct CallCtx {
    EngineDifferential* self;
    std::uint64_t id;
  };

  std::uint64_t draw() { return splitmix64(rng_); }

  /// Schedules one event of a random kind at `t` (clamped to now(), as the
  /// engine does) and mirrors it into the reference queue.
  void schedule_random(Time t) {
    if (t < engine_.now()) t = engine_.now();
    const std::uint64_t id = scheduled_++;
    bool reports = true;
    switch (draw() % 5) {
      case 0:
        engine_.schedule_at(t, [this, id] { on_event(id); });
        break;
      case 1:
        calls_.push_back({this, id});
        engine_.schedule_call(t, &EngineDifferential::call_trampoline,
                              &calls_.back());
        break;
      case 2:  // cpu_epoch_ starts at 0: a nonzero token is stale
        engine_.schedule_cpu_slice_end(t, &node_, 1 + draw() % 1000);
        reports = false;
        break;
      case 3:
        engine_.schedule_disk_slice_end(t, &node_, 1 + draw() % 1000);
        reports = false;
        break;
      default:  // no live processes: the tick returns at once
        engine_.schedule_node_tick(t, &node_);
        reports = false;
        break;
    }
    ref_.push({t, next_seq_++, id, reports});
  }

  /// A reporting closure at `t` that stops the engine once it has run.
  void schedule_checkpoint(Time t) {
    const std::uint64_t id = scheduled_++;
    engine_.schedule_at(t, [this, id] {
      on_event(id);
      engine_.stop();
    });
    ref_.push({t, next_seq_++, id, true});
  }

  static void call_trampoline(void* ctx) {
    auto* call = static_cast<CallCtx*>(ctx);
    call->self->on_event(call->id);
  }

  void on_event(std::uint64_t id) {
    // Pop the reference up to the first reporting event; the typed events
    // passed over must already have run.
    while (!ref_.empty()) {
      const Ref top = ref_.top();
      ref_.pop();
      ++ref_pos_;
      if (!top.reports) continue;
      if (top.id != id || top.t != engine_.now() ||
          ref_pos_ != engine_.events_processed()) {
        if (++mismatches_ <= 5)
          ADD_FAILURE() << "dispatched id " << id << " at t="
                        << engine_.now() << " position "
                        << engine_.events_processed() << "; reference id "
                        << top.id << " at t=" << top.t << " position "
                        << ref_pos_;
      }
      break;
    }
    if (scheduled_ >= budget_) return;
    // Children: same-time ties, same-bucket inserts into the draining
    // bucket, in-window and beyond-window times, and past times that the
    // engine clamps to now().
    const int children = ref_.size() < 32 ? 2 : static_cast<int>(draw() % 3);
    for (int i = 0; i < children; ++i) {
      const std::uint64_t kind = draw() % 10;
      Time dt;
      if (kind < 3) {
        dt = 0;
      } else if (kind < 6) {
        dt = static_cast<Time>(draw() % (Time{1} << 19));
      } else if (kind < 8) {
        dt = static_cast<Time>(draw() % kSecond);
      } else if (kind < 9) {
        dt = kSecond + static_cast<Time>(draw() % (3 * kSecond));
      } else {
        dt = -static_cast<Time>(draw() % kMillisecond);
      }
      schedule_random(engine_.now() + dt);
    }
  }

  std::uint64_t rng_;
  Engine engine_;
  OsParams os_;
  Node node_;
  std::priority_queue<Ref, std::vector<Ref>, Later> ref_;
  std::deque<CallCtx> calls_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t budget_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t ref_pos_ = 0;
  std::uint64_t mismatches_ = 0;
};

TEST(Engine, DispatchOrderMatchesReferenceHeap) {
  std::uint64_t total = 0;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1999ull, 0xC0FFEEull}) {
    EngineDifferential diff(seed);
    diff.run(60000);
    EXPECT_EQ(diff.mismatches(), 0u) << "seed " << seed;
    total += diff.scheduled();
  }
  EXPECT_GE(total, 200000u);
}

TEST(Node, ProcessArenaReusesSlotsAcrossWaves) {
  // Sequential waves of jobs must recycle pooled Process slots (ASan
  // would flag a stale pointer if release/acquire mismatched) and leave
  // no live processes between waves.
  NodeHarness h;
  constexpr int kWaves = 5;
  constexpr int kPerWave = 64;
  for (int wave = 0; wave < kWaves; ++wave) {
    h.engine.schedule_at(h.engine.now(), [&h, wave] {
      for (int i = 0; i < kPerWave; ++i)
        h.node->submit(make_job(
            static_cast<std::uint64_t>(wave * kPerWave + i),
            (1 + i % 4) * kMillisecond, i % 2 ? 0.8 : 0.2, i % 3 == 0));
    });
    h.engine.run();
    EXPECT_EQ(h.node->live_processes(), 0u) << "wave " << wave;
  }
  EXPECT_EQ(h.done.size(), static_cast<std::size_t>(kWaves * kPerWave));
  EXPECT_EQ(h.node->completed(),
            static_cast<std::uint64_t>(kWaves * kPerWave));
}

TEST(Node, ManyJobsAllComplete) {
  NodeHarness h;
  constexpr int kJobs = 500;
  h.engine.schedule_at(0, [&] {
    for (int i = 0; i < kJobs; ++i)
      h.node->submit(make_job(static_cast<std::uint64_t>(i),
                              (1 + i % 5) * kMillisecond, 0.5, i % 3 == 0));
  });
  h.engine.run();
  EXPECT_EQ(h.done.size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(h.node->completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(h.node->live_processes(), 0u);
}

}  // namespace
}  // namespace wsched::sim
