// First real-thread exercise of the internally synchronized components
// (DESIGN.md section 10). The simulator itself is single-threaded today;
// these tests hammer each synchronized class from many std::threads so the
// locking added for concurrency readiness is validated by more than the
// annotations — run under TSan (cmake -DURSA_TSAN=ON) this is the data-race
// gate for OccupancyLedger, MonotaskQueue, EventQueue, FaultStats, and
// SpeculationManager.
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/monotask_queue.h"
#include "src/exec/occupancy.h"
#include "src/fault/fault_stats.h"
#include "src/sim/event_queue.h"
#include "src/spec/speculation.h"

namespace ursa {
namespace {

constexpr int kThreads = 8;
constexpr int kIters = 2000;

void RunThreads(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(body, t);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

TEST(ThreadedSmoke, OccupancyLedgerSlotsNeverExceedLimit) {
  OccupancyLedger ledger;
  constexpr int kLimit = 3;
  std::atomic<bool> over_limit{false};
  std::atomic<int64_t> acquired{0};
  RunThreads([&](int) {
    for (int i = 0; i < kIters; ++i) {
      if (ledger.TryAcquireSlot(ResourceType::kCpu, kLimit)) {
        acquired.fetch_add(1, std::memory_order_relaxed);
        if (ledger.slots_in_use(ResourceType::kCpu) > kLimit) {
          over_limit.store(true, std::memory_order_relaxed);
        }
        ledger.IncrementCompleted(ResourceType::kCpu);
        ledger.ReleaseSlot(ResourceType::kCpu);
      }
    }
  });
  EXPECT_FALSE(over_limit.load());
  EXPECT_EQ(ledger.slots_in_use(ResourceType::kCpu), 0);
  EXPECT_EQ(ledger.completed(ResourceType::kCpu), acquired.load());
}

TEST(ThreadedSmoke, OccupancyLedgerBytesAndMemoryBalance) {
  OccupancyLedger ledger;
  constexpr double kCapacity = 1e18;  // Never rejects; exercises the counters.
  RunThreads([&](int) {
    for (int i = 0; i < kIters; ++i) {
      ledger.AddRunningBytes(ResourceType::kNetwork, 64.0);
      double allocated = 0.0;
      ASSERT_TRUE(ledger.TryAllocateMemory(128.0, kCapacity, &allocated));
      ledger.AddActualMemoryUse(32.0);
      ledger.AddOccupancy(OccupancyKind::kCpuBusy, 1.0);
      ledger.AddOccupancy(OccupancyKind::kCpuBusy, -1.0);
      ledger.AddActualMemoryUse(-32.0);
      ledger.ReleaseMemory(128.0);
      ledger.AddRunningBytes(ResourceType::kNetwork, -64.0);
    }
  });
  EXPECT_DOUBLE_EQ(ledger.running_bytes(ResourceType::kNetwork), 0.0);
  EXPECT_DOUBLE_EQ(ledger.mem_allocated(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.occupancy(OccupancyKind::kCpuBusy), 0.0);
}

TEST(ThreadedSmoke, OccupancyLedgerMemoryAdmissionIsAtomic) {
  OccupancyLedger ledger;
  // Capacity admits exactly 4 concurrent 1-byte reservations; a racy
  // check-then-act would overshoot.
  constexpr double kCapacity = 3.5;  // +1.0 slack in the ledger => 4 fit.
  std::atomic<int64_t> admitted{0};
  std::atomic<bool> overshoot{false};
  RunThreads([&](int) {
    for (int i = 0; i < kIters; ++i) {
      double allocated = 0.0;
      if (ledger.TryAllocateMemory(1.0, kCapacity, &allocated)) {
        admitted.fetch_add(1, std::memory_order_relaxed);
        if (allocated > kCapacity + 1.0) {
          overshoot.store(true, std::memory_order_relaxed);
        }
        ledger.ReleaseMemory(1.0);
      }
    }
  });
  EXPECT_FALSE(overshoot.load());
  EXPECT_GT(admitted.load(), 0);
  EXPECT_DOUBLE_EQ(ledger.mem_allocated(), 0.0);
}

TEST(ThreadedSmoke, MonotaskQueueConcurrentPushPop) {
  MonotaskQueue queue;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = kIters;
  constexpr int64_t kTotal = static_cast<int64_t>(kProducers) * kPerProducer;
  // Claim protocol: a producer bumps `available` after each Push, and a
  // consumer pops only after decrementing it from a positive value. Every
  // claim is therefore backed by an item that is already queued and that no
  // other consumer has claimed, so Pop() never sees an empty queue.
  std::atomic<int64_t> available{0};
  std::atomic<int64_t> popped{0};
  std::atomic<double> popped_bytes{0.0};

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, &available, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        RunnableMonotask mt;
        mt.job = static_cast<JobId>(p);
        mt.id = static_cast<MonotaskId>(i);
        mt.type = ResourceType::kCpu;
        mt.input_bytes = 8.0;
        mt.job_priority = static_cast<double>(p);
        mt.intra_key = static_cast<double>(i % 16);
        queue.Push(std::move(mt));
        available.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (popped.load(std::memory_order_relaxed) < kTotal) {
        int64_t avail = available.load(std::memory_order_acquire);
        if (avail == 0) {
          std::this_thread::yield();
          continue;
        }
        if (!available.compare_exchange_weak(avail, avail - 1,
                                             std::memory_order_acq_rel)) {
          continue;
        }
        popped.fetch_add(1, std::memory_order_relaxed);
        const RunnableMonotask mt = queue.Pop();
        double expected = popped_bytes.load(std::memory_order_relaxed);
        while (!popped_bytes.compare_exchange_weak(expected, expected + mt.input_bytes)) {
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(queue.Empty());
  EXPECT_DOUBLE_EQ(queue.queued_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(popped_bytes.load(), 8.0 * static_cast<double>(kTotal));
}

TEST(ThreadedSmoke, MonotaskQueueReprioritizeUnderContention) {
  MonotaskQueue queue;
  for (int i = 0; i < 256; ++i) {
    RunnableMonotask mt;
    mt.job = static_cast<JobId>(i % 8);
    mt.input_bytes = 1.0;
    mt.job_priority = static_cast<double>(i % 8);
    queue.Push(std::move(mt));
  }
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      queue.Reprioritize([](JobId job) { return -static_cast<double>(job); });
      queue.Reprioritize([](JobId job) { return static_cast<double>(job); });
    }
  });
  for (int i = 0; i < 256; ++i) {
    while (queue.Empty()) {
      std::this_thread::yield();
    }
    (void)queue.Pop();
  }
  stop.store(true);
  churn.join();
  EXPECT_TRUE(queue.Empty());
  EXPECT_DOUBLE_EQ(queue.queued_bytes(), 0.0);
}

TEST(ThreadedSmoke, EventQueuePushCancelPop) {
  EventQueue queue;
  std::atomic<int64_t> fired{0};
  std::atomic<int64_t> pushed{0};
  std::atomic<int64_t> cancelled{0};
  RunThreads([&](int t) {
    for (int i = 0; i < kIters; ++i) {
      const EventId id = queue.Push(static_cast<double>(t * kIters + i),
                                    [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
      pushed.fetch_add(1, std::memory_order_relaxed);
      if (i % 3 == 0) {
        if (queue.Cancel(id)) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  // Single-threaded drain (as the simulator loop does), firing callbacks
  // with the queue lock released.
  double last = -1.0;
  while (!queue.Empty()) {
    EventQueue::Fired event = queue.Pop();
    EXPECT_GE(event.when, last);
    last = event.when;
    event.cb();
  }
  EXPECT_EQ(fired.load(), pushed.load() - cancelled.load());
  EXPECT_EQ(queue.PendingCount(), 0u);
}

TEST(ThreadedSmoke, EventQueueConcurrentCancelOfSameEvents) {
  EventQueue queue;
  std::vector<EventId> ids;
  ids.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    ids.push_back(queue.Push(static_cast<double>(i), [] {}));
  }
  std::atomic<int64_t> wins{0};
  RunThreads([&](int) {
    for (const EventId id : ids) {
      if (queue.Cancel(id)) {
        wins.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Each event is cancelled by exactly one winner.
  EXPECT_EQ(wins.load(), 1024);
  while (!queue.Empty()) {
    (void)queue.Pop();
  }
  EXPECT_EQ(queue.PendingCount(), 0u);
}

TEST(ThreadedSmoke, FaultStatsConcurrentRecording) {
  FaultStats stats;
  // All records carry the same timestamp: StepTracker requires non-decreasing
  // times, and under real concurrency the simulated clock is a single shared
  // value, not a per-thread counter.
  constexpr double kNow = 1.0;
  RunThreads([&](int t) {
    for (int i = 0; i < kIters; ++i) {
      stats.RecordTransientFailure();
      stats.RecordRetry(kNow);
      stats.RecordDetection(kNow, 0.5);
      stats.RecordWastedWork(kNow, ResourceType::kCpu, 10.0, 0.25);
      if (t == 0 && i == 0) {
        stats.RecordFullRestart();
      }
    }
  });
  const FaultCounters c = stats.Snapshot();
  EXPECT_EQ(c.transient_failures, kThreads * kIters);
  EXPECT_EQ(c.retries, kThreads * kIters);
  EXPECT_EQ(c.detections, kThreads * kIters);
  EXPECT_EQ(c.full_restarts, 1);
  EXPECT_DOUBLE_EQ(c.avg_detection_latency(), 0.5);
  EXPECT_DOUBLE_EQ(c.total_wasted_seconds(), 0.25 * kThreads * kIters);
  EXPECT_DOUBLE_EQ(c.total_wasted_bytes(), 10.0 * kThreads * kIters);
}

TEST(ThreadedSmoke, SpeculationManagerBudgetUnderContention) {
  SpeculationConfig config;
  config.enabled = true;
  config.budget_fraction = 0.1;
  FaultStats stats;
  SpeculationManager manager(config, &stats);
  constexpr int kRunning = 40;  // Budget: at most 4 live copies.
  std::atomic<bool> over_budget{false};
  RunThreads([&](int) {
    for (int i = 0; i < kIters; ++i) {
      if (manager.CanLaunch(kRunning)) {
        manager.OnLaunched();
        // CanLaunch/OnLaunched is check-then-act across two locks, so brief
        // overshoot past the budget is tolerated under contention — but it
        // must stay bounded by the thread count and always drain back.
        if (manager.active() > 4 + kThreads) {
          over_budget.store(true, std::memory_order_relaxed);
        }
        if (i % 2 == 0) {
          manager.OnWon();
        } else {
          manager.OnLost();
        }
      }
    }
  });
  EXPECT_FALSE(over_budget.load());
  EXPECT_EQ(manager.active(), 0);
  const FaultCounters c = stats.Snapshot();
  EXPECT_EQ(c.speculations_launched, c.speculations_won + c.speculations_lost);
  EXPECT_EQ(c.speculations_active(), 0);
}

}  // namespace
}  // namespace ursa
