// core::WorkerPool unit + stress battery: group completion, reuse
// across many groups (the pool outlives windows and poll() calls),
// zero-worker degeneracy, nested submission (the framer → decoder
// pattern), parallel_for coverage and error propagation, and the
// failed-group short-circuit that keeps a throwing stage from burning
// the pool on doomed work. The stress cases are the TSan targets for
// the CI thread-sanitizer job.
#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace bgpcc::core {
namespace {

TEST(WorkerPool, SubmitAndWaitRunsAllTasks) {
  WorkerPool pool(3);
  WorkerPool::Group group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit(group, [&ran] { ran.fetch_add(1); });
  }
  pool.wait(group);
  EXPECT_EQ(ran.load(), 64);
}

TEST(WorkerPool, ReuseAcrossManyGroups) {
  // The whole point of the pool: one construction, many waves of work —
  // no thread churn between windows or poll() calls.
  WorkerPool pool(2);
  std::atomic<int> total{0};
  for (int wave = 0; wave < 100; ++wave) {
    WorkerPool::Group group;
    for (int i = 0; i < 8; ++i) {
      pool.submit(group, [&total] { total.fetch_add(1); });
    }
    pool.wait(group);
    EXPECT_FALSE(group.failed());
  }
  EXPECT_EQ(total.load(), 800);
}

TEST(WorkerPool, GroupIsReusableAfterWait) {
  WorkerPool pool(2);
  WorkerPool::Group group;
  std::atomic<int> ran{0};
  for (int round = 0; round < 10; ++round) {
    pool.submit(group, [&ran] { ran.fetch_add(1); });
    pool.wait(group);
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(WorkerPool, ZeroWorkerPoolRunsEverythingOnTheWaiter) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  WorkerPool::Group group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit(group, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 0);  // nothing runs until somebody helps
  pool.wait(group);
  EXPECT_EQ(ran.load(), 10);
}

TEST(WorkerPool, NestedSubmitIntoOwnGroup) {
  // A task may enqueue more tasks into its own group (the framer
  // submits decode tasks while itself running as a pool task); wait()
  // must not return until the transitively submitted work is done.
  WorkerPool pool(2);
  WorkerPool::Group group;
  std::atomic<int> ran{0};
  pool.submit(group, [&] {
    for (int i = 0; i < 16; ++i) {
      pool.submit(group, [&ran] { ran.fetch_add(1); });
    }
  });
  pool.wait(group);
  EXPECT_EQ(ran.load(), 16);
}

TEST(WorkerPool, HelpOneDrainsQueuedWork) {
  WorkerPool pool(0);
  WorkerPool::Group group;
  std::atomic<int> ran{0};
  pool.submit(group, [&ran] { ran.fetch_add(1); });
  pool.submit(group, [&ran] { ran.fetch_add(1); });
  EXPECT_TRUE(pool.help_one());
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(pool.help_one());
  EXPECT_FALSE(pool.help_one());
  pool.wait(group);  // already complete; must not hang
  EXPECT_EQ(ran.load(), 2);
}

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kJobs = 257;  // not a multiple of the thread count
  std::vector<std::atomic<int>> hits(kJobs);
  pool.parallel_for(kJobs, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPool, ParallelForRunsInlineWithoutWorkers) {
  WorkerPool pool(0);
  std::set<std::size_t> seen;  // single-threaded: plain set is fine
  pool.parallel_for(5, [&seen](std::size_t i) { seen.insert(i); });
  EXPECT_EQ(seen.size(), 5u);
}

TEST(WorkerPool, ParallelForPropagatesFirstError) {
  WorkerPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(32,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("job 7 died");
                        }),
      std::runtime_error);
  // The pool survives a failed parallel_for and keeps serving work.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPool, ErrorSkipsQueuedGroupTasks) {
  // The regression this pool exists to fix: the old per-call spawn code
  // kept executing every remaining job after one had already thrown.
  // Tasks queued behind a throw must be skipped once the failure is
  // recorded. The latch holds task 0 until all 99 followers are queued,
  // and the spin keeps this thread from helping (wait() would otherwise
  // start task 1 while task 0's throw is still in flight — allowed by
  // the pool's contract, see worker_pool.h).
  WorkerPool pool(1);
  WorkerPool::Group group;
  std::latch queued(1);
  std::atomic<int> executed{0};
  pool.submit(group, [&queued] {
    queued.wait();
    throw std::runtime_error("first task fails");
  });
  for (int i = 0; i < 99; ++i) {
    pool.submit(group, [&executed] { executed.fetch_add(1); });
  }
  queued.count_down();
  while (!group.failed()) std::this_thread::yield();
  EXPECT_THROW(pool.wait(group), std::runtime_error);
  EXPECT_EQ(executed.load(), 0);
}

TEST(WorkerPool, ErrorSkipsQueuedGroupTasksWithoutWorkers) {
  // With no workers the waiting thread drains the queue strictly in
  // order, so task 0's failure is recorded before task 1 can start.
  WorkerPool pool(0);
  WorkerPool::Group group;
  std::atomic<int> executed{0};
  pool.submit(group, [] { throw std::runtime_error("first task fails"); });
  for (int i = 0; i < 99; ++i) {
    pool.submit(group, [&executed] { executed.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait(group), std::runtime_error);
  EXPECT_EQ(executed.load(), 0);
}

TEST(WorkerPool, FailShortCircuitsAndWaitRethrows) {
  WorkerPool pool(0);
  WorkerPool::Group group;
  std::atomic<int> executed{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit(group, [&executed] { executed.fetch_add(1); });
  }
  pool.fail(group,
            std::make_exception_ptr(std::runtime_error("external failure")));
  EXPECT_TRUE(group.failed());
  EXPECT_THROW(pool.wait(group), std::runtime_error);
  EXPECT_EQ(executed.load(), 0);
  // wait() reset the group: it is reusable and healthy again.
  EXPECT_FALSE(group.failed());
  pool.submit(group, [&executed] { executed.fetch_add(1); });
  pool.wait(group);
  EXPECT_EQ(executed.load(), 1);
}

TEST(WorkerPool, IndependentGroupsDoNotShareFailure) {
  WorkerPool pool(2);
  WorkerPool::Group bad;
  WorkerPool::Group good;
  std::atomic<int> ran{0};
  pool.submit(bad, [] { throw std::runtime_error("bad group"); });
  for (int i = 0; i < 32; ++i) {
    pool.submit(good, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait(bad), std::runtime_error);
  pool.wait(good);
  EXPECT_EQ(ran.load(), 32);
}

TEST(WorkerPool, ConcurrentGroupsStress) {
  // TSan target: many short groups and parallel_for waves interleaved
  // on one pool, exercising the queue, the helping waiters, and the
  // group completion protocol under real contention.
  WorkerPool pool(4);
  std::atomic<long> total{0};
  for (int wave = 0; wave < 200; ++wave) {
    WorkerPool::Group a;
    WorkerPool::Group b;
    for (int i = 0; i < 4; ++i) {
      pool.submit(a, [&total] { total.fetch_add(1); });
      pool.submit(b, [&total] { total.fetch_add(1); });
    }
    pool.parallel_for(4, [&total](std::size_t) { total.fetch_add(1); });
    pool.wait(a);
    pool.wait(b);
  }
  EXPECT_EQ(total.load(), 200L * (4 + 4 + 4));
}

TEST(WorkerPool, ErrorStress) {
  // TSan target for the failure path: half the waves throw, and the
  // skip/short-circuit machinery must stay race-free while healthy
  // waves share the same pool.
  WorkerPool pool(4);
  std::atomic<long> total{0};
  for (int wave = 0; wave < 100; ++wave) {
    WorkerPool::Group group;
    const bool poison = (wave % 2) == 0;
    for (int i = 0; i < 8; ++i) {
      if (poison && i == 0) {
        pool.submit(group, [] { throw std::runtime_error("poisoned wave"); });
      } else {
        pool.submit(group, [&total, &group] {
          if (!group.failed()) total.fetch_add(1);
        });
      }
    }
    if (poison) {
      EXPECT_THROW(pool.wait(group), std::runtime_error);
    } else {
      pool.wait(group);
    }
  }
  EXPECT_GE(total.load(), 100L * 7 / 2);  // every healthy wave in full
}

TEST(WorkerPool, DestructionDrainsOutstandingZeroWorkerQueue) {
  // A zero-worker pool destroyed with queued-but-unwaited tasks must
  // still complete them (the dtor helps), not leak the std::functions.
  std::atomic<int> ran{0};
  {
    WorkerPool pool(0);
    WorkerPool::Group group;
    pool.submit(group, [&ran] { ran.fetch_add(1); });
    pool.wait(group);
  }
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace bgpcc::core
