/**
 * @file
 * Unit tests for the conservative parallel window scheduler:
 * EventQueue key peeking and bounded draining, WorkerPool batch
 * execution, lazy start and deterministic exception selection,
 * ParallelTimeline window ordering against a recorded serial
 * schedule, who runs a window (coordinator or pool), and the
 * committed-window-edge tripwire (an event scheduled into the
 * committed past must panic, never silently reorder).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/parallel_timeline.hh"

namespace {

using papi::sim::EventQueue;
using papi::sim::PanicError;
using papi::sim::ParallelTimeline;
using papi::sim::Priority;
using papi::sim::Tick;
using papi::sim::WorkerPool;

// ------------------------------------------------------------------
// EventQueue: peekNextKey / runUntilKey.

TEST(EventQueuePeek, PeekReportsHeadWithoutExecuting)
{
    EventQueue q;
    int fired = 0;
    q.schedule(30, [&] { ++fired; }, 2);
    q.schedule(10, [&] { ++fired; }, 7);

    Tick when = 0;
    Priority prio = 0;
    ASSERT_TRUE(q.peekNextKey(when, prio));
    EXPECT_EQ(when, 10);
    EXPECT_EQ(prio, 7);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.pending(), 2u);

    // Peeking is idempotent and non-destructive.
    ASSERT_TRUE(q.peekNextKey(when, prio));
    EXPECT_EQ(when, 10);
    EXPECT_EQ(prio, 7);

    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.peekNextKey(when, prio));
}

TEST(EventQueuePeek, RunUntilKeyStopsStrictlyBelowTheBound)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(0); }, 0);
    q.schedule(20, [&] { order.push_back(1); }, 3);
    q.schedule(20, [&] { order.push_back(2); }, 5); // == bound: stays
    q.schedule(30, [&] { order.push_back(3); }, 0); // > bound: stays

    q.runUntilKey(20, 5);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(q.now(), 20); // clock rests at the last executed event

    // Events scheduled during the bounded drain join it when they
    // fall below the bound.
    q.schedule(20, [&] { order.push_back(4); }, 4);
    q.runUntilKey(20, 5);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4}));

    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
}

TEST(EventQueuePeek, BudgetedRunUntilKeyResumesWhereItStopped)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10 + i, [&order, i] { order.push_back(i); });
    q.schedule(40, [&] { order.push_back(9); }); // past the bound

    EXPECT_TRUE(q.runUntilKey(30, 0, 2)); // budget ran out
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_TRUE(q.runUntilKey(30, 0, 2));
    // Exactly the budget left below the bound: nothing remains.
    EXPECT_FALSE(q.runUntilKey(30, 0, 1));
    EXPECT_FALSE(q.runUntilKey(30, 0, 2));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueuePeek, SpentBudgetRefusesInlineRuns)
{
    // A chain that runs each successor inline while the queue lets
    // it, and schedules it otherwise: under a budget of 3 the third
    // link finds the budget spent and schedules the fourth, which
    // the next call runs - the same order, one round trip later.
    EventQueue q;
    std::vector<Tick> ran;
    std::function<void(Tick)> link = [&](Tick t) {
        for (;;) {
            ran.push_back(t);
            if (t == 15)
                return;
            ++t;
            if (!q.tryRunInline(t, 0)) {
                q.schedule(t, [&link, t] { link(t); });
                return;
            }
        }
    };
    q.schedule(10, [&] { link(10); });
    EXPECT_TRUE(q.runUntilKey(100, 0, 3));
    EXPECT_EQ(ran, (std::vector<Tick>{10, 11, 12}));
    EXPECT_EQ(q.executed(), 3u);
    EXPECT_FALSE(q.runUntilKey(100, 0));
    EXPECT_EQ(ran, (std::vector<Tick>{10, 11, 12, 13, 14, 15}));
}

TEST(EventQueuePeek, InlineRefusedAtOrPastTheRunUntilKeyBound)
{
    EventQueue q;
    std::vector<bool> accepted;
    q.schedule(10, [&] {
        accepted.push_back(q.tryRunInline(50, 5)); // == bound
        accepted.push_back(q.tryRunInline(50, 6)); // past, same tick
        accepted.push_back(q.tryRunInline(51, 0)); // past tick
        accepted.push_back(q.tryRunInline(50, 4)); // strictly below
    });
    q.runUntilKey(50, 5);
    EXPECT_EQ(accepted, (std::vector<bool>{false, false, false, true}));
    EXPECT_EQ(q.now(), 50);
    EXPECT_EQ(q.executed(), 2u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueuePeek, InlineUnderRunHorizonIncludesTheHorizonTick)
{
    EventQueue q;
    std::vector<bool> accepted;
    q.schedule(10, [&] {
        accepted.push_back(q.tryRunInline(101, 0));
        accepted.push_back(
            q.tryRunInline(100, std::numeric_limits<Priority>::max()));
    });
    q.run(100);
    EXPECT_EQ(accepted, (std::vector<bool>{false, true}));
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueuePeek, InlineBoundRestoredAfterANestedDrain)
{
    // A drain nested in a closure must hand the outer bound back.
    EventQueue q;
    bool accepted = true;
    q.schedule(10, [&] {
        q.run(); // nothing pending: returns at once
        accepted = q.tryRunInline(50, 5);
    });
    q.runUntilKey(50, 5);
    EXPECT_FALSE(accepted);
}

// ------------------------------------------------------------------
// WorkerPool.

TEST(WorkerPoolTest, RunsEveryTaskAcrossThreads)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    std::atomic<int> sum{0};
    const auto add = [&sum](std::size_t i) {
        sum += static_cast<int>(i) + 1;
    };
    pool.forEach(100, add);
    EXPECT_EQ(sum.load(), 5050);

    // The pool is reusable batch after batch.
    pool.forEach(100, add);
    EXPECT_EQ(sum.load(), 10100);
}

TEST(WorkerPoolTest, LowestFailingTaskIndexWinsDeterministically)
{
    WorkerPool pool(4);
    for (int rep = 0; rep < 10; ++rep) {
        try {
            pool.forEach(16, [](std::size_t i) {
                if (i % 3 == 2) // tasks 2, 5, 8, 11, 14 all throw
                    throw std::runtime_error(
                        "task " + std::to_string(i));
            });
            FAIL() << "expected a task exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 2");
        }
    }
}

TEST(WorkerPoolTest, SingleWorkerRunsInline)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.workers(), 1u);
    int calls = 0;
    pool.forEach(2, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 2);
    EXPECT_FALSE(pool.started());
}

TEST(WorkerPoolTest, ThreadsStartOnTheFirstMultiTaskBatch)
{
    WorkerPool pool(3);
    EXPECT_FALSE(pool.started());
    int calls = 0;
    pool.forEach(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(pool.started()); // one task runs on the caller
    std::atomic<int> multi{0};
    pool.forEach(2, [&](std::size_t) { ++multi; });
    EXPECT_EQ(multi.load(), 2);
    EXPECT_TRUE(pool.started());
}

TEST(WorkerPoolTest, ManySmallBatchesThroughTheParkWakeHandOff)
{
    // Thousands of two- and three-task batches, with pauses that let
    // the workers park between some of them: every task of every
    // batch runs exactly once, and each batch's writes are visible
    // to the caller when forEach returns.
    WorkerPool pool(3);
    std::vector<std::uint64_t> slots(3, 0);
    std::uint64_t expect = 0;
    for (std::uint64_t b = 0; b < 4000; ++b) {
        const std::size_t n = 2 + b % 2;
        pool.forEach(n, [&slots, b](std::size_t i) {
            slots[i] += b + i;
        });
        for (std::size_t i = 0; i < n; ++i)
            expect += b + i;
        if (b % 500 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::uint64_t sum = 0;
        for (std::uint64_t v : slots)
            sum += v;
        ASSERT_EQ(sum, expect) << "batch " << b;
    }
}

// ------------------------------------------------------------------
// ParallelTimeline: window ordering and the edge tripwire.

/** Drive a little global/shard event mesh and record the executed
 *  order as (queue, tag) pairs. Shards only touch their own slot,
 *  so any pool size must produce the same per-queue order and the
 *  same barrier placement relative to global events. */
std::vector<std::string>
runMesh(WorkerPool *pool)
{
    ParallelTimeline tl(2);
    std::vector<std::string> global_order;
    std::vector<std::string> shard_order[2];

    // Shard work before, between, and after the global barriers.
    for (std::uint32_t s = 0; s < 2; ++s) {
        for (Tick t : {5, 15, 25, 40}) {
            tl.shard(s).schedule(t, [&, s, t] {
                shard_order[s].push_back("s" + std::to_string(s) +
                                         "@" + std::to_string(t));
            });
        }
    }
    // Global events at t=20 and t=30; the first fans new work out
    // to both shards (the cross-shard pattern the driver uses).
    tl.global().schedule(20, [&] {
        global_order.push_back("g@20");
        for (std::uint32_t s = 0; s < 2; ++s) {
            // Same-tick fan-out must use a higher priority than the
            // global event itself (the no-collision contract).
            tl.shard(s).schedule(20, [&, s] {
                shard_order[s].push_back("s" + std::to_string(s) +
                                         "@20+");
            }, 1);
        }
    });
    tl.global().schedule(30,
                         [&] { global_order.push_back("g@30"); });

    tl.run(pool);

    std::vector<std::string> all = global_order;
    for (const auto &so : shard_order)
        all.insert(all.end(), so.begin(), so.end());
    return all;
}

TEST(ParallelTimelineTest, WindowsPreserveTheSerialOrder)
{
    const std::vector<std::string> serial = runMesh(nullptr);
    const std::vector<std::string> expect{
        "g@20",   "g@30",   "s0@5",  "s0@15", "s0@20+", "s0@25",
        "s0@40",  "s1@5",   "s1@15", "s1@20+", "s1@25", "s1@40"};
    EXPECT_EQ(serial, expect);

    WorkerPool pool(4);
    EXPECT_EQ(runMesh(&pool), serial);
}

TEST(ParallelTimelineTest, OnlyLongWindowsGoToThePool)
{
    // Three shards and global events at t=10 and t=600: the window
    // below t=10 (one event per shard) stays on the coordinator, the
    // one below t=600 (two shards with 589 events each, more than
    // the inline budget) is pooled, and so is the unbounded tail
    // after the last global event.
    const auto run = [](WorkerPool *pool, std::uint64_t &inl,
                        std::uint64_t &pooled) {
        ParallelTimeline tl(3);
        std::vector<std::vector<Tick>> seen(3);
        for (std::uint32_t s = 0; s < 3; ++s)
            tl.shard(s).schedule(1, [&, s] { seen[s].push_back(1); });
        tl.global().schedule(10, [&] {
            for (std::uint32_t s = 0; s < 2; ++s) {
                for (Tick t = 11; t < 1000; ++t)
                    tl.shard(s).schedule(t, [&, s, t] {
                        seen[s].push_back(t);
                    });
            }
        });
        tl.global().schedule(600, [&] {
            for (std::uint32_t s = 0; s < 3; ++s)
                tl.shard(s).schedule(2000, [&, s] {
                    seen[s].push_back(2000);
                });
        });
        tl.run(pool);
        inl = tl.inlineWindows();
        pooled = tl.pooledWindows();
        return seen;
    };
    std::uint64_t inl = 0, pooled = 0;
    const auto serial = run(nullptr, inl, pooled);
    EXPECT_EQ(inl, 3u);
    EXPECT_EQ(pooled, 0u);
    EXPECT_EQ(serial[0].size(), 1u + 989u + 1u);
    EXPECT_EQ(serial[2], (std::vector<Tick>{1, 2000}));

    WorkerPool pool(2);
    EXPECT_EQ(run(&pool, inl, pooled), serial);
    EXPECT_EQ(inl, 1u);
    EXPECT_EQ(pooled, 2u);
    EXPECT_TRUE(pool.started());

    // A pool whose windows all stay inline never starts a thread.
    WorkerPool idle(2);
    ParallelTimeline tl(2);
    tl.shard(0).schedule(1, [] {});
    tl.shard(1).schedule(1, [] {});
    tl.global().schedule(5, [] {});
    tl.run(&idle);
    EXPECT_EQ(tl.inlineWindows(), 1u);
    EXPECT_FALSE(idle.started());
}

TEST(ParallelTimelineTest, ShardInlineStopsBelowTheNextGlobalEvent)
{
    // The shard window is bounded by the next global event's key, so
    // a shard event can run a follow-up inline only strictly below
    // it; a follow-up at or past the key must wait for the barrier.
    ParallelTimeline tl(2);
    std::vector<bool> accepted;
    tl.shard(0).schedule(10, [&] {
        EventQueue &q = tl.shard(0);
        accepted.push_back(q.tryRunInline(50, 1));  // == global key
        accepted.push_back(q.tryRunInline(50, 10)); // after it
        accepted.push_back(q.tryRunInline(50, 0));  // before it
    });
    Tick global_saw = 0;
    tl.global().schedule(50, [&] { global_saw = tl.shard(0).now(); }, 1);
    tl.run(nullptr);
    EXPECT_EQ(accepted, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(global_saw, 50);
}

TEST(ParallelTimelineTest, CommittedTickTracksTheGlobalClock)
{
    ParallelTimeline tl(1);
    EXPECT_EQ(tl.committedTick(), 0);
    Tick seen = ~Tick{0};
    tl.global().schedule(42, [&] { seen = tl.committedTick(); });
    tl.run(nullptr);
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(tl.committedTick(), 42);
}

TEST(ParallelTimelineTest, EventBelowTheCommittedEdgePanics)
{
    // A global event at t=50 schedules shard work at t=10 - into
    // the already-committed past. The next window must trip the
    // edge check loudly instead of executing it out of order.
    ParallelTimeline tl(2);
    tl.global().schedule(50, [&] {
        tl.shard(1).schedule(10, [] {});
    });
    tl.global().schedule(60, [] {});
    EXPECT_THROW(tl.run(nullptr), PanicError);
}

TEST(ParallelTimelineTest, SameKeyAsTheEdgeDoesNotPanic)
{
    // Exactly at the committed edge (same tick, higher priority) is
    // legal: that is where same-tick fan-out from a global event
    // lands by contract.
    ParallelTimeline tl(1);
    bool ran = false;
    tl.global().schedule(50, [&] {
        tl.shard(0).schedule(50, [&] { ran = true; }, 1);
    });
    tl.global().schedule(60, [] {});
    tl.run(nullptr);
    EXPECT_TRUE(ran);
}

} // namespace
