/**
 * @file
 * Unit tests for the conservative parallel window scheduler:
 * EventQueue key peeking and bounded draining, WorkerPool batch
 * execution and deterministic exception selection, ParallelTimeline
 * window ordering against a recorded serial schedule, and the
 * committed-window-edge tripwire (an event scheduled into the
 * committed past must panic, never silently reorder).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
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
    std::vector<std::function<void()>> tasks;
    for (int i = 1; i <= 100; ++i)
        tasks.push_back([&sum, i] { sum += i; });
    pool.runTasks(tasks);
    EXPECT_EQ(sum.load(), 5050);

    // The pool is reusable batch after batch.
    pool.runTasks(tasks);
    EXPECT_EQ(sum.load(), 10100);
}

TEST(WorkerPoolTest, LowestFailingTaskIndexWinsDeterministically)
{
    WorkerPool pool(4);
    for (int rep = 0; rep < 10; ++rep) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 16; ++i)
            tasks.push_back([i] {
                if (i % 3 == 2) // tasks 2, 5, 8, 11, 14 all throw
                    throw std::runtime_error(
                        "task " + std::to_string(i));
            });
        try {
            pool.runTasks(tasks);
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
    std::vector<std::function<void()>> tasks{[&] { ++calls; },
                                             [&] { ++calls; }};
    pool.runTasks(tasks);
    EXPECT_EQ(calls, 2);
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
