/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 *
 * Besides the interface contract, this file proves EventQueue
 * equivalent to the original std::function binary-heap implementation
 * (kept as LegacyEventQueue): a lockstep fuzz over randomized
 * schedules asserts identical execution order, tie-breaks are probed
 * at near, far and re-entrant ticks, and fixed-seed serving/DRAM runs
 * are pinned to the metrics recorded before the queue swap.
 *
 * The tick offsets are drawn from a fixed geometry, kWidth and kSpan
 * (128 and 8192 * 128 ticks): short, medium and far-future gaps that
 * every ordering case keeps exercising.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "dram/controller.hh"
#include "llm/trace.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace papi::sim;

/** A short tick gap; offsets straddle its multiples. */
constexpr Tick kWidth = 128;
/** A far-future tick gap: 8192 short gaps. */
constexpr Tick kSpan = kWidth * 8192;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ExecutesEventAtScheduledTick)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(1); }, defaultPriority);
    eq.schedule(50, [&] { order.push_back(2); }, defaultPriority);
    eq.schedule(50, [&] { order.push_back(0); }, -5);
    eq.schedule(50, [&] { order.push_back(3); }, statsPriority);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, NullEventPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(10, std::function<void()>{}), PanicError);
}

TEST(EventQueue, ReentrantScheduling)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, HorizonStopsExecution)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ExecutedCounterAdvances)
{
    EventQueue eq;
    for (Tick t = 1; t <= 7; ++t)
        eq.schedule(t, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

// ---------------------------------------------------------------------
// Ordering across near, far and re-entrant ticks
// ---------------------------------------------------------------------

TEST(EventQueue, BucketBoundaryTicksStayOrdered)
{
    EventQueue eq;
    const Tick w = kWidth;
    std::vector<Tick> order;
    // Straddle the first few multiples of w, scheduled shuffled.
    std::vector<Tick> ticks = {w,     w - 1, 2 * w + 1, 0,
                               w + 1, 2 * w, 2 * w - 1, 1};
    for (Tick t : ticks)
        eq.schedule(t, [t, &order] { order.push_back(t); });
    eq.run();
    std::vector<Tick> sorted = ticks;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(order, sorted);
}

TEST(EventQueue, SameTickAcrossBucketBoundaryUsesInsertionOrder)
{
    EventQueue eq;
    const Tick w = kWidth;
    std::vector<int> order;
    // Same tick scheduled before and while it is being dispatched:
    // the re-entrant schedules must still run after the first.
    eq.schedule(w, [&] {
        order.push_back(0);
        eq.schedule(w, [&] { order.push_back(2); });
        eq.schedule(w, [&] { order.push_back(3); }, -10);
    });
    eq.schedule(w, [&] { order.push_back(1); });
    eq.run();
    // Priority -10 beats the earlier-inserted default-priority event.
    EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(EventQueue, FarFutureEventsGoThroughOverflow)
{
    EventQueue eq;
    const Tick span = kSpan;
    std::vector<int> order;
    eq.schedule(10 * span, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(0); });
    eq.schedule(span + 3, [&] { order.push_back(1); });
    eq.schedule(20 * span, [&] { order.push_back(3); });
    EXPECT_EQ(eq.pending(), 4u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 20 * span);
}

TEST(EventQueue, OverflowRefillPreservesTieBreaks)
{
    EventQueue eq;
    const Tick span = kSpan;
    const Tick far = 3 * span + 17;
    std::vector<int> order;
    // Two same-tick far-future events, then (after time advanced) a
    // third at the same tick; seq order must hold.
    eq.schedule(far, [&] { order.push_back(0); });
    eq.schedule(far, [&] { order.push_back(1); });
    eq.schedule(1, [&] {
        // Runs first, moving now() past every other pending gap.
    });
    eq.step();
    eq.schedule(far, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, PeekFromTheLastEventOfADrainRunKeepsItAlive)
{
    // Every closure peeks while it executes, with a heap-allocated
    // string capture: a peek that reorganised queue storage to find
    // the head would destroy the running closure (heap-use-after-free
    // under ASan). The peek must read the head without mutating the
    // queue, and from the last event it must report an empty queue.
    EventQueue eq;
    std::vector<std::string> seen;
    for (Tick t = 1000; t <= 5000; t += 1000) {
        const std::string tag =
            "event-" + std::to_string(t) + "-with-a-heap-capture";
        eq.schedule(t, [&eq, &seen, tag] {
            Tick when = 0;
            Priority prio = 0;
            const bool more = eq.peekNextKey(when, prio);
            seen.push_back(tag + (more ? ">" + std::to_string(when)
                                       : ">none"));
        });
    }
    eq.run();
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "event-1000-with-a-heap-capture>2000",
                        "event-2000-with-a-heap-capture>3000",
                        "event-3000-with-a-heap-capture>4000",
                        "event-4000-with-a-heap-capture>5000",
                        "event-5000-with-a-heap-capture>none",
                    }));
}

// ---------------------------------------------------------------------
// tryRunInline: run an event in place when it is provably next
// ---------------------------------------------------------------------

TEST(EventQueueInline, RefusedOutsideADrain)
{
    EventQueue eq;
    EXPECT_FALSE(eq.tryRunInline(5, 0));
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueueInline, RefusedUnderStepAcceptedUnderRun)
{
    EventQueue eq;
    std::vector<bool> accepted;
    auto probe = [&] {
        accepted.push_back(eq.tryRunInline(eq.now() + 10, 0));
    };
    eq.schedule(10, probe);
    eq.step(); // a top-level step: no drain at all
    eq.schedule(30, [&] {
        eq.step(); // a stepped event stays refused inside a drain
        probe();   // the drain's own event is accepted
    });
    eq.schedule(35, probe);
    eq.run();
    EXPECT_EQ(accepted, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(eq.now(), 45u);
    EXPECT_EQ(eq.executed(), 4u);
}

TEST(EventQueueInline, RefusedInThePast)
{
    EventQueue eq;
    bool accepted = true;
    eq.schedule(10, [&] { accepted = eq.tryRunInline(9, 0); });
    eq.run();
    EXPECT_FALSE(accepted);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueueInline, AcceptanceAdvancesClockAndCountOnly)
{
    EventQueue eq;
    std::vector<Tick> ran_at;
    eq.schedule(10, [&] {
        ran_at.push_back(eq.now());
        const std::size_t pending = eq.pending();
        ASSERT_TRUE(eq.tryRunInline(50, 3));
        EXPECT_EQ(eq.now(), 50u);
        EXPECT_EQ(eq.executed(), 2u);
        EXPECT_EQ(eq.pending(), pending);
        ran_at.push_back(eq.now());
    });
    eq.schedule(100, [&] { ran_at.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(ran_at, (std::vector<Tick>{10, 50, 100}));
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueInline, ExactTieWithAPendingEventIsRefused)
{
    // The pending event at (100, 0) holds the lower sequence number:
    // an inline event with the same key would run ahead of it.
    EventQueue eq;
    std::vector<bool> accepted;
    eq.schedule(10, [&] {
        accepted.push_back(eq.tryRunInline(100, 0)); // tie
        accepted.push_back(eq.tryRunInline(100, 1)); // after
        accepted.push_back(eq.tryRunInline(100, -1)); // before
    });
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_EQ(accepted, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueInline, EarlierEventInTheRunBufferBlocks)
{
    // 20 is pending and close behind the running event at 10.
    EventQueue eq;
    std::vector<bool> accepted;
    eq.schedule(10, [&] {
        accepted.push_back(eq.tryRunInline(30, 0));
        accepted.push_back(eq.tryRunInline(15, 0));
    });
    eq.schedule(20, [] {});
    eq.run();
    EXPECT_EQ(accepted, (std::vector<bool>{false, true}));
}

TEST(EventQueueInline, EarlierEventInACalendarBucketBlocks)
{
    // Scheduled from inside the drain, later first: the head is the
    // earlier of the two, not the last one scheduled.
    EventQueue eq;
    const Tick w = kWidth;
    std::vector<bool> accepted;
    eq.schedule(10, [&] {
        eq.schedule(5 * w + 9, [] {});
        eq.schedule(5 * w + 3, [] {});
        accepted.push_back(eq.tryRunInline(6 * w, 0));
        accepted.push_back(eq.tryRunInline(5 * w + 5, 0));
        accepted.push_back(eq.tryRunInline(5 * w + 2, 0));
    });
    eq.run();
    EXPECT_EQ(accepted, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(eq.executed(), 4u);
}

TEST(EventQueueInline, EarlierEventInTheOverflowHeapBlocks)
{
    EventQueue eq;
    const Tick span = kSpan;
    std::vector<bool> accepted;
    eq.schedule(10, [&] {
        eq.schedule(3 * span, [] {});
        accepted.push_back(eq.tryRunInline(4 * span, 0));
        accepted.push_back(eq.tryRunInline(3 * span, 0));
        accepted.push_back(eq.tryRunInline(2 * span, 0));
    });
    eq.run();
    EXPECT_EQ(accepted, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(eq.now(), 3 * span);
}

/**
 * Re-entrant chains whose every follow-up runs inline when
 * tryRunInline accepts it and is scheduled otherwise, drained through
 * bounded windows, a horizon, and a final run(). Logs (id, now) per
 * executed body plus the final executed() count.
 */
std::vector<std::uint64_t>
runFollowUpScenario(std::uint64_t seed, bool try_inline,
                    std::uint64_t &inlined)
{
    Rng rng(seed);
    EventQueue q;
    std::vector<std::uint64_t> log;
    std::uint64_t next_id = 0;
    const Tick w = kWidth;
    const Tick span = kSpan;

    std::function<void(std::uint64_t, int)> body =
        [&](std::uint64_t id, int depth) {
            for (;;) {
                log.push_back(id);
                log.push_back(q.now());
                if (depth == 0)
                    return;
                const Tick offsets[] = {0, 1, w / 2, w, 3 * w,
                                        span + 11};
                const Tick when = q.now() + offsets[rng.uniformInt(0, 5)];
                const auto prio =
                    static_cast<Priority>(rng.uniformInt(-2, 2));
                id = next_id++;
                --depth;
                if (try_inline && q.tryRunInline(when, prio)) {
                    ++inlined;
                    continue;
                }
                q.schedule(when, [&body, id, depth] { body(id, depth); },
                           prio);
                return;
            }
        };

    for (int i = 0; i < 300; ++i) {
        const Tick when = static_cast<Tick>(rng.uniformInt(0, 4 * span));
        const auto prio = static_cast<Priority>(rng.uniformInt(-3, 3));
        const std::uint64_t id = next_id++;
        const int depth = static_cast<int>(rng.uniformInt(0, 6));
        q.schedule(when, [&body, id, depth] { body(id, depth); }, prio);
    }
    for (int k = 1; k <= 6; ++k)
        q.runUntilKey(static_cast<Tick>(k) * span / 2,
                      static_cast<Priority>(k % 5 - 2));
    q.run(4 * span);
    q.run();
    log.push_back(q.executed());
    return log;
}

class InlineEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(InlineEquivalence, InlineFollowUpsKeepTheScheduledOrder)
{
    std::uint64_t inlined = 0, none = 0;
    const auto inline_log = runFollowUpScenario(GetParam(), true, inlined);
    const auto scheduled_log =
        runFollowUpScenario(GetParam(), false, none);
    EXPECT_GT(inlined, 0u);
    EXPECT_EQ(none, 0u);
    EXPECT_EQ(inline_log, scheduled_log);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InlineEquivalence,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u,
                                           12345u));

// ---------------------------------------------------------------------
// Determinism: EventQueue vs the original std::function binary heap
// ---------------------------------------------------------------------

/** Drive a randomized, partly re-entrant schedule; log execution. */
template <typename Queue>
std::vector<std::uint64_t>
runLockstepScenario(std::uint64_t seed)
{
    Rng rng(seed);
    Queue q;
    std::vector<std::uint64_t> log;
    std::uint64_t next_id = 0;

    const Tick w = kWidth;
    const Tick span = kSpan;

    std::function<void(int)> chain = [&](int depth) {
        log.push_back(q.now());
        if (depth > 0) {
            // Re-entrant: same tick, a short gap, a few short gaps,
            // or far future, with varying priorities.
            Tick offsets[] = {0, 1, w / 2, w, 3 * w, span + 11};
            Tick off = offsets[rng.uniformInt(0, 5)];
            Priority prio =
                static_cast<Priority>(rng.uniformInt(-2, 2));
            std::uint64_t id = next_id++;
            q.schedule(q.now() + off,
                       [&, id, depth] {
                           log.push_back(id);
                           chain(depth - 1);
                       },
                       prio);
        }
    };

    // Seed the queue with a randomized batch.
    for (int i = 0; i < 200; ++i) {
        Tick when = static_cast<Tick>(rng.uniformInt(0, 4 * span));
        Priority prio =
            static_cast<Priority>(rng.uniformInt(-3, 3));
        std::uint64_t id = next_id++;
        int depth = static_cast<int>(rng.uniformInt(0, 3));
        q.schedule(when,
                   [&, id, depth] {
                       log.push_back(id);
                       chain(depth);
                   },
                   prio);
    }
    q.run();
    return log;
}

class QueueEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QueueEquivalence, LockstepExecutionOrderMatchesLegacy)
{
    auto production = runLockstepScenario<EventQueue>(GetParam());
    auto legacy = runLockstepScenario<LegacyEventQueue>(GetParam());
    ASSERT_EQ(production.size(), legacy.size());
    EXPECT_EQ(production, legacy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueEquivalence,
                         ::testing::Values(1u, 7u, 42u, 1234u,
                                           987654321u));

// ---------------------------------------------------------------------
// Regression pins: fixed-seed runs recorded before the queue swap
// ---------------------------------------------------------------------

/**
 * The golden metrics below were recorded on this repository's
 * pre-change simulator (binary-heap EventQueue, polling controller)
 * and must survive every perf refactor bit-for-bit: the perf work is
 * only legal if simulation results are unchanged.
 */
TEST(DeterminismRegression, FixedSeedServingRunMetricsPinned)
{
    papi::core::Platform papi_sys(papi::core::makePapiConfig());
    papi::llm::ModelConfig model = papi::llm::llama65b();
    papi::llm::TraceGenerator gen(
        papi::llm::TraceCategory::CreativeWriting, 42);
    auto reqs = gen.generate(24);
    std::vector<papi::llm::TimedRequest> stream;
    double t = 0.0;
    for (auto &r : reqs) {
        papi::llm::TimedRequest tr;
        tr.request = r;
        tr.arrivalSeconds = t;
        t += 0.05;
        stream.push_back(tr);
    }
    papi::llm::SpeculativeConfig spec;
    spec.length = 4;
    papi::core::ServingOptions opt;
    opt.maxRlp = 16;
    opt.alpha = 24.0;
    opt.seed = 7;
    const auto check = [](const papi::core::ServingResult &sr) {
        EXPECT_NEAR(sr.makespanSeconds, 4.0089930501254738, 1e-9);
        EXPECT_NEAR(sr.energyJoules, 6589.4000538320388, 1e-5);
        EXPECT_EQ(sr.iterations, 277u);
        EXPECT_EQ(sr.tokensGenerated, 9946u);
        EXPECT_EQ(sr.admissions, 24u);
        EXPECT_EQ(sr.reschedules, 2u);
        EXPECT_EQ(sr.fcOnGpuIterations, 170u);
        EXPECT_EQ(sr.fcOnPimIterations, 107u);
        EXPECT_NEAR(sr.meanLatencySeconds, 1.876133530941029, 1e-9);
        EXPECT_NEAR(sr.p95LatencySeconds, 3.1589930501254737, 1e-9);
        EXPECT_NEAR(sr.meanRlp, 9.7438826274548873, 1e-9);
        EXPECT_NEAR(sr.peakKvUtilization, 0.023553382233088834,
                    1e-12);
    };
    papi::core::ServingEngine serving(papi_sys);
    check(serving.run(stream, spec, model, opt));

    // The same stream on a 1-replica cluster runs the lifecycle as
    // sim::EventQueue events; the pins hold there too.
    papi::cluster::ClusterOptions copt;
    copt.numPlatforms = 1;
    copt.serving = opt;
    papi::cluster::ClusterResult cr =
        papi::cluster::ClusterEngine(papi::core::makePapiConfig(), copt)
            .run(stream, spec, model);
    ASSERT_EQ(cr.perGroup.size(), 1u);
    check(cr.perGroup[0]);
}

TEST(DeterminismRegression, FixedSeedDramRunCompletionsPinned)
{
    // Completion-tick hash chain over a mixed read/write stream: any
    // change to command scheduling or timing shows up here.
    EventQueue eq;
    papi::dram::MemController ctrl(
        eq, papi::dram::hbm3Spec(),
        papi::dram::SchedulingPolicy::FrFcfs,
        papi::dram::MappingPolicy::RoCoBaBg, /*queue_depth=*/0);
    ctrl.setRefreshEnabled(false);
    std::uint64_t checksum = 0;
    std::uint64_t n_done = 0;
    for (int i = 0; i < 512; ++i) {
        papi::dram::MemRequest r;
        r.addr = static_cast<std::uint64_t>(i) * 4096 + (i % 7) * 32;
        r.isWrite = (i % 5 == 0);
        r.onComplete = [&](Tick tick) {
            checksum = checksum * 1000003ULL + tick;
            ++n_done;
        };
        ASSERT_TRUE(ctrl.enqueue(std::move(r)));
    }
    eq.run();
    EXPECT_EQ(n_done, 512u);
    EXPECT_EQ(checksum, 11098326732074103880ULL);
    EXPECT_EQ(eq.now(), 14647008u);
}

TEST(Clocked, PeriodConversionRoundTrip)
{
    Clocked c(periodFromMhz(666.0));
    EXPECT_EQ(c.clockPeriod(), 1502u); // 1/666 MHz in ps, rounded
    EXPECT_EQ(c.cyclesToTicks(10), 15020u);
    EXPECT_EQ(c.ticksToCycles(15020), 10u);
    EXPECT_EQ(c.ticksToCycles(15021), 11u); // rounds up
}

TEST(Clocked, NextCycleEdge)
{
    Clocked c(1000);
    EXPECT_EQ(c.nextCycleEdge(0), 0u);
    EXPECT_EQ(c.nextCycleEdge(1), 1000u);
    EXPECT_EQ(c.nextCycleEdge(1000), 1000u);
    EXPECT_EQ(c.nextCycleEdge(1001), 2000u);
}

TEST(Clocked, ZeroPeriodIsFatal)
{
    EXPECT_THROW(Clocked c(0), FatalError);
}

TEST(Clocked, FrequencyHz)
{
    Clocked c(oneNs); // 1 ns period = 1 GHz
    EXPECT_NEAR(c.frequencyHz(), 1e9, 1e3);
}

} // namespace
