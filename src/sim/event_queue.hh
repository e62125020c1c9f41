/**
 * @file
 * A discrete-event simulation kernel.
 *
 * Events are closures scheduled at absolute ticks. Ties are broken by
 * (priority, insertion order) so simulations are fully deterministic.
 * The queue is the single source of simulated time for a simulation
 * instance; devices never keep their own notion of "now".
 *
 * EventQueue is the production implementation: an allocation-free
 * two-level calendar queue (near-future ticks live in fixed-width
 * buckets, far-future events in a binary-heap overflow) holding
 * small-buffer-optimized callbacks (sim::EventCallback). It preserves
 * the exact (tick, priority, seq) total order of the original
 * binary-heap design, which is kept verbatim as LegacyEventQueue so
 * benchmarks can compare both in one run and tests can assert
 * execution-order equivalence.
 */

#ifndef PAPI_SIM_EVENT_QUEUE_HH
#define PAPI_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "sim/event_callback.hh"
#include "sim/types.hh"

namespace papi::sim {

/** Scheduling priority; lower values run first within a tick. */
using Priority = std::int32_t;

/** Default priority for ordinary device events. */
constexpr Priority defaultPriority = 0;
/** Priority for stats/bookkeeping events that run after device events. */
constexpr Priority statsPriority = 1000;

/**
 * Deterministic discrete-event queue.
 *
 * The queue owns simulated time. run() drains events until the queue is
 * empty or a simulation horizon is reached; step() executes exactly one
 * event. Events scheduled in the past cause a panic since that always
 * indicates a simulator bug.
 *
 * Internally a two-level calendar queue: ticks within
 * [windowStart, windowStart + numBuckets * bucketWidth) hash into
 * fixed-width buckets (appended unsorted, sorted once when the bucket
 * becomes current), later ticks sit in a min-heap overflow that is
 * drained into the window as it advances. All paths are allocation-free
 * in steady state: bucket vectors and the run buffer retain their
 * capacity, and callbacks with captures <= EventCallback::inlineCapacity
 * bytes never touch the heap.
 */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick now() const { return _now; }

    /** Number of events pending execution. */
    std::size_t pending() const { return _size; }

    /** True if no events are pending. */
    bool empty() const { return _size == 0; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Schedule a closure to run at an absolute tick.
     *
     * Inlined so the closure is type-erased directly into queue
     * storage - the hot path constructs exactly one EventCallback,
     * in place, with no intermediate moves.
     *
     * @param when Absolute tick; must be >= now().
     * @param fn Closure to run.
     * @param prio Tie-break priority (lower runs first).
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn, Priority prio = defaultPriority)
    {
        if (when < _now)
            pastPanic(when);
        if constexpr (std::is_constructible_v<
                          bool, const std::decay_t<F> &>) {
            if (!static_cast<bool>(fn))
                nullPanic(when);
        }

        const std::uint64_t seq = _nextSeq++;
        if (when > curBucketEnd() && when <= windowEnd()) {
            const std::size_t idx =
                static_cast<std::size_t>(when >> kShift) & kMask;
            _buckets[idx].emplace_back(when, prio, seq,
                                       std::forward<F>(fn));
            setOccupied(idx);
            ++_inWindow;
        } else if (when <= curBucketEnd()) {
            insertIntoRun(when, prio, seq,
                          EventCallback(std::forward<F>(fn)));
        } else {
            pushOverflow(when, prio, seq,
                         EventCallback(std::forward<F>(fn)));
        }
        ++_size;
    }

    /** Schedule a closure to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn, Priority prio = defaultPriority)
    {
        schedule(_now + delta, std::forward<F>(fn), prio);
    }

    /**
     * Execute the single earliest pending event.
     * @retval true an event was executed.
     * @retval false the queue was empty.
     */
    bool step();

    /**
     * Run until the queue is empty or simulated time would exceed
     * @p horizon.
     *
     * @param horizon Last tick (inclusive) at which events may run.
     * @return The tick of the last executed event, or now() if none ran.
     */
    Tick run(Tick horizon = maxTick);

    /**
     * Read the (tick, priority) key of the earliest pending event
     * without executing it: the run buffer's back, else the minimum
     * of the next occupied bucket, else the overflow heap's top.
     * Never mutates the queue, so it is safe from inside an executing
     * closure (locating the head by draining the next calendar bucket
     * would destroy the run the closure itself lives in).
     *
     * @retval true @p when / @p prio hold the head event's key.
     * @retval false the queue is empty (outputs untouched).
     */
    bool peekNextKey(Tick &when, Priority &prio) const;

    /**
     * Run every event whose (tick, priority) key is strictly below
     * (@p when, @p prio); the first event at or past the bound stays
     * queued. This is the conservative-window primitive of
     * sim::ParallelTimeline: a shard advances to (but never into)
     * the next cross-shard event's key. now() is left at the last
     * executed event, so later schedules between now() and the bound
     * remain legal.
     */
    void runUntilKey(Tick when, Priority prio);

    /**
     * Execute an event at (@p when, @p prio) in place instead of
     * scheduling it: the calling closure runs the event's body itself
     * right after this returns true. Accepted only when the event is
     * provably the next one this queue would execute:
     *
     *  - the call comes from a closure inside a run() / runUntilKey()
     *    drain (never under step(), which has no bound to check);
     *  - @p when >= now();
     *  - (@p when, @p prio) is strictly below the drain bound (for
     *    run(horizon): @p when <= horizon);
     *  - (@p when, @p prio) is strictly below the key of every pending
     *    event - strictly, because on a tie the pending event holds
     *    the lower sequence number and must run first.
     *
     * On acceptance now() becomes @p when and executed() counts the
     * event, exactly as if it had been scheduled and dispatched; no
     * sequence number is consumed, which keeps the relative order of
     * every other event. The queue itself is never mutated.
     *
     * @retval true the caller must run the event now.
     * @retval false schedule it instead (queue state untouched).
     */
    bool tryRunInline(Tick when, Priority prio);

    /** Drop all pending events without executing them. */
    void clear();

    /** Calendar geometry (exposed for boundary-case tests). */
    static constexpr Tick bucketWidth() { return Tick(1) << kShift; }
    static constexpr std::size_t numBuckets() { return kBuckets; }

  private:
    /** log2 of the tick range covered by one bucket. */
    static constexpr unsigned kShift = 7;
    /** Buckets in the calendar window (power of two). */
    static constexpr std::size_t kBuckets = 8192;
    static constexpr std::size_t kMask = kBuckets - 1;
    static constexpr Tick kSpan = Tick(kBuckets) << kShift;
    /** Up to this many buckets are batched into one drain run. */
    static constexpr std::size_t kMaxStores = 4;
    /** Stop batching once a drain run holds this many events. */
    static constexpr std::size_t kBatchTarget = 8;

    struct Entry
    {
        Tick when;
        Priority prio;
        std::uint64_t seq; // insertion order for determinism
        EventCallback fn;
    };

    /**
     * Sort key for the current drain run: ordering fields plus the
     * entry's location packed as (store index << 20) | entry index.
     * Sorting 24-byte keys instead of 80-byte entries keeps the
     * per-run sort cheap. The high bit selects the spill store.
     */
    struct RunKey
    {
        Tick when;
        Priority prio;
        std::uint32_t idx;
        std::uint64_t seq;
    };

    /** Drain-bound priority of run(horizon): above every Priority,
     *  so the whole horizon tick is inside the bound. */
    static constexpr std::int64_t kAfterAnyPriority =
        std::int64_t(std::numeric_limits<Priority>::max()) + 1;

    static constexpr std::uint32_t kExtraFlag = 0x80000000u;
    static constexpr unsigned kStoreShift = 20;
    static constexpr std::uint32_t kEntryMask =
        (1u << kStoreShift) - 1;

    /** Strict (when, prio, seq) "runs later" order. */
    static bool
    laterThan(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.seq > b.seq;
    }

    static bool
    keyLater(const RunKey &a, const RunKey &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.seq > b.seq;
    }

    /** Inclusive last tick of the current bucket. */
    Tick
    curBucketEnd() const
    {
        constexpr Tick w = Tick(1) << kShift;
        return _windowStart > maxTick - w ? maxTick
                                          : _windowStart + w - 1;
    }

    /** Inclusive last tick covered by the calendar window. */
    Tick
    windowEnd() const
    {
        return _windowStart > maxTick - kSpan
                   ? maxTick
                   : _windowStart + kSpan - 1;
    }

    void insertIntoRun(Tick when, Priority prio, std::uint64_t seq,
                       EventCallback &&fn);
    void pushOverflow(Tick when, Priority prio, std::uint64_t seq,
                      EventCallback &&fn);
    void dispatch(const RunKey &key);
    void refillFromOverflow();
    /** Run every event strictly below (@p when, @p prio). */
    void drain(Tick when, std::int64_t prio);

    [[noreturn]] void pastPanic(Tick when) const;
    [[noreturn]] void nullPanic(Tick when) const;
    /** Make _run hold the next bucket's entries (requires _size > 0). */
    void advanceToNextBucket();
    /** Ensure _run.back() is the next event (requires _size > 0). */
    void prepareNext();

    void setOccupied(std::size_t idx);
    void clearOccupied(std::size_t idx);
    /** Circular distance from _curIdx to the next occupied bucket. */
    std::size_t nextOccupiedDistance() const;

    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::size_t _size = 0;

    /**
     * The current drain run: up to kMaxStores bucket vectors swapped
     * in whole (no per-entry moves). The stores are frozen while the
     * run executes (so closures can run in place without reallocation
     * moving the ground under them); re-entrant schedules landing in
     * the run's tick range append to the _runExtra spill store.
     */
    std::vector<Entry> _runStores[kMaxStores];
    std::size_t _numStores = 0;
    std::vector<Entry> _runExtra;
    /** Execution order over all stores, earliest key at the back. */
    std::vector<RunKey> _runOrder;

    std::vector<std::vector<Entry>> _buckets;
    std::uint64_t _occupancy[kBuckets / 64] = {};
    std::size_t _inWindow = 0; ///< Entries in _buckets (not _run).

    std::size_t _curIdx = 0;
    Tick _windowStart = 0; ///< Tick at which bucket _curIdx starts.

    /** Min-heap (via std::push_heap on laterThan) of far-future events. */
    std::vector<Entry> _overflow;

    /** True while an event closure is executing (see clear()). */
    bool _dispatching = false;
    /** True while a drain() dispatches (see tryRunInline()); its
     *  exclusive bound is (_drainWhen, _drainPrio). */
    bool _draining = false;
    Tick _drainWhen = 0;
    std::int64_t _drainPrio = 0;
    /** Buffers parked by a re-entrant clear() until dispatch ends. */
    std::vector<std::vector<Entry>> _retired;
};

/**
 * The original binary-heap implementation (std::function closures in
 * a std::priority_queue). Retained as the reference implementation:
 * bench/microbench_simulator.cc measures it against EventQueue in the
 * same process, and tests/sim_event_queue_test.cc runs both in
 * lockstep to prove the calendar queue preserves execution order.
 */
class LegacyEventQueue
{
  public:
    LegacyEventQueue() = default;

    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    Tick now() const { return _now; }
    std::size_t pending() const { return _events.size(); }
    bool empty() const { return _events.empty(); }
    std::uint64_t executed() const { return _executed; }

    void schedule(Tick when, std::function<void()> fn,
                  Priority prio = defaultPriority);

    void
    scheduleAfter(Tick delta, std::function<void()> fn,
                  Priority prio = defaultPriority)
    {
        schedule(_now + delta, std::move(fn), prio);
    }

    bool step();
    Tick run(Tick horizon = maxTick);
    void clear();

  private:
    struct Entry
    {
        Tick when;
        Priority prio;
        std::uint64_t seq; // insertion order for determinism
        std::function<void()> fn;
    };

    struct EntryCompare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::priority_queue<Entry, std::vector<Entry>, EntryCompare> _events;
};

} // namespace papi::sim

#endif // PAPI_SIM_EVENT_QUEUE_HH
