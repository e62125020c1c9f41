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
 * binary heap of small keys over a slab of small-buffer-optimized
 * callbacks (sim::EventCallback). It keeps the exact (tick, priority,
 * seq) total order of the original std::function binary-heap design,
 * which is kept verbatim as LegacyEventQueue, a reference for tests
 * only: they assert execution-order equivalence against it.
 */

#ifndef PAPI_SIM_EVENT_QUEUE_HH
#define PAPI_SIM_EVENT_QUEUE_HH

#include <algorithm>
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
 * Internally one binary min-heap of 24-byte (tick, priority, slot, seq)
 * keys over a slab of callbacks. A key names its callback by slab
 * slot; freed slots are recycled through a free list. Dispatch moves
 * the head's callback out of the slab into a local and frees its slot
 * before running it, so a closure may schedule (and grow the slab)
 * freely. All paths are allocation-free in steady state: the heap,
 * slab and free list retain their capacity, and callbacks with
 * captures <= EventCallback::inlineCapacity bytes never touch the
 * heap.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick now() const { return _now; }

    /** Number of events pending execution. */
    std::size_t pending() const { return _heap.size(); }

    /** True if no events are pending. */
    bool empty() const { return _heap.empty(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Schedule a closure to run at an absolute tick.
     *
     * Inlined so the closure is type-erased straight into the
     * callback slab: a fresh slot constructs the EventCallback in
     * place, a recycled slot takes it by one move.
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

        auto slot = static_cast<std::uint32_t>(_slots.size());
        if (_free.empty()) {
            _slots.emplace_back(std::forward<F>(fn));
        } else {
            slot = _free.back();
            _free.pop_back();
            _slots[slot] = EventCallback(std::forward<F>(fn));
        }
        _heap.push_back(Key{when, prio, slot, _nextSeq++});
        std::push_heap(_heap.begin(), _heap.end(), laterThan);
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
     * without executing it: the heap's front. Never mutates the
     * queue, so it is safe from inside an executing closure.
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
     *
     * @p budget caps the events this call executes, counted like
     * executed(): once it is spent, tryRunInline() refuses, so an
     * event that would have run its successor inline schedules it
     * instead, and the call returns before the next dispatch. The
     * executed order is unchanged, and a later call with the same
     * bound continues exactly where this one stopped.
     *
     * @retval true the budget ran out with events still below the
     *         bound.
     * @retval false every event below the bound has run.
     */
    bool runUntilKey(Tick when, Priority prio,
                     std::uint64_t budget = ~std::uint64_t{0});

    /**
     * Execute an event at (@p when, @p prio) in place instead of
     * scheduling it: the calling closure runs the event's body itself
     * right after this returns true. Accepted only when the event is
     * provably the next one this queue would execute:
     *
     *  - the call comes from a closure inside a run() / runUntilKey()
     *    drain (never under step(), which has no bound to check)
     *    whose event budget is not yet spent;
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

  private:
    /** Heap key: the ordering fields plus the callback's slab slot. */
    struct Key
    {
        Tick when;
        Priority prio;
        std::uint32_t slot;
        std::uint64_t seq; // insertion order for determinism
    };

    /** Drain-bound priority of run(horizon): above every Priority,
     *  so the whole horizon tick is inside the bound. */
    static constexpr std::int64_t kAfterAnyPriority =
        std::int64_t(std::numeric_limits<Priority>::max()) + 1;

    /** Strict (when, prio, seq) "runs later" order; with
     *  std::push_heap it keeps the earliest key at the front. */
    static bool
    laterThan(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.seq > b.seq;
    }

    /** Pop the head, advance time and run it (requires !empty()). */
    void dispatchHead();
    /** Run events strictly below (@p when, @p prio), at most
     *  @p budget of them; true if the budget stopped the run. */
    bool drain(Tick when, std::int64_t prio, std::uint64_t budget);

    [[noreturn]] void pastPanic(Tick when) const;
    [[noreturn]] void nullPanic(Tick when) const;

    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;

    /** Min-heap (via std::push_heap on laterThan) of pending keys. */
    std::vector<Key> _heap;
    /** Callback slab indexed by Key::slot; free slots hold null. */
    std::vector<EventCallback> _slots;
    /** Free slab slots, reused last-freed first. */
    std::vector<std::uint32_t> _free;

    /** True while a drain() dispatches (see tryRunInline()); its
     *  exclusive bound is (_drainWhen, _drainPrio), and it stops
     *  once executed() reaches _drainStop (its budget). */
    bool _draining = false;
    Tick _drainWhen = 0;
    std::int64_t _drainPrio = 0;
    std::uint64_t _drainStop = ~std::uint64_t{0};
};

/**
 * The original binary-heap implementation (std::function closures in
 * a std::priority_queue). Retained as a reference for tests only:
 * tests/sim_event_queue_test.cc runs both in lockstep to prove
 * EventQueue preserves its execution order.
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
