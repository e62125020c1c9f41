/**
 * @file
 * Conservative parallel discrete-event simulation over per-shard
 * EventQueues: a window scheduler plus a worker-thread pool.
 *
 * ParallelTimeline splits one logical simulation into a *global*
 * queue (events that read or write cross-shard state) and N *shard*
 * queues (events that touch exactly one shard's state). The run loop
 * alternates between two phases in lockstep:
 *
 *  1. Window: peek the next global event's (tick, priority) key and
 *     advance every shard's queue strictly below that key. Same-
 *     window events of different shards touch disjoint state by
 *     contract, so they may run on any thread (see "Who runs a
 *     window" below).
 *  2. Barrier: with all shards quiescent exactly at the window edge,
 *     execute the one global event on the coordinator thread. It
 *     observes precisely the state a single sequential queue would
 *     have presented at its key, so cross-shard effects (routing
 *     decisions, migrations, fault fan-out) are bit-identical to the
 *     serial order.
 *
 * The contract that makes this exact rather than approximately
 * conservative:
 *
 *  - Shard events may schedule only into their own shard queue;
 *    the global queue is coordinator-only (no mid-window mailboxes
 *    to drain, hence no drain-order ambiguity).
 *  - Global and shard events never collide on (tick, priority), so
 *    the strict "below the key" window bound reproduces the serial
 *    total order without comparing cross-queue sequence numbers.
 *  - Each window commits before the next opens: a shard event found
 *    below the committed edge is a lookahead bug and panics loudly
 *    (see advanceShards) instead of silently reordering.
 *
 * Who runs a window: a bounded window (one that ends at a global
 * event) first runs on the coordinator. Each ready shard executes up
 * to kInlineEventBudget events there, in index order; only shards
 * that still hold events below the edge after that go to the
 * WorkerPool, and only when at least two remain. An unbounded
 * window (no global event left, e.g. the pre-routed fast path) goes
 * to the pool whole. The choice depends on event counts alone, so it
 * is the same on every run at a given worker count (inlineWindows()
 * and pooledWindows() count it).
 *
 * Determinism does not depend on which thread runs which shard, or
 * on a shard's window being split between the coordinator and a
 * worker: every shard's event stream is sequential, per-shard state
 * is confined to it, and the pool's claim/finish hand-off orders each
 * window's writes before the coordinator (or the next window's
 * owner) reads them. The executing thread may differ; the per-shard
 * event order does not.
 */

#ifndef PAPI_SIM_PARALLEL_TIMELINE_HH
#define PAPI_SIM_PARALLEL_TIMELINE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace papi::sim {

/**
 * A fixed-size pool of worker threads executing batches of
 * independent indexed tasks. The calling thread participates, so
 * WorkerPool(n) gives n concurrent executors from n-1 threads; n <= 1
 * never starts a thread and forEach degrades to a serial loop on the
 * caller. The threads start on the first batch of two or more tasks,
 * so a pool that is never handed such a batch costs no thread.
 *
 * The hand-off is one atomic claim word (batch generation, task
 * count, next index): executors claim task indices with a
 * compare-and-swap, and the last to finish wakes the caller. Idle
 * workers spin briefly, then park on a condition variable until the
 * next batch is published.
 */
class WorkerPool
{
  public:
    /** @param workers Concurrent executors, including the caller. */
    explicit WorkerPool(unsigned workers);
    ~WorkerPool();

    /** Pools own threads; copying one would share them. */
    WorkerPool(const WorkerPool &) = delete;
    /** Pools own threads; copying one would share them. */
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Concurrent executors (including the calling thread). */
    unsigned workers() const { return _workers; }

    /** True once the pool's threads have started. */
    bool started() const { return !_threads.empty(); }

    /**
     * Run @p body(i) for every i in [0, @p count) across the pool
     * (the caller works too) and block until all complete. The calls
     * must be mutually independent. A call that throws has its
     * exception captured; after the batch completes, the exception
     * of the lowest failing index is rethrown (a deterministic
     * choice when several shards fail in one window).
     */
    template <typename F>
    void
    forEach(std::size_t count, F &&body)
    {
        using Body = std::remove_reference_t<F>;
        runBatch(
            count,
            [](const void *ctx, std::size_t i) {
                (*static_cast<const Body *>(ctx))(i);
            },
            &body);
    }

  private:
    using TaskFn = void (*)(const void *, std::size_t);

    /** forEach's type-erased body. */
    void runBatch(std::size_t count, TaskFn fn, const void *ctx);
    /** Start the n-1 worker threads (first multi-task batch). */
    void start();
    void workerLoop();
    /**
     * Claim and run tasks until the published batch has none left.
     * @return The claim word that showed no claimable task.
     */
    std::uint64_t drainTasks();

    unsigned _workers;

    /**
     * The claim word: generation (high 24 bits), task count (20),
     * next unclaimed index (low 20). Publishing a batch bumps the
     * generation, so the word changes even when two batches have
     * the same count.
     */
    std::atomic<std::uint64_t> _claim{0};
    /** Tasks of the current batch that have finished. */
    std::atomic<std::size_t> _finished{0};
    /** The current batch's body; written only between batches,
     *  published to executors by the release store of _claim. */
    TaskFn _fn = nullptr;
    const void *_ctx = nullptr;

    std::mutex _mutex;
    std::condition_variable _wake; ///< New batch or shutdown.
    std::condition_variable _done; ///< Batch fully finished.
    bool _stop = false;            ///< Guarded by _mutex.
    /** Lowest failing index of this batch and its exception;
     *  guarded by _mutex. */
    std::size_t _errorIndex = 0;
    std::exception_ptr _error;

    /** Declared last: the threads use every member above. */
    std::vector<std::thread> _threads;
};

/**
 * The window scheduler: one global EventQueue plus N shard
 * EventQueues advanced in conservative lockstep windows (see the
 * file comment for the execution model and the exactness contract).
 */
class ParallelTimeline
{
  public:
    /** @param shards Number of shard queues (>= 1). */
    explicit ParallelTimeline(std::size_t shards);

    /** The coordinator-only cross-shard queue. */
    EventQueue &global() { return _global; }
    /** Shard @p s's private queue. */
    EventQueue &shard(std::size_t s) { return *_shards[s]; }
    /** Number of shard queues. */
    std::size_t shardCount() const { return _shards.size(); }

    /**
     * The committed window edge on the tick axis: the key tick of
     * the last global event whose window was opened. Scheduling into
     * a shard from coordinator context must clamp to this (it is the
     * serial queue's "now"); shard events below it panic.
     */
    Tick committedTick() const { return _global.now(); }

    /**
     * Drain the global and all shard queues to completion in
     * lockstep windows. @p pool runs long windows' shard advances
     * concurrently; pass nullptr (or a single-worker pool) for the
     * serial schedule - the executed event order per queue is
     * identical either way.
     */
    void run(WorkerPool *pool);

    /** Windows (with at least one ready shard) that ran wholly on
     *  the coordinator thread. */
    std::uint64_t inlineWindows() const { return _inlineWindows; }
    /** Windows whose shards (or their remainder) went to the pool. */
    std::uint64_t pooledWindows() const { return _pooledWindows; }

  private:
    /**
     * Events each ready shard of a bounded window runs on the
     * coordinator before the window may go to the pool. Below this,
     * waking a worker costs more than the work it would take over.
     * Chosen by a sweep on the 64-replica least-outstanding fleet
     * (CHANGES.md).
     */
    static constexpr std::uint64_t kInlineEventBudget = 64;

    /**
     * Advance every shard strictly below (@p when, @p prio), on the
     * coordinator or across @p pool (see the file comment). With
     * @p bounded false the bound is +infinity: every shard runs dry.
     * Panics if any shard holds an event below the committed window
     * edge.
     */
    void advanceShards(Tick when, Priority prio, bool bounded,
                       WorkerPool *pool);

    EventQueue _global;
    std::vector<std::unique_ptr<EventQueue>> _shards;

    /** Committed edge key: the last opened window's global event. */
    Tick _edgeTick = 0;
    Priority _edgePrio = std::numeric_limits<Priority>::min();

    /** Reused per-window buffer (allocation-free steady state). */
    std::vector<std::uint32_t> _ready;

    std::uint64_t _inlineWindows = 0;
    std::uint64_t _pooledWindows = 0;
};

} // namespace papi::sim

#endif // PAPI_SIM_PARALLEL_TIMELINE_HH
