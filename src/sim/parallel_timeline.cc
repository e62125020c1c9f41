#include "sim/parallel_timeline.hh"

#include <utility>

#include "sim/logging.hh"

namespace papi::sim {

namespace {

// WorkerPool's claim word: [generation | task count | next index].
constexpr unsigned kIndexBits = 20;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;
constexpr std::uint64_t kGenMask = (std::uint64_t{1} << 24) - 1;

std::uint64_t
claimCount(std::uint64_t word)
{
    return (word >> kIndexBits) & kIndexMask;
}

std::uint64_t
claimGeneration(std::uint64_t word)
{
    return word >> (2 * kIndexBits);
}

/** Polls of the claim word an idle worker makes before it parks:
 *  a pooled window that follows closely finds it awake, while a
 *  long inline stretch leaves it asleep instead of stealing cycles
 *  from the coordinator. */
constexpr int kWorkerSpins = 256;
/** Polls the caller makes for straggling tasks before it blocks. */
constexpr int kCallerSpins = 16384;

/** Spin-wait hint to the CPU (a no-op where there is none). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

WorkerPool::WorkerPool(unsigned workers)
    : _workers(workers == 0 ? 1 : workers)
{
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _wake.notify_all();
    for (std::thread &t : _threads)
        t.join();
}

void
WorkerPool::start()
{
    _threads.reserve(_workers - 1);
    for (unsigned t = 1; t < _workers; ++t)
        _threads.emplace_back([this] { workerLoop(); });
}

std::uint64_t
WorkerPool::drainTasks()
{
    std::uint64_t word = _claim.load(std::memory_order_acquire);
    for (;;) {
        const std::uint64_t count = claimCount(word);
        const std::uint64_t i = word & kIndexMask;
        if (i >= count)
            return word;
        // A failed exchange reloads the word; a won one owns task i
        // of the batch the word names, whose body cannot change
        // before that task finishes.
        if (!_claim.compare_exchange_weak(word, word + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
            continue;
        try {
            _fn(_ctx, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(_mutex);
            if (!_error || i < _errorIndex) {
                _errorIndex = i;
                _error = std::current_exception();
            }
        }
        if (_finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            count) {
            std::lock_guard<std::mutex> lock(_mutex);
            _done.notify_one();
        }
        word = _claim.load(std::memory_order_acquire);
    }
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        const std::uint64_t seen = drainTasks();
        for (int spin = 0; spin < kWorkerSpins &&
                           _claim.load(std::memory_order_relaxed) == seen;
             ++spin)
            cpuRelax();
        std::unique_lock<std::mutex> lock(_mutex);
        _wake.wait(lock, [&] {
            return _stop ||
                   _claim.load(std::memory_order_relaxed) != seen;
        });
        if (_stop)
            return;
    }
}

void
WorkerPool::runBatch(std::size_t count, TaskFn fn, const void *ctx)
{
    if (_workers <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(ctx, i);
        return;
    }
    if (count > kIndexMask)
        panic("WorkerPool: batch of ", count, " tasks exceeds ",
              kIndexMask);
    if (_threads.empty())
        start();
    // Every task of the previous batch has finished, so no executor
    // reads these until the claim word below publishes them.
    _fn = fn;
    _ctx = ctx;
    _error = nullptr;
    _finished.store(0, std::memory_order_relaxed);
    const std::uint64_t gen =
        (claimGeneration(_claim.load(std::memory_order_relaxed)) + 1) &
        kGenMask;
    {
        // Under the mutex, so a worker between its last poll and its
        // wait cannot miss the change.
        std::lock_guard<std::mutex> lock(_mutex);
        _claim.store((gen << (2 * kIndexBits)) | (count << kIndexBits),
                     std::memory_order_release);
    }
    _wake.notify_all();
    drainTasks();
    for (int spin = 0;
         spin < kCallerSpins &&
         _finished.load(std::memory_order_acquire) != count;
         ++spin)
        cpuRelax();
    if (_finished.load(std::memory_order_acquire) != count) {
        std::unique_lock<std::mutex> lock(_mutex);
        _done.wait(lock, [&] {
            return _finished.load(std::memory_order_acquire) == count;
        });
    }
    // Deterministic error selection: the lowest failing task index
    // wins regardless of real-time completion order.
    if (_error)
        std::rethrow_exception(std::exchange(_error, nullptr));
}

// ---------------------------------------------------------------------
// ParallelTimeline
// ---------------------------------------------------------------------

ParallelTimeline::ParallelTimeline(std::size_t shards)
{
    if (shards == 0)
        fatal("ParallelTimeline: need at least one shard");
    _shards.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s)
        _shards.push_back(std::make_unique<EventQueue>());
}

void
ParallelTimeline::advanceShards(Tick when, Priority prio,
                                bool bounded, WorkerPool *pool)
{
    _ready.clear();
    for (std::uint32_t s = 0; s < _shards.size(); ++s) {
        Tick head_when;
        Priority head_prio;
        if (!_shards[s]->peekNextKey(head_when, head_prio))
            continue;
        // The lookahead tripwire: every event below the committed
        // edge was supposed to have executed in an earlier window.
        // Finding one now means some path scheduled into the
        // committed past - fail loudly instead of reordering.
        if (head_when < _edgeTick ||
            (head_when == _edgeTick && head_prio < _edgePrio))
            panic("ParallelTimeline: shard ", s,
                  " holds an event at (", head_when, ", ",
                  head_prio, ") below the committed window edge (",
                  _edgeTick, ", ", _edgePrio, ")");
        if (bounded &&
            !(head_when < when ||
              (head_when == when && head_prio < prio)))
            continue;
        _ready.push_back(s);
    }
    if (_ready.empty())
        return;
    const bool can_pool = pool && pool->workers() > 1;
    if (bounded && can_pool) {
        // Short windows stay on the coordinator: each ready shard
        // runs up to the budget here, and only shards that still hold
        // events below the edge are worth a worker.
        std::size_t long_shards = 0;
        for (std::uint32_t s : _ready) {
            if (_shards[s]->runUntilKey(when, prio, kInlineEventBudget))
                _ready[long_shards++] = s;
        }
        _ready.resize(long_shards);
    }
    if (!can_pool || _ready.size() < 2) {
        for (std::uint32_t s : _ready) {
            if (bounded)
                _shards[s]->runUntilKey(when, prio);
            else
                _shards[s]->run();
        }
        ++_inlineWindows;
        return;
    }
    ++_pooledWindows;
    pool->forEach(_ready.size(), [this, when, prio,
                                  bounded](std::size_t i) {
        EventQueue &q = *_shards[_ready[i]];
        if (bounded)
            q.runUntilKey(when, prio);
        else
            q.run();
    });
}

void
ParallelTimeline::run(WorkerPool *pool)
{
    for (;;) {
        Tick bound_when = 0;
        Priority bound_prio = 0;
        const bool bounded =
            _global.peekNextKey(bound_when, bound_prio);
        advanceShards(bound_when, bound_prio, bounded, pool);
        if (!bounded) {
            // Shards ran dry with no global bound. Shard events may
            // only schedule into their own queue, so the global
            // queue should still be empty - but re-check rather
            // than assume (a stray schedule would otherwise vanish).
            if (_global.empty())
                return;
            continue;
        }
        // Commit the window edge, then execute the one global event
        // with every shard quiescent exactly below its key.
        _edgeTick = bound_when;
        _edgePrio = bound_prio;
        _global.step();
    }
}

} // namespace papi::sim
