#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace papi::sim {

// ---------------------------------------------------------------------
// EventQueue (calendar queue)
// ---------------------------------------------------------------------

EventQueue::EventQueue() : _buckets(kBuckets) {}

void
EventQueue::setOccupied(std::size_t idx)
{
    _occupancy[idx >> 6] |= std::uint64_t(1) << (idx & 63);
}

void
EventQueue::clearOccupied(std::size_t idx)
{
    _occupancy[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
}

std::size_t
EventQueue::nextOccupiedDistance() const
{
    // Caller guarantees _inWindow > 0, so some bit is set.
    constexpr std::size_t words = kBuckets / 64;
    const std::size_t word = _curIdx >> 6;
    const std::size_t bit = _curIdx & 63;

    std::uint64_t w = _occupancy[word] & (~std::uint64_t(0) << bit);
    if (w)
        return static_cast<std::size_t>(std::countr_zero(w)) - bit;
    for (std::size_t i = 1; i <= words; ++i) {
        std::size_t next = (word + i) & (words - 1);
        if (_occupancy[next]) {
            return (i << 6) +
                   static_cast<std::size_t>(
                       std::countr_zero(_occupancy[next])) -
                   bit;
        }
    }
    panic("EventQueue: occupancy bitmap empty with inWindow=",
          _inWindow);
}

void
EventQueue::insertIntoRun(Tick when, Priority prio, std::uint64_t seq,
                          EventCallback &&fn)
{
    // _run is frozen while the bucket drains, so current-bucket
    // schedules go to the spill store; only the 24-byte key moves to
    // keep _runOrder sorted (earliest at the back).
    const auto idx = static_cast<std::uint32_t>(_runExtra.size());
    _runExtra.emplace_back(when, prio, seq, std::move(fn));
    RunKey key{when, prio, idx | kExtraFlag, seq};
    auto pos = std::upper_bound(_runOrder.begin(), _runOrder.end(),
                                key, keyLater);
    _runOrder.insert(pos, key);
}

void
EventQueue::refillFromOverflow()
{
    const Tick limit = windowEnd();
    while (!_overflow.empty() && _overflow.front().when <= limit) {
        std::pop_heap(_overflow.begin(), _overflow.end(), laterThan);
        Entry &e = _overflow.back();
        const std::size_t idx =
            static_cast<std::size_t>(e.when >> kShift) & kMask;
        _buckets[idx].push_back(std::move(e));
        _overflow.pop_back();
        setOccupied(idx);
        ++_inWindow;
    }
}

void
EventQueue::advanceToNextBucket()
{
    for (std::size_t s = 0; s < _numStores; ++s)
        _runStores[s].clear();
    _numStores = 0;
    _runExtra.clear();
    _runOrder.clear();

    // Batch consecutive occupied buckets into one drain run: each
    // bucket is swapped in whole (no per-entry moves) and the sort
    // runs once over the batch, amortizing the advance overhead for
    // sparse event populations.
    std::size_t batched = 0;
    while (_numStores < kMaxStores && batched < kBatchTarget &&
           (_inWindow > 0 || !_overflow.empty())) {
        if (_inWindow == 0) {
            // Nothing in the window: jump straight to the earliest
            // overflow event's bucket.
            const Tick when = _overflow.front().when;
            _windowStart = when & ~(bucketWidth() - 1);
            _curIdx = static_cast<std::size_t>(when >> kShift) & kMask;
            refillFromOverflow();
        } else {
            const std::size_t d = nextOccupiedDistance();
            _curIdx = (_curIdx + d) & kMask;
            _windowStart += Tick(d) << kShift;
            // The window's far edge moved: adopt newly-covered
            // overflow.
            refillFromOverflow();
        }

        auto &store = _runStores[_numStores++];
        store.swap(_buckets[_curIdx]); // recycles buffer capacity
        clearOccupied(_curIdx);
        _inWindow -= store.size();
        batched += store.size();
        if (store.size() > kEntryMask)
            panic("EventQueue: more than 2^20 events in one bucket");
    }

    _runOrder.reserve(batched);
    for (std::size_t s = 0; s < _numStores; ++s) {
        const auto &store = _runStores[s];
        const auto base = static_cast<std::uint32_t>(s << kStoreShift);
        for (std::uint32_t i = 0; i < store.size(); ++i) {
            const Entry &e = store[i];
            _runOrder.push_back(
                RunKey{e.when, e.prio, base | i, e.seq});
        }
    }
    std::sort(_runOrder.begin(), _runOrder.end(), keyLater);
}

void
EventQueue::prepareNext()
{
    if (_runOrder.empty())
        advanceToNextBucket();
}

void
EventQueue::pushOverflow(Tick when, Priority prio, std::uint64_t seq,
                         EventCallback &&fn)
{
    _overflow.emplace_back(when, prio, seq, std::move(fn));
    std::push_heap(_overflow.begin(), _overflow.end(), laterThan);
}

void
EventQueue::pastPanic(Tick when) const
{
    panic("event scheduled in the past: when=", when, " now=", _now);
}

void
EventQueue::nullPanic(Tick when) const
{
    panic("null event scheduled at tick ", when);
}

bool
EventQueue::step()
{
    if (_size == 0)
        return false;
    prepareNext();

    const RunKey key = _runOrder.back();
    _runOrder.pop_back();
    --_size;
    _now = key.when;
    ++_executed;
    // A stepped event has no drain bound to check inline runs against.
    const bool draining = _draining;
    _draining = false;
    dispatch(key);
    _draining = draining;
    return true;
}

void
EventQueue::dispatch(const RunKey &key)
{
    _dispatching = true;
    if (key.idx & kExtraFlag) {
        // Spill-store entries move their closure out first: the spill
        // vector may reallocate if the closure schedules into the
        // current run's tick range again.
        EventCallback fn =
            std::move(_runExtra[key.idx & ~kExtraFlag].fn);
        fn();
    } else {
        // Main-store entries run in place - the stores are frozen
        // while the run drains, so the closure's storage cannot move.
        _runStores[key.idx >> kStoreShift][key.idx & kEntryMask].fn();
    }
    _dispatching = false;
    if (!_retired.empty()) {
        // A re-entrant clear() parked the stores here so the closure
        // that was executing kept its storage; release them now.
        _retired.clear();
    }
}

bool
EventQueue::peekNextKey(Tick &when, Priority &prio) const
{
    if (_size == 0)
        return false;
    if (!_runOrder.empty()) {
        when = _runOrder.back().when;
        prio = _runOrder.back().prio;
        return true;
    }
    if (_inWindow > 0) {
        // Every bucket entry is later than the run buffer and every
        // overflow entry later than the window, so the head is the
        // minimum of the next occupied bucket (appended unsorted).
        const auto &bucket =
            _buckets[(_curIdx + nextOccupiedDistance()) & kMask];
        when = bucket.front().when;
        prio = bucket.front().prio;
        for (const Entry &e : bucket) {
            if (e.when < when || (e.when == when && e.prio < prio)) {
                when = e.when;
                prio = e.prio;
            }
        }
        return true;
    }
    when = _overflow.front().when;
    prio = _overflow.front().prio;
    return true;
}

bool
EventQueue::tryRunInline(Tick when, Priority prio)
{
    if (!_draining || when < _now)
        return false;
    if (when > _drainWhen || (when == _drainWhen && prio >= _drainPrio))
        return false;
    Tick head_when = 0;
    Priority head_prio = 0;
    if (peekNextKey(head_when, head_prio) &&
        (head_when < when || (head_when == when && head_prio <= prio)))
        return false;
    _now = when;
    ++_executed;
    return true;
}

void
EventQueue::drain(Tick when, std::int64_t prio)
{
    // Restores the enclosing drain's bound (if any) on every exit,
    // including a closure's throw.
    struct BoundGuard
    {
        EventQueue &q;
        bool draining;
        Tick when;
        std::int64_t prio;
        ~BoundGuard()
        {
            q._draining = draining;
            q._drainWhen = when;
            q._drainPrio = prio;
        }
    } guard{*this, _draining, _drainWhen, _drainPrio};
    _draining = true;
    _drainWhen = when;
    _drainPrio = prio;

    while (_size > 0) {
        prepareNext();
        const RunKey key = _runOrder.back();
        if (key.when > when || (key.when == when && key.prio >= prio))
            break;
        _runOrder.pop_back();
        --_size;
        _now = key.when;
        ++_executed;
        dispatch(key);
    }
}

void
EventQueue::runUntilKey(Tick when, Priority prio)
{
    drain(when, prio);
}

Tick
EventQueue::run(Tick horizon)
{
    drain(horizon, kAfterAnyPriority);
    return _now;
}

void
EventQueue::clear()
{
    if (_dispatching) {
        // Called from inside an executing event: the current closure
        // lives in one of these stores, so park the buffers until the
        // dispatch completes instead of destroying them underfoot.
        for (std::size_t s = 0; s < _numStores; ++s)
            _retired.emplace_back(std::move(_runStores[s]));
        _retired.emplace_back(std::move(_runExtra));
    }
    for (std::size_t s = 0; s < _numStores; ++s)
        _runStores[s].clear();
    _numStores = 0;
    _runExtra.clear();
    _runOrder.clear();
    for (auto &b : _buckets)
        b.clear();
    for (auto &w : _occupancy)
        w = 0;
    _overflow.clear();
    _inWindow = 0;
    _size = 0;
}

// ---------------------------------------------------------------------
// LegacyEventQueue (reference binary-heap implementation)
// ---------------------------------------------------------------------

void
LegacyEventQueue::schedule(Tick when, std::function<void()> fn,
                           Priority prio)
{
    if (when < _now) {
        panic("event scheduled in the past: when=", when, " now=", _now);
    }
    if (!fn) {
        panic("null event scheduled at tick ", when);
    }
    _events.push(Entry{when, prio, _nextSeq++, std::move(fn)});
}

bool
LegacyEventQueue::step()
{
    if (_events.empty())
        return false;

    // Copy the closure out before popping so re-entrant schedule()
    // calls from inside the event see a consistent queue.
    Entry top = _events.top();
    _events.pop();
    _now = top.when;
    ++_executed;
    top.fn();
    return true;
}

Tick
LegacyEventQueue::run(Tick horizon)
{
    while (!_events.empty() && _events.top().when <= horizon)
        step();
    return _now;
}

void
LegacyEventQueue::clear()
{
    while (!_events.empty())
        _events.pop();
}

} // namespace papi::sim
