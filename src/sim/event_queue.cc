#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace papi::sim {

// ---------------------------------------------------------------------
// EventQueue (key heap over a callback slab)
// ---------------------------------------------------------------------

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

void
EventQueue::dispatchHead()
{
    std::pop_heap(_heap.begin(), _heap.end(), laterThan);
    const Key key = _heap.back();
    _heap.pop_back();
    _now = key.when;
    ++_executed;
    // Move the closure out and free its slot before running it: the
    // closure may schedule, which can reuse the slot or grow the slab.
    EventCallback fn = std::move(_slots[key.slot]);
    _free.push_back(key.slot);
    fn();
}

bool
EventQueue::step()
{
    if (_heap.empty())
        return false;
    // A stepped event has no drain bound to check inline runs against.
    const bool draining = _draining;
    _draining = false;
    dispatchHead();
    _draining = draining;
    return true;
}

bool
EventQueue::peekNextKey(Tick &when, Priority &prio) const
{
    if (_heap.empty())
        return false;
    when = _heap.front().when;
    prio = _heap.front().prio;
    return true;
}

bool
EventQueue::tryRunInline(Tick when, Priority prio)
{
    if (!_draining || when < _now || _executed >= _drainStop)
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

bool
EventQueue::drain(Tick when, std::int64_t prio, std::uint64_t budget)
{
    // Restores the enclosing drain's bound (if any) on every exit,
    // including a closure's throw.
    struct BoundGuard
    {
        EventQueue &q;
        bool draining;
        Tick when;
        std::int64_t prio;
        std::uint64_t stop;
        ~BoundGuard()
        {
            q._draining = draining;
            q._drainWhen = when;
            q._drainPrio = prio;
            q._drainStop = stop;
        }
    } guard{*this, _draining, _drainWhen, _drainPrio, _drainStop};
    _draining = true;
    _drainWhen = when;
    _drainPrio = prio;
    _drainStop = budget > ~_executed ? ~std::uint64_t{0}
                                     : _executed + budget;

    while (!_heap.empty()) {
        const Key &head = _heap.front();
        if (head.when > when || (head.when == when && head.prio >= prio))
            return false;
        if (_executed >= _drainStop)
            return true;
        dispatchHead();
    }
    return false;
}

bool
EventQueue::runUntilKey(Tick when, Priority prio, std::uint64_t budget)
{
    return drain(when, prio, budget);
}

Tick
EventQueue::run(Tick horizon)
{
    drain(horizon, kAfterAnyPriority, ~std::uint64_t{0});
    return _now;
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
