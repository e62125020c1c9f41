/**
 * @file
 * A small-buffer-optimized, move-only callable for simulation events.
 *
 * std::function heap-allocates any capture larger than its ~16-byte
 * internal buffer and copies it on every queue reshuffle; with
 * millions of simulated events that allocation traffic dominates the
 * simulator's own run time. EventCallback stores captures up to
 * inlineCapacity bytes inline (no heap allocation) and is move-only,
 * so queue maintenance relocates closures instead of copying them.
 *
 * Relocation is the hot operation (the queue moves every callback
 * out of its slab to run it, and slab growth moves them all), so it
 * is a plain memcpy whenever the callable permits:
 * trivially-copyable captures (the overwhelming majority of device
 * events - a few pointers and integers) and the heap-fallback pointer
 * both relocate without any indirect call. Only inline non-trivial
 * callables (e.g. closures owning a std::function) pay an indirect
 * move, and only larger-than-buffer or throwing-move callables fall
 * back to a single heap allocation at construction.
 */

#ifndef PAPI_SIM_EVENT_CALLBACK_HH
#define PAPI_SIM_EVENT_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace papi::sim {

/** Move-only type-erased void() callable with inline storage. */
class EventCallback
{
  public:
    /** Captures up to this many bytes live inline (no allocation). */
    static constexpr std::size_t inlineCapacity = 48;

    EventCallback() = default;

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    /**
     * Wrap any void() callable. Callables that are themselves
     * null-testable (std::function, function pointers) produce a null
     * EventCallback when empty, so callers can reject them up front
     * instead of crashing at invocation time.
     */
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT: implicit by design
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_constructible_v<bool, const Fn &>) {
            if (!static_cast<bool>(fn))
                return; // stay null
        }
        constexpr bool fits =
            sizeof(Fn) <= inlineCapacity &&
            alignof(Fn) <= alignof(std::max_align_t);
        if constexpr (fits && std::is_trivially_copyable_v<Fn>) {
            ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(fn));
            _ops = &trivialOps<Fn>;
        } else if constexpr (fits &&
                             std::is_nothrow_move_constructible_v<
                                 Fn>) {
            ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(fn));
            _ops = &inlineOps<Fn>;
        } else {
            using Ptr = Fn *;
            ::new (static_cast<void *>(_buf))
                Ptr(new Fn(std::forward<F>(fn)));
            _ops = &heapOps<Fn>;
        }
    }

    ~EventCallback() { reset(); }

    explicit operator bool() const { return _ops != nullptr; }

    void
    operator()()
    {
        _ops->invoke(_buf);
    }

    /** Destroy the held callable (if any) and become null. */
    void
    reset()
    {
        if (_ops) {
            if (_ops->destroy)
                _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move into dst, destroying src; nullptr => plain memcpy. */
        void (*relocate)(void *dst, void *src);
        /** Destroy the stored callable; nullptr => trivial. */
        void (*destroy)(void *storage);
    };

    /** Trivially-copyable inline callables: memcpy moves, no dtor. */
    template <typename Fn>
    static constexpr Ops trivialOps = {
        [](void *s) { (*std::launder(reinterpret_cast<Fn *>(s)))(); },
        nullptr,
        nullptr,
    };

    /** Non-trivial inline callables: real move ctor and dtor. */
    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *s) { (*std::launder(reinterpret_cast<Fn *>(s)))(); },
        [](void *dst, void *src) {
            Fn *from = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *s) { std::launder(reinterpret_cast<Fn *>(s))->~Fn(); },
    };

    /** Heap fallback: storage holds one pointer; memcpy relocates. */
    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *s) {
            (**std::launder(reinterpret_cast<Fn **>(s)))();
        },
        nullptr,
        [](void *s) {
            delete *std::launder(reinterpret_cast<Fn **>(s));
        },
    };

    void
    moveFrom(EventCallback &other) noexcept
    {
        if (other._ops) {
            if (other._ops->relocate)
                other._ops->relocate(_buf, other._buf);
            else
                std::memcpy(_buf, other._buf, inlineCapacity);
            _ops = other._ops;
            other._ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[inlineCapacity];
    const Ops *_ops = nullptr;
};

// ---- compile-time contract ------------------------------------
// EventQueue relocates EventCallbacks with plain memcpy when the held
// callable permits (trivialOps/heapOps have relocate == nullptr): each
// dispatch moves the head's callback out of the slab, a recycled slot
// takes a new one by move, and slab growth moves every held callback.
// These asserts pin the assumptions that make that safe and fast; if
// one fires, the queue's slab strategy - not just this file - must
// change.

// The SBO threshold is part of the performance contract: a typical
// device-event capture (a handful of pointers plus a tick or two of
// integer payload) must stay inline, or steady-state scheduling
// regains the heap traffic PR 1 removed.
static_assert(EventCallback::inlineCapacity >= 6 * sizeof(void *),
              "EventCallback SBO must hold a typical device-event "
              "capture (a few pointers + integers) inline");
// moveFrom() memcpys the whole buffer without consulting the held
// type; any growth here is paid by EVERY dispatch and slab growth, so
// it must be deliberate, not incidental.
static_assert(sizeof(EventCallback) <=
                  EventCallback::inlineCapacity +
                      2 * sizeof(void *) + alignof(std::max_align_t),
              "EventCallback layout grew beyond buffer + vtable "
              "pointer: queue entries are relocated by memcpy and "
              "sized to this budget");
// Slab maintenance must never throw mid-move (a half-moved callback
// would corrupt the slab, and vector growth would fall back to
// copying), and copying a move-only closure must stay impossible.
static_assert(std::is_nothrow_move_constructible_v<EventCallback> &&
                  std::is_nothrow_move_assignable_v<EventCallback>,
              "queue relocation relies on noexcept moves");
static_assert(!std::is_copy_constructible_v<EventCallback>,
              "EventCallback is move-only by design");

} // namespace papi::sim

#endif // PAPI_SIM_EVENT_CALLBACK_HH
