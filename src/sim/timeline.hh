/**
 * @file
 * Second-domain time on the tick-domain event queue.
 *
 * The serving layer accounts time in seconds (double), while
 * sim::EventQueue orders events by integral Tick. Quantizing seconds
 * to picoseconds would let two distinct double timestamps collide in
 * one tick and flip their order relative to a plain double
 * comparison - which would break the serving stack's bit-identity
 * pins. Instead, orderedTick maps non-negative doubles onto ticks
 * with an order-preserving *encoding*: the IEEE-754 bit pattern of a
 * non-negative double, read as an unsigned integer, is monotone in
 * the double's value, and equal doubles map to equal ticks. The tick
 * axis of a queue scheduled through orderedTick is therefore
 * ordinal, not metric: ordering (and tie-breaking by priority and
 * insertion sequence) is exact, but tick differences are
 * meaningless, so such a queue instance must never also carry
 * physical picosecond events. This is the hook that lets a hierarchy
 * of second-domain simulations (N serving replicas, their admission
 * deadlines, the shared arrival stream) compose on one deterministic
 * event core.
 */

#ifndef PAPI_SIM_TIMELINE_HH
#define PAPI_SIM_TIMELINE_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace papi::sim {

// ---- compile-time contract ------------------------------------
// orderedTick()'s order-preserving encoding is a property of the
// IEEE-754 binary64 representation: for non-negative finite doubles
// the bit pattern, read as an unsigned integer, is monotone in the
// value. Every serving-stack bit-identity pin sits on top of this,
// so the preconditions are asserted here, next to the encoder, not
// assumed.
static_assert(std::numeric_limits<double>::is_iec559,
              "orderedTick requires IEEE-754 doubles: the bit-cast "
              "encoding is only order-preserving for binary64");
static_assert(sizeof(double) == 8 && sizeof(std::uint64_t) == 8,
              "orderedTick bit-casts double <-> uint64_t; both must "
              "be exactly 64 bits");
static_assert(std::is_same_v<Tick, std::uint64_t>,
              "orderedTick encodes into Tick verbatim; a narrower or "
              "signed Tick would truncate or reorder the encoding");

/**
 * Order-preserving encoding of a non-negative finite time in seconds
 * into a Tick: for any a, b >= 0, a < b iff orderedTick(a) <
 * orderedTick(b), and a == b iff the ticks are equal. Fatal on
 * negative or non-finite input.
 */
inline Tick
orderedTick(double seconds)
{
    if (!(seconds >= 0.0) || !std::isfinite(seconds))
        fatal("orderedTick: cannot encode time ", seconds,
              " s (must be finite and non-negative)");
    // -0.0 passes the guard but its bit pattern (sign bit set) would
    // encode above every positive double; normalize it to +0.0.
    return std::bit_cast<std::uint64_t>(seconds + 0.0);
}

/** Inverse of @ref orderedTick (valid only for encoded ticks). */
inline double
orderedSeconds(Tick tick)
{
    return std::bit_cast<double>(static_cast<std::uint64_t>(tick));
}

} // namespace papi::sim

#endif // PAPI_SIM_TIMELINE_HH
