/**
 * @file
 * Fundamental simulation types: ticks, cycles, and unit helpers.
 *
 * The simulation kernel measures time in ticks, where one tick is one
 * picosecond. Devices operating in a clock domain convert between
 * cycles of their local clock and global ticks via sim::Clocked.
 */

#ifndef PAPI_SIM_TYPES_HH
#define PAPI_SIM_TYPES_HH

#include <cstdint>

namespace papi::sim {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles in some clock domain. */
using Cycles = std::uint64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick maxTick = ~Tick(0);

/** One picosecond, the base tick unit. */
constexpr Tick onePs = 1;
/** Ticks per nanosecond. */
constexpr Tick oneNs = 1000;
/** Ticks per microsecond. */
constexpr Tick oneUs = 1000 * oneNs;
/** Ticks per millisecond. */
constexpr Tick oneMs = 1000 * oneUs;
/** Ticks per second. */
constexpr Tick oneSec = 1000 * oneMs;

/** Convert a frequency in MHz to a clock period in ticks. */
constexpr Tick
periodFromMhz(double mhz)
{
    return static_cast<Tick>(1e6 / mhz + 0.5);
}

/** Convert a tick count to seconds. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(oneSec);
}

/** Convert seconds to ticks (rounding to nearest tick). */
constexpr Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(s * static_cast<double>(oneSec) + 0.5);
}

constexpr std::uint64_t KiB = 1024;       ///< Bytes in a kibibyte.
constexpr std::uint64_t MiB = 1024 * KiB; ///< Bytes in a mebibyte.
constexpr std::uint64_t GiB = 1024 * MiB; ///< Bytes in a gibibyte.

} // namespace papi::sim

#endif // PAPI_SIM_TYPES_HH
