/**
 * @file
 * Shared plumbing of the repo benchmark: command line, host timing,
 * order statistics, result digests, host facts and the result line.
 *
 * Every workload produces a Report: the end-to-end metrics (untraced
 * run) or the per-layer metrics (traced run), how many operations it
 * attempted and how many failed, and the digest of its simulated
 * output. main() compares the digest against the committed value
 * and prints the report.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Host nanoseconds between two clock readings. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** @p part / @p whole, or 0 when @p whole is not positive. */
inline double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** Median of @p v (by value: sorts a copy). Fatal when empty. */
double median(std::vector<double> v);

/** "N repetitions, rate min/median/max" line for @p rates. */
std::string repetitionNote(const std::vector<double> &rates);

/** Run length of the workloads: the timed size or the self-check
 *  size (every workload shrunk so a whole pass takes seconds). */
enum class Size : std::uint8_t
{
    Full,
    Tiny,
};

/**
 * Set-ups timed before each timed repetition: set-up takes a few
 * milliseconds, so one sample is mostly noise.
 */
inline int
setUpsPerRepetition(Size size)
{
    return size == Size::Tiny ? 1 : 3;
}

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    Size size = Size::Full;
    /** Committed digest of this (workload, size, seed), or empty
     *  when none is committed. */
    std::string expectDigest;
};

/** Parse argv; prints usage and exits with code 2 on error. */
Args parseArgs(int argc, char **argv);

/** 64-bit FNV-1a over the exact bits of the values fed to it. */
class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xffu;
            _h *= 1099511628211ull;
        }
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** 16 lowercase hex digits. */
    std::string hex() const;

  private:
    std::uint64_t _h = 14695981039346656037ull;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Report
{
    std::vector<Metric> metrics;
    /** Operations (requests or figure cells) offered across every
     *  timed repetition. */
    std::uint64_t attempted = 0;
    /** Operations not served; every operation of a repetition whose
     *  output check failed counts. */
    std::uint64_t failed = 0;
    /** Extra lines printed before the result (paper comparisons). */
    std::vector<std::string> notes;
    /** Output checks that failed, one line each. */
    std::vector<std::string> errors;
    /** Digest of the simulated output of one repetition. */
    std::string digest;
    /** Worker threads the timed run used. */
    unsigned workers = 1;
    /** Timed repetitions behind the medians. */
    std::size_t repetitions = 0;
    /** Median referenceSpeed() sampled before each timed repetition
     *  (0 in traced runs): how fast the host ran during the run. */
    double referenceSpeed = 0.0;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

/**
 * Worker threads for the parallel workload: min(2, usable CPUs). At
 * four workers on a 4-vCPU host, hypervisor steal stalls the window
 * barriers and two of ten runs fell to a third of the median rate.
 */
unsigned parallelWorkers();

/**
 * Host speed on a fixed benchmark-owned loop (integer mixing plus
 * reads from a 1 MiB table), loop iterations per second. Shared
 * virtual hosts change speed for minutes at a time; this shows which
 * speed a run got, so runs can be compared knowingly. It never enters
 * a metric.
 */
double referenceSpeed();

/** Process peak resident set size, MB. */
double peakRssMb();

/** Print the host facts as one JSON line on stdout. */
void printHostFacts(const Args &args, const Report &report);

/** Print @p report as the final result line on stdout. */
void printResult(const Report &report);

// Workloads (serving.cc, fig8.cc).
Report runServing(const Args &args);
Report runServingTraced(const Args &args);
Report runFig8(const Args &args);
Report runFig8Traced(const Args &args);

/** True for the serving workload names. */
bool isServingWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
