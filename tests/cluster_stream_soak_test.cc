/**
 * @file
 * Scale gates that need a process of their own and an optimized
 * build:
 *
 *  - One million GeneralQa requests stream through
 *    ClusterEngine::runStream() with ClusterOptions::recordCapacity
 *    bounding per-replica record storage. Every request is served,
 *    the record store truncates at its cap, and the process's peak
 *    RSS grows by less than a flat 512 MiB over the run.
 *    Materialized, the trace and its records alone exceed 1 GB, so
 *    the ceiling holds only if memory stays flat in request count.
 *  - On hosts with at least 8 hardware threads, 8 workers run the
 *    64-replica round-robin fleet more than 2x faster than 1.
 *
 * The binary carries the "soak" label (excluded from tier 1) and
 * runs serially, so a parallel ctest cannot perturb its timing.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "cluster/cluster_engine.hh"
#include "core/platform.hh"
#include "core/threshold_calibrator.hh"
#include "llm/arrival.hh"
#include "llm/model_config.hh"
#include "timing_gate.hh"

namespace {

using namespace papi::cluster;
namespace core = papi::core;
namespace llm = papi::llm;

/** Resident set size right now, in MiB (Linux /proc). */
double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size_pages = 0;
    std::uint64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return static_cast<double>(resident_pages) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

/** This process's resident-set high-water mark, in MiB. */
double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

TEST(ClusterStreamSoak, MillionRequestsStayUnderFlatRssCeiling)
{
    if (const char *why = papi::test::timingGateSkipReason())
        GTEST_SKIP() << why;

    constexpr std::uint64_t kRequests = 1'000'000;
    constexpr std::uint32_t kReplicas = 4;
    constexpr std::uint64_t kRecordCapacity = 32768;
    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    const llm::SpeculativeConfig spec;

    ClusterOptions opt;
    opt.numPlatforms = kReplicas;
    opt.policy = RouterPolicy::RoundRobin;
    opt.serving.maxRlp = 16;
    opt.recordCapacity = kRecordCapacity;
    // 30 rps sits well under the fleet's capacity, so the router's
    // pending queue - the one structure that scales with overload -
    // stays bounded too.
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa, 30.0,
                                 101);

    // The baseline is the resident set now, not the high-water mark
    // so far: growth is then measured against what this run starts
    // from, whatever ran before it in the process.
    const double rss_before = currentRssMb();
    const auto start = std::chrono::steady_clock::now();
    const ClusterResult r =
        ClusterEngine(cfg, opt).runStream(arrivals, kRequests, spec,
                                          model);
    const double wall = secondsSince(start);
    const double rss_peak = peakRssMb();
    const double growth = rss_peak - rss_before;
    std::printf("streamed %llu requests in %.1f s, RSS %.1f -> %.1f "
                "MiB (growth %.1f MiB)\n",
                static_cast<unsigned long long>(r.requestsServed),
                wall, rss_before, rss_peak, growth);

    EXPECT_EQ(r.requestsServed, kRequests);
    EXPECT_TRUE(r.statsTruncated);
    EXPECT_LE(r.records.size(), kRecordCapacity * kReplicas);
    EXPECT_LT(growth, 512.0);
}

TEST(ClusterStreamSoak, EightWorkersMoreThanDoubleSerialSpeed)
{
    if (const char *why = papi::test::timingGateSkipReason())
        GTEST_SKIP() << why;
    // A 1- to 4-core host cannot show 8-way scaling; wall time there
    // measures the OS scheduler, not the design.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 8)
        GTEST_SKIP() << "needs >= 8 hardware threads, host has " << hw;

    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    const llm::SpeculativeConfig spec;
    ClusterOptions opt;
    opt.numPlatforms = 64;
    opt.policy = RouterPolicy::RoundRobin;
    opt.serving.maxRlp = 16;
    {
        core::Platform reference(cfg);
        opt.serving.alpha =
            core::ThresholdCalibrator::calibrate(reference, model)
                .alpha;
    }
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa, 600.0,
                                 13);
    const auto stream = arrivals.generate(1536);

    // Interleaved best-of-N, so both sides see the same host noise.
    auto timed_run = [&](unsigned workers) {
        opt.workerThreads = workers;
        const auto start = std::chrono::steady_clock::now();
        const ClusterResult r =
            ClusterEngine(cfg, opt).run(stream, spec, model);
        EXPECT_EQ(r.requestsServed, stream.size());
        return secondsSince(start);
    };
    double serial = std::numeric_limits<double>::infinity();
    double parallel = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < 3; ++trial) {
        serial = std::min(serial, timed_run(1));
        parallel = std::min(parallel, timed_run(8));
    }
    std::printf("64 replicas: 1 worker %.3f s, 8 workers %.3f s "
                "(%.2fx)\n",
                serial, parallel, serial / parallel);
    EXPECT_GT(serial / parallel, 2.0);
}

} // namespace
