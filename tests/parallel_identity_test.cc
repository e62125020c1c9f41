/**
 * @file
 * The differential determinism harness for parallel cluster
 * simulation: for a seeded grid of cluster configurations spanning
 * every serving feature (replica counts, router policies,
 * tensor-parallel groups, disaggregation, continuous batching with
 * chunked prefill, KV-pressure preemption, fault plans, deadlines),
 * a run sharded across worker threads must be *byte-for-byte*
 * identical to the single-threaded run of the same configuration -
 * every ClusterResult aggregate, every per-replica ServingResult,
 * and an FNV-1a hash over every per-request timeline. The
 * single-threaded schedule is itself pinned by the existing suite,
 * so equality here extends those pins to every worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hh"
#include "cluster/router.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "core/serving_events.hh"
#include "core/threshold_calibrator.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"
#include "sim/fault_plan.hh"

namespace {

using namespace papi::cluster;
namespace core = papi::core;
namespace llm = papi::llm;
namespace sim = papi::sim;

// ------------------------------------------------------------------
// Per-request timeline hashing: FNV-1a over the bit patterns of
// every field, so any drift - even one ULP in one timestamp of one
// request - changes the hash.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void
fnvMix(std::uint64_t &h, double v)
{
    fnvMix(h, std::bit_cast<std::uint64_t>(v));
}

/** Order-sensitive hash of every request's full timeline. */
std::uint64_t
timelineHash(const std::vector<core::RequestRecord> &records)
{
    std::uint64_t h = kFnvOffset;
    for (const core::RequestRecord &rec : records) {
        fnvMix(h, rec.id);
        fnvMix(h, rec.arrivalSeconds);
        fnvMix(h, rec.admissionSeconds);
        fnvMix(h, rec.firstTokenSeconds);
        fnvMix(h, rec.finishSeconds);
        fnvMix(h, static_cast<std::uint64_t>(rec.outputTokens));
        fnvMix(h, static_cast<std::uint64_t>(rec.preemptions));
        fnvMix(h, rec.stallSeconds);
    }
    return h;
}

// ------------------------------------------------------------------
// Byte-identity comparators (every field, no tolerance).

void
expectByteIdentical(const core::ServingResult &a,
                    const core::ServingResult &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.admissions, b.admissions);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.recomputedPrefillTokens, b.recomputedPrefillTokens);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
    EXPECT_EQ(a.meanRlp, b.meanRlp);
    EXPECT_EQ(a.peakKvUtilization, b.peakKvUtilization);
}

void
expectClusterByteIdentical(const ClusterResult &a,
                           const ClusterResult &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.requestsServed, b.requestsServed);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.requestsOffered, b.requestsOffered);
    EXPECT_EQ(a.failedRequests, b.failedRequests);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.retriedRequests, b.retriedRequests);
    EXPECT_EQ(a.retryRecomputedTokens, b.retryRecomputedTokens);
    EXPECT_EQ(a.injectedCrashes, b.injectedCrashes);
    EXPECT_EQ(a.replicaRestarts, b.replicaRestarts);
    EXPECT_EQ(a.kvTransfers, b.kvTransfers);
    EXPECT_EQ(a.kvTransferBytes, b.kvTransferBytes);
    EXPECT_EQ(a.kvTransferSeconds, b.kvTransferSeconds);
    EXPECT_EQ(a.kvTransferJoules, b.kvTransferJoules);
    EXPECT_EQ(a.kvTransferFallbacks, b.kvTransferFallbacks);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.goodputTokensPerSecond, b.goodputTokensPerSecond);
    EXPECT_EQ(a.ttft.p50, b.ttft.p50);
    EXPECT_EQ(a.ttft.p95, b.ttft.p95);
    EXPECT_EQ(a.ttft.p99, b.ttft.p99);
    EXPECT_EQ(a.tpot.p50, b.tpot.p50);
    EXPECT_EQ(a.tpot.p99, b.tpot.p99);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.queueing.p99, b.queueing.p99);
    EXPECT_EQ(a.preemptionStall.p99, b.preemptionStall.p99);
    EXPECT_EQ(a.meanTtftSeconds, b.meanTtftSeconds);
    EXPECT_EQ(a.meanTpotSeconds, b.meanTpotSeconds);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.meanQueueingSeconds, b.meanQueueingSeconds);
    EXPECT_EQ(a.meanPreemptionStallSeconds,
              b.meanPreemptionStallSeconds);
    ASSERT_EQ(a.groupUtilization.size(), b.groupUtilization.size());
    for (std::size_t g = 0; g < a.groupUtilization.size(); ++g)
        EXPECT_EQ(a.groupUtilization[g], b.groupUtilization[g]);
    ASSERT_EQ(a.replicaDowntimeSeconds.size(),
              b.replicaDowntimeSeconds.size());
    for (std::size_t g = 0; g < a.replicaDowntimeSeconds.size(); ++g)
        EXPECT_EQ(a.replicaDowntimeSeconds[g],
                  b.replicaDowntimeSeconds[g]);
    ASSERT_EQ(a.perGroup.size(), b.perGroup.size());
    for (std::size_t g = 0; g < a.perGroup.size(); ++g)
        expectByteIdentical(a.perGroup[g], b.perGroup[g]);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].id, b.records[i].id);
        EXPECT_EQ(a.records[i].arrivalSeconds,
                  b.records[i].arrivalSeconds);
        EXPECT_EQ(a.records[i].admissionSeconds,
                  b.records[i].admissionSeconds);
        EXPECT_EQ(a.records[i].firstTokenSeconds,
                  b.records[i].firstTokenSeconds);
        EXPECT_EQ(a.records[i].finishSeconds,
                  b.records[i].finishSeconds);
        EXPECT_EQ(a.records[i].outputTokens,
                  b.records[i].outputTokens);
        EXPECT_EQ(a.records[i].preemptions,
                  b.records[i].preemptions);
        EXPECT_EQ(a.records[i].stallSeconds,
                  b.records[i].stallSeconds);
    }
}

// ------------------------------------------------------------------
// The seeded configuration grid. Sample i is derived entirely from
// its index (reproducible; a failure names the sample), chosen so
// the grid crosses every feature the driver parallelizes: both the
// pre-routed fast path (round-robin / session-affinity, no faults)
// and every windowed slow path (dynamic least-outstanding routing,
// disaggregation with coordinator-owned prefill replicas, fault
// plans with crash/restart/retry, batch-level fill deadlines).

struct GridSample
{
    std::string name;
    ClusterOptions options;
    std::vector<llm::TimedRequest> stream;
};

GridSample
makeSample(std::uint32_t i, const llm::ModelConfig &model,
           const core::PlatformConfig &cfg)
{
    GridSample s;
    ClusterOptions &opt = s.options;

    static constexpr std::uint32_t kReplicas[4] = {2, 3, 4, 8};
    static constexpr RouterPolicy kPolicies[3] = {
        RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding,
        RouterPolicy::SessionAffinity};

    const bool disagg = i % 5 == 0;
    const bool faults = i % 3 == 2;
    // Retry redelivery requires the token-level serving path, so
    // batch-level admission never combines with a fault plan.
    const bool batch_level = !disagg && !faults && i % 7 == 1;
    const bool chunked = i % 3 == 1;
    const bool preempt = i % 4 == 2;
    const bool deadline = i % 6 == 3;

    std::uint32_t replicas = kReplicas[i % 4];
    opt.policy = kPolicies[i % 3];
    opt.tensorParallelDegree = 1 + i % 2;
    if (disagg) {
        opt.disagg.enabled = true;
        opt.disagg.prefillReplicas = 1 + i % 2;
        opt.disagg.decodeReplicas = 2;
        opt.disagg.prefillPolicy = kPolicies[i % 3];
        replicas =
            opt.disagg.prefillReplicas + opt.disagg.decodeReplicas;
    } else {
        opt.numPlatforms = replicas * opt.tensorParallelDegree;
    }
    if (batch_level) {
        opt.serving.admission = core::AdmissionPolicy::BatchLevel;
        opt.serving.maxRlp = 8;
        opt.serving.batchTimeoutSeconds = 0.02;
    }
    if (chunked)
        opt.serving.prefillChunkTokens = 64;
    if (preempt) {
        opt.serving.preemptOnKvPressure = true;
        opt.serving.preemptPolicy =
            i % 8 < 4 ? core::KvPreemptPolicy::Recompute
                      : core::KvPreemptPolicy::SwapRestore;
        opt.serving.kvCapacityOverrideBytes =
            llm::kvPoolBytesPerDevice(model, 4096,
                                      cfg.numAttnDevices);
    }
    if (deadline)
        opt.serving.deadlineSeconds = 1.5;
    if (faults) {
        sim::FaultPlanParams p;
        p.seed = 100 + i;
        p.numReplicas = replicas;
        p.crashes = 2;
        p.horizonSeconds = 4.0;
        p.coldStartSeconds = 0.3;
        p.restart = i % 2 == 0;
        opt.faults = sim::FaultPlan::generate(p);
        if (disagg) {
            opt.faults.linkFaults.push_back(
                {0.2, 1.2, 0.25}); // degraded window mid-stream
            opt.recovery.transferTimeoutSeconds = 0.5;
        }
    }

    const llm::TraceCategory cat =
        disagg ? llm::TraceCategory::PrefillHeavy
               : (i % 2 ? llm::TraceCategory::CreativeWriting
                        : llm::TraceCategory::GeneralQa);
    const double rate = 60.0 + 15.0 * (i % 5);
    const std::uint32_t count = 36 + 4 * (i % 6);
    llm::ArrivalProcess arrivals(cat, rate, 1000 + i);
    s.stream = arrivals.generate(count);

    s.name = "sample" + std::to_string(i) + "/replicas" +
             std::to_string(replicas) + "/policy" +
             std::to_string(static_cast<int>(opt.policy)) +
             (disagg ? "/disagg" : "") + (faults ? "/faults" : "") +
             (batch_level ? "/batch" : "") +
             (chunked ? "/chunked" : "") +
             (preempt ? "/preempt" : "") +
             (deadline ? "/deadline" : "");
    return s;
}

/**
 * The grid stops at 8 replicas. This 64-replica round-robin fleet is
 * the shape the soak tier times the parallel speedup on, so its
 * identity rides along as one more grid input.
 */
GridSample
fleet64Sample(const llm::ModelConfig &model,
              const core::PlatformConfig &cfg)
{
    GridSample s;
    s.name = "fleet64/replicas64/round-robin";
    s.options.numPlatforms = 64;
    s.options.policy = RouterPolicy::RoundRobin;
    s.options.serving.maxRlp = 16;
    core::Platform reference(cfg);
    s.options.serving.alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa, 600.0,
                                 13);
    s.stream = arrivals.generate(384);
    return s;
}

ClusterResult
runSample(const GridSample &s, unsigned workers,
          const llm::ModelConfig &model,
          const core::PlatformConfig &cfg)
{
    ClusterOptions opt = s.options;
    opt.workerThreads = workers;
    llm::SpeculativeConfig spec;
    return ClusterEngine(cfg, opt).run(s.stream, spec, model);
}

// ------------------------------------------------------------------
// The differential fuzz grid: >= 50 seeded configurations plus the
// 64-replica fleet, each run serially (the pinned oracle) and at 2,
// 4, and 8 worker threads.

TEST(ParallelIdentity, DifferentialGridMatchesSerialByteForByte)
{
    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    constexpr std::uint32_t kSamples = 54;
    constexpr unsigned kWorkerCounts[3] = {2, 4, 8};

    // Fault and disaggregation samples that took a pooled window at
    // 2 workers, of all such samples.
    std::uint32_t fault_pooled = 0, fault_total = 0;
    std::uint32_t disagg_pooled = 0, disagg_total = 0;
    for (std::uint32_t i = 0; i <= kSamples; ++i) {
        const GridSample s = i < kSamples ? makeSample(i, model, cfg)
                                          : fleet64Sample(model, cfg);
        SCOPED_TRACE(s.name);
        const ClusterResult serial = runSample(s, 1, model, cfg);
        const std::uint64_t serial_hash = timelineHash(serial.records);
        EXPECT_EQ(serial.pooledWindows, 0u);
        const bool faults = !s.options.faults.empty();
        const bool disagg = s.options.disagg.enabled;
        fault_total += faults;
        disagg_total += disagg;
        for (unsigned workers : kWorkerCounts) {
            SCOPED_TRACE("workers=" + std::to_string(workers));
            const ClusterResult parallel =
                runSample(s, workers, model, cfg);
            expectClusterByteIdentical(serial, parallel);
            EXPECT_EQ(serial_hash, timelineHash(parallel.records));
            if (workers == 2 && parallel.pooledWindows > 0) {
                fault_pooled += faults;
                disagg_pooled += disagg;
            }
        }
    }
    // Most windows of these small runs are short and stay on the
    // coordinator; the long ones must still reach the pool in most
    // fault and disaggregation samples, so concurrent windows (and
    // the sanitizer jobs that watch them) keep covering those
    // barrier paths. The counts are deterministic.
    EXPECT_GE(2 * fault_pooled, fault_total);
    EXPECT_GE(2 * disagg_pooled, disagg_total);
}

// More workers than replicas (and a prime, misaligned count) must
// also be exact - the pool just has idle executors.

TEST(ParallelIdentity, OversubscribedWorkersMatchSerial)
{
    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    const GridSample s = makeSample(7, model, cfg);
    const ClusterResult serial = runSample(s, 1, model, cfg);
    for (unsigned workers : {3u, 16u, 64u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectClusterByteIdentical(serial,
                                   runSample(s, workers, model, cfg));
    }
}

// Repeated parallel runs of one configuration must agree with each
// other run-to-run, not just with the serial oracle (a schedule
// that leaked wall-clock nondeterminism could still diverge between
// two parallel runs on an unlucky interleave).

TEST(ParallelIdentity, ParallelRunsAreReproducible)
{
    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    const GridSample s = makeSample(2, model, cfg); // faulty sample
    const ClusterResult first = runSample(s, 4, model, cfg);
    for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE("rep=" + std::to_string(rep));
        expectClusterByteIdentical(first,
                                   runSample(s, 4, model, cfg));
    }
}

// ------------------------------------------------------------------
// Same-instant ties at an iteration boundary. A replica's next
// boundary runs inline, without a queue round trip, only when its
// key is strictly below every pending event and the window bound;
// these pins exercise the two ties that strictness exists for - an
// arrival and a crash landing exactly on a boundary tick - at 1 and
// 4 worker threads.

struct TieRun
{
    /** Per-replica retired-request timelines. */
    std::vector<std::vector<core::RequestRecord>> records;
    /** Request ids the crash harvested from replica 0. */
    std::vector<std::uint64_t> harvested;
};

/**
 * Serve @p stream on two replicas driven directly (request-id parity
 * routes), pre-routed onto the shards or delivered by global arrival
 * events; crash replica 0 at @p crash_at when it is >= 0.
 */
TieRun
runTie(const std::vector<llm::TimedRequest> &stream, unsigned workers,
       bool pre_routed, double crash_at = -1.0)
{
    // One platform per replica, as in ClusterEngine: a platform's
    // kernel memo is replica state, confined to the replica's shard.
    const core::Platform p0(core::makePapiConfig());
    const core::Platform p1(core::makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    const llm::SpeculativeConfig spec;
    const core::ServingOptions opt;
    core::ServingSim r0(p0, spec, model, opt);
    core::ServingSim r1(p1, spec, model, opt);
    core::ServingEventDriver driver({&r0, &r1});
    driver.setWorkerThreads(workers);
    driver.setStateIndependentRouting(pre_routed);
    TieRun out;
    if (crash_at >= 0.0) {
        driver.scheduleAt(crash_at, [&driver, &out, crash_at] {
            for (const core::LostRequest &l :
                 driver.crashReplica(0, crash_at))
                out.harvested.push_back(l.request.request.id);
        });
    }
    driver.runStream(stream, [](const llm::TimedRequest &r) {
        return static_cast<std::uint32_t>(r.request.id % 2);
    });
    out.records = {r0.records(), r1.records()};
    return out;
}

/**
 * A retirement time on replica 0 while another of its requests stays
 * in flight: an iteration boundary after which the replica schedules
 * (or inlines) a next boundary. @p finisher receives the retiree.
 */
double
busyBoundary(const std::vector<core::RequestRecord> &records,
             std::uint64_t &finisher)
{
    for (const core::RequestRecord &r : records) {
        for (const core::RequestRecord &o : records) {
            if (o.admissionSeconds < r.finishSeconds &&
                o.finishSeconds > r.finishSeconds) {
                finisher = r.id;
                return r.finishSeconds;
            }
        }
    }
    return -1.0;
}

std::vector<llm::TimedRequest>
tieStream()
{
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa, 20.0,
                                 4242);
    return arrivals.generate(16);
}

void
expectTieRunsIdentical(const TieRun &a, const TieRun &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t g = 0; g < a.records.size(); ++g) {
        EXPECT_EQ(a.records[g].size(), b.records[g].size());
        EXPECT_EQ(timelineHash(a.records[g]),
                  timelineHash(b.records[g]));
    }
    EXPECT_EQ(a.harvested, b.harvested);
}

TEST(BoundaryTies, ArrivalOnABoundaryTickIsAdmittedByThatBoundary)
{
    for (const bool pre_routed : {true, false}) {
        SCOPED_TRACE(pre_routed ? "pre-routed arrivals"
                                : "global arrival events");
        std::vector<llm::TimedRequest> stream = tieStream();
        std::uint64_t finisher = 0;
        const double t = busyBoundary(
            runTie(stream, 1, pre_routed).records[0], finisher);
        ASSERT_GT(t, 0.0);

        // An extra request for replica 0 (even id) arriving exactly
        // at that boundary: delivered first (arrival priority), it is
        // admitted by the boundary itself; delivered after, it would
        // wait for the replica's next boundary.
        llm::TimedRequest extra = stream.front();
        extra.request.id = 1000;
        extra.arrivalSeconds = t;
        const auto pos = std::upper_bound(
            stream.begin(), stream.end(), t,
            [](double v, const llm::TimedRequest &r) {
                return v < r.arrivalSeconds;
            });
        stream.insert(pos, extra);

        const TieRun serial = runTie(stream, 1, pre_routed);
        const auto it = std::find_if(
            serial.records[0].begin(), serial.records[0].end(),
            [](const core::RequestRecord &r) { return r.id == 1000; });
        ASSERT_NE(it, serial.records[0].end());
        EXPECT_EQ(it->admissionSeconds, t);
        expectTieRunsIdentical(serial, runTie(stream, 4, pre_routed));
    }
}

TEST(BoundaryTies, CrashOnABoundaryTickBeatsThatBoundary)
{
    const std::vector<llm::TimedRequest> stream = tieStream();
    std::uint64_t finisher = 0;
    const double t = busyBoundary(
        runTie(stream, 1, false).records[0], finisher);
    ASSERT_GT(t, 0.0);

    // The crash (fault priority) fires before the same-instant
    // boundary, so the request that boundary would have retired is
    // harvested instead, and replica 0 retires nothing at t.
    const TieRun serial = runTie(stream, 1, false, t);
    EXPECT_NE(std::find(serial.harvested.begin(),
                        serial.harvested.end(), finisher),
              serial.harvested.end());
    for (const core::RequestRecord &r : serial.records[0])
        EXPECT_LT(r.finishSeconds, t) << "request " << r.id;
    expectTieRunsIdentical(serial, runTie(stream, 4, false, t));
}

TEST(BoundaryTies, UnsortedStreamIsFatalOnBothArrivalPaths)
{
    // The pre-routed fast path must reject an out-of-order stream
    // exactly as the global-arrival path does, not serve it.
    std::vector<llm::TimedRequest> stream = tieStream();
    stream.resize(3);
    const double times[] = {2.0, 1.0, 0.5};
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i].request.id = i;
        stream[i].arrivalSeconds = times[i];
    }
    for (const bool pre_routed : {true, false}) {
        SCOPED_TRACE(pre_routed ? "pre-routed arrivals"
                                : "global arrival events");
        EXPECT_THROW(runTie(stream, 1, pre_routed), sim::FatalError);
    }
}

} // namespace
