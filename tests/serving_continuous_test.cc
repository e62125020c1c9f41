/**
 * @file
 * Tests for the event-driven serving core's continuous-batching
 * features: chunked prefill, KV-pressure preemption/resume (both
 * policies), their determinism, and their behaviour under the
 * cluster driver.
 */

#include <gtest/gtest.h>

#include "cluster/cluster_engine.hh"
#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;
namespace cluster = papi::cluster;
using papi::sim::FatalError;

std::vector<llm::TimedRequest>
stream(llm::TraceCategory cat, double rate_rps, std::uint32_t count,
       std::uint64_t seed = 5)
{
    llm::ArrivalProcess arrivals(cat, rate_rps, seed);
    return arrivals.generate(count);
}

std::uint64_t
totalOutputTokens(const std::vector<llm::TimedRequest> &reqs)
{
    std::uint64_t t = 0;
    for (const auto &r : reqs)
        t += r.request.outputLen;
    return t;
}

// ------------------------------------------------- ordered ticks

TEST(Timeline, OrderedTickIsMonotoneAndExact)
{
    const double times[] = {0.0,    1e-300, 1e-9, 0.1,
                            0.1001, 1.0,    3.5,  1e6};
    for (std::size_t i = 1; i < std::size(times); ++i) {
        EXPECT_LT(papi::sim::orderedTick(times[i - 1]),
                  papi::sim::orderedTick(times[i]));
        EXPECT_DOUBLE_EQ(papi::sim::orderedSeconds(
                             papi::sim::orderedTick(times[i])),
                         times[i]);
    }
    EXPECT_EQ(papi::sim::orderedTick(0.25),
              papi::sim::orderedTick(0.25));
    // -0.0 must encode as +0.0, not as a sign-bit-set tick that
    // would sort after every positive time.
    EXPECT_EQ(papi::sim::orderedTick(-0.0),
              papi::sim::orderedTick(0.0));
    EXPECT_THROW(papi::sim::orderedTick(-1.0), FatalError);
}

// --------------------------------------------- chunked prefill

TEST(ContinuousBatching, ChunkedPrefillConservesTokens)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig model = llm::llama65b();
    auto reqs = stream(llm::TraceCategory::GeneralQa, 80.0, 32);

    ServingOptions opt;
    opt.maxRlp = 16;
    opt.prefillChunkTokens = 64;
    ServingResult r =
        ServingEngine(papi).run(reqs, {}, model, opt);
    EXPECT_EQ(r.tokensGenerated, totalOutputTokens(reqs));
    EXPECT_EQ(r.admissions, reqs.size());
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_GT(r.makespanSeconds, 0.0);

    // Prefill work moves into decode iterations, so the chunked run
    // takes at least as many (smaller) iterations as the legacy one.
    ServingOptions legacy = opt;
    legacy.prefillChunkTokens = 0;
    ServingResult l =
        ServingEngine(papi).run(reqs, {}, model, legacy);
    EXPECT_EQ(l.tokensGenerated, r.tokensGenerated);
    EXPECT_GE(r.iterations, l.iterations);
    // Prompt work is conserved, not skipped: both runs charge a
    // comparable total amount of compute.
    EXPECT_NEAR(r.makespanSeconds, l.makespanSeconds,
                0.5 * l.makespanSeconds);
}

TEST(ContinuousBatching, ContinuousBeatsStaticBatchingOnTtftTail)
{
    // The bench acceptance in miniature: static (batch-level)
    // admission parks newcomers until the batch drains; continuous
    // batching with chunked prefill admits at the next boundary.
    PlatformConfig cfg = makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(llm::TraceCategory::GeneralQa, 120.0, 48);

    cluster::ClusterOptions stat;
    stat.numPlatforms = 1;
    stat.serving.maxRlp = 8;
    stat.serving.admission = AdmissionPolicy::BatchLevel;
    stat.serving.batchTimeoutSeconds = 0.05;
    cluster::ClusterResult rs =
        cluster::ClusterEngine(cfg, stat).run(reqs, spec, model);

    cluster::ClusterOptions cont = stat;
    cont.serving.admission = AdmissionPolicy::TokenLevel;
    cont.serving.prefillChunkTokens = 64;
    cluster::ClusterResult rc =
        cluster::ClusterEngine(cfg, cont).run(reqs, spec, model);

    EXPECT_EQ(rc.tokensGenerated, rs.tokensGenerated);
    EXPECT_LT(rc.ttft.p99, rs.ttft.p99);
    EXPECT_LT(rc.meanQueueingSeconds, rs.meanQueueingSeconds);
}

TEST(ContinuousBatching, ChunkedPrefillRunsUnderClusterAndConserves)
{
    PlatformConfig cfg = makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(llm::TraceCategory::GeneralQa, 150.0, 48);

    for (std::uint32_t n : {1u, 2u}) {
        cluster::ClusterOptions opt;
        opt.numPlatforms = n;
        opt.policy = cluster::RouterPolicy::LeastOutstanding;
        opt.serving.maxRlp = 8;
        opt.serving.prefillChunkTokens = 48;
        cluster::ClusterResult r =
            cluster::ClusterEngine(cfg, opt).run(reqs, spec, model);
        EXPECT_EQ(r.requestsServed, reqs.size()) << "n=" << n;
        EXPECT_EQ(r.tokensGenerated, totalOutputTokens(reqs))
            << "n=" << n;
    }
}

// ------------------------------------------- KV-pressure preemption

ServingOptions
pressureOptions(const llm::ModelConfig &model,
                const PlatformConfig &cfg,
                std::uint64_t pool_tokens)
{
    ServingOptions opt;
    opt.maxRlp = 12;
    opt.preemptOnKvPressure = true;
    opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
        model, pool_tokens, cfg.numAttnDevices);
    return opt;
}

TEST(KvPreemption, EvictionOrderAndMetricsAreDeterministic)
{
    PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    llm::ModelConfig model = llm::llama65b();
    // Long generations against a pool of ~2k tokens: decode growth
    // must hit capacity.
    auto reqs =
        stream(llm::TraceCategory::CreativeWriting, 300.0, 24, 11);
    ServingOptions opt = pressureOptions(model, cfg, 2048);

    ServingResult a = ServingEngine(papi).run(reqs, {}, model, opt);
    ServingResult b = ServingEngine(papi).run(reqs, {}, model, opt);

    // The run must actually preempt, and every eviction must be
    // resumed (nothing starves; conservation holds).
    EXPECT_GT(a.preemptions, 0u);
    EXPECT_EQ(a.preemptions, a.resumes);
    EXPECT_EQ(a.tokensGenerated, totalOutputTokens(reqs));
    EXPECT_GT(a.recomputedPrefillTokens, 0u);

    // Fixed seed, fixed stream: identical eviction order and
    // identical final metrics, bit for bit.
    ASSERT_EQ(a.evictionOrder.size(), b.evictionOrder.size());
    for (std::size_t i = 0; i < a.evictionOrder.size(); ++i)
        EXPECT_EQ(a.evictionOrder[i], b.evictionOrder[i]) << i;
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recomputedPrefillTokens, b.recomputedPrefillTokens);
}

TEST(KvPreemption, PreemptedRequestsCarryStallInRecords)
{
    PlatformConfig cfg = makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs =
        stream(llm::TraceCategory::CreativeWriting, 300.0, 24, 11);

    cluster::ClusterOptions copt;
    copt.numPlatforms = 1;
    copt.serving = pressureOptions(model, cfg, 2048);
    cluster::ClusterResult r =
        cluster::ClusterEngine(cfg, copt).run(reqs, spec, model);

    EXPECT_GT(r.preemptions, 0u);
    EXPECT_EQ(r.preemptions, r.resumes);
    std::uint64_t preempted_requests = 0;
    std::uint64_t preempted_tokens = 0;
    for (const auto &rec : r.records) {
        if (rec.preemptions > 0) {
            ++preempted_requests;
            EXPECT_GT(rec.stallSeconds, 0.0);
            preempted_tokens += rec.outputTokens;
        }
    }
    EXPECT_GT(preempted_requests, 0u);
    // Preempted requests' token counts conserve: they still deliver
    // every output token they were asked for.
    std::uint64_t expected_preempted_tokens = 0;
    for (const auto &tr : reqs) {
        for (const auto &rec : r.records) {
            if (rec.id == tr.request.id && rec.preemptions > 0)
                expected_preempted_tokens += tr.request.outputLen;
        }
    }
    EXPECT_EQ(preempted_tokens, expected_preempted_tokens);
    EXPECT_EQ(r.tokensGenerated, totalOutputTokens(reqs));
    // The stall percentiles surface in the stats export.
    EXPECT_GT(r.preemptionStall.p99, 0.0);
    papi::sim::stats::StatGroup g("cluster");
    r.populateStats(g);
    EXPECT_NE(g.find("preemptions"), nullptr);
    EXPECT_NE(g.find("preemption_stall_p99_seconds"), nullptr);
}

TEST(KvPreemption, SwapRestoreAvoidsRecompute)
{
    PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    llm::ModelConfig model = llm::llama65b();
    auto reqs =
        stream(llm::TraceCategory::CreativeWriting, 300.0, 24, 11);

    ServingOptions rec = pressureOptions(model, cfg, 2048);
    ServingOptions swap = rec;
    swap.preemptPolicy = KvPreemptPolicy::SwapRestore;

    ServingResult rr = ServingEngine(papi).run(reqs, {}, model, rec);
    ServingResult rs = ServingEngine(papi).run(reqs, {}, model, swap);
    EXPECT_GT(rs.preemptions, 0u);
    EXPECT_EQ(rs.recomputedPrefillTokens, 0u);
    EXPECT_GT(rr.recomputedPrefillTokens, 0u);
    EXPECT_EQ(rs.tokensGenerated, totalOutputTokens(reqs));
    EXPECT_EQ(rr.tokensGenerated, rs.tokensGenerated);
}

TEST(KvPreemption, SwapStallAttributionIdentity)
{
    // The lump-sum swap-out/in advances of SwapRestore delay every
    // live request, not just the swapped one. The per-request stall
    // records must account for exactly that: the sum of all
    // RequestRecord::stallSeconds equals the direct eviction stall
    // (preempt -> re-admission gaps) plus the batch-wide
    // swap-induced stall, both exported on ServingResult.
    PlatformConfig cfg = makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs =
        stream(llm::TraceCategory::CreativeWriting, 300.0, 24, 11);

    cluster::ClusterOptions copt;
    copt.numPlatforms = 1;
    copt.serving = pressureOptions(model, cfg, 2048);
    copt.serving.preemptPolicy = KvPreemptPolicy::SwapRestore;
    cluster::ClusterResult r =
        cluster::ClusterEngine(cfg, copt).run(reqs, spec, model);

    ASSERT_EQ(r.perGroup.size(), 1u);
    const ServingResult &g = r.perGroup[0];
    EXPECT_GT(g.preemptions, 0u);
    EXPECT_GT(g.evictionStallSeconds, 0.0);
    // Swap lumps delayed a live batch at least once.
    EXPECT_GT(g.swapInducedStallSeconds, 0.0);

    double record_stall = 0.0;
    for (const auto &rec : r.records)
        record_stall += rec.stallSeconds;
    const double accounted =
        g.evictionStallSeconds + g.swapInducedStallSeconds;
    EXPECT_NEAR(record_stall, accounted, 1e-9 * accounted);

    // Recompute has no swap lumps: its identity reduces to the
    // direct eviction stall alone.
    cluster::ClusterOptions rec_opt = copt;
    rec_opt.serving.preemptPolicy = KvPreemptPolicy::Recompute;
    cluster::ClusterResult rr =
        cluster::ClusterEngine(cfg, rec_opt).run(reqs, spec, model);
    EXPECT_EQ(rr.perGroup[0].swapInducedStallSeconds, 0.0);
    double rec_stall = 0.0;
    for (const auto &x : rr.records)
        rec_stall += x.stallSeconds;
    EXPECT_NEAR(rec_stall, rr.perGroup[0].evictionStallSeconds,
                1e-9 * rr.perGroup[0].evictionStallSeconds);
}

TEST(KvPreemption, WorksCombinedWithChunkedPrefillUnderCluster)
{
    PlatformConfig cfg = makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs =
        stream(llm::TraceCategory::CreativeWriting, 300.0, 32, 3);

    cluster::ClusterOptions opt;
    opt.numPlatforms = 2;
    opt.policy = cluster::RouterPolicy::LeastOutstanding;
    opt.serving = pressureOptions(model, cfg, 2048);
    opt.serving.prefillChunkTokens = 32;
    cluster::ClusterResult r =
        cluster::ClusterEngine(cfg, opt).run(reqs, spec, model);
    EXPECT_EQ(r.requestsServed, reqs.size());
    EXPECT_EQ(r.tokensGenerated, totalOutputTokens(reqs));
    std::uint64_t group_preemptions = 0;
    for (const auto &g : r.perGroup)
        group_preemptions += g.preemptions;
    EXPECT_EQ(r.preemptions, group_preemptions);
}

// ------------------------------------------- event-driver edge cases

TEST(ServingEventDriver, DuplicateArrivalTimesKeepN1Identity)
{
    // Two same-instant arrivals to an idle replica must prefill as
    // one batch on both the step-loop (ServingEngine) and the
    // event-driven (cluster) paths - the arrival-burst coalescing
    // rule.
    PlatformConfig cfg = makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(llm::TraceCategory::GeneralQa, 50.0, 16, 9);
    for (std::size_t i = 1; i < reqs.size(); i += 2)
        reqs[i].arrivalSeconds = reqs[i - 1].arrivalSeconds;

    ServingOptions sopt;
    sopt.maxRlp = 8;
    Platform bare(cfg);
    ServingResult single =
        ServingEngine(bare).run(reqs, spec, model, sopt);

    cluster::ClusterOptions copt;
    copt.numPlatforms = 1;
    copt.serving = sopt;
    cluster::ClusterResult r =
        cluster::ClusterEngine(cfg, copt).run(reqs, spec, model);
    ASSERT_EQ(r.perGroup.size(), 1u);
    EXPECT_EQ(r.perGroup[0].makespanSeconds, single.makespanSeconds);
    EXPECT_EQ(r.perGroup[0].energyJoules, single.energyJoules);
    EXPECT_EQ(r.perGroup[0].iterations, single.iterations);
    EXPECT_EQ(r.perGroup[0].tokensGenerated, single.tokensGenerated);
}

TEST(ServingEventDriver, ChunkedAndStaticBatchModesAreExclusive)
{
    // DecodeEngine's static-batch semantics and the serving-path
    // continuous-batching features must not silently combine.
    Platform papi(makePapiConfig());
    llm::ModelConfig model = llm::llama65b();
    ServingOptions opt;
    opt.prefillChunkTokens = 32;
    StaticBatchMode mode;
    mode.enabled = true;
    EXPECT_THROW(ServingSim(papi, {}, model, opt, {}, {}, mode),
                 FatalError);
    // A tensor-parallel cost model would scale static iterations
    // without their overlap-hidden time (the breakdown would no
    // longer sum to the busy time), so it is rejected too.
    IterationCostModel tp;
    tp.computeScale = 2.0;
    EXPECT_THROW(ServingSim(papi, {}, model, ServingOptions{}, tp, {},
                            mode),
                 FatalError);
}

} // namespace
