/**
 * @file
 * Differential and ledger tests for shared prefix caching in the
 * serving engine:
 *
 *  - With the cache DISABLED, a keyed multi-turn trace runs the
 *    engine in lockstep with the frozen pre-cache scalar reference,
 *    bit for bit - the shared-prefix request fields are inert.
 *  - With the cache ENABLED but no keyed requests in the stream, the
 *    run is byte-identical to the disabled run.
 *  - The token ledger: per request and per run,
 *    prefixHitTokens + prefixMissTokens == admitted prompt tokens.
 *  - Disaggregated prefill handoffs shrink by exactly the hit
 *    blocks (same per-request kvTokens, fewer kvBlocks/kvBytes).
 *  - Under KV pressure, cached blocks are evicted (accounted in
 *    prefixEvictedBytes) before requests are preempted, and the
 *    ledger of a pressured run is pinned against golden values
 *    (the KV grow order of each prefill mode).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/serving_engine.hh"
#include "core/serving_reference.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;

std::vector<llm::TimedRequest>
stream(llm::TraceCategory cat, double rate_rps, std::uint32_t count,
       std::uint64_t seed)
{
    llm::ArrivalProcess arrivals(cat, rate_rps, seed);
    return arrivals.generate(count);
}

/** Exact (bitwise for doubles) equality of two serving results. */
void
expectResultsEqual(const ServingResult &a, const ServingResult &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.admissions, b.admissions);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
    EXPECT_EQ(a.meanRlp, b.meanRlp);
    EXPECT_EQ(a.peakKvUtilization, b.peakKvUtilization);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.handoffs, b.handoffs);
    EXPECT_EQ(a.evictionOrder, b.evictionOrder);
}

struct RunOutput
{
    ServingResult result;
    std::vector<RequestRecord> records;
    std::vector<HandoffRecord> handoffs;
    RunBreakdown breakdown;
};

/** Deliver @p reqs into a fresh ServingSim and run it dry. */
RunOutput
runSim(const ServingOptions &opt,
       const std::vector<llm::TimedRequest> &reqs)
{
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;

    ServingSim sim(papi, spec, model, opt);
    for (const auto &tr : reqs)
        sim.deliver(tr);
    RunOutput out;
    while (sim.canStep()) {
        sim.step();
        if (sim.hasHandoffs()) {
            auto hs = sim.takeHandoffs();
            out.handoffs.insert(out.handoffs.end(), hs.begin(),
                                hs.end());
        }
    }
    out.result = sim.finish();
    out.records = sim.records();
    out.breakdown = sim.breakdown();
    return out;
}

/**
 * Cache disabled: a keyed agentic trace through the SoA engine must
 * stay in bitwise lockstep with the frozen pre-cache reference - the
 * prefix fields on Request are dead weight until the flag flips.
 */
TEST(ServingPrefix, CacheOffLockstepWithReferenceOnKeyedTrace)
{
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 100.0, 48, 13);

    for (std::uint32_t chunk : {0u, 64u}) {
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        ServingOptions opt;
        opt.maxRlp = 16;
        opt.prefillChunkTokens = chunk;

        ServingSim soa(papi, spec, model, opt);
        refimpl::ReferenceServingSim ref(papi, spec, model, opt, {},
                                         {}, {});
        for (const auto &tr : reqs) {
            soa.deliver(tr);
            ref.deliver(tr);
        }
        std::uint64_t steps = 0;
        while (soa.canStep() || ref.canStep()) {
            ASSERT_EQ(soa.canStep(), ref.canStep());
            if (soa.hasActive()) {
                ASSERT_EQ(soa.peekIterationSeconds(),
                          ref.peekIterationSeconds())
                    << "step " << steps;
            }
            soa.step();
            ref.step();
            ASSERT_EQ(soa.now(), ref.now()) << "step " << steps;
            ASSERT_LT(++steps, 2'000'000u);
        }
        const ServingResult r = soa.finish();
        expectResultsEqual(r, ref.finish());
        // No cache, no ledger: the counters stay zero.
        EXPECT_EQ(r.prefixLookups, 0u);
        EXPECT_EQ(r.prefixHitTokens, 0u);
        EXPECT_EQ(r.prefixMissTokens, 0u);
        EXPECT_EQ(r.prefixEvictedBytes, 0u);
    }
}

/**
 * Cache enabled over a stream with no prefix keys: byte-identical
 * to the disabled engine (the flag alone must not perturb timing).
 */
TEST(ServingPrefix, CacheOnWithoutKeysIsByteIdentical)
{
    const auto reqs =
        stream(llm::TraceCategory::GeneralQa, 100.0, 40, 21);
    ServingOptions off;
    off.maxRlp = 16;
    off.prefillChunkTokens = 96;
    ServingOptions on = off;
    on.prefixCacheEnabled = true;

    const RunOutput a = runSim(off, reqs);
    const RunOutput b = runSim(on, reqs);
    expectResultsEqual(a.result, b.result);
    EXPECT_EQ(a.breakdown.prefillSeconds, b.breakdown.prefillSeconds);
    EXPECT_EQ(b.result.prefixLookups, 0u);
    EXPECT_EQ(b.result.prefixHits, 0u);
}

/**
 * The token ledger: every admitted prompt token is accounted as
 * either hit (prefill cost skipped) or miss (prefilled the long
 * way), per record and per run, in both prefill paths.
 */
TEST(ServingPrefix, HitPlusMissEqualsPromptTokens)
{
    // Slow arrivals: a session's next turn must land after the
    // previous one retired, or there is nothing in cache to hit.
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 2.0, 56, 17);
    std::map<std::uint64_t, std::uint32_t> input_len;
    for (const auto &tr : reqs)
        input_len[tr.request.id] = tr.request.inputLen;

    for (std::uint32_t chunk : {0u, 64u}) {
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        ServingOptions opt;
        opt.maxRlp = 16;
        opt.prefillChunkTokens = chunk;
        opt.prefixCacheEnabled = true;

        const RunOutput out = runSim(opt, reqs);
        ASSERT_EQ(out.records.size(), reqs.size());
        std::uint64_t hit = 0, miss = 0, prompt = 0;
        for (const auto &rec : out.records) {
            EXPECT_EQ(rec.prefixHitTokens + rec.prefixMissTokens,
                      input_len.at(rec.id))
                << "request " << rec.id;
            hit += rec.prefixHitTokens;
            miss += rec.prefixMissTokens;
            prompt += input_len.at(rec.id);
        }
        EXPECT_EQ(out.result.prefixHitTokens, hit);
        EXPECT_EQ(out.result.prefixMissTokens, miss);
        EXPECT_EQ(hit + miss, prompt);
        // The agentic trace reuses each turn's context: the cache
        // must actually fire, and hits must cut prefill time.
        EXPECT_GT(out.result.prefixHits, 0u);
        EXPECT_GT(out.result.prefixHitTokens, 0u);
        EXPECT_LT(out.result.prefixHits, out.result.prefixLookups + 1);

        ServingOptions off = opt;
        off.prefixCacheEnabled = false;
        const RunOutput base = runSim(off, reqs);
        EXPECT_LT(out.breakdown.prefillSeconds,
                  base.breakdown.prefillSeconds);
    }
}

/**
 * Disaggregated prefill pool: a handoff's transfer footprint drops
 * by exactly the whole blocks served from cache, while the logical
 * context (kvTokens, what the decode pool must reserve) is
 * unchanged request by request.
 */
TEST(ServingPrefix, HandoffShrinksByHitBlocks)
{
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 150.0, 48, 29);
    ServingOptions opt;
    opt.maxRlp = 16;
    opt.role = ServingRole::Prefill;
    opt.prefillChunkTokens = 128;

    const RunOutput base = runSim(opt, reqs);
    ServingOptions on = opt;
    on.prefixCacheEnabled = true;
    const RunOutput cached = runSim(on, reqs);

    ASSERT_EQ(base.handoffs.size(), reqs.size());
    ASSERT_EQ(cached.handoffs.size(), reqs.size());
    EXPECT_GT(cached.result.prefixHitTokens, 0u);

    const llm::ModelConfig model = llm::llama65b();
    llm::KvCacheManager geom(model, 1, 1ULL << 32, 16);
    std::map<std::uint64_t, const HandoffRecord *> by_id;
    for (const auto &h : base.handoffs)
        by_id[h.request.request.id] = &h;
    std::uint64_t shrunk = 0;
    for (const auto &h : cached.handoffs) {
        const HandoffRecord &b = *by_id.at(h.request.request.id);
        // Same materialized context either way...
        EXPECT_EQ(h.kvTokens, b.kvTokens);
        // ...but cached whole blocks never cross the fabric.
        EXPECT_LE(h.kvBlocks, b.kvBlocks);
        EXPECT_EQ(b.kvBytes - h.kvBytes,
                  (b.kvBlocks - h.kvBlocks) * geom.blockBytes());
        if (h.kvBlocks < b.kvBlocks)
            ++shrunk;
    }
    EXPECT_GT(shrunk, 0u) << "no handoff was served from cache";
}

/**
 * Evict-before-preempt: under KV pressure the engine reclaims
 * cached prefix blocks (visible as prefixEvictedBytes) and the run
 * completes deterministically.
 */
TEST(ServingPrefix, PressureEvictsCacheDeterministically)
{
    const PlatformConfig cfg = makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 300.0, 40, 31);

    ServingOptions opt;
    opt.maxRlp = 12;
    opt.prefixCacheEnabled = true;
    opt.preemptOnKvPressure = true;
    opt.preemptPolicy = KvPreemptPolicy::Recompute;
    opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
        model, 4096, cfg.numAttnDevices);

    const RunOutput a = runSim(opt, reqs);
    EXPECT_EQ(a.records.size(), reqs.size());
    EXPECT_GT(a.result.prefixEvictedBytes, 0u)
        << "pool never pressured the cache";
    // Fixed seed, fixed stream: bitwise reproducible.
    const RunOutput b = runSim(opt, reqs);
    expectResultsEqual(a.result, b.result);
    EXPECT_EQ(a.result.prefixEvictedBytes,
              b.result.prefixEvictedBytes);
}

/**
 * KV grow order under preemption, pinned by golden values. Chunked
 * prefill grows each decoder's KV inside the advance loop, before
 * the next request retires; monolithic prefill grows the survivors
 * in one bulk pass after the retirees released. A finishing
 * request's last growth can reclaim a cached prefix that the
 * release-first order keeps, so swapping either order moves the
 * prefix-cache ledger below. The lockstep reference has no prefix
 * cache, so these values are the pin.
 */
TEST(ServingPrefix, PreemptGrowOrderGolden)
{
    const PlatformConfig cfg = makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs =
        stream(llm::TraceCategory::LongContextRag, 2.0, 600, 23);
    struct Golden
    {
        std::uint32_t chunk;
        std::uint64_t evictedBytes;
        std::uint64_t hitTokens;
    };
    const Golden goldens[] = {
        {0, 457304965120u, 449456u},
        {64, 446273945600u, 451248u},
    };
    for (const Golden &g : goldens) {
        SCOPED_TRACE("chunk=" + std::to_string(g.chunk));
        ServingOptions opt;
        opt.maxRlp = 16;
        opt.prefillChunkTokens = g.chunk;
        opt.prefixCacheEnabled = true;
        opt.preemptOnKvPressure = true;
        opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            model, 8192, cfg.numAttnDevices);
        const RunOutput r = runSim(opt, reqs);
        EXPECT_EQ(r.records.size(), reqs.size());
        EXPECT_EQ(r.result.prefixEvictedBytes, g.evictedBytes);
        EXPECT_EQ(r.result.prefixHitTokens, g.hitTokens);
    }
}

} // namespace
