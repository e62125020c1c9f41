/**
 * @file
 * Tests for disaggregated prefill/decode serving: KV-migration
 * conservation across the handoff, transfer-byte accounting against
 * the KV block ledger, byte-determinism of disaggregated runs,
 * configuration fatals, the colocated path staying untouched, and
 * dedicated pools beating a colocated cluster of the same hardware
 * on p99 TTFT.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/cluster_engine.hh"
#include "core/serving_engine.hh"
#include "core/threshold_calibrator.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace {

using namespace papi::cluster;
namespace core = papi::core;
namespace llm = papi::llm;
using papi::sim::FatalError;

std::vector<llm::TimedRequest>
stream(double rate_rps, std::uint32_t count, std::uint64_t seed = 21)
{
    llm::ArrivalProcess arrivals(llm::TraceCategory::PrefillHeavy,
                                 rate_rps, seed);
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

ClusterOptions
disaggOptions(std::uint32_t prefill, std::uint32_t decode)
{
    ClusterOptions opt;
    opt.serving.maxRlp = 16;
    opt.serving.alpha = 24.0;
    opt.disagg.enabled = true;
    opt.disagg.prefillReplicas = prefill;
    opt.disagg.decodeReplicas = decode;
    return opt;
}

TEST(Disaggregation, ConservesTokensAcrossHandoff)
{
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(60.0, 48);

    ClusterOptions opt = disaggOptions(2, 2);
    ClusterEngine engine(cfg, opt);
    EXPECT_EQ(engine.numGroups(), 4u);
    ClusterResult r = engine.run(reqs, spec, model);

    // Every request decodes exactly once, on the decode pool; the
    // prefill pool generates no output tokens but processes every
    // prompt token and migrates every request exactly once.
    EXPECT_EQ(r.requestsServed, reqs.size());
    EXPECT_EQ(r.tokensGenerated, totalOutputTokens(reqs));
    EXPECT_EQ(r.kvTransfers, reqs.size());
    ASSERT_EQ(r.perGroup.size(), 4u);
    std::uint64_t prompt_tokens = 0;
    for (const auto &tr : reqs)
        prompt_tokens += tr.request.inputLen;
    std::uint64_t handoffs = 0, handoff_tokens = 0;
    for (std::uint32_t g = 0; g < 2; ++g) {
        EXPECT_EQ(r.perGroup[g].tokensGenerated, 0u) << "g=" << g;
        handoffs += r.perGroup[g].handoffs;
        handoff_tokens += r.perGroup[g].prefillHandoffTokens;
    }
    for (std::uint32_t g = 2; g < 4; ++g) {
        EXPECT_EQ(r.perGroup[g].handoffs, 0u) << "g=" << g;
        EXPECT_GT(r.perGroup[g].tokensGenerated, 0u) << "g=" << g;
    }
    EXPECT_EQ(handoffs, reqs.size());
    EXPECT_EQ(handoff_tokens, prompt_tokens);
    EXPECT_EQ(r.prefillGroups, 2u);
    EXPECT_EQ(r.decodeGroups, 2u);
    ASSERT_EQ(r.groupRoles.size(), 4u);
    EXPECT_EQ(r.groupRoles[0], "prefill");
    EXPECT_EQ(r.groupRoles[3], "decode");

    // End-to-end records span the whole pipeline: first token after
    // the original arrival, prefill + transfer + decode admission.
    for (const auto &rec : r.records) {
        EXPECT_GE(rec.ttftSeconds(), 0.0);
        EXPECT_GE(rec.finishSeconds, rec.firstTokenSeconds);
    }
    EXPECT_GT(r.kvTransferSeconds, 0.0);
    EXPECT_GT(r.kvTransferJoules, 0.0);

    // Stat export survives pools with zero completed requests (the
    // prefill replicas) and carries the migration counters.
    papi::sim::stats::StatGroup g("disagg");
    r.populateStats(g);
    EXPECT_NE(g.find("kv_transfers"), nullptr);
    EXPECT_NE(g.find("kv_transfer_bytes"), nullptr);
}

TEST(Disaggregation, TransferBytesMatchKvBlockLedger)
{
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(60.0, 32, 5);

    ClusterOptions opt = disaggOptions(1, 1);
    ClusterResult r =
        ClusterEngine(cfg, opt).run(reqs, spec, model);

    // The migration moves exactly the KV blocks the prompt
    // materialized: per request, ceil(inputLen / blockTokens)
    // blocks of blockBytes() each, straight from the allocator's
    // own arithmetic.
    llm::KvCacheManager ledger(
        model, cfg.numAttnDevices,
        cfg.attnDeviceConfig.capacityBytes());
    std::uint64_t expected_bytes = 0;
    for (const auto &tr : reqs)
        expected_bytes +=
            ledger.blocksForTokens(tr.request.inputLen) *
            ledger.blockBytes();
    EXPECT_EQ(r.kvTransfers, reqs.size());
    EXPECT_EQ(r.kvTransferBytes, expected_bytes);

    // Link-time accounting: the summed fabric occupancy is at least
    // bytes / bandwidth plus one latency+overhead per transfer.
    const auto &link = opt.disagg.transferLink;
    double floor_seconds =
        static_cast<double>(expected_bytes) /
            link.bandwidthBytesPerSec +
        static_cast<double>(reqs.size()) *
            (link.latencySeconds + link.messageOverheadSeconds);
    EXPECT_NEAR(r.kvTransferSeconds, floor_seconds,
                1e-9 * floor_seconds);
}

TEST(Disaggregation, RunsAreByteDeterministic)
{
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    spec.length = 2;
    auto reqs = stream(80.0, 40, 13);

    ClusterOptions opt = disaggOptions(2, 2);
    opt.serving.prefillChunkTokens = 128; // chunked prefill pool
    ClusterResult a = ClusterEngine(cfg, opt).run(reqs, spec, model);
    ClusterResult b = ClusterEngine(cfg, opt).run(reqs, spec, model);

    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.kvTransfers, b.kvTransfers);
    EXPECT_EQ(a.kvTransferBytes, b.kvTransferBytes);
    EXPECT_EQ(a.kvTransferSeconds, b.kvTransferSeconds);
    EXPECT_EQ(a.ttft.p99, b.ttft.p99);
    EXPECT_EQ(a.tpot.p99, b.tpot.p99);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].id, b.records[i].id) << i;
        EXPECT_EQ(a.records[i].finishSeconds,
                  b.records[i].finishSeconds)
            << i;
    }
    // Chunked prefill conserves prompt work across the handoff too.
    EXPECT_EQ(a.kvTransfers, reqs.size());
    EXPECT_EQ(a.tokensGenerated, totalOutputTokens(reqs));
}

TEST(Disaggregation, LeastOutstandingSpreadsNonChunkedPrefillPool)
{
    // Regression: a non-chunked prefill replica retires each
    // completed prompt synchronously inside admit(), so it reports
    // outstanding == 0 even while its clock is mid-prefill; without
    // the busy-until tie-break, least-outstanding routing collapses
    // the whole pool onto replica 0.
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(60.0, 48, 17);

    ClusterOptions opt = disaggOptions(2, 2);
    opt.disagg.prefillPolicy = RouterPolicy::LeastOutstanding;
    ClusterResult r =
        ClusterEngine(cfg, opt).run(reqs, spec, model);
    EXPECT_EQ(r.tokensGenerated, totalOutputTokens(reqs));
    // Both prefill replicas carry a meaningful share of the prompts
    // (the collapse put 100% of them on replica 0).
    EXPECT_GT(r.perGroup[0].handoffs, 0u);
    EXPECT_GT(r.perGroup[1].handoffs, 0u);
    EXPECT_GE(std::min(r.perGroup[0].handoffs,
                       r.perGroup[1].handoffs) *
                  4,
              reqs.size());
}

TEST(Disaggregation, WorksWithKvPreemptionOnTheDecodePool)
{
    // Forced KV pressure on the decode pool: migrated-in requests
    // still conserve tokens under evict/resume.
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    llm::ArrivalProcess arrivals(
        llm::TraceCategory::CreativeWriting, 120.0, 11);
    auto reqs = arrivals.generate(24);

    ClusterOptions opt = disaggOptions(1, 1);
    opt.serving.preemptOnKvPressure = true;
    opt.serving.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
        model, 4096, cfg.numAttnDevices);
    ClusterResult r =
        ClusterEngine(cfg, opt).run(reqs, spec, model);
    EXPECT_EQ(r.requestsServed, reqs.size());
    EXPECT_EQ(r.tokensGenerated, totalOutputTokens(reqs));
    EXPECT_EQ(r.kvTransfers, reqs.size());
    EXPECT_GT(r.preemptions, 0u);
    EXPECT_EQ(r.preemptions, r.resumes);
}

TEST(Disaggregation, ConfigurationFatals)
{
    core::PlatformConfig cfg = core::makePapiConfig();

    ClusterOptions zero = disaggOptions(0, 2);
    EXPECT_THROW(ClusterEngine(cfg, zero), FatalError);

    ClusterOptions batch = disaggOptions(1, 1);
    batch.serving.admission = core::AdmissionPolicy::BatchLevel;
    EXPECT_THROW(ClusterEngine(cfg, batch), FatalError);

    // Heterogeneous pools need one config per replica.
    ClusterOptions hetero = disaggOptions(1, 2);
    EXPECT_THROW(
        ClusterEngine(std::vector<core::PlatformConfig>{cfg, cfg},
                      hetero),
        FatalError);

    // A prefill-role sim rejects static-batch mode and preemption.
    core::Platform platform(cfg);
    llm::ModelConfig model = llm::llama65b();
    core::ServingOptions popt;
    popt.role = core::ServingRole::Prefill;
    popt.preemptOnKvPressure = true;
    EXPECT_THROW(core::ServingSim(platform, {}, model, popt),
                 FatalError);
}

TEST(Disaggregation, ColocatedPathStaysByteIdentical)
{
    // With disaggregation off (the default), the cluster must
    // reproduce the bare single-platform engine bit for bit - the
    // pre-existing contract, re-pinned here against the new config
    // surface (a default-constructed DisaggConfig present in the
    // options must change nothing).
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(60.0, 32, 9);

    core::ServingOptions sopt;
    sopt.maxRlp = 16;
    sopt.alpha = 24.0;
    core::Platform bare(cfg);
    core::ServingResult single =
        core::ServingEngine(bare).run(reqs, spec, model, sopt);

    ClusterOptions copt;
    copt.numPlatforms = 1;
    copt.serving = sopt;
    ASSERT_FALSE(copt.disagg.enabled);
    ClusterResult r = ClusterEngine(cfg, copt).run(reqs, spec, model);
    ASSERT_EQ(r.perGroup.size(), 1u);
    EXPECT_EQ(r.perGroup[0].makespanSeconds, single.makespanSeconds);
    EXPECT_EQ(r.perGroup[0].energyJoules, single.energyJoules);
    EXPECT_EQ(r.perGroup[0].iterations, single.iterations);
    EXPECT_EQ(r.perGroup[0].tokensGenerated, single.tokensGenerated);
    EXPECT_EQ(r.kvTransfers, 0u);
    EXPECT_EQ(r.prefillGroups, 0u);
    ASSERT_EQ(r.groupRoles.size(), 1u);
    EXPECT_EQ(r.groupRoles[0], "colocated");
}

TEST(Disaggregation, BeatsColocatedTtftTailOnPrefillHeavyTrace)
{
    // Same four platforms and the same serving mode (continuous
    // batching, 32-token prefill chunks, least-outstanding routing)
    // on both sides; the pool split is the only delta. Colocated
    // replicas interleave prompt chunks with decode iterations, so
    // every prompt stretches by the decode work sharing its
    // iterations; dedicated pools remove that at the price of one KV
    // migration per request over the default link.
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    auto reqs = stream(45.0, 96, 7);

    ClusterOptions base;
    base.policy = RouterPolicy::LeastOutstanding;
    {
        core::Platform reference(cfg);
        base.serving.alpha =
            core::ThresholdCalibrator::calibrate(reference, model)
                .alpha;
    }
    base.serving.maxRlp = 16;
    base.serving.prefillChunkTokens = 32;

    ClusterOptions coloc = base;
    coloc.numPlatforms = 4;
    ClusterOptions disagg = base;
    disagg.disagg.enabled = true;
    disagg.disagg.prefillReplicas = 2;
    disagg.disagg.decodeReplicas = 2;
    disagg.disagg.prefillPolicy = RouterPolicy::LeastOutstanding;

    const ClusterResult c =
        ClusterEngine(cfg, coloc).run(reqs, spec, model);
    const ClusterResult d =
        ClusterEngine(cfg, disagg).run(reqs, spec, model);

    EXPECT_LT(d.ttft.p99, c.ttft.p99);
    EXPECT_EQ(d.kvTransfers, reqs.size());
    EXPECT_EQ(c.kvTransfers, 0u);
}

} // namespace
