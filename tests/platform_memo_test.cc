/**
 * @file
 * Soundness of the kernel-cost memo (sim::FlatMemo inside Platform).
 *
 * Every Platform query is a pure function of the model's shape and the
 * workload scalars, so a memo hit must return, bit for bit, what a
 * recompute returns. One Platform is driven through interleaved
 * models (including a variant that differs from llama-65b in a single
 * shape field, which the per-Platform model-hash reuse must tell
 * apart), FC tokens 1-512 on every FC target, attention shapes and
 * prefill shapes - enough distinct keys for many index rebuilds - and
 * each key is then re-queried and compared with a second Platform
 * that computes it once. The FlatMemo cases pin the probe sequence
 * (all-colliding hashes), the growth path and the wholesale clear.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/platform.hh"
#include "llm/model_config.hh"
#include "sim/flat_memo.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;
using papi::sim::FlatMemo;

/** Bitwise equality of two kernel results. */
void
expectSameBits(const KernelExec &a, const KernelExec &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.seconds),
              std::bit_cast<std::uint64_t>(b.seconds));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.commSeconds),
              std::bit_cast<std::uint64_t>(b.commSeconds));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energyJoules),
              std::bit_cast<std::uint64_t>(b.energyJoules));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.commJoules),
              std::bit_cast<std::uint64_t>(b.commJoules));
    EXPECT_EQ(a.computeBound, b.computeBound);
}

/** One Platform query, replayable on any Platform. */
struct Query
{
    enum class Kind { Fc, Attn, Prefill, PrefillChunk };
    Kind kind = Kind::Fc;
    const llm::ModelConfig *model = nullptr;
    std::uint32_t tokens = 0;           ///< Fc: RLP x TLP tokens.
    TargetId target = kInvalidTargetId; ///< Fc/Attn target.
    std::vector<std::uint32_t> lens;    ///< Context / prompt lengths.
    std::vector<std::uint32_t> chunks;  ///< PrefillChunk only.
    std::uint32_t tlp = 1;              ///< Attn only.

    KernelExec
    run(const Platform &p) const
    {
        switch (kind) {
          case Kind::Fc:
            return p.fcExec(*model, tokens, target);
          case Kind::Attn:
            return p.attnExec(*model, lens, tlp, target);
          case Kind::Prefill:
            return p.prefillExec(*model, lens);
          case Kind::PrefillChunk:
            return p.prefillChunkExec(*model, lens, chunks);
        }
        return {};
    }
};

/** Deterministic 32-bit LCG for shape generation. */
struct Lcg
{
    std::uint32_t s = 12345;
    std::uint32_t
    next(std::uint32_t bound)
    {
        s = s * 1664525u + 1013904223u;
        return (s >> 8) % bound;
    }
};

std::vector<Query>
buildQueries(const Platform &p,
             const std::vector<const llm::ModelConfig *> &models)
{
    std::vector<TargetId> fc_targets;
    std::vector<TargetId> attn_targets;
    for (TargetId id = 0; id < p.targets().size(); ++id) {
        if (p.targets().at(id).fcCost)
            fc_targets.push_back(id);
        if (p.targets().at(id).attnCost)
            attn_targets.push_back(id);
    }
    Lcg rng;
    std::vector<Query> qs;
    // Models alternate query by query, so the model-hash reuse sees
    // a new shape almost every time.
    for (std::uint32_t tokens = 1; tokens <= 512; ++tokens)
        for (TargetId id : fc_targets)
            for (const llm::ModelConfig *m : models) {
                Query q;
                q.kind = Query::Kind::Fc;
                q.model = m;
                q.tokens = tokens;
                q.target = id;
                qs.push_back(q);
            }
    for (int i = 0; i < 300; ++i) {
        std::vector<std::uint32_t> ctx(1 + rng.next(16));
        for (auto &c : ctx)
            c = 1 + rng.next(4096);
        const std::uint32_t tlp = 1 + rng.next(4);
        for (TargetId id : attn_targets)
            for (const llm::ModelConfig *m : models) {
                Query q;
                q.kind = Query::Kind::Attn;
                q.model = m;
                q.target = id;
                q.lens = ctx;
                q.tlp = tlp;
                qs.push_back(q);
            }
    }
    for (int i = 0; i < 100; ++i) {
        std::vector<std::uint32_t> prior(1 + rng.next(8));
        std::vector<std::uint32_t> chunk(prior.size());
        for (std::size_t j = 0; j < prior.size(); ++j) {
            prior[j] = rng.next(1024);
            chunk[j] = 1 + rng.next(256);
        }
        for (const llm::ModelConfig *m : models) {
            Query q;
            q.kind = Query::Kind::Prefill;
            q.model = m;
            q.lens = chunk;
            qs.push_back(q);
            Query c;
            c.kind = Query::Kind::PrefillChunk;
            c.model = m;
            c.lens = prior;
            c.chunks = chunk;
            qs.push_back(c);
        }
    }
    return qs;
}

TEST(PlatformMemo, HitsMatchAFreshPlatformBitForBit)
{
    const llm::ModelConfig llama = llm::llama65b();
    const llm::ModelConfig gpt = llm::gpt3_66b();
    // Differs from llama-65b in one shape field only.
    llm::ModelConfig llama_short = llama;
    llama_short.numLayers = llama.numLayers / 2;

    Platform memo(makePapiConfig());
    const auto qs =
        buildQueries(memo, {&llama, &gpt, &llama_short});
    // 2 FC targets x 512 tokens x 3 models alone is 3072 keys: the
    // 64-slot index rebuilds at least six times on the way.
    ASSERT_GT(qs.size(), 3000u);

    std::vector<KernelExec> first;
    first.reserve(qs.size());
    for (const Query &q : qs)
        first.push_back(q.run(memo));

    // Reference: every query re-run on a second Platform in reverse
    // order, so each distinct key is computed there, not served from
    // an entry the first Platform's order left behind.
    Platform fresh(makePapiConfig());
    std::vector<KernelExec> want(qs.size());
    for (std::size_t i = qs.size(); i-- > 0;)
        want[i] = qs[i].run(fresh);

    for (std::size_t i = 0; i < qs.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameBits(first[i], want[i]);
        expectSameBits(qs[i].run(memo), want[i]);
    }
    // The one-field variant really prices differently, so a stale
    // model hash would have shown above.
    EXPECT_NE(memo.fcExec(llama, 64, FcTarget::FcPim).seconds,
              memo.fcExec(llama_short, 64, FcTarget::FcPim).seconds);
}

/** Hash that sends every key to one probe run. */
struct CollideHash
{
    std::uint64_t operator()(std::uint64_t) const { return 7; }
};

/** Identity hash. */
struct IdHash
{
    std::uint64_t operator()(std::uint64_t k) const { return k; }
};

TEST(FlatMemo, GrowsAndFindsEveryKey)
{
    FlatMemo<std::uint64_t, std::uint64_t, IdHash> m;
    EXPECT_EQ(m.find(1), nullptr);
    EXPECT_EQ(m.slots(), 0u);
    std::size_t rebuilds = 0;
    for (std::uint64_t k = 0; k < 5000; ++k) {
        const std::size_t before = m.slots();
        m.insert(k * 0x10000, k);
        rebuilds += m.slots() != before;
        EXPECT_LE(2 * m.size(), m.slots());
    }
    EXPECT_GE(rebuilds, 3u);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        const std::uint64_t *v = m.find(k * 0x10000);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
        EXPECT_EQ(m.find(k * 0x10000 + 1), nullptr);
    }
}

TEST(FlatMemo, FullyCollidingKeysProbeLinearly)
{
    FlatMemo<std::uint64_t, std::uint64_t, CollideHash> m;
    for (std::uint64_t k = 0; k < 300; ++k)
        m.insert(k, 1000 + k);
    for (std::uint64_t k = 0; k < 300; ++k) {
        const std::uint64_t *v = m.find(k);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, 1000 + k);
    }
    EXPECT_EQ(m.find(300), nullptr);
}

TEST(FlatMemo, ClearsWholesaleAtMaxEntries)
{
    constexpr std::uint64_t cap = papi::sim::flatMemoMaxEntries;
    FlatMemo<std::uint64_t, std::uint64_t, IdHash> m;
    for (std::uint64_t k = 0; k < cap; ++k)
        m.insert(k, k);
    EXPECT_EQ(m.size(), cap);
    const std::size_t slots = m.slots();
    m.insert(cap, 1);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.slots(), slots); // storage is kept
    EXPECT_EQ(m.find(0), nullptr);
    ASSERT_NE(m.find(cap), nullptr);
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(cap), nullptr);
}

} // namespace
