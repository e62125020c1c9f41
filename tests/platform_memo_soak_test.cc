/**
 * @file
 * Soak case of the kernel-cost memo: one Platform answers more
 * distinct queries than sim::flatMemoMaxEntries, so its memo is
 * discarded wholesale at least once, and a sample of keys from
 * before, around and after the clear is re-queried and compared bit
 * for bit with a second Platform that computes each key once.
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

constexpr std::uint32_t kMaxEntries =
    static_cast<std::uint32_t>(papi::sim::flatMemoMaxEntries);

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

TEST(PlatformMemoSoak, HitsStayExactAcrossTheWholesaleClear)
{
    const llm::ModelConfig llama = llm::llama65b();
    const llm::ModelConfig gpt = llm::gpt3_66b();
    Platform memo(makePapiConfig());
    Platform fresh(makePapiConfig());

    // Distinct FC keys: GPU FC at every token count up to past the
    // cap, two models interleaved. The entry that crosses the cap
    // discards the whole memo.
    const std::uint32_t total = kMaxEntries + kMaxEntries / 4;
    const auto model = [&](std::uint32_t i) -> const llm::ModelConfig & {
        return i % 2 ? gpt : llama;
    };
    for (std::uint32_t i = 0; i < total; ++i)
        (void)memo.fcExec(model(i), 1 + i / 2, FcTarget::Gpu);

    // Re-query a sample: keys lost in the clear (recomputed), keys
    // inserted after it (hits), and the last keys of both runs.
    std::vector<std::uint32_t> sample;
    for (std::uint32_t i = 0; i < total; i += 4099)
        sample.push_back(i);
    for (std::uint32_t i = kMaxEntries - 8; i < kMaxEntries + 8; ++i)
        sample.push_back(i);
    sample.push_back(total - 1);
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint32_t i : sample) {
            SCOPED_TRACE(i);
            const std::uint32_t tokens = 1 + i / 2;
            expectSameBits(
                memo.fcExec(model(i), tokens, FcTarget::Gpu),
                fresh.fcExec(model(i), tokens, FcTarget::Gpu));
        }
}

} // namespace
