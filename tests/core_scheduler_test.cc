/**
 * @file
 * Tests for the AI estimator, threshold calibrator, and the
 * threshold dispatch rule - the paper's Section 5 mechanisms.
 */

#include <gtest/gtest.h>

#include "core/ai_estimator.hh"
#include "core/dispatch_policy.hh"
#include "core/platform.hh"
#include "core/threshold_calibrator.hh"
#include "llm/model_config.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;
using papi::sim::FatalError;

TEST(AiEstimator, EstimateIsRlpTimesTlp)
{
    llm::ModelConfig m = llm::gpt3_66b();
    ArithmeticIntensityEstimator est(m);
    EXPECT_DOUBLE_EQ(est.estimate(16, 4), 64.0);
    EXPECT_DOUBLE_EQ(est.estimate(1, 1), 1.0);
}

TEST(AiEstimator, EstimateTracksMeasuredWithinTenPercent)
{
    // Paper Fig. 6: the estimate closely matches the measured AI of
    // the GPT-3 66B FC kernels across the RLP x TLP grid.
    llm::ModelConfig m = llm::gpt3_66b();
    ArithmeticIntensityEstimator est(m);
    for (std::uint32_t tlp : {2u, 4u, 6u, 8u}) {
        for (std::uint32_t rlp : {4u, 8u, 16u, 32u}) {
            EXPECT_LT(std::abs(est.relativeError(rlp, tlp)), 0.10)
                << "rlp=" << rlp << " tlp=" << tlp;
        }
    }
}

TEST(AiEstimator, EstimateOverpredictsAtExtremeParallelism)
{
    // Paper Section 5.1: at very large RLP the estimate slightly
    // exceeds the measured AI - harmless because both sides are deep
    // in compute-bound territory.
    llm::ModelConfig m = llm::gpt3_66b();
    ArithmeticIntensityEstimator est(m);
    double err = est.relativeError(128, 8);
    EXPECT_GT(err, 0.0);
    EXPECT_GT(est.measured(128, 8), 500.0); // still clearly compute-bound
}

// The default pair is {below=0, above=1}: target ids are opaque
// labels drawn from a platform's registry.
constexpr TargetId kBelow = 0; // memory-bound side (the paper's PIM)
constexpr TargetId kAbove = 1; // compute-bound side (the paper's GPU)

TEST(Scheduler, RoutesByThreshold)
{
    DispatchDecision d = thresholdDecision(/*alpha=*/24.0, /*rlp=*/64,
                                           /*tlp=*/1, {}, {});
    EXPECT_EQ(d.target, kAbove); // 64 > 24
    EXPECT_DOUBLE_EQ(d.estimatedAi, 64.0);

    EXPECT_EQ(thresholdDecision(24.0, 4, 2, {}, {}).target,
              kBelow); // 8 < 24
}

TEST(Scheduler, AlphaItselfStaysOnTheMemoryBoundSide)
{
    // Strictly greater than alpha is compute-bound; AI == alpha is
    // not.
    EXPECT_EQ(thresholdDecision(24.0, 25, 1, {}, {}).target, kAbove);
    DispatchDecision at = thresholdDecision(24.0, 24, 1, {}, {});
    EXPECT_DOUBLE_EQ(at.estimatedAi, 24.0);
    EXPECT_EQ(at.target, kBelow);
    EXPECT_EQ(thresholdDecision(24.0, 12, 2, {}, {}).target, kBelow);
}

TEST(Scheduler, GenericOverArbitraryTargetPairs)
{
    // The threshold rule is pair-agnostic: any two registry ids -
    // e.g. two PIM device classes - dispatch exactly like the
    // paper's (FC-PIM, GPU) pair.
    TargetPair pair;
    pair.below = 7;
    pair.above = 3;
    EXPECT_EQ(thresholdDecision(24.0, 64, 1, {}, pair).target, 3u);
    EXPECT_EQ(thresholdDecision(24.0, 24, 1, {}, pair).target,
              7u); // RLP 24 <= alpha
}

TEST(Scheduler, RaisingTlpFlipsTheTarget)
{
    // Host software raising the speculation length moves the same
    // RLP across alpha.
    DispatchDecision d = thresholdDecision(24.0, 8, 1, {}, {});
    EXPECT_DOUBLE_EQ(d.estimatedAi, 8.0);
    EXPECT_EQ(d.target, kBelow);
    d = thresholdDecision(24.0, 8, 4, {}, {});
    EXPECT_DOUBLE_EQ(d.estimatedAi, 32.0);
    EXPECT_EQ(d.target, kAbove);
}

class CalibratorTest : public ::testing::Test
{
  protected:
    CalibratorTest() : platform(makePapiConfig()) {}
    Platform platform;
};

TEST_F(CalibratorTest, AlphaInPlausibleRange)
{
    // FC-PIM (4P1B, 30 devices) should beat 6 A100s at low token
    // counts and lose in the tens - alpha lands between 8 and 96.
    CalibrationResult cal = ThresholdCalibrator::calibrate(
        platform, llm::llama65b());
    EXPECT_GE(cal.alpha, 8.0);
    EXPECT_LE(cal.alpha, 96.0);
}

TEST_F(CalibratorTest, AlphaSeparatesWinners)
{
    llm::ModelConfig m = llm::llama65b();
    CalibrationResult cal =
        ThresholdCalibrator::calibrate(platform, m);
    auto tokens_at = static_cast<std::uint32_t>(cal.alpha);
    // At alpha, PIM wins (or ties); comfortably above it, GPU wins.
    double pim_at = platform.fcExec(m, tokens_at,
                                    FcTarget::FcPim).seconds;
    double gpu_at = platform.fcExec(m, tokens_at,
                                    FcTarget::Gpu).seconds;
    EXPECT_LE(pim_at, gpu_at * 1.01);
    double pim_hi = platform.fcExec(m, tokens_at * 4,
                                    FcTarget::FcPim).seconds;
    double gpu_hi = platform.fcExec(m, tokens_at * 4,
                                    FcTarget::Gpu).seconds;
    EXPECT_LT(gpu_hi, pim_hi);
}

TEST_F(CalibratorTest, SweepRecordsPoints)
{
    CalibrationResult cal = ThresholdCalibrator::calibrate(
        platform, llm::gpt3_66b());
    EXPECT_GE(cal.points.size(), 4u);
    for (const auto &p : cal.points) {
        EXPECT_GT(p.aboveSeconds, 0.0);
        EXPECT_GT(p.belowSeconds, 0.0);
    }
    // The calibrated pair is the platform's FC threshold pair.
    EXPECT_EQ(cal.pair.below, platform.targetId("fc-pim"));
    EXPECT_EQ(cal.pair.above, platform.targetId("gpu"));
}

TEST_F(CalibratorTest, AlphaSimilarAcrossModels)
{
    // The crossover is a hardware property; it should not move by
    // more than ~2x across model sizes.
    double a65 = ThresholdCalibrator::calibrate(platform,
                                                llm::llama65b())
                     .alpha;
    double a175 = ThresholdCalibrator::calibrate(platform,
                                                 llm::gpt3_175b())
                      .alpha;
    EXPECT_LT(std::max(a65, a175) / std::min(a65, a175), 2.5);
}

TEST(Calibrator, RequiresDynamicCapablePlatform)
{
    Platform no_gpu(makeAttAccOnlyConfig());
    EXPECT_THROW(ThresholdCalibrator::calibrate(no_gpu,
                                                llm::llama65b()),
                 FatalError);
    Platform no_pim(makeA100AttAccConfig());
    EXPECT_THROW(ThresholdCalibrator::calibrate(no_pim,
                                                llm::llama65b()),
                 FatalError);
}

} // namespace
