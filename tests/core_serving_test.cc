/**
 * @file
 * Tests for mixed-continuous-batching serving (including a golden of
 * the dynamic FC dispatch split on a speculative stream), MoE
 * workload modelling, and config-driven platform construction.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/config_loader.hh"
#include "core/serving_engine.hh"
#include "core/threshold_calibrator.hh"
#include "llm/moe.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;
using papi::sim::FatalError;

class ServingTest : public ::testing::Test
{
  protected:
    static std::vector<llm::TimedRequest>
    stream(double rate_rps, std::uint32_t count,
           std::uint64_t seed = 5)
    {
        llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                     rate_rps, seed);
        return arrivals.generate(count);
    }

    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig serial;
};

TEST_F(ServingTest, AllRequestsServed)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    auto reqs = stream(50.0, 32);
    ServingResult r = engine.run(reqs, serial, model);
    std::uint64_t expected_tokens = 0;
    for (const auto &t : reqs)
        expected_tokens += t.request.outputLen;
    EXPECT_EQ(r.tokensGenerated, expected_tokens);
    EXPECT_EQ(r.admissions, 32u);
    EXPECT_GT(r.makespanSeconds, 0.0);
    EXPECT_GT(r.meanLatencySeconds, 0.0);
    EXPECT_GE(r.p95LatencySeconds, r.meanLatencySeconds);
}

TEST_F(ServingTest, RlpRisesAndFallsProducingBothSwitchDirections)
{
    // The whole point of continuous batching for PAPI: admissions
    // push RLP x TLP above alpha (FC -> GPU) and drains pull it
    // below (FC -> PIM). A bursty stream must produce reschedules in
    // both directions.
    Platform papi(makePapiConfig());
    double alpha = ThresholdCalibrator::calibrate(papi, model).alpha;
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.alpha = alpha;
    opt.maxRlp = static_cast<std::uint32_t>(alpha) * 3;
    auto reqs = stream(500.0, 96); // heavy burst
    ServingResult r = engine.run(reqs, serial, model, opt);
    EXPECT_GT(r.reschedules, 1u);
    EXPECT_GT(r.reschedulesToGpu, 0u);
    EXPECT_GT(r.reschedules, r.reschedulesToGpu); // also GPU -> PIM
    EXPECT_GT(r.fcOnGpuIterations, 0u);
    EXPECT_GT(r.fcOnPimIterations, 0u);
}

TEST_F(ServingTest, MaxRlpCapsConcurrency)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.maxRlp = 4;
    auto reqs = stream(1000.0, 24); // all arrive ~immediately
    ServingResult r = engine.run(reqs, serial, model, opt);
    EXPECT_LE(r.meanRlp, 4.0 + 1e-9);
    EXPECT_EQ(r.admissions, 24u);
}

TEST_F(ServingTest, HigherLoadRaisesLatency)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.maxRlp = 8;
    ServingResult light = engine.run(stream(2.0, 24), serial, model,
                                     opt);
    ServingResult heavy = engine.run(stream(200.0, 24), serial,
                                     model, opt);
    EXPECT_GT(heavy.meanLatencySeconds, light.meanLatencySeconds);
    EXPECT_GT(heavy.meanRlp, light.meanRlp);
}

TEST_F(ServingTest, PapiBeatsStaticBaselineUnderMixedLoad)
{
    Platform papi(makePapiConfig());
    Platform base(makeA100AttAccConfig());
    double alpha = ThresholdCalibrator::calibrate(papi, model).alpha;
    ServingOptions opt;
    opt.alpha = alpha;
    opt.maxRlp = 64;
    auto reqs = stream(30.0, 48);
    ServingResult r_papi = ServingEngine(papi).run(reqs, serial,
                                                   model, opt);
    ServingResult r_base = ServingEngine(base).run(reqs, serial,
                                                   model, opt);
    EXPECT_LT(r_papi.makespanSeconds, r_base.makespanSeconds);
    EXPECT_LT(r_papi.meanLatencySeconds,
              r_base.meanLatencySeconds * 1.02);
}

TEST_F(ServingTest, DynamicFcDispatchGoldenOnSpeculativeStream)
{
    // The paper's Section-5 switch on the serving path: with
    // speculation length 2 the batch's RLP x TLP crosses the
    // calibrated alpha in both directions, so Dynamic splits FC
    // between the GPU and FC-PIM and reschedules. The split is a
    // golden of the simulated timing; the makespan ordering is the
    // policy's reason to exist.
    const double alpha = [&] {
        Platform reference(makePapiConfig());
        return ThresholdCalibrator::calibrate(reference, model).alpha;
    }();
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa, 80.0,
                                 11);
    const auto reqs = arrivals.generate(64);
    llm::SpeculativeConfig spec;
    spec.length = 2;
    ServingOptions opt;
    opt.maxRlp = 32;
    opt.alpha = alpha;
    opt.seed = 3;

    auto run_policy = [&](FcPolicy policy) {
        PlatformConfig cfg = makePapiConfig();
        cfg.fcPolicy = policy;
        Platform platform(cfg);
        return ServingEngine(platform).run(reqs, spec, model, opt);
    };
    const ServingResult dynamic = run_policy(FcPolicy::Dynamic);
    const ServingResult gpu = run_policy(FcPolicy::AlwaysGpu);
    const ServingResult pim = run_policy(FcPolicy::AlwaysPim);
    const ServingResult oracle = run_policy(FcPolicy::Oracle);

    EXPECT_EQ(dynamic.fcOnGpuIterations, 100u);
    EXPECT_EQ(dynamic.fcOnPimIterations, 84u);
    EXPECT_EQ(dynamic.reschedules, 2u);
    EXPECT_LT(dynamic.makespanSeconds, gpu.makespanSeconds);
    EXPECT_LT(dynamic.makespanSeconds, pim.makespanSeconds);
    EXPECT_LE(oracle.makespanSeconds, dynamic.makespanSeconds);
}

TEST_F(ServingTest, InvalidInputsAreFatal)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    EXPECT_THROW(engine.run({}, serial, model), FatalError);

    auto reqs = stream(10.0, 4);
    std::swap(reqs[0], reqs[3]); // unsorted arrivals
    EXPECT_THROW(engine.run(reqs, serial, model), FatalError);

    ServingOptions opt;
    opt.maxRlp = 0;
    auto ok = stream(10.0, 4);
    EXPECT_THROW(engine.run(ok, serial, model, opt), FatalError);
}

TEST_F(ServingTest, BatchLevelAdmitsOnlyIntoEmptyBatch)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.admission = AdmissionPolicy::BatchLevel;
    opt.maxRlp = 8;
    auto reqs = stream(100.0, 24);
    ServingResult r = engine.run(reqs, serial, model, opt);
    std::uint64_t expected_tokens = 0;
    for (const auto &t : reqs)
        expected_tokens += t.request.outputLen;
    EXPECT_EQ(r.tokensGenerated, expected_tokens);
    // Admissions happen in batch-sized bursts, so the mean RLP can
    // only decay within each batch - it never exceeds the cap.
    EXPECT_LE(r.meanRlp, 8.0 + 1e-9);
}

TEST_F(ServingTest, TokenLevelBeatsBatchLevelUnderLoad)
{
    // Continuous batching refills the batch as requests finish;
    // batch-level scheduling idles capacity during the drain (the
    // paper's Section 2.2.1 motivation for mixed continuous
    // batching).
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    auto reqs = stream(100.0, 48);

    ServingOptions token_opt;
    token_opt.maxRlp = 16;
    ServingOptions batch_opt = token_opt;
    batch_opt.admission = AdmissionPolicy::BatchLevel;

    ServingResult token = engine.run(reqs, serial, model, token_opt);
    ServingResult batch = engine.run(reqs, serial, model, batch_opt);
    EXPECT_LT(token.makespanSeconds, batch.makespanSeconds);
    EXPECT_GT(token.meanRlp, batch.meanRlp);
}

TEST_F(ServingTest, BatchTimeoutBoundsFirstStart)
{
    // With a sparse stream and a long timeout, batch-level
    // scheduling delays the first request by ~the timeout.
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.admission = AdmissionPolicy::BatchLevel;
    opt.maxRlp = 32;
    opt.batchTimeoutSeconds = 2.0;
    auto reqs = stream(4.0, 8); // ~0.25 s apart: never fills 32
    ServingResult slow = engine.run(reqs, serial, model, opt);
    opt.batchTimeoutSeconds = 0.0;
    ServingResult fast = engine.run(reqs, serial, model, opt);
    EXPECT_GT(slow.meanLatencySeconds, fast.meanLatencySeconds);
}

TEST(Arrival, PoissonStreamIsSortedAndDeterministic)
{
    llm::ArrivalProcess a(llm::TraceCategory::GeneralQa, 100.0, 3);
    llm::ArrivalProcess b(llm::TraceCategory::GeneralQa, 100.0, 3);
    auto ra = a.generate(200);
    auto rb = b.generate(200);
    double mean_gap = ra.back().arrivalSeconds /
                      static_cast<double>(ra.size());
    EXPECT_NEAR(mean_gap, 0.01, 0.004); // ~1/rate
    for (std::size_t i = 1; i < ra.size(); ++i)
        EXPECT_GE(ra[i].arrivalSeconds, ra[i - 1].arrivalSeconds);
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_DOUBLE_EQ(ra[i].arrivalSeconds, rb[i].arrivalSeconds);
    EXPECT_THROW(llm::ArrivalProcess(llm::TraceCategory::GeneralQa,
                                     0.0, 1),
                 FatalError);
}

TEST(Moe, ExpectedActiveExpertsBehaviour)
{
    llm::ModelConfig m = llm::mixtral8x22b();
    // One token touches exactly top-k experts (in expectation).
    EXPECT_NEAR(llm::expectedActiveExperts(m, 1), 2.0, 1e-9);
    // Coverage grows monotonically and saturates at E.
    double prev = 0.0;
    for (std::uint32_t t : {1u, 2u, 4u, 16u, 64u, 256u}) {
        double a = llm::expectedActiveExperts(m, t);
        EXPECT_GT(a, prev);
        EXPECT_LE(a, 8.0 + 1e-9);
        prev = a;
    }
    EXPECT_NEAR(llm::expectedActiveExperts(m, 256), 8.0, 1e-9);
    // Dense models report a single "expert".
    EXPECT_DOUBLE_EQ(llm::expectedActiveExperts(llm::llama65b(), 8),
                     1.0);
}

TEST(Moe, FfnReuseBelowDenseReuse)
{
    llm::ModelConfig m = llm::mixtral8x22b();
    for (std::uint32_t t : {4u, 16u, 64u}) {
        double reuse = llm::moeFfnReuse(m, t);
        EXPECT_GT(reuse, 0.9);
        EXPECT_LT(reuse, static_cast<double>(t));
    }
}

TEST(Moe, IntensityEstimateBelowDenseEstimate)
{
    // The Section 6.5 argument: expert sparsity keeps MoE FC
    // memory-bound to much larger batches.
    llm::ModelConfig m = llm::mixtral8x22b();
    for (std::uint32_t rlp : {8u, 32u, 128u}) {
        double moe = llm::moeFcIntensityEstimate(m, rlp, 1);
        double dense = static_cast<double>(rlp);
        EXPECT_LT(moe, dense) << "rlp=" << rlp;
    }
    // Dense model falls back to RLP x TLP exactly.
    EXPECT_DOUBLE_EQ(
        llm::moeFcIntensityEstimate(llm::llama65b(), 16, 2), 32.0);
}

TEST(Moe, ParameterCountsAndWork)
{
    llm::ModelConfig m = llm::mixtral8x22b();
    // ~140 B total parameters, ~8x more FFN than a dense model.
    EXPECT_NEAR(m.totalParams() / 1e9, 141.0, 15.0);
    llm::KernelWork w1 = llm::fcTotalWork(m, 1);
    llm::KernelWork w64 = llm::fcTotalWork(m, 64);
    // One token streams only top-k experts' worth of FFN weights.
    EXPECT_LT(w1.weightBytes, m.totalFcBytes() * 0.45);
    // A large batch touches every expert.
    EXPECT_NEAR(w64.weightBytes,
                static_cast<double>(m.totalFcBytes()),
                m.totalFcBytes() * 0.02);
    // FLOPs scale with tokens x top-k, not with expert count.
    EXPECT_NEAR(w64.flops / w1.flops, 64.0, 0.5);
}

TEST(Moe, PimFcLatencyReflectsSparsity)
{
    // At a batch size where a dense model of equal resident size
    // would be deeply compute-bound on FC-PIM, the MoE model's
    // per-expert reuse stays near the balance point.
    Platform papi(makePapiConfig());
    llm::ModelConfig moe = llm::mixtral8x22b();
    KernelExec lo = papi.fcExec(moe, 8, FcTarget::FcPim);
    KernelExec hi = papi.fcExec(moe, 64, FcTarget::FcPim);
    // 8x the tokens costs far less than 8x the time: expert
    // coverage saturates and reuse-per-expert grows instead.
    EXPECT_LT(hi.seconds, lo.seconds * 4.0);
}

TEST(ConfigLoader, NamedPlatformsResolve)
{
    EXPECT_EQ(platformConfigByName("papi").name, "papi");
    EXPECT_EQ(platformConfigByName("attacc-only").name,
              "attacc-only");
    EXPECT_THROW(platformConfigByName("nonsense"), FatalError);
}

TEST(ConfigLoader, OverridesApply)
{
    papi::sim::Config c;
    c.set("platform", std::string("papi"));
    c.set("num_gpus", std::int64_t{4});
    c.set("num_attn_devices", std::int64_t{30});
    c.set("attn_fabric", std::string("cxl2"));
    c.set("fc_pim.fpus_per_group", std::int64_t{2});
    PlatformConfig cfg = platformFromConfig(c);
    EXPECT_EQ(cfg.numGpus, 4u);
    EXPECT_EQ(cfg.numAttnDevices, 30u);
    EXPECT_EQ(cfg.topology.attnFabric.name, "cxl2");
    EXPECT_EQ(cfg.fcDeviceConfig.xPyBLabel(), "2P1B");
    // Untouched fields keep factory defaults.
    EXPECT_EQ(cfg.numFcDevices, 30u);
}

TEST(ConfigLoader, PolicyAndTargetNamesRoundTrip)
{
    // Every name the printers can emit must parse back to the same
    // value - config files written from report output stay loadable.
    for (FcPolicy p : {FcPolicy::AlwaysGpu, FcPolicy::AlwaysPim,
                       FcPolicy::Dynamic, FcPolicy::Oracle})
        EXPECT_EQ(fcPolicyFromName(fcPolicyName(p)), p);
    for (FcTarget t : {FcTarget::Gpu, FcTarget::FcPim})
        EXPECT_EQ(fcTargetFromName(fcTargetName(t)), t);
    for (DispatchRule r : {DispatchRule::Static,
                           DispatchRule::Threshold,
                           DispatchRule::Oracle})
        EXPECT_EQ(dispatchRuleFromName(dispatchRuleName(r)), r);

    EXPECT_THROW(fcPolicyFromName("sometimes"), FatalError);
    EXPECT_THROW(fcTargetFromName("tpu"), FatalError);
    EXPECT_THROW(dispatchRuleFromName("vibes"), FatalError);
}

TEST(ConfigLoader, DispatchPolicyStringsRoundTrip)
{
    // Every printable DispatchPolicy form parses back identically,
    // including for every policy a platform can resolve.
    std::vector<DispatchPolicy> policies = {
        staticDispatch("gpu"),
        staticDispatch("fc-pim"),
        staticDispatch("attn-pim"),
        thresholdDispatch("fc-pim", "gpu"),
        thresholdDispatch("gpu", "fc-pim"),
        oracleDispatch({"gpu", "fc-pim"}),
        oracleDispatch({"gpu", "fc-pim", "attn-pim"}),
        dispatchFromFcPolicy(FcPolicy::AlwaysGpu),
        dispatchFromFcPolicy(FcPolicy::AlwaysPim),
        dispatchFromFcPolicy(FcPolicy::Dynamic),
        dispatchFromFcPolicy(FcPolicy::Oracle),
    };
    for (const auto &p : policies) {
        DispatchPolicy back =
            dispatchPolicyFromName(dispatchPolicyName(p));
        EXPECT_EQ(back.rule, p.rule) << dispatchPolicyName(p);
        EXPECT_EQ(back.targets, p.targets) << dispatchPolicyName(p);
    }

    EXPECT_THROW(dispatchPolicyFromName("static"), FatalError);
    EXPECT_THROW(dispatchPolicyFromName("threshold:gpu"), FatalError);
    EXPECT_THROW(dispatchPolicyFromName("oracle:gpu,,fc-pim"),
                 FatalError);
    EXPECT_THROW(dispatchPolicyFromName("banana:gpu"), FatalError);
    EXPECT_THROW(dispatchPolicyFromName("static:gpu,fc-pim"),
                 FatalError);
}

TEST(ConfigLoader, DispatchKeysApply)
{
    papi::sim::Config c;
    c.set("platform", std::string("papi"));
    c.set("fc_dispatch", std::string("oracle:gpu,fc-pim"));
    PlatformConfig cfg = platformFromConfig(c);
    EXPECT_EQ(cfg.fcDispatch.rule, DispatchRule::Oracle);
    Platform p(cfg);
    EXPECT_EQ(dispatchPolicyName(p.dispatchPolicy(Phase::Fc)),
              "oracle:gpu,fc-pim");

    papi::sim::Config bad;
    bad.set("fc_dispatch", std::string("nonsense"));
    EXPECT_THROW(platformFromConfig(bad), FatalError);

    // An unknown target name in a well-formed policy survives
    // parsing but fails platform construction.
    papi::sim::Config unknown;
    unknown.set("fc_dispatch", std::string("static:tpu"));
    PlatformConfig cfg2 = platformFromConfig(unknown);
    EXPECT_THROW(Platform{cfg2}, FatalError);
}

TEST(ConfigLoader, BadPolicyOrLinkIsFatal)
{
    papi::sim::Config c;
    c.set("fc_policy", std::string("sometimes"));
    EXPECT_THROW(platformFromConfig(c), FatalError);
    papi::sim::Config d;
    d.set("attn_fabric", std::string("carrier-pigeon"));
    EXPECT_THROW(platformFromConfig(d), FatalError);
}

TEST(ConfigLoader, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "papi_cfg_test.cfg";
    {
        std::ofstream out(path);
        out << "# a comment line\n";
        out << "platform=pim-only-papi\n";
        out << "num_attn_devices=90   # trailing comment\n";
        out << "\n";
    }
    papi::sim::Config c = loadConfigFile(path);
    PlatformConfig cfg = platformFromConfig(c);
    EXPECT_EQ(cfg.name, "pim-only-papi");
    EXPECT_EQ(cfg.numAttnDevices, 90u);
    std::remove(path.c_str());

    EXPECT_THROW(loadConfigFile("/nonexistent/papi.cfg"),
                 FatalError);
}

TEST(ConfigLoader, MalformedLineIsFatal)
{
    std::string path = ::testing::TempDir() + "papi_cfg_bad.cfg";
    {
        std::ofstream out(path);
        out << "this line has no equals sign\n";
    }
    EXPECT_THROW(loadConfigFile(path), FatalError);
    std::remove(path.c_str());
}

} // namespace
