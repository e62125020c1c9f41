/**
 * @file
 * Layer probes of the traced runs: host time of single calls into
 * one layer's public functions, made from the benchmark's own code
 * on the workload's model and request lengths.
 */

#include <functional>

#include "cluster/router.hh"
#include "cluster/tensor_parallel.hh"
#include "core/decode_engine.hh"
#include "core/serving_events.hh"
#include "dram/controller.hh"
#include "llm/batch.hh"
#include "pim/data_layout.hh"
#include "pim/gemv_engine.hh"
#include "sim/event_queue.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** Prompt lengths of @p n requests of the workload's trace. */
std::vector<std::uint32_t>
promptLengths(const ProbeInputs &in, std::uint32_t n)
{
    llm::TraceGenerator gen(in.category, in.seed);
    std::vector<std::uint32_t> out;
    for (const llm::Request &r : gen.generate(n))
        out.push_back(r.inputLen);
    return out;
}

/**
 * Platform::attnExec on fresh keys (every call a kernel-memo miss
 * that runs the attention model) and on one repeated key (a hit),
 * then Platform::fcExec on FC-PIM at token counts already cached.
 */
void
probePlatform(const ProbeInputs &in, Report &out)
{
    const core::Platform platform(in.config);
    const std::vector<std::uint32_t> prompts =
        promptLengths(in, in.batch);
    const bool tiny = in.size == Size::Tiny;
    const std::uint32_t misses = tiny ? 20 : 400;
    const std::uint32_t hits = tiny ? 2000 : 200000;

    // Miss i grows every context by i + 1 tokens: a new total context,
    // hence a new memo key, per call.
    std::vector<std::vector<std::uint32_t>> fresh(misses, prompts);
    for (std::uint32_t i = 0; i < misses; ++i) {
        for (std::uint32_t &c : fresh[i])
            c += i + 1;
    }
    double sink = 0.0;
    Clock::time_point t0 = Clock::now();
    for (const auto &ctx : fresh)
        sink += platform.attnExec(in.model, ctx, 1).seconds;
    const double miss_s = secondsSince(t0);

    t0 = Clock::now();
    for (std::uint32_t i = 0; i < hits; ++i)
        sink += platform.attnExec(in.model, prompts, 1).seconds;
    const double hit_s = secondsSince(t0);

    const core::TargetId fc_pim =
        platform.targetIdFor(core::FcTarget::FcPim);
    for (std::uint32_t t = 1; t <= in.batch; ++t)
        sink += platform.fcExec(in.model, t, fc_pim).seconds;
    t0 = Clock::now();
    for (std::uint32_t i = 0; i < hits; ++i)
        sink += platform.fcExec(in.model, 1 + i % in.batch, fc_pim).seconds;
    const double fc_s = secondsSince(t0);

    out.check(sink > 0.0, "platform probe produced no cost");
    out.add("core.platform.attn_miss_us", miss_s * 1e6 / misses, "us");
    out.add("core.platform.attn_hit_ns", hit_s * 1e9 / hits, "ns");
    out.add("core.platform.fc_hit_ns", fc_s * 1e9 / hits, "ns");
}

/** Warm DecodeEngine::run on the workload's requests. */
void
probeDecode(const ProbeInputs &in, Report &out)
{
    const core::Platform platform(in.config);
    core::DecodeEngine engine(platform);
    core::RunOptions opt;
    opt.alpha = in.alpha;
    const llm::SpeculativeConfig spec;
    auto make_batch = [&]() {
        llm::TraceGenerator gen(in.category, in.seed);
        return llm::Batch(gen.generate(in.batch), in.model);
    };
    llm::Batch warm = make_batch();
    engine.run(warm, spec, in.model, opt);

    const int reps = in.size == Size::Tiny ? 2 : 40;
    std::vector<llm::Batch> batches;
    for (int i = 0; i < reps; ++i)
        batches.push_back(make_batch());
    std::uint64_t iterations = 0;
    const Clock::time_point t0 = Clock::now();
    for (llm::Batch &b : batches)
        iterations += engine.run(b, spec, in.model, opt).iterations;
    const double wall = secondsSince(t0);
    out.check(iterations > 0, "decode probe ran no iteration");
    out.add("core.decode.host_ns_per_iter",
            wall * 1e9 / static_cast<double>(iterations), "ns");
}

/**
 * A fresh pim::GemvEngine (empty memo, so every call replays the
 * command stream on the DRAM model) per Fig. 8 FC shape: the three
 * models' weights on the FC-PIM fleet at every batch x spec reuse.
 */
void
probeGemv(const ProbeInputs &in, Report &out)
{
    const pim::PimConfig &pim_cfg = in.config.fcDeviceConfig;
    const pim::DataLayout layout(pim_cfg);
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;
    double wall = 0.0;
    for (const llm::ModelConfig &model : fig8Models()) {
        const pim::Partition part = layout.partitionWeights(
            model.totalFcBytes(), in.config.numFcDevices);
        for (std::uint32_t reuse : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
            const pim::GemvEngine engine(pim_cfg);
            const Clock::time_point t0 = Clock::now();
            ticks += engine.run(part.bytesPerBank, reuse).ticks;
            wall += secondsSince(t0);
            ++calls;
        }
        if (in.size == Size::Tiny)
            break;
    }
    out.check(ticks > 0, "gemv probe simulated no time");
    out.add("pim.gemv.cold_us_per_call",
            wall * 1e6 / static_cast<double>(calls), "us");
}

/**
 * sim::EventQueue at DRAM scale: a completion-driven client keeping a
 * 64-deep FR-FCFS dram::MemController full.
 */
void
probeDramQueue(const ProbeInputs &in, Report &out)
{
    const std::uint64_t n = in.size == Size::Tiny ? 2000 : 200000;
    sim::EventQueue eq;
    dram::MemController ctrl(eq, dram::hbm3Spec(),
                             dram::SchedulingPolicy::FrFcfs,
                             dram::MappingPolicy::RoCoBaBg, 64);
    ctrl.setRefreshEnabled(false);
    std::uint64_t next = 0, done = 0;
    std::function<void()> refill = [&] {
        while (next < n) {
            dram::MemRequest r;
            // A strided, row-hopping pattern seeded per run.
            r.addr = (next * 32 + (in.seed % 64) * 4096) % (1ull << 30);
            r.isWrite = next % 7 == 0;
            r.onComplete = [&](sim::Tick) {
                ++done;
                refill();
            };
            if (!ctrl.enqueue(std::move(r)))
                break;
            ++next;
        }
    };
    const Clock::time_point t0 = Clock::now();
    refill();
    eq.run();
    const double wall = secondsSince(t0);
    out.check(done == n, "dram probe did not drain");
    out.add("sim.event_queue.dram_ns_per_event",
            wall * 1e9 / static_cast<double>(eq.executed()), "ns");
}

/** Router::route and the prefix probe, called off the workload's
 *  path on its requests. */
void
probeOffPath(const ProbeInputs &in, Report &out)
{
    if (!in.routeOffPath && !in.prefixProbeOffPath)
        return;
    const std::uint32_t n = in.size == Size::Tiny ? 1000 : 200000;
    llm::ArrivalProcess arrivals(in.category, 1.0, in.seed);
    const std::vector<llm::TimedRequest> requests = arrivals.generate(n);
    if (in.routeOffPath) {
        cluster::Router router(in.policy, in.replicas);
        std::vector<cluster::BackendLoad> loads(in.replicas);
        std::uint64_t sum = 0;
        const Clock::time_point t0 = Clock::now();
        for (const llm::TimedRequest &r : requests)
            sum += router.route(r, loads);
        const double wall = secondsSince(t0);
        out.check(sum < static_cast<std::uint64_t>(n) * in.replicas,
                  "router returned a bad index");
        out.add("cluster.route.host_ns_per_req", wall * 1e9 / n, "ns");
    }
    if (in.prefixProbeOffPath) {
        const core::Platform platform(in.config);
        const core::ServingSim sim(platform, llm::SpeculativeConfig{},
                                   in.model, in.serving);
        std::uint64_t sum = 0;
        const Clock::time_point t0 = Clock::now();
        for (const llm::TimedRequest &r : requests)
            sum += sim.probePrefixHitTokens(r);
        const double wall = secondsSince(t0);
        out.check(sum == 0, "prefix probe hit an empty cache");
        out.add("llm.prefix.probe_host_ns_per_req", wall * 1e9 / n, "ns");
    }
}

} // namespace

void
runLayerProbes(const ProbeInputs &in, Report &out)
{
    probePlatform(in, out);
    probeDecode(in, out);
    probeGemv(in, out);
    probeDramQueue(in, out);
    probeOffPath(in, out);
}

void
addReplayMetrics(const core::Platform &platform,
                 const core::ServingOptions &options,
                 const std::vector<llm::TimedRequest> &stream,
                 const llm::ModelConfig &model,
                 const std::string &expect_digest, Report &out)
{
    const llm::SpeculativeConfig spec;
    const core::IterationCostModel cost =
        cluster::TensorParallelModel{}.iterationCostModel(model);
    std::vector<double> bare_ns, driver_ns;
    for (int i = 0; i < 3; ++i) {
        core::ServingSim bare(platform, spec, model, options, cost);
        Clock::time_point t0 = Clock::now();
        for (const llm::TimedRequest &r : stream)
            bare.deliver(r);
        while (bare.canStep())
            bare.step();
        const core::ServingResult bare_result = bare.finish();
        const double bare_wall = secondsSince(t0);

        core::ServingSim driven(platform, spec, model, options, cost);
        core::ServingEventDriver driver({&driven});
        t0 = Clock::now();
        driver.runStream(stream,
                         [](const llm::TimedRequest &) { return 0u; });
        const core::ServingResult driven_result = driven.finish();
        const double driver_wall = secondsSince(t0);

        Digest a, b;
        digestServing(a, bare_result);
        digestServing(b, driven_result);
        out.check(a.hex() == b.hex(), "bare and driven replays differ");
        out.check(expect_digest.empty() || a.hex() == expect_digest,
                  "replay differs from the run it replays");
        const double iters = static_cast<double>(bare_result.iterations);
        bare_ns.push_back(bare_wall * 1e9 / iters);
        driver_ns.push_back(driver_wall * 1e9 / iters);
    }
    const double step = median(bare_ns), drv = median(driver_ns);
    out.add("core.step.host_ns_per_iter", step, "ns");
    out.add("core.driver.host_ns_per_iter", drv, "ns");
    out.add("core.driver.overhead_ns_per_iter", drv - step, "ns");
}

} // namespace perfbench
