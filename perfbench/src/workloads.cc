#include "workloads.hh"

#include <cstdio>
#include <cstdlib>

#include "core/metrics.hh"
#include "core/threshold_calibrator.hh"
#include "llm/batch.hh"
#include "llm/kv_cache.hh"

namespace perfbench {

namespace {

/** Feed the cluster-level aggregates of @p r into @p d. */
void
digestClusterAggregates(Digest &d, const cluster::ClusterResult &r)
{
    for (double v :
         {r.makespanSeconds, r.energyJoules, r.ttft.p50, r.ttft.p95,
          r.ttft.p99, r.tpot.p50, r.tpot.p95, r.tpot.p99, r.latency.p50,
          r.latency.p95, r.latency.p99, r.queueing.p50, r.queueing.p99,
          r.meanTtftSeconds, r.meanTpotSeconds, r.meanLatencySeconds,
          r.meanQueueingSeconds, r.goodputTokensPerSecond,
          r.sloAttainment})
        d.f64(v);
    for (std::uint64_t v :
         {r.requestsOffered, r.requestsServed, r.failedRequests,
          r.shedRequests, r.tokensGenerated, r.preemptions, r.resumes,
          r.prefixLookups, r.prefixHits, r.prefixHitTokens,
          r.prefixMissTokens, r.prefixEvictedBytes,
          static_cast<std::uint64_t>(r.statsTruncated)})
        d.u64(v);
}

// Why each workload exists is in perfbench/README.md. Request counts
// size one repetition to roughly a second of host time on a 4-core
// x86 host, so a run repeats it several times and reports medians.
const ServingWorkload kServing[] = {
    {.name = "qa-stream",
     .category = llm::TraceCategory::GeneralQa,
     .rateRps = 30.0,
     .replicas = 4,
     .policy = cluster::RouterPolicy::RoundRobin,
     .maxRlp = 16,
     .recordCapacity = 32768,
     .requestsFull = 40000,
     .requestsTiny = 400},
    {.name = "rag-pressure",
     .category = llm::TraceCategory::LongContextRag,
     .rateRps = 8.0,
     .replicas = 4,
     .policy = cluster::RouterPolicy::CacheHitAware,
     .maxRlp = 16,
     .prefixCache = true,
     .prefillChunkTokens = 64,
     .preemptOnKvPressure = true,
     .kvPoolTokens = 8192,
     .requestsFull = 20000,
     .requestsTiny = 300},
    {.name = "fleet64-lo",
     .category = llm::TraceCategory::GeneralQa,
     .rateRps = 600.0,
     .replicas = 64,
     .policy = cluster::RouterPolicy::LeastOutstanding,
     .maxRlp = 16,
     .parallel = true,
     .requestsFull = 24000,
     .requestsTiny = 600},
};

} // namespace

bool
isServingWorkload(const std::string &name)
{
    for (const ServingWorkload &w : kServing) {
        if (w.name == name)
            return true;
    }
    return false;
}

const ServingWorkload &
servingWorkload(const std::string &name)
{
    for (const ServingWorkload &w : kServing) {
        if (w.name == name)
            return w;
    }
    std::fprintf(stderr, "perfbench: no serving workload %s\n",
                 name.c_str());
    std::exit(2);
}

llm::ModelConfig
servingModel()
{
    return llm::llama65b();
}

cluster::ClusterOptions
clusterOptions(const ServingWorkload &w, const core::PlatformConfig &cfg,
               const llm::ModelConfig &model, double alpha,
               unsigned workers)
{
    cluster::ClusterOptions opt;
    opt.numPlatforms = w.replicas;
    opt.policy = w.policy;
    opt.workerThreads = workers;
    opt.recordCapacity = w.recordCapacity;
    opt.serving.alpha = alpha;
    opt.serving.maxRlp = w.maxRlp;
    opt.serving.prefixCacheEnabled = w.prefixCache;
    opt.serving.prefillChunkTokens = w.prefillChunkTokens;
    opt.serving.preemptOnKvPressure = w.preemptOnKvPressure;
    if (w.kvPoolTokens > 0)
        opt.serving.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            model, w.kvPoolTokens, cfg.numAttnDevices);
    return opt;
}

void
digestServing(Digest &d, const core::ServingResult &r)
{
    for (double v : {r.makespanSeconds, r.energyJoules, r.meanLatencySeconds,
                     r.p95LatencySeconds, r.meanRlp, r.peakKvUtilization,
                     r.evictionStallSeconds, r.swapInducedStallSeconds})
        d.f64(v);
    for (std::uint64_t v :
         {r.iterations, r.tokensGenerated, r.admissions, r.reschedules,
          r.reschedulesToGpu, r.fcOnGpuIterations, r.fcOnPimIterations,
          r.preemptions, r.resumes, r.recomputedPrefillTokens, r.handoffs,
          r.prefillHandoffTokens, r.shedRequests, r.prefixLookups,
          r.prefixHits, r.prefixHitTokens, r.prefixMissTokens,
          r.prefixEvictedBytes})
        d.u64(v);
    d.u64(r.evictionOrder.size());
    for (std::uint64_t id : r.evictionOrder)
        d.u64(id);
}

std::string
digestCluster(const cluster::ClusterResult &r)
{
    Digest d;
    for (const core::ServingResult &g : r.perGroup)
        digestServing(d, g);
    digestClusterAggregates(d, r);
    return d.hex();
}

Fig8Platforms::Fig8Platforms()
    : base(core::makeA100AttAccConfig()),
      hbm(core::makeA100HbmPimConfig()),
      attacc(core::makeAttAccOnlyConfig()), papi(core::makePapiConfig())
{
}

std::vector<llm::ModelConfig>
fig8Models()
{
    return {llm::llama65b(), llm::gpt3_66b(), llm::gpt3_175b()};
}

double
calibrateAlpha(const llm::ModelConfig &model)
{
    core::Platform papi(core::makePapiConfig());
    return core::ThresholdCalibrator::calibrate(papi, model).alpha;
}

namespace {

/** splitmix64 finalizer: decorrelates the per-cell trace seeds. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

GridResult
runGrid(Fig8Platforms &p, const std::vector<llm::ModelConfig> &models,
        const std::vector<double> &alphas, llm::TraceCategory category,
        std::uint64_t seed, std::uint32_t draws, GridSpans *spans)
{
    core::DecodeEngine e_base(p.base), e_hbm(p.hbm), e_attacc(p.attacc),
        e_papi(p.papi);
    GridResult out;
    std::vector<double> papi_speedups, attacc_speedups, papi_eff;
    Digest d;

    // One cell: a fresh batch of @p batch_size requests, decoded to
    // completion on @p engine.
    auto cell = [&](core::DecodeEngine &engine, const llm::ModelConfig &model,
                    std::uint32_t batch_size, std::uint32_t spec_len,
                    double alpha, std::uint64_t cell_seed) {
        const Clock::time_point t0 = Clock::now();
        llm::TraceGenerator gen(category, cell_seed);
        llm::Batch batch(gen.generate(batch_size), model);
        const Clock::time_point t1 = Clock::now();
        llm::SpeculativeConfig spec;
        spec.length = spec_len;
        core::RunOptions opt;
        opt.alpha = alpha;
        const core::RunResult r = engine.run(batch, spec, model, opt);
        if (spans) {
            spans->inputs.add(t0, t1);
            spans->decode.add(t1, Clock::now());
        }
        ++out.cells;
        out.requests += batch_size;
        out.tokens += r.tokensGenerated;
        if (!(r.seconds() > 0.0) || r.tokensGenerated == 0 ||
            r.iterations == 0)
            ++out.badCells;
        for (double v : {r.time.prefillSeconds, r.time.fcSeconds,
                         r.time.attnSeconds, r.time.commSeconds,
                         r.time.otherSeconds, r.energyJoules})
            d.f64(v);
        for (std::uint64_t v : {r.iterations, r.tokensGenerated,
                                r.fcOnGpuIterations, r.fcOnPimIterations,
                                r.reschedules})
            d.u64(v);
        return r;
    };

    for (std::uint64_t m = 0; m < models.size(); ++m) {
        const llm::ModelConfig &model = models[m];
        for (std::uint64_t spec_len : kGridSpecs) {
            for (std::uint64_t batch_size : kGridBatches) {
                for (std::uint64_t draw = 0; draw < draws; ++draw) {
                    const std::uint64_t cell_seed = mixSeed(
                        seed ^ mixSeed((m << 48) ^ (spec_len << 32) ^
                                       (batch_size << 16) ^ draw));
                    const auto b = static_cast<std::uint32_t>(batch_size);
                    const auto sl = static_cast<std::uint32_t>(spec_len);
                    const core::RunResult r_base =
                        cell(e_base, model, b, sl, alphas[m], cell_seed);
                    cell(e_hbm, model, b, sl, alphas[m], cell_seed);
                    const core::RunResult r_att =
                        cell(e_attacc, model, b, sl, alphas[m], cell_seed);
                    const core::RunResult r_papi =
                        cell(e_papi, model, b, sl, alphas[m], cell_seed);
                    papi_speedups.push_back(core::speedup(r_base, r_papi));
                    attacc_speedups.push_back(core::speedup(r_base, r_att));
                    papi_eff.push_back(
                        core::energyEfficiency(r_base, r_papi));

                    // Every live request emits spec_len tokens per
                    // iteration (acceptance 1), so a cell's time per
                    // output token is its mean iteration time over
                    // spec_len, and its TTFT the prefill plus one.
                    const double iteration =
                        (r_papi.seconds() - r_papi.time.prefillSeconds) /
                        static_cast<double>(r_papi.iterations);
                    const auto tokens =
                        static_cast<double>(r_papi.tokensGenerated);
                    out.papiTtft.push_back(r_papi.time.prefillSeconds +
                                           iteration);
                    out.papiTpot.push_back(iteration /
                                           static_cast<double>(sl));
                    out.papiTokens += tokens;
                    out.papiSeconds += r_papi.seconds();
                    out.papiTime.prefillSeconds += r_papi.time.prefillSeconds;
                    out.papiTime.fcSeconds += r_papi.time.fcSeconds;
                    out.papiTime.attnSeconds += r_papi.time.attnSeconds;
                    out.papiTime.commSeconds += r_papi.time.commSeconds;
                    out.papiTime.otherSeconds += r_papi.time.otherSeconds;
                    out.papiIterations += r_papi.iterations;
                    out.papiFcPimIterations += r_papi.fcOnPimIterations;
                    out.papiReschedules += r_papi.reschedules;
                }
            }
        }
    }
    out.papiSpeedupVsBase = core::geomean(papi_speedups);
    out.papiEnergyEffVsBase = core::geomean(papi_eff);
    out.papiSpeedupVsAttacc =
        core::geomean(papi_speedups) / core::geomean(attacc_speedups);
    d.f64(out.papiSpeedupVsBase);
    d.f64(out.papiEnergyEffVsBase);
    d.f64(out.papiSpeedupVsAttacc);
    out.digest = d.hex();
    return out;
}

} // namespace perfbench
