/**
 * @file
 * The serving workloads (qa-stream, rag-pressure, fleet64-lo).
 *
 * Untraced: ClusterEngine::runStream over a Poisson stream pulled
 * from llm::ArrivalProcess, repeated for --seconds on one warm
 * engine; host rates are medians over the repetitions.
 *
 * Traced: the same run, then a twin of the cluster assembled from
 * the public parts ClusterEngine::runImpl uses (one ServingSim per
 * replica, a ServingEventDriver, a Router behind a route lambda)
 * with host-time spans around the arrival pull, the route lambda
 * and the prefix-cache probe. The twin's per-replica results must
 * equal the untraced run's bit for bit.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "cluster/router.hh"
#include "cluster/tensor_parallel.hh"
#include "core/serving_events.hh"
#include "core/threshold_calibrator.hh"
#include "llm/arrival.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** The calibrated alpha and the engine, i.e. the set-up. */
struct ServingSetup
{
    double alpha = 0.0;
    std::unique_ptr<cluster::ClusterEngine> engine;
};

ServingSetup
setUp(const ServingWorkload &w, const core::PlatformConfig &cfg,
      const llm::ModelConfig &model, unsigned workers)
{
    ServingSetup s;
    core::Platform reference(cfg);
    s.alpha = core::ThresholdCalibrator::calibrate(reference, model).alpha;
    s.engine = std::make_unique<cluster::ClusterEngine>(
        cfg, clusterOptions(w, cfg, model, s.alpha, workers));
    return s;
}

cluster::ClusterResult
serveOnce(cluster::ClusterEngine &engine, const ServingWorkload &w,
          std::uint64_t seed, std::uint64_t count,
          const llm::ModelConfig &model)
{
    llm::ArrivalProcess arrivals(w.category, w.rateRps, seed);
    return engine.runStream(arrivals, count, llm::SpeculativeConfig{},
                            model);
}

/**
 * Output checks of one cluster run that do not need a reference:
 * conservation, every request served, every output token produced
 * (speculation length 1 emits exactly outputLen tokens per request)
 * and finite latency tails.
 */
void
checkCluster(const cluster::ClusterResult &r, std::uint64_t offered,
             std::uint64_t expected_tokens, Report &rep)
{
    rep.check(r.requestsOffered == offered, "offered count");
    rep.check(r.requestsServed + r.failedRequests + r.shedRequests ==
                  r.requestsOffered,
              "offered != served + failed + shed");
    rep.check(r.requestsServed == offered, "not every request served");
    rep.check(r.tokensGenerated == expected_tokens,
              "generated tokens != sum of output lengths");
    rep.check(std::isfinite(r.ttft.p99) && r.ttft.p99 > 0.0 &&
                  std::isfinite(r.tpot.p99) && r.tpot.p99 > 0.0,
              "non-finite latency tail");
}

std::uint64_t
expectedTokens(const ServingWorkload &w, std::uint64_t seed,
               std::uint64_t count)
{
    llm::ArrivalProcess arrivals(w.category, w.rateRps, seed);
    std::uint64_t tokens = 0;
    for (std::uint64_t i = 0; i < count; ++i)
        tokens += arrivals.next().request.outputLen;
    return tokens;
}

std::string
digestReplicas(const std::vector<core::ServingResult> &results)
{
    Digest d;
    for (const core::ServingResult &r : results)
        digestServing(d, r);
    return d.hex();
}

/** What the traced twin of the cluster run measured. */
struct TwinRun
{
    double wall = 0.0;
    Span arrival, route, probe;
    std::vector<core::ServingResult> results;
    core::RunBreakdown breakdown;
    /** Replica 0's routed arrivals, in delivery order. */
    std::vector<llm::TimedRequest> replica0;
};

/**
 * The cluster run of ClusterEngine::runStream rebuilt from public
 * parts (colocated, tensor-parallel degree 1, no fault plan), with
 * spans at the arrival, routing and prefix-probe boundaries.
 */
TwinRun
runTwin(const std::vector<std::unique_ptr<core::Platform>> &platforms,
        const cluster::ClusterOptions &opt, const ServingWorkload &w,
        std::uint64_t seed, std::uint64_t count,
        const llm::ModelConfig &model)
{
    TwinRun out;
    const llm::SpeculativeConfig spec;
    cluster::TensorParallelModel tp;
    tp.degree = 1;
    tp.fabric = opt.tpFabric;
    const core::IterationCostModel cost = tp.iterationCostModel(model);

    std::vector<std::unique_ptr<core::ServingSim>> sims;
    std::vector<core::ServingSim *> replicas;
    for (const auto &p : platforms) {
        core::ServingOptions sopt = opt.serving;
        sopt.recordCapacity = opt.recordCapacity;
        sims.push_back(std::make_unique<core::ServingSim>(*p, spec, model,
                                                          sopt, cost));
        replicas.push_back(sims.back().get());
    }
    const auto width = static_cast<std::uint32_t>(sims.size());
    cluster::Router router(opt.policy, width);
    std::vector<cluster::BackendLoad> loads(width);
    core::ServingEventDriver driver(std::move(replicas));
    driver.setWorkerThreads(opt.workerThreads);
    driver.setStateIndependentRouting(
        opt.policy != cluster::RouterPolicy::LeastOutstanding &&
        opt.policy != cluster::RouterPolicy::CacheHitAware);

    const bool probe_caches =
        opt.policy == cluster::RouterPolicy::CacheHitAware;
    const std::uint64_t kv_bytes = model.kvBytesPerToken();
    const core::RouteFn route = [&](const llm::TimedRequest &request) {
        const Clock::time_point t0 = Clock::now();
        for (std::uint32_t g = 0; g < width; ++g) {
            loads[g].outstanding = sims[g]->outstanding();
            if (probe_caches) {
                const Clock::time_point p0 = Clock::now();
                const std::uint32_t hit =
                    sims[g]->probePrefixHitTokens(request);
                out.probe.add(p0, Clock::now());
                loads[g].expectedHitBytes =
                    static_cast<std::uint64_t>(hit) * kv_bytes;
            }
            loads[g].alive = !driver.isDown(g);
        }
        const std::uint32_t g = router.route(request, loads);
        out.route.add(t0, Clock::now());
        if (g == 0)
            out.replica0.push_back(request);
        return g;
    };
    llm::ArrivalProcess arrivals(w.category, w.rateRps, seed);
    const auto next = [&]() {
        const Clock::time_point t0 = Clock::now();
        llm::TimedRequest r = arrivals.next();
        out.arrival.add(t0, Clock::now());
        return r;
    };

    const Clock::time_point start = Clock::now();
    driver.runStreamGenerated(next, count, route);
    for (auto &s : sims)
        out.results.push_back(s->finish());
    out.wall = secondsSince(start);

    for (auto &s : sims) {
        const core::RunBreakdown &b = s->breakdown();
        out.breakdown.prefillSeconds += b.prefillSeconds;
        out.breakdown.fcSeconds += b.fcSeconds;
        out.breakdown.attnSeconds += b.attnSeconds;
        out.breakdown.commSeconds += b.commSeconds;
        out.breakdown.otherSeconds += b.otherSeconds;
    }
    return out;
}

} // namespace

Report
runServing(const Args &args)
{
    const ServingWorkload &w = servingWorkload(args.workload);
    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig model = servingModel();
    const std::uint64_t count = w.requests(args.size);
    Report rep;
    rep.workers = w.workers();

    // Set-up is timed again before every repetition, so its median
    // samples the same host conditions as the repetitions; the first
    // engine is the one timed.
    std::vector<double> setup_s;
    auto timed_set_up = [&]() {
        const Clock::time_point t0 = Clock::now();
        ServingSetup s = setUp(w, cfg, model, rep.workers);
        setup_s.push_back(secondsSince(t0));
        return s;
    };
    const ServingSetup setup = timed_set_up();

    // The first run fills the platforms' kernel memos (every serving
    // user pays that once per process) and is the reference result.
    const cluster::ClusterResult ref =
        serveOnce(*setup.engine, w, args.seed, count, model);
    checkCluster(ref, count, expectedTokens(w, args.seed, count), rep);
    rep.digest = digestCluster(ref);

    std::vector<double> req_rate, tok_rate, run_rate, ref_speed;
    const Clock::time_point timed = Clock::now();
    do {
        ref_speed.push_back(referenceSpeed());
        for (int i = 0; i < setUpsPerRepetition(args.size); ++i)
            timed_set_up();
        const Clock::time_point t0 = Clock::now();
        const cluster::ClusterResult r =
            serveOnce(*setup.engine, w, args.seed, count, model);
        const double wall = secondsSince(t0);
        rep.attempted += r.requestsOffered;
        rep.failed += r.requestsOffered - r.requestsServed;
        rep.check(digestCluster(r) == rep.digest,
                  "repetition differs from the reference run");
        req_rate.push_back(static_cast<double>(r.requestsServed) / wall);
        tok_rate.push_back(static_cast<double>(r.tokensGenerated) / wall);
        run_rate.push_back(1.0 / wall);
    } while (secondsSince(timed) < args.seconds);
    rep.repetitions = req_rate.size();
    rep.notes.push_back(repetitionNote(run_rate));
    rep.referenceSpeed = median(ref_speed);
    const double rss = peakRssMb();

    // The paper's comparison on this workload's own requests: the
    // Fig. 8 grid on the served model and trace category.
    Fig8Platforms platforms;
    const GridResult grid =
        runGrid(platforms, {model}, {setup.alpha}, w.category, args.seed,
                args.size == Size::Tiny ? 1 : 16);
    rep.check(grid.badCells == 0, "degenerate grid cell");

    rep.add("sim_requests_per_host_s", median(req_rate), "1/s");
    rep.add("sim_tokens_per_host_s", median(tok_rate), "1/s");
    rep.add("cells_per_host_s", median(run_rate), "1/s");
    rep.add("setup_s", median(setup_s), "s");
    rep.add("peak_rss_mb", rss, "MB");
    rep.add("served_share",
            static_cast<double>(ref.requestsServed) /
                static_cast<double>(ref.requestsOffered),
            "ratio");
    rep.add("sim_ttft_p99_s", ref.ttft.p99, "s");
    rep.add("sim_tpot_p99_s", ref.tpot.p99, "s");
    rep.add("sim_goodput_tok_per_s", ref.goodputTokensPerSecond, "tok/s");
    rep.add("sim_papi_speedup_vs_a100_attacc", grid.papiSpeedupVsBase, "x");
    rep.add("sim_papi_energy_eff_vs_a100_attacc", grid.papiEnergyEffVsBase,
            "x");
    rep.add("sim_papi_speedup_vs_attacc_only", grid.papiSpeedupVsAttacc,
            "x");
    return rep;
}

Report
runServingTraced(const Args &args)
{
    const ServingWorkload &w = servingWorkload(args.workload);
    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig model = servingModel();
    const std::uint64_t count = w.requests(args.size);
    Report rep;
    rep.workers = w.workers();

    // Untraced reference: a cold run, then a warm one.
    ServingSetup setup = setUp(w, cfg, model, rep.workers);
    Clock::time_point t0 = Clock::now();
    const cluster::ClusterResult ref =
        serveOnce(*setup.engine, w, args.seed, count, model);
    const double cold_wall = secondsSince(t0);
    checkCluster(ref, count, expectedTokens(w, args.seed, count), rep);
    rep.digest = digestCluster(ref);
    t0 = Clock::now();
    const cluster::ClusterResult warm =
        serveOnce(*setup.engine, w, args.seed, count, model);
    const double warm_wall = secondsSince(t0);
    rep.check(digestCluster(warm) == rep.digest,
              "warm run differs from the cold run");
    rep.attempted += 2 * count;

    // Parallel speedup: the same warm run at one worker.
    double serial_wall = warm_wall;
    if (rep.workers > 1) {
        ServingSetup serial = setUp(w, cfg, model, 1);
        serveOnce(*serial.engine, w, args.seed, count, model);
        t0 = Clock::now();
        const cluster::ClusterResult r1 =
            serveOnce(*serial.engine, w, args.seed, count, model);
        serial_wall = secondsSince(t0);
        rep.check(digestCluster(r1) == rep.digest,
                  "one-worker run differs from the parallel run");
        rep.attempted += count;
    }

    // The traced twin, on its own platforms: once to fill their
    // memos, once timed.
    const cluster::ClusterOptions opt =
        clusterOptions(w, cfg, model, setup.alpha, rep.workers);
    std::vector<std::unique_ptr<core::Platform>> platforms;
    for (std::uint32_t g = 0; g < w.replicas; ++g)
        platforms.push_back(std::make_unique<core::Platform>(cfg));
    runTwin(platforms, opt, w, args.seed, count, model);
    const TwinRun twin =
        runTwin(platforms, opt, w, args.seed, count, model);
    rep.attempted += 2 * count;
    rep.check(digestReplicas(twin.results) == digestReplicas(ref.perGroup),
              "traced twin differs from the untraced run");

    // Driver plus event-queue cost per iteration, on replica 0's
    // routed stream; the replays must reproduce the cluster's replica.
    core::ServingOptions sopt = opt.serving;
    sopt.recordCapacity = opt.recordCapacity;
    addReplayMetrics(*platforms[0], sopt, twin.replica0, model,
                     digestReplicas({ref.perGroup[0]}), rep);

    const double n = static_cast<double>(count);
    const double arrival_s = static_cast<double>(twin.arrival.ns) * 1e-9;
    const double route_s =
        static_cast<double>(twin.route.ns - twin.probe.ns) * 1e-9;
    const double probe_s = static_cast<double>(twin.probe.ns) * 1e-9;
    rep.add("llm.arrival.host_ns_per_req", arrival_s * 1e9 / n, "ns");
    rep.add("cluster.route.host_ns_per_req", route_s * 1e9 / n, "ns");
    if (twin.probe.calls > 0)
        rep.add("llm.prefix.probe_host_ns_per_req", probe_s * 1e9 / n,
                "ns");
    rep.add("core.replica.host_share",
            1.0 - share(arrival_s + route_s + probe_s, twin.wall), "ratio");

    ProbeInputs probe;
    probe.config = cfg;
    probe.model = model;
    probe.category = w.category;
    probe.seed = args.seed;
    probe.batch = w.maxRlp;
    probe.alpha = setup.alpha;
    probe.size = args.size;
    probe.policy = w.policy;
    probe.replicas = w.replicas;
    probe.serving = opt.serving;
    probe.routeOffPath = false;
    probe.prefixProbeOffPath = twin.probe.calls == 0;
    runLayerProbes(probe, rep);

    rep.add("pim.memo_miss_share", share(cold_wall - warm_wall, cold_wall),
            "ratio");
    rep.add("sim.parallel.workers", rep.workers, "count");
    rep.add("sim.parallel.speedup", serial_wall / warm_wall, "x");

    std::uint64_t iters = 0, fc_pim = 0, fc_gpu = 0, reschedules = 0,
                  recomputed = 0;
    double peak_kv = 0.0;
    for (const core::ServingResult &r : ref.perGroup) {
        iters += r.iterations;
        fc_pim += r.fcOnPimIterations;
        fc_gpu += r.fcOnGpuIterations;
        reschedules += r.reschedules;
        recomputed += r.recomputedPrefillTokens;
        peak_kv = std::max(peak_kv, r.peakKvUtilization);
    }
    rep.add("core.iterations", static_cast<double>(iters), "count");
    rep.add("core.dispatch.fc_pim_share",
            share(static_cast<double>(fc_pim),
                  static_cast<double>(fc_pim + fc_gpu)),
            "ratio");
    rep.add("core.dispatch.reschedules", static_cast<double>(reschedules),
            "count");
    const core::RunBreakdown &b = twin.breakdown;
    const double total = b.totalSeconds();
    rep.add("core.breakdown.prefill_share", share(b.prefillSeconds, total),
            "ratio");
    rep.add("core.breakdown.fc_share", share(b.fcSeconds, total), "ratio");
    rep.add("core.breakdown.attn_share", share(b.attnSeconds, total),
            "ratio");
    rep.add("core.breakdown.comm_share", share(b.commSeconds, total),
            "ratio");
    rep.add("core.breakdown.other_share", share(b.otherSeconds, total),
            "ratio");
    rep.add("llm.kv.prefix_hit_rate",
            share(static_cast<double>(ref.prefixHits),
                  static_cast<double>(ref.prefixLookups)),
            "ratio");
    rep.add("llm.kv.prefix_hit_token_share",
            share(static_cast<double>(ref.prefixHitTokens),
                  static_cast<double>(ref.prefixHitTokens +
                                      ref.prefixMissTokens)),
            "ratio");
    rep.add("llm.kv.prefix_evicted_gb",
            static_cast<double>(ref.prefixEvictedBytes) / 1e9, "GB");
    rep.add("llm.kv.preemptions", static_cast<double>(ref.preemptions),
            "count");
    rep.add("llm.kv.recomputed_prefill_tokens",
            static_cast<double>(recomputed), "count");
    rep.add("llm.kv.peak_utilization", peak_kv, "ratio");
    rep.add("trace_overhead_share", twin.wall / warm_wall - 1.0, "ratio");
    rep.repetitions = 1;
    return rep;
}

} // namespace perfbench
