#include "cluster/cluster_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/metrics.hh"
#include "core/serving_events.hh"
#include "sim/logging.hh"

namespace papi::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

LatencyPercentiles
summarize(std::vector<double> &values, double &mean_out)
{
    LatencyPercentiles out;
    if (values.empty()) {
        // An empty population (e.g. a pool that completed zero
        // requests) has no percentiles: NaN, not a fabricated 0.
        // populateStats skips non-finite scalars on export.
        mean_out = std::numeric_limits<double>::quiet_NaN();
        out.p50 = out.p95 = out.p99 = mean_out;
        return out;
    }
    double sum = 0.0;
    for (double v : values)
        sum += v;
    mean_out = sum / static_cast<double>(values.size());
    std::sort(values.begin(), values.end());
    out.p50 = core::percentileSorted(values, 0.50);
    out.p95 = core::percentileSorted(values, 0.95);
    out.p99 = core::percentileSorted(values, 0.99);
    return out;
}

} // namespace

namespace {

/** Shared constructor-time configuration validation. */
void
validateClusterOptions(const ClusterOptions &options)
{
    if (options.tensorParallelDegree == 0)
        sim::fatal("ClusterEngine: tensorParallelDegree must be "
                   ">= 1");
    options.tpFabric.validate();
    if (options.disagg.enabled) {
        if (options.disagg.prefillReplicas == 0 ||
            options.disagg.decodeReplicas == 0)
            sim::fatal("ClusterEngine: disaggregation needs at "
                       "least one prefill and one decode replica "
                       "(got ", options.disagg.prefillReplicas,
                       " + ", options.disagg.decodeReplicas, ")");
        if (options.serving.admission ==
            core::AdmissionPolicy::BatchLevel)
            sim::fatal("ClusterEngine: disaggregated serving "
                       "requires token-level admission");
    }
}

/** Disaggregated replica count (prefill + decode pools). */
std::uint32_t
disaggGroups(const ClusterOptions &options)
{
    return options.disagg.prefillReplicas +
           options.disagg.decodeReplicas;
}

} // namespace

ClusterEngine::ClusterEngine(const core::PlatformConfig &config,
                             const ClusterOptions &options)
    : _options(options)
{
    validateClusterOptions(options);
    if (options.disagg.enabled) {
        // Pool sizes define the replica count; any caller-set
        // numPlatforms is derived, not read.
        _numGroups = disaggGroups(options);
        _options.numPlatforms =
            _numGroups * options.tensorParallelDegree;
    } else {
        if (options.numPlatforms == 0)
            sim::fatal("ClusterEngine: need at least one platform");
        if (options.numPlatforms % options.tensorParallelDegree != 0)
            sim::fatal("ClusterEngine: tensorParallelDegree (",
                       options.tensorParallelDegree,
                       ") must divide numPlatforms (",
                       options.numPlatforms, ")");
        _numGroups =
            options.numPlatforms / options.tensorParallelDegree;
    }
    _platforms.reserve(_numGroups);
    for (std::uint32_t g = 0; g < _numGroups; ++g)
        _platforms.push_back(
            std::make_unique<core::Platform>(config));
}

ClusterEngine::ClusterEngine(
    const std::vector<core::PlatformConfig> &groupConfigs,
    const ClusterOptions &options)
    : _options(options)
{
    validateClusterOptions(options);
    if (groupConfigs.empty())
        sim::fatal("ClusterEngine: need at least one replica "
                   "config");
    if (options.disagg.enabled &&
        groupConfigs.size() != disaggGroups(options))
        sim::fatal("ClusterEngine: disaggregated pools need one "
                   "config per replica (", disaggGroups(options),
                   " = ", options.disagg.prefillReplicas,
                   " prefill + ", options.disagg.decodeReplicas,
                   " decode, got ", groupConfigs.size(), ")");
    _numGroups = static_cast<std::uint32_t>(groupConfigs.size());
    _options.numPlatforms =
        _numGroups * _options.tensorParallelDegree;
    _platforms.reserve(_numGroups);
    for (const auto &cfg : groupConfigs)
        _platforms.push_back(std::make_unique<core::Platform>(cfg));
}

ClusterResult
ClusterEngine::run(const std::vector<llm::TimedRequest> &stream,
                   const llm::SpeculativeConfig &spec,
                   const llm::ModelConfig &model)
{
    // ServingEventDriver::runStream rejects an unsorted stream but
    // accepts an empty one.
    if (stream.empty())
        sim::fatal("ClusterEngine: empty request stream");
    double first_arrival = stream.front().arrivalSeconds;
    return runImpl(
        spec, model, stream.size(), first_arrival,
        [&stream](core::ServingEventDriver &driver,
                  const core::RouteFn &route) {
            driver.runStream(stream, route);
        });
}

ClusterResult
ClusterEngine::runStream(llm::ArrivalProcess &arrivals,
                         std::uint64_t count,
                         const llm::SpeculativeConfig &spec,
                         const llm::ModelConfig &model)
{
    if (count == 0)
        sim::fatal("ClusterEngine: empty generated stream");
    double first_arrival = 0.0;
    bool first_seen = false;
    return runImpl(
        spec, model, count, first_arrival,
        [&](core::ServingEventDriver &driver,
            const core::RouteFn &route) {
            driver.runStreamGenerated(
                [&]() {
                    llm::TimedRequest r = arrivals.next();
                    if (!first_seen) {
                        first_arrival = r.arrivalSeconds;
                        first_seen = true;
                    }
                    return r;
                },
                count, route);
        });
}

ClusterResult
ClusterEngine::runImpl(
    const llm::SpeculativeConfig &spec,
    const llm::ModelConfig &model, std::uint64_t offered,
    double &first_arrival,
    const std::function<void(core::ServingEventDriver &,
                             const core::RouteFn &)> &drive)
{
    TensorParallelModel tp;
    tp.degree = _options.tensorParallelDegree;
    tp.fabric = _options.tpFabric;
    const core::IterationCostModel cost =
        tp.iterationCostModel(model);

    const bool disagg = _options.disagg.enabled;
    const std::uint32_t prefill_pool =
        disagg ? _options.disagg.prefillReplicas : 0;

    std::vector<std::unique_ptr<core::ServingSim>> sims;
    sims.reserve(_numGroups);
    for (std::uint32_t g = 0; g < _numGroups; ++g) {
        core::ServingOptions sopt = _options.serving;
        if (_options.recordCapacity > 0)
            sopt.recordCapacity = _options.recordCapacity;
        if (disagg) {
            sopt.role = g < prefill_pool ? core::ServingRole::Prefill
                                         : core::ServingRole::Decode;
            // A prefill replica frees its KV at handoff, so
            // pressure preemption is a decode-pool concern.
            if (sopt.role == core::ServingRole::Prefill)
                sopt.preemptOnKvPressure = false;
        }
        sims.push_back(std::make_unique<core::ServingSim>(
            *_platforms[g], spec, model, sopt, cost));
    }

    // All replicas compose on one shared event queue: arrivals are
    // routed at delivery time against per-backend load snapshots,
    // and each replica schedules its own admission/boundary
    // lifecycle events (core::ServingEventDriver preserves the
    // historical arrival-first, lowest-index tie order exactly).
    // Disaggregated mode routes arrivals over the prefill pool only;
    // completed prefills migrate to the decode pool as timed KV
    // transfers scheduled by the driver.
    const std::uint32_t route_width =
        disagg ? prefill_pool : _numGroups;
    const RouterPolicy active_policy =
        disagg ? _options.disagg.prefillPolicy : _options.policy;
    Router router(active_policy, route_width);
    std::vector<BackendLoad> loads(route_width);
    std::vector<core::ServingSim *> replicas;
    replicas.reserve(_numGroups);
    for (auto &s : sims)
        replicas.push_back(s.get());
    core::ServingEventDriver driver(std::move(replicas));
    driver.setWorkerThreads(_options.workerThreads);
    // RoundRobin and SessionAffinity decisions depend only on the
    // request and the router's own cursor/hash - never on the load
    // snapshots - so with liveness constant (no fault plan) and no
    // disaggregation the driver may pre-route the stream and skip
    // every arrival barrier (the parallel fast path). The result is
    // byte-identical either way; this only removes synchronization.
    // LeastOutstanding reads live loads and CacheHitAware probes
    // live per-replica caches, so both stay on the barrier path.
    driver.setStateIndependentRouting(
        !disagg && _options.faults.empty() &&
        active_policy != RouterPolicy::LeastOutstanding &&
        active_policy != RouterPolicy::CacheHitAware);
    if (disagg)
        driver.enableDisaggregation(
            {prefill_pool, _options.disagg.transferLink});

    // Fault injection: an empty plan builds no injector and
    // schedules nothing - the run is byte-identical to the
    // pre-fault engine (pinned). Link faults degrade the disagg
    // KV-migration fabric (the driver rejects them without one).
    std::unique_ptr<FaultInjector> injector;
    if (!_options.faults.empty()) {
        injector = std::make_unique<FaultInjector>(
            driver, _options.faults, _options.recovery);
        injector->arm();
        if (!_options.faults.linkFaults.empty())
            driver.setLinkFaults(
                _options.faults.linkFaults,
                _options.recovery.transferTimeoutSeconds);
    }

    const bool probe_caches =
        active_policy == RouterPolicy::CacheHitAware;
    const core::RouteFn route =
        [&](const llm::TimedRequest &request) {
            for (std::uint32_t g = 0; g < route_width; ++g) {
                loads[g].outstanding = driver.outstanding(g);
                // Prefill replicas retire work synchronously (each
                // completed prompt hands off inside admit), so
                // outstanding alone cannot see a mid-prefill
                // replica; feed the backlog tie-break. Colocated
                // routing stays bit-stable (field left 0).
                if (disagg)
                    loads[g].busyUntilSeconds = sims[g]->now();
                // Cache-hit-aware routing: a side-effect-free probe
                // of each replica's prefix cache converts the
                // request's cached prompt span into expected KV
                // bytes served from cache.
                if (probe_caches)
                    loads[g].expectedHitBytes =
                        static_cast<std::uint64_t>(
                            sims[g]->probePrefixHitTokens(request)) *
                        model.kvBytesPerToken();
                loads[g].alive = !driver.isDown(g);
            }
            return router.route(request, loads);
        };
    drive(driver, route);

    ClusterResult out;
    out.numGroups = _numGroups;
    out.inlineWindows = driver.timeline().inlineWindows();
    out.pooledWindows = driver.timeline().pooledWindows();
    out.perGroup.reserve(_numGroups);
    out.groupUtilization.resize(_numGroups, 0.0);
    out.groupNames.reserve(_numGroups);
    out.groupPolicies.reserve(_numGroups);
    out.groupRoles.reserve(_numGroups);
    for (std::uint32_t g = 0; g < _numGroups; ++g) {
        out.groupNames.push_back(_platforms[g]->name());
        out.groupPolicies.push_back(core::dispatchPolicyName(
            _platforms[g]->dispatchPolicy(core::Phase::Fc)));
        out.groupRoles.push_back(
            !disagg ? "colocated"
                    : (g < prefill_pool ? "prefill" : "decode"));
    }
    if (disagg) {
        out.prefillGroups = prefill_pool;
        out.decodeGroups = _numGroups - prefill_pool;
        const core::KvTransferStats &xfer = driver.transferStats();
        out.kvTransfers = xfer.transfers;
        out.kvTransferBytes = xfer.bytes;
        out.kvTransferSeconds = xfer.linkSeconds;
        out.kvTransferJoules = xfer.joules;
        out.energyJoules += xfer.joules;
    }
    double t_end = first_arrival;
    for (std::uint32_t g = 0; g < _numGroups; ++g)
        t_end = std::max(t_end, sims[g]->now());
    if (injector) {
        // Close downtime windows and harvest requests stranded on
        // never-restarted replicas (counted failed) before the
        // per-replica results are read.
        injector->finalize(t_end);
        const FaultStats &fs = injector->stats();
        out.failedRequests = fs.failedRequests;
        out.retriedRequests = fs.retriesScheduled;
        out.retryRecomputedTokens = fs.retryRecomputedTokens;
        out.injectedCrashes = fs.crashes;
        out.replicaRestarts = fs.restarts;
        out.replicaDowntimeSeconds = fs.downtimeSeconds;
    } else {
        out.replicaDowntimeSeconds.assign(_numGroups, 0.0);
    }
    out.kvTransferFallbacks = driver.transferStats().fallbacks;
    std::uint64_t served = 0;
    for (std::uint32_t g = 0; g < _numGroups; ++g) {
        core::ServingResult r = sims[g]->finish();
        out.energyJoules += r.energyJoules;
        out.tokensGenerated += r.tokensGenerated;
        out.preemptions += r.preemptions;
        out.resumes += r.resumes;
        out.prefixLookups += r.prefixLookups;
        out.prefixHits += r.prefixHits;
        out.prefixHitTokens += r.prefixHitTokens;
        out.prefixMissTokens += r.prefixMissTokens;
        out.prefixEvictedBytes += r.prefixEvictedBytes;
        out.perGroup.push_back(std::move(r));
        t_end = std::max(t_end, sims[g]->now());
        // servedCount() stays exact past the record cap; records
        // hold each replica's capped prefix (the whole population
        // below the cap, where the paths are byte-identical).
        served += sims[g]->servedCount();
        if (sims[g]->streamStats().overflowed)
            out.statsTruncated = true;
        const auto &recs = sims[g]->records();
        out.records.insert(out.records.end(), recs.begin(),
                           recs.end());
    }
    out.makespanSeconds = t_end - first_arrival;
    out.requestsServed = served;
    out.requestsOffered = offered;
    for (const core::ServingResult &r : out.perGroup)
        out.shedRequests += r.shedRequests;
    if (out.requestsServed + out.failedRequests +
            out.shedRequests != out.requestsOffered)
        sim::panic("ClusterEngine: request conservation violated "
                   "(offered ", out.requestsOffered, " != served ",
                   out.requestsServed, " + failed ",
                   out.failedRequests, " + shed ",
                   out.shedRequests, ")");
    std::uint64_t served_tokens = 0;
    if (out.statsTruncated) {
        // Past the record cap the concatenated records are a capped
        // prefix; the streaming counters stay exact over the whole
        // run (folded at every retirement when a cap is set).
        for (std::uint32_t g = 0; g < _numGroups; ++g)
            served_tokens += sims[g]->streamStats().outputTokens;
    } else {
        for (const auto &rec : out.records)
            served_tokens += rec.outputTokens;
    }
    out.goodputTokensPerSecond =
        out.makespanSeconds > 0.0
            ? static_cast<double>(served_tokens) /
                  out.makespanSeconds
            : 0.0;
    const double deadline = _options.serving.deadlineSeconds;
    if (deadline > 0.0) {
        std::uint64_t met = 0;
        if (out.statsTruncated) {
            for (std::uint32_t g = 0; g < _numGroups; ++g)
                met += sims[g]->streamStats().deadlineMet;
        } else {
            for (const auto &rec : out.records) {
                if (rec.ttftSeconds() <= deadline)
                    ++met;
            }
        }
        out.sloAttainment =
            static_cast<double>(met) /
            static_cast<double>(out.requestsOffered);
    } else {
        // No deadline configured: SLO attainment degrades to the
        // completion rate (every served request "meets" it).
        out.sloAttainment =
            static_cast<double>(out.requestsServed) /
            static_cast<double>(out.requestsOffered);
    }
    for (std::uint32_t g = 0; g < _numGroups; ++g) {
        out.groupUtilization[g] =
            out.makespanSeconds > 0.0
                ? sims[g]->busySeconds() / out.makespanSeconds
                : 0.0;
    }

    if (out.statsTruncated) {
        // Bounded-memory aggregation: the full record population is
        // gone, so means come from the exact streaming sums and
        // percentiles are count-weighted averages of the per-replica
        // P-square estimates, merged in replica index order
        // (deterministic at any worker count).
        auto merge = [&sims, this](core::StreamMetric m,
                                   double &mean_out) {
            LatencyPercentiles p;
            double sum = 0.0;
            double w50 = 0.0, w95 = 0.0, w99 = 0.0;
            std::uint64_t count = 0;
            for (std::uint32_t g = 0; g < _numGroups; ++g) {
                const core::ServingStreamStats &ss =
                    sims[g]->streamStats();
                if (ss.count == 0)
                    continue;
                const double w = static_cast<double>(ss.count);
                sum += ss.sums[m];
                w50 += w * ss.p50[m].value();
                w95 += w * ss.p95[m].value();
                w99 += w * ss.p99[m].value();
                count += ss.count;
            }
            if (count == 0) {
                mean_out = std::numeric_limits<double>::quiet_NaN();
                p.p50 = p.p95 = p.p99 = mean_out;
                return p;
            }
            const double n = static_cast<double>(count);
            mean_out = sum / n;
            p.p50 = w50 / n;
            p.p95 = w95 / n;
            p.p99 = w99 / n;
            return p;
        };
        out.ttft = merge(core::kStreamTtft, out.meanTtftSeconds);
        out.tpot = merge(core::kStreamTpot, out.meanTpotSeconds);
        out.latency =
            merge(core::kStreamLatency, out.meanLatencySeconds);
        out.queueing =
            merge(core::kStreamQueueing, out.meanQueueingSeconds);
        out.preemptionStall = merge(
            core::kStreamStall, out.meanPreemptionStallSeconds);
        return out;
    }

    std::vector<double> ttft, tpot, latency, queueing, stall;
    ttft.reserve(out.records.size());
    tpot.reserve(out.records.size());
    latency.reserve(out.records.size());
    queueing.reserve(out.records.size());
    stall.reserve(out.records.size());
    for (const auto &rec : out.records) {
        ttft.push_back(rec.ttftSeconds());
        tpot.push_back(rec.tpotSeconds());
        latency.push_back(rec.finishSeconds - rec.arrivalSeconds);
        queueing.push_back(rec.queueingSeconds());
        stall.push_back(rec.stallSeconds);
    }
    out.ttft = summarize(ttft, out.meanTtftSeconds);
    out.tpot = summarize(tpot, out.meanTpotSeconds);
    out.latency = summarize(latency, out.meanLatencySeconds);
    out.queueing = summarize(queueing, out.meanQueueingSeconds);
    out.preemptionStall =
        summarize(stall, out.meanPreemptionStallSeconds);
    return out;
}

void
ClusterResult::populateStats(sim::stats::StatGroup &group) const
{
    group.addScalar("makespan_seconds",
                    "first arrival to last completion")
        .set(makespanSeconds);
    group.addScalar("energy_joules", "total cluster energy")
        .set(energyJoules);
    group.addScalar("requests_served", "requests run to <eos>")
        .set(static_cast<double>(requestsServed));
    group.addScalar("tokens_generated", "output tokens produced")
        .set(static_cast<double>(tokensGenerated));
    group.addScalar("throughput_tokens_per_second",
                    "tokens over the makespan")
        .set(throughputTokensPerSecond());

    // Empty populations aggregate to NaN (see core::percentileSorted);
    // such stats are skipped on export rather than fabricated as 0.
    auto add_finite = [&group](const std::string &name,
                               const char *desc, double v) {
        if (std::isfinite(v))
            group.addScalar(name, desc).set(v);
    };
    auto add_percentiles = [&add_finite](const char *prefix,
                                         const LatencyPercentiles &p,
                                         const char *desc) {
        add_finite(std::string(prefix) + "_p50_seconds", desc, p.p50);
        add_finite(std::string(prefix) + "_p95_seconds", desc, p.p95);
        add_finite(std::string(prefix) + "_p99_seconds", desc, p.p99);
    };
    add_percentiles("ttft", ttft, "arrival to first token");
    add_percentiles("tpot", tpot, "per-token decode interval");
    add_percentiles("latency", latency, "arrival to completion");
    add_percentiles("queueing", queueing, "arrival to admission");
    add_percentiles("preemption_stall", preemptionStall,
                    "seconds spent evicted under KV pressure");
    group.addScalar("preemptions", "KV-pressure evictions")
        .set(static_cast<double>(preemptions));
    group.addScalar("preemption_resumes",
                    "preempted requests re-admitted")
        .set(static_cast<double>(resumes));
    add_finite("preemption_stall_mean_seconds",
               "mean eviction stall across served requests",
               meanPreemptionStallSeconds);
    add_finite("ttft_mean_seconds", "arrival to first token",
               meanTtftSeconds);
    add_finite("latency_mean_seconds", "arrival to completion",
               meanLatencySeconds);
    add_finite("tpot_mean_seconds", "per-token decode interval",
               meanTpotSeconds);
    add_finite("queueing_mean_seconds", "arrival to admission",
               meanQueueingSeconds);
    if (prefillGroups > 0) {
        group.addScalar("prefill_groups",
                        "replicas in the prefill pool")
            .set(static_cast<double>(prefillGroups));
        group.addScalar("decode_groups",
                        "replicas in the decode pool")
            .set(static_cast<double>(decodeGroups));
        group.addScalar("kv_transfers",
                        "prefill->decode KV migrations")
            .set(static_cast<double>(kvTransfers));
        group.addScalar("kv_transfer_bytes",
                        "KV block bytes moved across the link")
            .set(static_cast<double>(kvTransferBytes));
        group.addScalar("kv_transfer_seconds",
                        "summed per-migration link occupancy")
            .set(kvTransferSeconds);
        group.addScalar("kv_transfer_joules",
                        "link energy of all KV migrations")
            .set(kvTransferJoules);
    }

    if (prefixLookups > 0) {
        group.addScalar("prefix_lookups",
                        "prefix-cache probes at admission")
            .set(static_cast<double>(prefixLookups));
        group.addScalar("prefix_hits",
                        "probes finding a cached span")
            .set(static_cast<double>(prefixHits));
        group.addScalar("prefix_hit_rate",
                        "prefix-cache hit fraction of probes")
            .set(static_cast<double>(prefixHits) /
                 static_cast<double>(prefixLookups));
        group.addScalar("prefix_hit_tokens",
                        "prompt tokens served from cache")
            .set(static_cast<double>(prefixHitTokens));
        group.addScalar("prefix_miss_tokens",
                        "keyed prompt tokens prefilled the long way")
            .set(static_cast<double>(prefixMissTokens));
        group.addScalar("prefix_evicted_bytes",
                        "cached bytes reclaimed under KV pressure")
            .set(static_cast<double>(prefixEvictedBytes));
    }
    if (statsTruncated)
        group.addScalar("stats_truncated",
                        "1 when percentiles come from streaming "
                        "estimators (record cap overflowed)")
            .set(1.0);

    group.addScalar("requests_offered",
                    "arrival stream size (served + failed + shed)")
        .set(static_cast<double>(requestsOffered));
    group.addScalar("goodput_tokens_per_second",
                    "completed-request tokens over the makespan")
        .set(goodputTokensPerSecond);
    group.addScalar("slo_attainment",
                    "offered requests meeting the TTFT deadline "
                    "(completion rate when no deadline is set)")
        .set(sloAttainment);
    const bool faulty = injectedCrashes > 0 || failedRequests > 0 ||
                        shedRequests > 0 || retriedRequests > 0 ||
                        kvTransferFallbacks > 0;
    if (faulty) {
        group.addScalar("failed_requests",
                        "requests dropped for good under faults")
            .set(static_cast<double>(failedRequests));
        group.addScalar("shed_requests",
                        "requests shed at admission past deadline")
            .set(static_cast<double>(shedRequests));
        group.addScalar("retried_requests",
                        "retry resubmissions issued")
            .set(static_cast<double>(retriedRequests));
        group.addScalar("retry_recomputed_tokens",
                        "tokens recomputed from scratch by retries")
            .set(static_cast<double>(retryRecomputedTokens));
        group.addScalar("injected_crashes",
                        "replica crashes executed")
            .set(static_cast<double>(injectedCrashes));
        group.addScalar("replica_restarts",
                        "replica restarts executed")
            .set(static_cast<double>(replicaRestarts));
        group.addScalar("kv_transfer_fallbacks",
                        "KV migrations fallen back to recompute")
            .set(static_cast<double>(kvTransferFallbacks));
        std::vector<std::string> down_bins;
        down_bins.reserve(replicaDowntimeSeconds.size());
        for (std::size_t g = 0; g < replicaDowntimeSeconds.size();
             ++g)
            down_bins.push_back("group" + std::to_string(g));
        auto &down = group.addVector("replica_downtime_seconds",
                                     "seconds each replica was dark",
                                     down_bins);
        for (std::size_t g = 0; g < replicaDowntimeSeconds.size();
             ++g)
            down.add(g, replicaDowntimeSeconds[g]);
    }

    std::vector<std::string> bins;
    bins.reserve(groupUtilization.size());
    for (std::size_t g = 0; g < groupUtilization.size(); ++g)
        bins.push_back("group" + std::to_string(g));
    auto &util = group.addVector(
        "group_utilization", "busy fraction of the makespan", bins);
    for (std::size_t g = 0; g < groupUtilization.size(); ++g)
        util.add(g, groupUtilization[g]);

    if (!records.empty()) {
        double ttft_max = 0.0, tpot_max = 0.0;
        for (const auto &rec : records) {
            ttft_max = std::max(ttft_max, rec.ttftSeconds());
            tpot_max = std::max(tpot_max, rec.tpotSeconds());
        }
        auto &h_ttft = group.addHistogram(
            "ttft_histogram", "arrival to first token, seconds",
            0.0, std::nextafter(std::max(ttft_max, 1e-9), kInf), 20);
        auto &h_tpot = group.addHistogram(
            "tpot_histogram", "per-token decode interval, seconds",
            0.0, std::nextafter(std::max(tpot_max, 1e-9), kInf), 20);
        for (const auto &rec : records) {
            h_ttft.sample(rec.ttftSeconds());
            h_tpot.sample(rec.tpotSeconds());
        }
    }
}

} // namespace papi::cluster
