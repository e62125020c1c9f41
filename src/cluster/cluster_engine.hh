/**
 * @file
 * Cluster-scale serving: N platforms behind one request router.
 *
 * This is the scale-out layer above core::ServingEngine. A shared
 * arrival stream (the traffic of many users) enters a front-end
 * Router, which fans requests out to independent core::Platform
 * instances - optionally stitched into tensor-parallel groups with
 * an explicit all-reduce cost over an interconnect::Link. Each
 * backend's ServingSim keeps its own FC PhaseDispatcher, threshold
 * and reschedule count, so the GPU <-> PIM reschedule dynamics the
 * paper studies stay per-shard, while latency SLO metrics (TTFT/TPOT percentiles,
 * queueing delay, per-platform utilization) aggregate across the
 * cluster.
 *
 * Simulation model: all backends compose on one shared
 * sim::EventQueue through core::ServingEventDriver. Arrival events,
 * batch-level admission deadlines, and backend iteration boundaries
 * interleave in deterministic (time, kind, backend-index, sequence)
 * order, with each backend advanced through its ServingSim stepwise
 * API. Under token-level admission, one backend's event order
 * reduces exactly to ServingEngine::run - a property pinned by
 * tests/cluster_engine_test.cc (and it continues to hold with
 * chunked prefill and KV preemption enabled). Because the queue
 * gives arrival lookahead for free, batch-level admission,
 * continuous batching with chunked prefill, and KV-pressure
 * preemption (all core::ServingOptions knobs) work under the
 * cluster. Batch-level admission is the one deliberate semantic
 * difference from the standalone engine: ServingEngine::run sees
 * the whole future stream, so its fill rule may wait for a batch
 * that only fills after the timeout, while the cluster driver -
 * which cannot know where undelivered arrivals will route - starts
 * a batch at fill, timeout expiry, or stream exhaustion, whichever
 * event fires first.
 */

#ifndef PAPI_CLUSTER_CLUSTER_ENGINE_HH
#define PAPI_CLUSTER_CLUSTER_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/fault_injector.hh"
#include "cluster/router.hh"
#include "cluster/tensor_parallel.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "core/serving_events.hh"
#include "interconnect/link.hh"
#include "llm/arrival.hh"
#include "sim/fault_plan.hh"
#include "sim/stats.hh"

namespace papi::cluster {

/**
 * Disaggregated prefill/decode serving (DistServe OSDI'24 /
 * Splitwise ISCA'24 style): dedicated prefill replicas run only the
 * prompt phase and migrate each request's KV footprint to a decode
 * replica over a modeled interconnect link, so decode iterations
 * are never stalled by stop-the-world prefills and prompt
 * processing never waits behind decode work. Replica groups
 * [0, prefillReplicas) form the prefill pool, the remaining
 * decodeReplicas groups the decode pool.
 */
struct DisaggConfig
{
    /** Off by default: the cluster serves colocated, byte-identical
     *  to the pre-disaggregation engine. */
    bool enabled = false;
    /** Replica groups dedicated to prompt processing (>= 1). */
    std::uint32_t prefillReplicas = 1;
    /** Replica groups dedicated to decoding (>= 1). */
    std::uint32_t decodeReplicas = 1;
    /** Fabric the per-request KV migration is costed over. */
    interconnect::Link transferLink = interconnect::pcie5();
    /** Router policy over the prefill pool (the admission edge;
     *  decode placement is always least-loaded). */
    RouterPolicy prefillPolicy = RouterPolicy::RoundRobin;
};

/** Cluster shape and per-backend serving options. */
struct ClusterOptions
{
    /** Total core::Platform instances in the cluster. */
    std::uint32_t numPlatforms = 1;
    /**
     * Platforms stitched into one tensor-parallel replica; must
     * divide numPlatforms. Degree 1 = every platform an independent
     * replica.
     */
    std::uint32_t tensorParallelDegree = 1;
    /** Front-end load-balancing policy. */
    RouterPolicy policy = RouterPolicy::RoundRobin;
    /** Link class inside tensor-parallel groups (all-reduce). */
    interconnect::Link tpFabric = interconnect::nvlink();
    /** Per-backend admission/scheduling options. */
    core::ServingOptions serving;
    /**
     * Disaggregated prefill/decode pools. When enabled, the replica
     * count is prefillReplicas + decodeReplicas (numPlatforms is
     * derived as that times tensorParallelDegree), admission must
     * be token-level, and @ref policy is superseded by
     * DisaggConfig::prefillPolicy on the admission edge.
     */
    DisaggConfig disagg;
    /**
     * Deterministic fault schedule (replica crashes/restarts, link
     * degradation windows). Empty by default: no injector is built
     * and the run is byte-identical to the pre-fault engine (pinned
     * by tests). Link faults require disaggregation (they degrade
     * the KV-migration fabric).
     */
    sim::FaultPlan faults;
    /** Recovery policy for requests lost to injected faults. */
    FaultRecoveryOptions recovery;
    /**
     * Concurrent simulation executors (including the calling
     * thread) the replicas shard across; 1 (the default) runs the
     * historical serial schedule. Any value produces byte-for-byte
     * the workerThreads == 1 result - the driver's conservative
     * window protocol preserves the serial event order exactly (see
     * core::ServingEventDriver and tests/parallel_identity_test.cc).
     */
    unsigned workerThreads = 1;
    /**
     * Bounded-memory metrics: cap each replica's retained
     * per-request records/latencies at this many entries (see
     * core::ServingOptions::recordCapacity). 0 (the default) keeps
     * the unbounded exact path. While no replica overflows its cap
     * the aggregate ClusterResult is byte-identical to the
     * unbounded run; past the cap exact streaming counters and
     * P-square percentile estimators take over (statsTruncated is
     * set and ClusterResult::records holds each replica's capped
     * prefix). This is what bounds a million-request runStream()'s
     * memory.
     */
    std::uint64_t recordCapacity = 0;
};

/** p50/p95/p99 of one latency population, seconds. */
struct LatencyPercentiles
{
    double p50 = 0.0; ///< Median.
    double p95 = 0.0; ///< 95th percentile.
    double p99 = 0.0; ///< 99th percentile (the SLO tail).
};

/** Aggregate outcome of a cluster serving run. */
struct ClusterResult
{
    /** Replica count (numPlatforms / tensorParallelDegree). */
    std::uint32_t numGroups = 0;
    /** Per-replica serving results, by backend index. */
    std::vector<core::ServingResult> perGroup;
    /** Per-replica busy fraction of the cluster makespan. */
    std::vector<double> groupUtilization;

    double makespanSeconds = 0.0; ///< First arrival to last finish.
    double energyJoules = 0.0;    ///< Summed over all replicas.
    std::uint64_t requestsServed = 0;  ///< Requests run to <eos>.
    std::uint64_t tokensGenerated = 0; ///< Summed over all replicas.

    LatencyPercentiles ttft;     ///< Arrival to first token.
    LatencyPercentiles tpot;     ///< Per-token decode interval.
    LatencyPercentiles latency;  ///< Arrival to completion.
    LatencyPercentiles queueing; ///< Arrival to admission.
    /** Per-request preemption stall (seconds evicted; 0 for
     *  never-preempted requests). */
    LatencyPercentiles preemptionStall;
    double meanTtftSeconds = 0.0;     ///< Mean of the TTFT population.
    double meanTpotSeconds = 0.0;     ///< Mean of the TPOT population.
    double meanLatencySeconds = 0.0;  ///< Mean arrival-to-completion.
    double meanQueueingSeconds = 0.0; ///< Mean queueing delay.
    /** Mean preemption stall across all served requests. */
    double meanPreemptionStallSeconds = 0.0;
    /** KV-pressure evictions summed over all replicas. */
    std::uint64_t preemptions = 0;
    /** Preempted-request resumes summed over all replicas. */
    std::uint64_t resumes = 0;

    /** Per-replica platform names (heterogeneous clusters). */
    std::vector<std::string> groupNames;
    /** Per-replica FC dispatch policies (dispatchPolicyName form). */
    std::vector<std::string> groupPolicies;
    /** Per-replica serving roles ("colocated"|"prefill"|"decode"). */
    std::vector<std::string> groupRoles;

    /** Prefill-pool replica count (0 when serving colocated). */
    std::uint32_t prefillGroups = 0;
    /** Decode-pool replica count (0 when serving colocated). */
    std::uint32_t decodeGroups = 0;
    /** KV migrations performed (disaggregated mode only). */
    std::uint64_t kvTransfers = 0;
    /** KV block bytes moved across the transfer link in total. */
    std::uint64_t kvTransferBytes = 0;
    /** Summed per-migration link occupancy, seconds (transfers
     *  overlap with compute; this is fabric time, not makespan). */
    double kvTransferSeconds = 0.0;
    /** Link energy of all KV migrations (included in energyJoules). */
    double kvTransferJoules = 0.0;

    // ---- Fault injection, recovery, and SLO accounting. All zero
    // ---- (or trivially derived) in fault-free runs, so a run with
    // ---- no FaultPlan stays byte-identical to the pre-fault engine.

    /** Requests offered to the cluster (the arrival stream size).
     *  Conserved: offered = served + failed + shed. */
    std::uint64_t requestsOffered = 0;
    /** Requests dropped for good (retries exhausted, fail-stop
     *  losses, or stranded on a never-restarted replica). */
    std::uint64_t failedRequests = 0;
    /** Requests shed at admission because their deadline had
     *  already passed (ServingOptions::deadlineSeconds). */
    std::uint64_t shedRequests = 0;
    /** Retry resubmissions issued by the recovery policy. */
    std::uint64_t retriedRequests = 0;
    /** Prefill + decode tokens recomputed from scratch by retries
     *  (work paid twice; the price of recovery). */
    std::uint64_t retryRecomputedTokens = 0;
    std::uint64_t injectedCrashes = 0;  ///< Replica crashes executed.
    std::uint64_t replicaRestarts = 0;  ///< Replica restarts executed.
    /** KV migrations that fell back to decode-pool recompute (link
     *  timeout or destination died in flight). */
    std::uint64_t kvTransferFallbacks = 0;
    /** Per-replica seconds spent dark (always sized numGroups). */
    std::vector<double> replicaDowntimeSeconds;
    /**
     * With a TTFT deadline configured: fraction of *offered*
     * requests whose first token landed inside it (failed and shed
     * requests count against it). Without one: served / offered.
     */
    double sloAttainment = 0.0;
    /** Output tokens of *completed* requests over the makespan -
     *  excludes crash-lost generation and retry recompute, unlike
     *  throughputTokensPerSecond(). */
    double goodputTokensPerSecond = 0.0;

    // ---- Shared-prefix cache accounting (all zero with the cache
    // ---- disabled, keeping cache-off runs byte-identical).

    /** Prefix-cache probes at admission, summed over replicas. */
    std::uint64_t prefixLookups = 0;
    /** Probes that found a cached whole-block span. */
    std::uint64_t prefixHits = 0;
    /** Prompt tokens served from cache (prefill cost skipped). */
    std::uint64_t prefixHitTokens = 0;
    /** Prompt tokens prefilled the long way on keyed requests. */
    std::uint64_t prefixMissTokens = 0;
    /** Cached bytes evicted under KV pressure (LRU reclaim). */
    std::uint64_t prefixEvictedBytes = 0;

    /**
     * True when at least one replica overflowed
     * ClusterOptions::recordCapacity: the latency aggregates above
     * come from exact streaming sums and P-square estimators, and
     * @ref records holds only each replica's capped prefix (the
     * histograms in populateStats cover that prefix, not the full
     * population). Always false on the unbounded path.
     */
    bool statsTruncated = false;

    /** Parallel windows that ran wholly on the coordinator thread,
     *  and those handed to the worker pool (see
     *  sim::ParallelTimeline). Deterministic at a given worker
     *  count; every window is inline at one worker. */
    std::uint64_t inlineWindows = 0;
    std::uint64_t pooledWindows = 0; ///< See inlineWindows.

    /** Cluster decode throughput over the makespan. */
    double
    throughputTokensPerSecond() const
    {
        return makespanSeconds > 0.0
                   ? static_cast<double>(tokensGenerated) /
                         makespanSeconds
                   : 0.0;
    }

    /**
     * Register the cluster metrics (scalars for the aggregates and
     * percentiles, a per-replica utilization vector, TTFT/TPOT
     * histograms sampled from the per-request records) into @p
     * group for stats-file style dumping.
     */
    void populateStats(sim::stats::StatGroup &group) const;

    /**
     * Per-request timelines across all replicas, grouped by replica
     * index (completion order within each replica).
     */
    std::vector<core::RequestRecord> records;
};

/** Multi-platform serving simulator behind a request router. */
class ClusterEngine
{
  public:
    /**
     * Build numPlatforms platform instances from @p config (a
     * homogeneous cluster). Fatal if tensorParallelDegree does not
     * divide numPlatforms. Every core::AdmissionPolicy is
     * supported: the event-driven timeline gives batch-level
     * admission the arrival lookahead the retired peek-and-step
     * loop could not provide.
     */
    ClusterEngine(const core::PlatformConfig &config,
                  const ClusterOptions &options);

    /**
     * Heterogeneous cluster: one PlatformConfig per replica group
     * (e.g. dynamic PAPI replicas alongside always-GPU baselines
     * behind one router). The replica count is groupConfigs.size();
     * options.numPlatforms is derived as groups x
     * tensorParallelDegree and any caller-set value is ignored.
     */
    ClusterEngine(const std::vector<core::PlatformConfig> &groupConfigs,
                  const ClusterOptions &options);

    /** Replica (backend) count. */
    std::uint32_t numGroups() const { return _numGroups; }

    /** The cluster shape this engine was built with. */
    const ClusterOptions &options() const { return _options; }

    /**
     * Serve @p stream to completion across the cluster on one
     * shared event queue (see core::ServingEventDriver).
     */
    ClusterResult run(const std::vector<llm::TimedRequest> &stream,
                      const llm::SpeculativeConfig &spec,
                      const llm::ModelConfig &model);

    /**
     * Streaming variant: serve @p count arrivals pulled one at a
     * time from @p arrivals (llm::ArrivalProcess::next()) instead
     * of a materialized vector - the cluster never holds more than
     * one undelivered arrival, so the offered-traffic memory is
     * O(1) in @p count. A generator emitting the same sequence as a
     * vector produces a byte-identical ClusterResult (pinned by
     * tests/cluster_stream_test.cc). Combine with
     * ClusterOptions::recordCapacity to bound the *metrics* side
     * too - that is the million-request serving configuration.
     */
    ClusterResult runStream(llm::ArrivalProcess &arrivals,
                            std::uint64_t count,
                            const llm::SpeculativeConfig &spec,
                            const llm::ModelConfig &model);

  private:
    /** Shared body of run()/runStream(): build the replicas, drive
     *  them via @p drive (which must fill @p first_arrival from the
     *  stream it delivers), then aggregate. */
    ClusterResult
    runImpl(const llm::SpeculativeConfig &spec,
            const llm::ModelConfig &model, std::uint64_t offered,
            double &first_arrival,
            const std::function<void(core::ServingEventDriver &,
                                     const core::RouteFn &)> &drive);

    ClusterOptions _options;
    std::uint32_t _numGroups;
    /**
     * One platform model per replica group: the group's
     * tensorParallelDegree physical platforms are identical, so one
     * instance (plus the TP cost model) carries the whole group.
     */
    std::vector<std::unique_ptr<core::Platform>> _platforms;
};

} // namespace papi::cluster

#endif // PAPI_CLUSTER_CLUSTER_ENGINE_HH
