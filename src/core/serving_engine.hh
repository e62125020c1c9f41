/**
 * @file
 * Online serving simulation with mixed continuous batching.
 *
 * ServingSim is the single simulation core for every execution shape
 * in the repository:
 *
 *  - ServingEngine::run() serves a complete arrival stream on one
 *    platform, the single-platform path used by tests and figure
 *    benchmarks: it delivers the stream up front and runs the
 *    while (canStep()) step() loop.
 *  - cluster::ClusterEngine composes one ServingSim per platform
 *    group on a shared sim::EventQueue, delivering arrivals
 *    incrementally through a front-end router
 *    (core::ServingEventDriver). The event order reproduces that
 *    loop's operation sequence exactly, so single-platform results
 *    are bit-identical across both paths.
 *  - DecodeEngine::run() (the paper's static-batch evaluation) is an
 *    adapter over the same core: a static batch is a stream whose
 *    requests all arrive at t=0 under batch-level admission with no
 *    further arrivals. StaticBatchMode carries the decode-loop
 *    semantics the arrival-driven path does not use (padded FC work
 *    on non-RLP-tracking baselines, phase-overlap hiding, the
 *    speculative draft charge, per-iteration traces).
 *
 * The FC phase target of each iteration is picked by the platform's
 * per-phase DispatchPolicy bound into a PhaseDispatcher (static pin,
 * AI-threshold pair, or oracle race over the target registry);
 * runtime RLP rises on admissions and falls on <eos>, so PAPI's
 * threshold rule reschedules in both directions.
 *
 * Two serving-path extensions (off by default; both excluded from
 * the static-batch adapter): chunked prefill
 * (ServingOptions::prefillChunkTokens) splits each admitted prompt
 * across iterations so decode is never starved, and KV-pressure
 * preemption (ServingOptions::preemptOnKvPressure) switches the KV
 * gate from worst-case reservation to on-demand growth with
 * evict-youngest/resume semantics (KvPreemptPolicy).
 */

#ifndef PAPI_CORE_SERVING_ENGINE_HH
#define PAPI_CORE_SERVING_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "core/batch_state.hh"
#include "core/dispatch_policy.hh"
#include "core/p2_quantile.hh"
#include "core/platform.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"
#include "llm/speculative.hh"
#include "sim/rng.hh"

namespace papi::core {

/** When new requests may join the running batch. */
enum class AdmissionPolicy : std::uint8_t
{
    /** Mixed continuous batching: join at any iteration boundary. */
    TokenLevel,
    /**
     * Static batching with dynamic admission (paper Section 3.2(c)):
     * a new batch forms only after the current one drains, starting
     * when it is full or a wait timeout expires.
     */
    BatchLevel,
};

/**
 * A replica's role in a disaggregated prefill/decode deployment
 * (DistServe / Splitwise style). Colocated replicas run the full
 * request lifecycle and are byte-identical to the pre-disaggregation
 * engine. A Prefill replica runs only the prompt phase: when a
 * request's prefill completes, the request is retired into a handoff
 * queue (see HandoffRecord) with its KV footprint, for the owning
 * driver to migrate to a decode replica over the transfer fabric. A
 * Decode replica accepts such migrated requests through
 * deliverPrefilled() and admits them with their context already
 * materialized - no prefill charge, only the KV reservation.
 */
enum class ServingRole : std::uint8_t
{
    Colocated, ///< Full lifecycle on one replica (the default).
    Prefill,   ///< Prompt phase only; hand off at prefill completion.
    Decode,    ///< Decode phase only; admits migrated prefills.
};

/** What happens to a request's KV state when it is preempted. */
enum class KvPreemptPolicy : std::uint8_t
{
    /**
     * Drop the KV blocks entirely; on resume, re-prefill the whole
     * context (prompt plus tokens generated so far). Costs compute,
     * frees the most capacity (vLLM's recompute policy).
     */
    Recompute,
    /**
     * Swap the KV blocks out over the attention fabric and swap
     * them back on resume (charged at @ref
     * ServingOptions::kvSwapGBps). Costs communication instead of
     * recompute; device blocks are freed while swapped out.
     */
    SwapRestore,
};

/** Serving-run configuration. */
struct ServingOptions
{
    /** Maximum concurrent requests (SLO-driven initial-RLP cap). */
    std::uint32_t maxRlp = 64;
    /** Scheduling threshold (from ThresholdCalibrator). */
    double alpha = 32.0;
    /** RNG seed for speculative acceptance. */
    std::uint64_t seed = 1;
    /** Admission policy. */
    AdmissionPolicy admission = AdmissionPolicy::TokenLevel;
    /**
     * Batch-level only: wait at most this long after the first
     * pending arrival for the batch to fill before starting.
     */
    double batchTimeoutSeconds = 0.1;

    /**
     * Continuous batching with chunked prefill: when non-zero, an
     * admitted request's prompt is processed at most this many
     * tokens per decode iteration (shared budget across all
     * still-prefilling requests, oldest admission first) instead of
     * as one synchronous charge at admission - so a long prompt
     * never stalls the decoding batch. 0 keeps the monolithic
     * stop-the-world prefill.
     */
    std::uint32_t prefillChunkTokens = 0;
    /**
     * KV-pressure preemption: when true, admission reserves only a
     * request's *current* KV footprint (not the worst case) and the
     * cache grows on demand as decoding extends contexts; when the
     * next iteration's worst-case growth no longer fits, the
     * youngest-admitted requests are evicted (per @ref
     * preemptPolicy) and re-admitted once capacity frees up. When
     * false (default), the legacy worst-case reservation makes
     * pressure impossible.
     */
    bool preemptOnKvPressure = false;
    /** Eviction/resume policy used under @ref preemptOnKvPressure. */
    KvPreemptPolicy preemptPolicy = KvPreemptPolicy::Recompute;
    /** KV swap-out/in bandwidth for KvPreemptPolicy::SwapRestore. */
    double kvSwapGBps = 64.0;
    /**
     * Test/bench hook: override the per-device Attn-PIM KV capacity
     * (bytes) so KV pressure can be forced without perturbing the
     * platform's timing model. 0 = use the platform's capacity.
     */
    std::uint64_t kvCapacityOverrideBytes = 0;
    /**
     * Disaggregated-serving role of this replica (see ServingRole).
     * Non-colocated roles require token-level admission and are
     * incompatible with StaticBatchMode; Prefill additionally
     * excludes KV preemption (a prefill replica frees its KV at
     * handoff, so pressure never builds across requests).
     */
    ServingRole role = ServingRole::Colocated;
    /**
     * Time-to-first-token deadline, seconds after arrival (0 = no
     * deadline). When set, admission sheds queued requests whose
     * deadline has already passed instead of spending compute on
     * work no user is waiting for (SLO-aware load shedding); the
     * cluster layer also scores SLO attainment against it. Serving
     * path only (excluded from static-batch runs).
     */
    double deadlineSeconds = 0.0;
    /**
     * Shared prefix caching (llm::KvCacheManager's prefix layer):
     * when true, a fresh request whose prefixKey matches a cached
     * entry skips the prefill cost of the cached whole-block span
     * (chunked prefill starts at the first uncached token; the
     * non-chunked path charges only the uncached suffix as an
     * incremental chunk), and retiring requests publish their final
     * context under their insertKey. The request still allocates
     * its FULL private KV footprint - only prefill COMPUTE is
     * skipped - so admission gating and growth arithmetic are
     * unchanged. Cached blocks are reclaimed LRU-first under KV
     * pressure, before any preemption (evict-before-preempt). When
     * false (default), every run is byte-identical to the
     * pre-prefix-cache engine (pinned).
     */
    bool prefixCacheEnabled = false;
    /**
     * Bounded-memory metrics: when non-zero, at most this many
     * RequestRecords (and latency samples) are retained; the
     * retirement path additionally folds every request into exact
     * streaming sums and P-square percentile estimators (see
     * ServingStreamStats). While the record count stays below the
     * cap, finish() and records() are byte-identical to the
     * unbounded run; past the cap, records() is a truncated prefix
     * sample and aggregate percentiles come from the estimators.
     * 0 (default) retains everything, bit-identical to the
     * pre-capacity engine.
     */
    std::uint64_t recordCapacity = 0;
};

/** Per-component time/energy accumulation of one run. */
struct RunBreakdown
{
    double prefillSeconds = 0.0; ///< Prompt-processing phase.
    double fcSeconds = 0.0;   ///< Decode FC (GEMV only).
    double attnSeconds = 0.0; ///< Decode attention (GEMV+softmax).
    double commSeconds = 0.0; ///< All activation/KV movement.
    double otherSeconds = 0.0; ///< Layernorm/residual/sampling.

    /** Sum of all components, end to end. */
    double
    totalSeconds() const
    {
        return prefillSeconds + fcSeconds + attnSeconds + commSeconds +
               otherSeconds;
    }
};

/** One row of the optional per-iteration schedule trace. */
struct IterationTrace
{
    std::uint64_t iteration = 0; ///< Iteration index (1-based).
    std::uint32_t rlp = 0;       ///< Live request-level parallelism.
    std::uint32_t tlp = 0;       ///< Speculation length.
    double estimatedAi = 0.0;    ///< Scheduler's RLP x TLP estimate.
    TargetId targetId = 0;       ///< Chosen FC registry target.
    FcTarget fcTarget = FcTarget::Gpu; ///< Two-way view of targetId.
    bool rescheduled = false;    ///< Target changed vs last iteration.
    std::uint32_t eosCount = 0;  ///< Requests that finished here.
    double iterationSeconds = 0.0; ///< Wall time of the iteration.
};

/** Outcome of a serving run. */
struct ServingResult
{
    double makespanSeconds = 0.0; ///< First arrival to last finish.
    double energyJoules = 0.0;    ///< Total device + fabric energy.
    std::uint64_t iterations = 0; ///< Decode iterations executed.
    std::uint64_t tokensGenerated = 0; ///< Output tokens produced.
    std::uint64_t admissions = 0; ///< Requests admitted (prefilled).
    std::uint64_t reschedules = 0; ///< FC target changes.
    std::uint64_t reschedulesToGpu = 0; ///< PIM -> GPU transitions.
    std::uint64_t fcOnGpuIterations = 0; ///< Iterations with FC on GPU.
    std::uint64_t fcOnPimIterations = 0; ///< Iterations with FC on PIM.

    double meanLatencySeconds = 0.0; ///< Arrival to completion.
    double p95LatencySeconds = 0.0;  ///< Tail of the same population.
    double meanRlp = 0.0; ///< Time-weighted mean live RLP.
    /** Peak fraction of the Attn-PIM KV pool in use. */
    double peakKvUtilization = 0.0;

    /** KV-pressure evictions performed (preemption mode only). */
    std::uint64_t preemptions = 0;
    /** Preempted requests re-admitted (each finishes eventually). */
    std::uint64_t resumes = 0;
    /** Context tokens re-prefilled by Recompute resumes. */
    std::uint64_t recomputedPrefillTokens = 0;
    /**
     * Direct eviction stall: seconds summed over every
     * preempt-to-re-admission gap (the stall a request suffers
     * while parked off-device).
     */
    double evictionStallSeconds = 0.0;
    /**
     * SwapRestore-induced stall: every lump-sum KV swap-out/in
     * advance delays the whole live batch, not just the swapped
     * request; this accumulates (lump seconds x delayed requests)
     * so preemption-stall percentiles stay conservative. The
     * accounting identity - the sum of RequestRecord::stallSeconds
     * over a run equals evictionStallSeconds +
     * swapInducedStallSeconds - is pinned by a test.
     */
    double swapInducedStallSeconds = 0.0;
    /**
     * Prefill-role replicas: requests whose prefill completed here
     * and were retired into the handoff queue for KV migration.
     */
    std::uint64_t handoffs = 0;
    /** Prompt tokens prefilled and handed off (Prefill role). */
    std::uint64_t prefillHandoffTokens = 0;
    /** Queued requests shed because their TTFT deadline passed
     *  before admission (ServingOptions::deadlineSeconds). */
    std::uint64_t shedRequests = 0;
    /** Prefix-cache probes at admission (keyed fresh requests;
     *  ServingOptions::prefixCacheEnabled). */
    std::uint64_t prefixLookups = 0;
    /** Probes that found a non-empty cached whole-block span. */
    std::uint64_t prefixHits = 0;
    /** Prompt tokens whose prefill cost was skipped by hits. The
     *  per-run ledger prefixHitTokens + prefixMissTokens == total
     *  admitted fresh prompt tokens is pinned by a test. */
    std::uint64_t prefixHitTokens = 0;
    /** Prompt tokens prefilled at full cost (the miss side). */
    std::uint64_t prefixMissTokens = 0;
    /** Bytes of cached prefix blocks reclaimed under KV pressure
     *  (llm::KvCacheManager::prefixEvictedBytes at finish). */
    std::uint64_t prefixEvictedBytes = 0;
    /**
     * Request ids in eviction order - the determinism witness for
     * KV-pressure runs (two fixed-seed runs must produce identical
     * sequences).
     */
    std::vector<std::uint64_t> evictionOrder;

    /** Simulated decode throughput over the run's makespan. */
    double
    throughputTokensPerSecond() const
    {
        return makespanSeconds > 0.0
                   ? static_cast<double>(tokensGenerated) /
                         makespanSeconds
                   : 0.0;
    }
};

/**
 * Per-iteration cost transform for a serving backend that is really a
 * tensor-parallel group of platforms rather than a single one.
 *
 * A trivial model (the default) leaves the single-platform arithmetic
 * untouched - ServingSim skips the transform entirely, keeping
 * single-platform runs bit-identical. A non-trivial model divides the
 * kernel-phase time by @ref computeScale (ideal intra-group scaling
 * of the FC and attention phases) and adds per-iteration communication
 * cost (the group's all-reduce; see cluster::TensorParallelModel).
 * Device energy is left unscaled - the same arithmetic work is done,
 * just spread over the group - and communication energy is added on
 * top.
 */
struct IterationCostModel
{
    /** Kernel-phase (FC + attention, and prefill) time divisor. */
    double computeScale = 1.0;
    /** Extra seconds per decode iteration of @p tokens tokens. */
    std::function<double(std::uint32_t tokens)> extraSeconds;
    /** Extra joules per decode iteration of @p tokens tokens. */
    std::function<double(std::uint32_t tokens)> extraJoules;

    /** True if the model changes nothing (single-platform backend). */
    bool
    trivial() const
    {
        // detlint: allow(float-eq): 1.0 is the configured identity
        // sentinel (the default member value), never a computed
        // scale, so exact comparison is the correct fast-path test.
        return computeScale == 1.0 && !extraSeconds && !extraJoules;
    }
};

/**
 * DecodeEngine-compat extensions: drive ServingSim as the paper's
 * static-batch decode loop. With @ref enabled the simulation admits
 * the whole t=0 batch once, pads the FC token count to the initial
 * RLP on platforms without runtime-RLP tracking (the paper's
 * Shortcoming 1), applies the platform's phase-overlap hiding and
 * the speculative draft charge, optionally skips the prefill charge,
 * bypasses the KV admission gate (DecodeEngine::run validates fit up
 * front instead), and can record a per-iteration trace. All of this
 * is off on the arrival-driven serving path, whose results remain
 * bit-identical to the pre-fold ServingEngine.
 */
struct StaticBatchMode
{
    bool enabled = false;      ///< Static-batch semantics on/off.
    bool includePrefill = true; ///< Charge the prefill phase.
    bool recordTrace = false;  ///< Record IterationTrace rows.
};

/**
 * Timeline of one served request, recorded by ServingSim for
 * latency-percentile aggregation (TTFT/TPOT/queueing delay at the
 * cluster level).
 */
struct RequestRecord
{
    std::uint64_t id = 0;        ///< The request's id.
    double arrivalSeconds = 0.0; ///< When it entered the system.
    /** Admission decision time (end of the pending-queue wait). */
    double admissionSeconds = 0.0;
    /**
     * End of the decode iteration that produced the request's first
     * output token (prefill itself generates no output tokens in
     * this simulator's accounting).
     */
    double firstTokenSeconds = 0.0;
    /** Final token (<eos>) produced; request retired. */
    double finishSeconds = 0.0;
    std::uint32_t outputTokens = 0; ///< Tokens generated in total.
    /** Times this request was evicted under KV pressure. */
    std::uint32_t preemptions = 0;
    /** Total seconds spent evicted (preempt to re-admission). */
    double stallSeconds = 0.0;
    /** Prompt tokens covered by a prefix-cache hit at admission
     *  (prefill cost skipped). */
    std::uint32_t prefixHitTokens = 0;
    /** Prompt tokens prefilled at full cost; hit + miss ==
     *  inputLen by construction (the ledger pin). */
    std::uint32_t prefixMissTokens = 0;

    /** Queueing delay: arrival to admission decision. */
    double
    queueingSeconds() const
    {
        return admissionSeconds - arrivalSeconds;
    }

    /**
     * Time to first token: arrival to first output token (end of
     * the first advancing decode iteration).
     */
    double
    ttftSeconds() const
    {
        return firstTokenSeconds - arrivalSeconds;
    }

    /** Time per output token over the decode phase. */
    double
    tpotSeconds() const
    {
        return outputTokens > 1
                   ? (finishSeconds - firstTokenSeconds) /
                         static_cast<double>(outputTokens - 1)
                   : 0.0;
    }
};

/**
 * A request retired from a Prefill-role replica with its prompt
 * fully processed, awaiting KV migration to a decode replica. The
 * prefill replica's KV blocks are released when the record is
 * created (the transfer fabric buffers the data); the recorded
 * block/byte footprint is what the migration is costed on.
 */
struct HandoffRecord
{
    /** The request, with its ORIGINAL arrival time preserved (the
     *  decode replica's RequestRecord must span the whole
     *  prefill -> transfer -> decode pipeline). */
    llm::TimedRequest request;
    /** When the prefill completed (transfer earliest-start time). */
    double readySeconds = 0.0;
    /** KV tokens materialized by the prefill (== the prompt). */
    std::uint64_t kvTokens = 0;
    /** KV blocks held at handoff (llm::KvCacheManager granularity). */
    std::uint64_t kvBlocks = 0;
    /** Bytes the migration moves: kvBlocks x blockBytes. */
    std::uint64_t kvBytes = 0;
};

/**
 * A request harvested from a crashed replica (ServingSim::crash):
 * everything the replica held - decoding, preempted, queued, handed
 * off, or migrated-in - with generation progress reset so a recovery
 * layer can resubmit it elsewhere (or count it failed). The
 * lost-work counters price what a retry must recompute.
 */
struct LostRequest
{
    /** The request, progress reset, original arrival and session
     *  preserved (honest TTFT spans crash and retry). */
    llm::TimedRequest request;
    /** The crashed replica had invested work in it (admitted or
     *  prefilled), as opposed to merely holding it queued. */
    bool admitted = false;
    /** Output tokens that had been generated and are now lost. */
    std::uint32_t generatedLost = 0;
    /** Prompt tokens that had been prefilled and are now lost. */
    std::uint32_t prefillLostTokens = 0;
};

/** Metric order of ServingStreamStats' per-metric arrays. */
enum StreamMetric : int
{
    kStreamTtft = 0,   ///< Arrival to first token.
    kStreamTpot,       ///< Per-token decode interval.
    kStreamLatency,    ///< Arrival to completion.
    kStreamQueueing,   ///< Arrival to admission.
    kStreamStall,      ///< Seconds spent evicted.
    kStreamMetricCount ///< Array length, not a metric.
};

/**
 * Exact counters/sums plus P-square percentile estimators folded at
 * every retirement when ServingOptions::recordCapacity is set - the
 * bounded-memory replacement for per-request RequestRecords on
 * million-request streams. Updated in retirement (simulation) order,
 * so the values are byte-identical for any cluster worker count.
 * While @ref overflowed is false the full records still exist and
 * aggregation uses them (bit-identical to the unbounded run); these
 * figures take over only past the cap.
 */
struct ServingStreamStats
{
    /** recordCapacity was exceeded: records() is truncated and
     *  aggregates must come from this struct. */
    bool overflowed = false;
    /** Requests retired (ALL of them, not just the recorded). */
    std::uint64_t count = 0;
    /** Output tokens of retired requests (goodput numerator). */
    std::uint64_t outputTokens = 0;
    /** Retired requests whose TTFT met the configured deadline
     *  (only meaningful when deadlineSeconds > 0). */
    std::uint64_t deadlineMet = 0;
    /** Exact per-metric sums, indexed by StreamMetric. */
    double sums[kStreamMetricCount] = {};
    /** P-square p50 estimators, indexed by StreamMetric. */
    P2Quantile p50[kStreamMetricCount] = {
        P2Quantile(0.50), P2Quantile(0.50), P2Quantile(0.50),
        P2Quantile(0.50), P2Quantile(0.50)};
    /** P-square p95 estimators, indexed by StreamMetric. */
    P2Quantile p95[kStreamMetricCount] = {
        P2Quantile(0.95), P2Quantile(0.95), P2Quantile(0.95),
        P2Quantile(0.95), P2Quantile(0.95)};
    /** P-square p99 estimators, indexed by StreamMetric. */
    P2Quantile p99[kStreamMetricCount] = {
        P2Quantile(0.99), P2Quantile(0.99), P2Quantile(0.99),
        P2Quantile(0.99), P2Quantile(0.99)};
};

/**
 * The stepwise serving-simulation core: one platform (or one
 * tensor-parallel group) serving a stream of timed requests.
 *
 * Requests are delivered into the pending queue (all up front for a
 * standalone run, incrementally by a cluster router) and the owner
 * advances the simulation step by step:
 *
 *  - stepIdle(): no live batch; fast-forward to the next pending
 *    arrival (honouring the admission policy's wait rules) and admit.
 *  - stepDecode(): run one decode iteration over the live batch and
 *    retire finished requests. Does NOT admit, so a cluster driver
 *    can deliver arrivals that landed inside the iteration before
 *    the boundary admission runs.
 *  - admit(): the iteration-boundary admission (prefill newcomers).
 *
 * step() composes these exactly as the original monolithic loop did,
 * which is what makes single-platform results bit-identical.
 */
class ServingSim
{
  public:
    /**
     * @param platform Timing/energy model of this backend.
     * @param spec Speculative-decoding configuration (validated).
     * @param model Model being served.
     * @param options Admission and scheduling options.
     * @param cost Per-iteration transform for tensor-parallel
     *        groups; the default leaves timing untouched. Must stay
     *        trivial when @p static_mode is enabled.
     * @param fc_estimator AI-estimate override for the FC threshold
     *        rule (MoE deployments); default is the paper's Eq. 2.
     * @param static_mode DecodeEngine-compat extensions; default off.
     */
    ServingSim(const Platform &platform,
               const llm::SpeculativeConfig &spec,
               const llm::ModelConfig &model,
               const ServingOptions &options,
               IterationCostModel cost = {},
               AiEstimateFn fc_estimator = {},
               StaticBatchMode static_mode = {});

    /** A copy would publish its load into the original's slot. */
    ServingSim(const ServingSim &) = delete;
    /** A copy would publish its load into the original's slot. */
    ServingSim &operator=(const ServingSim &) = delete;

    /**
     * Append @p request to the pending queue. Deliveries must be in
     * non-decreasing arrival order; the first delivery anchors the
     * makespan origin.
     */
    void deliver(const llm::TimedRequest &request);

    /**
     * Deliver a request whose prefill already ran on another
     * (Prefill-role) replica and whose KV arrived here at
     * @p ready_seconds (the migration-complete time), carrying
     * @p kv_tokens of materialized context (the HandoffRecord's
     * figure - the single source of truth admission reserves for).
     * The request's own arrivalSeconds keeps its original value so
     * latency records span the whole disaggregated pipeline;
     * admission eligibility and delivery ordering use
     * @p ready_seconds. Fatal on Prefill-role replicas.
     */
    void deliverPrefilled(const llm::TimedRequest &request,
                          double ready_seconds,
                          std::uint64_t kv_tokens);

    /**
     * Deliver a retried request: eligible for admission from
     * @p ready_seconds (the retry time) while keeping the request's
     * original arrivalSeconds for honest TTFT/latency accounting.
     * Prefill (and any lost generation) is recomputed here at full
     * charge. Token-level admission only; fatal elsewhere.
     */
    void redeliver(const llm::TimedRequest &request,
                   double ready_seconds);

    /**
     * Fail-stop this replica at @p when: every request it holds -
     * active, handed off, preempted, migrated-in, or queued - is
     * harvested into LostRequests (KV footprints released,
     * generation progress reset) for a recovery layer to retry
     * elsewhere or count failed. Time/energy already charged stays
     * charged: a crash wastes real work. Serving path only.
     */
    std::vector<LostRequest> crash(double when);

    /** Bring a crashed replica back at @p when (cold start done);
     *  it accepts deliveries and admissions again. */
    void restartAt(double when);

    /** This replica's disaggregated-serving role. */
    ServingRole role() const { return _role; }

    /** True if handed-off prefills await collection by the driver. */
    bool hasHandoffs() const { return !_handoffs.empty(); }

    /** Drain the handoff queue (Prefill role; driver-facing). */
    std::vector<HandoffRecord> takeHandoffs();

    /** Current simulated time, seconds. */
    double now() const { return _now; }

    /** True if requests are decoding. */
    bool hasActive() const { return !_batch.empty(); }

    /** True if delivered requests await admission. */
    bool
    hasPending() const
    {
        return !_pending.empty() || !_pendingPrefilled.empty();
    }

    /** True if any delivered work remains (pending or active). */
    bool canStep() const { return hasActive() || hasPending(); }

    /** Live plus queued requests (the router's load signal). */
    std::uint32_t outstanding() const { return *_loadSlot; }

    /**
     * Keep outstanding() in @p slot from now on (written at once and
     * after every call that changes it): a cluster driver points each
     * replica at its own slot of one flat array, so a routing scan
     * reads that array instead of every replica. nullptr returns to
     * the sim's own slot. @p slot must outlive its use here.
     */
    void
    publishLoadTo(std::uint32_t *slot)
    {
        _loadSlot = slot ? slot : &_ownLoad;
        publishLoad();
    }

    /** The admission/scheduling options this sim runs under. */
    const ServingOptions &servingOptions() const { return _options; }

    /** Delivered requests awaiting admission (incl. migrated-in). */
    std::size_t
    pendingCount() const
    {
        return _pending.size() + _pendingPrefilled.size();
    }

    /** Requests evicted under KV pressure, awaiting re-admission. */
    std::size_t preemptedCount() const { return _preempted.size(); }

    /**
     * Arrival time of the oldest pending request (requires
     * hasPending()) - the anchor of a batch-level fill timeout.
     */
    double
    firstPendingArrivalSeconds() const
    {
        return _pending.front().request.arrivalSeconds;
    }

    /**
     * Duration of the next decode iteration, computed without
     * advancing state (requires hasActive()). Deterministically
     * equal to the time stepDecode() will charge, so a cluster
     * driver can order platform steps against arrival times.
     */
    double peekIterationSeconds() const;

    /**
     * One step of the original serving loop: idle fast-forward +
     * admission when the batch is empty, otherwise one decode
     * iteration, retirement, and boundary admission.
     */
    void step();

    /** Idle branch: fast-forward to pending work and admit. */
    void stepIdle();

    /** One decode iteration + retirement (no admission). */
    void stepDecode();

    /**
     * Iteration-boundary admission: prefill eligible newcomers.
     * @return Number of requests admitted.
     */
    std::uint32_t admit();

    /** Finalize and return the aggregate result. */
    ServingResult finish();

    /** Timelines of retired requests, in completion order. With
     *  ServingOptions::recordCapacity set this is truncated to the
     *  first capacity retirements once the cap is exceeded (see
     *  streamStats().overflowed). */
    const std::vector<RequestRecord> &records() const
    {
        return _records;
    }

    /** Requests retired in total, counted even past the record cap
     *  (== records().size() when nothing was truncated). */
    std::uint64_t
    servedCount() const
    {
        return _bounded ? _stream.count : _records.size();
    }

    /** Bounded-memory aggregates (recordCapacity mode; zeroed and
     *  never overflowed when the cap is unset). */
    const ServingStreamStats &streamStats() const { return _stream; }

    /**
     * Whole-block prompt tokens @p request would hit in this
     * replica's prefix cache right now - a pure probe (no LRU
     * touch, no state change) for cache-hit-aware routing. 0 when
     * prefix caching is off or the request carries no prefixKey.
     */
    std::uint32_t
    probePrefixHitTokens(const llm::TimedRequest &request) const;

    /** Seconds spent computing (prefill + decode), for utilization. */
    double busySeconds() const { return _busySeconds; }

    /** Per-component time split accumulated so far. */
    const RunBreakdown &breakdown() const { return _breakdown; }

    /** Iteration trace (StaticBatchMode::recordTrace only). */
    const std::vector<IterationTrace> &trace() const { return _trace; }

    /**
     * Decode iterations per registry target id (indexed by
     * TargetId; same length as the platform's registry).
     */
    const std::vector<std::uint64_t> &perTargetIterations() const
    {
        return _targetIters;
    }

  private:
    /** A request evicted under KV pressure, awaiting re-admission. */
    struct PreemptedRequest
    {
        ActiveSnapshot state;        ///< Progress at eviction.
        double preemptSeconds = 0.0; ///< When it was evicted.
        /** KV tokens held at eviction (SwapRestore restores these;
         *  Recompute re-prefills the whole context). */
        std::uint32_t kvTokens = 0;
        /** Monotonic eviction stamp; pairs with _preemptOrder so a
         *  crash can harvest survivors in eviction order. */
        std::uint64_t evictSeq = 0;
    };

    /**
     * Resume priority of a preempted request: oldest arrival first,
     * lowest id on ties. Keeping _preempted ordered by this key
     * makes each resume selection O(log n) - begin() IS the request
     * the old per-resume linear scan picked (ids are unique, so the
     * total order is identical).
     */
    using PreemptKey = std::pair<double, std::uint64_t>;

    /**
     * FC tokens of the next iteration: live RLP x TLP, padded to the
     * static batch's initial RLP on non-tracking platforms.
     */
    std::uint32_t fcTokens(std::uint32_t rlp,
                           std::uint32_t tlp) const;

    /** Apply the TP cost model to a kernel-phase duration. */
    double scaledSeconds(double kernel_seconds, double other_seconds,
                         std::uint32_t tokens) const;

    /** Charge an admission wave's prefill @p pre, whose prompt
     *  tokens are @p lens, to the clock, breakdown and energy. */
    void chargePrefill(const KernelExec &pre,
                       const std::vector<std::uint32_t> &lens);

    /** One decode iteration's kernel-phase costs. */
    struct IterationTiming
    {
        KernelExec fc;        ///< FC phase on the chosen target.
        KernelExec at;        ///< Attention phase.
        double other = 0.0;   ///< Non-GEMV overhead (+ draft charge).
        double hidden = 0.0;  ///< Overlap-hidden seconds (static mode).
    };

    /**
     * The full plan of the next iteration: which requests decode,
     * which prompt chunks are processed (chunked prefill only), the
     * dispatch decision over the decode tokens, and the total
     * charged duration. Pure with respect to sim state (scratch
     * vectors aside) so peeks and steps agree exactly - the cluster
     * event loop's ordering depends on peeked and charged durations
     * being equal.
     */
    struct IterationPlan
    {
        std::uint32_t decodeRlp = 0; ///< Requests decoding.
        std::uint32_t tokens = 0;    ///< FC tokens (decodeRlp x TLP).
        /** Prompt tokens prefilled this iteration (chunk total). */
        std::uint32_t chunkTokens = 0;
        bool dispatched = false;     ///< decision/timing valid.
        DispatchDecision decision;   ///< FC dispatch (decoders > 0).
        IterationTiming timing;      ///< Decode-phase costs.
        KernelExec chunk;            ///< Prefill-chunk costs.
        double seconds = 0.0;        ///< Total charged duration.
    };

    /** Build the next iteration's plan (requires hasActive()). */
    IterationPlan planIteration() const;

    /**
     * Ensure _plan describes the next iteration. The plan computed
     * by a peek is cached and
     * consumed by the following stepDecode(), so the cost model
     * runs once per iteration even when a driver peeks to schedule
     * the boundary; state mutations (admission, decode, idle
     * fast-forward) invalidate it. Deliveries do not - the plan
     * depends only on the live batch.
     */
    void refreshPlan() const;

    /**
     * Dynamic-dispatch reschedule accounting.
     * @return true if the target changed vs last iteration.
     */
    bool noteDispatch(TargetId target);

    /** Push batch element @p i's record/latency (caller releases
     *  KV and compacts). */
    void recordRetirementAt(std::size_t i);

    /** Publish batch element @p i's reusable span into the prefix
     *  cache at retirement/handoff (no-op when the cache is off,
     *  the request carries no insertKey, or this is a decode-pool
     *  replica - nothing ever probes a decode-side insert). */
    void publishPrefix(std::size_t i);

    /**
     * Advance every batch member by @p accepted tokens and retire
     * the finished ones (record, optional KV release, in-place
     * ordered compaction). The advance itself is one branch-light
     * pass over the generated/outputLen columns; the compaction
     * pass runs only when the advance saw a finish. stepDecode()'s
     * all-decoding fast path.
     * @return Requests that finished (<eos> count).
     */
    std::uint32_t advanceAndRetire(std::uint32_t accepted,
                                   bool release_kv);

    /**
     * stepDecode()'s mixed path (chunked prefill): apply @p plan's
     * prompt chunks, advance the requests that were already
     * decoding, and retire the finished ones - growing KV per
     * request under preemption.
     */
    void advanceMixed(const IterationPlan &plan);

    /**
     * Preemption-mode helpers: blocks the next iteration could need
     * beyond current holdings, and the evict-youngest loop that
     * restores headroom (records eviction order and stats).
     */
    std::uint64_t worstGrowthBlocks() const;
    void ensureKvHeadroom();
    /** Evict the youngest-admitted active request. */
    void preemptYoungest();

    /** Per-request next-iteration chunk budget, admission order
     *  (chunked mode; fills @p chunks aligned with _active). */
    void planChunks(std::vector<std::uint32_t> &chunks) const;

    /** A migrated-in request awaiting admission (Decode role). */
    struct PrefilledPending
    {
        llm::TimedRequest request;  ///< Original arrival preserved.
        double readySeconds = 0.0;  ///< KV landed here (transfer end).
        std::uint64_t kvTokens = 0; ///< Migrated context tokens.
    };

    /** Retire batch element @p i into the handoff queue (Prefill
     *  role): snapshot and release its KV blocks, record the
     *  migration footprint. */
    void handoffPrefilled(std::size_t i);

    /** Prefill-role sweep: hand off every active request whose
     *  prefill has completed. */
    void handoffCompletedPrefills();

    const Platform &_platform;
    llm::SpeculativeConfig _spec; ///< Copied: callers may pass temporaries.
    llm::ModelConfig _model;      ///< Copied: callers may pass temporaries.
    ServingOptions _options;
    IterationCostModel _cost;
    StaticBatchMode _static;

    llm::KvCacheManager _kv;
    sim::Rng _rng;
    PhaseDispatcher _fcDispatch; ///< The platform's FC policy, bound.
    bool _dynamic;               ///< FC rule is Threshold.
    bool _schedStarted = false;
    TargetId _prevTarget = kInvalidTargetId;

    /** A queued request: delivered, awaiting admission. */
    struct PendingRequest
    {
        llm::TimedRequest request; ///< Original arrival preserved.
        /** Admission eligibility time: the arrival for a first
         *  delivery, the retry time for a redelivery. */
        double readySeconds = 0.0;
    };

    std::deque<PendingRequest> _pending;
    /** Migrated-in prefilled requests awaiting admission. */
    std::deque<PrefilledPending> _pendingPrefilled;
    /** Completed prefills awaiting driver collection (Prefill). */
    std::vector<HandoffRecord> _handoffs;
    ServingRole _role = ServingRole::Colocated;
    /** The live batch, structure-of-arrays, admission order.
     *  Mutable: const planning paths may fold the pending uniform
     *  advance (_genShift) into the generated column - a pure
     *  representation change (see syncGen). */
    mutable BatchState _batch;
    /** Evicted requests awaiting re-admission (preemption mode),
     *  keyed by resume priority (see PreemptKey). */
    std::map<PreemptKey, PreemptedRequest> _preempted;
    /** Eviction log: (key, evictSeq) in eviction order. An entry is
     *  live iff the map still holds that key with the same stamp
     *  (resumes leave stale entries behind); a crash harvests
     *  survivors by filtering this log, reproducing the old deque's
     *  insertion order exactly. */
    std::vector<std::pair<PreemptKey, std::uint64_t>> _preemptOrder;
    std::uint64_t _evictSeqNext = 0;
    std::vector<double> _latencies;
    std::vector<RequestRecord> _records;

    bool _chunked = false;  ///< prefillChunkTokens > 0.
    bool _preempt = false;  ///< preemptOnKvPressure.
    bool _prefixOn = false; ///< prefixCacheEnabled.
    bool _bounded = false;  ///< recordCapacity > 0.
    /** Bounded-memory aggregates (updated iff _bounded). */
    ServingStreamStats _stream;
    std::uint64_t _admitSeqNext = 0; ///< Admission sequence counter.

    double _now = 0.0;
    bool _anchored = false;   ///< First delivery seen.
    double _firstArrival = 0.0;
    /** Latest delivered arrival time (delivery-order guard). */
    double _lastDelivered = -1.0;
    double _rlpTimeIntegral = 0.0;
    double _busySeconds = 0.0;
    /** Static mode: batch size at the t=0 admission (FC padding). */
    std::uint32_t _staticInitialRlp = 0;

    RunBreakdown _breakdown;
    std::vector<IterationTrace> _trace;
    std::vector<std::uint64_t> _targetIters;
    /** kind == Gpu per target id, cached at construction so the
     *  per-iteration counter split skips the registry's bounds-
     *  checked lookup. */
    std::vector<std::uint8_t> _targetIsGpu;

    // Reused across iterations; refilled in place.
    mutable std::vector<std::uint32_t> _prefillLens;
    /** Prefix-hit admissions' incremental-prefill inputs (prior =
     *  cached hit span, now = uncached suffix), charged via
     *  prefillChunkExec next to the zero-hit wave's prefillExec. */
    std::vector<std::uint32_t> _hitPrior;
    std::vector<std::uint32_t> _hitNow;
    mutable std::vector<std::uint32_t> _ctx;
    mutable std::vector<std::uint32_t> _chunkPlan;
    mutable std::vector<std::uint32_t> _chunkPrior;
    mutable std::vector<std::uint32_t> _chunkNow;
    /** Decode-set snapshot of the running iteration (see
     *  advanceMixed). */
    std::vector<std::uint8_t> _decoding;
    // Gather/scatter scratch for bulk KV growth (growMany).
    std::vector<std::size_t> _growIdx;
    std::vector<std::uint64_t> _growIds;
    std::vector<std::uint64_t> _growTok;
    std::vector<std::uint64_t> _growBlocks;
    /** _kv.blockTokens(), cached so the headroom gate's
     *  blocks-for-tokens arithmetic inlines into its array pass. */
    std::uint64_t _kvBlockTokens = 16;

    /** Cached next-iteration plan (see refreshPlan). */
    mutable IterationPlan _plan;
    mutable bool _planValid = false;

    /**
     * True once every batched request has produced its first token
     * - cleared on every admission so advanceAndRetire only runs
     * its first-token bookkeeping pass near admission waves and
     * steady-state decode stays a pure elementwise sweep.
     */
    bool _allSeen = true;

    /**
     * Steady-state decode advances every live request by the same
     * accepted-token count, so the advance/retire sweep reduces to
     * algebra: _genShift is a uniform advance not yet folded into
     * _batch.generated (true generated[i] = stored + _genShift),
     * and _minRem is the smallest true remaining output. While
     * _allSeen holds and accepted < _minRem, one advance is
     * _genShift += accepted (nobody retires) - O(1) instead of
     * O(n). Any path that reads or mutates the generated column
     * calls syncGen() first to fold the shift in; any batch
     * mutation clears _steadyValid so _minRem is rebuilt on the
     * next advance (refreshSteady).
     */
    mutable std::uint32_t _genShift = 0;
    /** Smallest true outputLen - generated over the batch (valid
     *  iff _steadyValid). */
    std::uint32_t _minRem = 0;
    bool _steadyValid = false;

    /** Fold _genShift into _batch.generated (no observable-state
     *  change: every true value is preserved). */
    void syncGen() const;
    /** Rebuild _minRem from the (synced) columns. */
    void refreshSteady();

    /** Write the live plus queued count to the load slot; every
     *  public call that can change it ends here. */
    void
    publishLoad()
    {
        *_loadSlot = static_cast<std::uint32_t>(
            _batch.size() + _pending.size() +
            _pendingPrefilled.size() + _preempted.size());
    }

    ServingResult _out;
    std::uint32_t _ownLoad = 0;           ///< The default load slot.
    std::uint32_t *_loadSlot = &_ownLoad; ///< See publishLoadTo.
};

/** Arrival-driven serving simulator over one platform. */
class ServingEngine
{
  public:
    /** @param platform Timing/energy model runs execute against. */
    explicit ServingEngine(const Platform &platform)
        : _platform(platform)
    {}

    /**
     * Serve @p stream to completion.
     *
     * Admission policy: a pending request joins when (a) live RLP <
     * maxRlp and (b) its worst-case KV footprint fits the remaining
     * Attn-PIM capacity. Joining requests are prefilled (charged on
     * the platform's prefill path) before decoding continues.
     */
    ServingResult run(const std::vector<llm::TimedRequest> &stream,
                      const llm::SpeculativeConfig &spec,
                      const llm::ModelConfig &model,
                      const ServingOptions &options = {});

  private:
    const Platform &_platform;
};

} // namespace papi::core

#endif // PAPI_CORE_SERVING_ENGINE_HH
