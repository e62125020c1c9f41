/**
 * @file
 * Frozen pre-SoA reference copy of the serving-simulation core.
 *
 * This is a verbatim snapshot of ServingSim as it stood BEFORE the
 * structure-of-arrays refactor, kept compilable as a reference for
 * tests only: tests/serving_soa_diff_test.cc drives the scalar
 * array-of-structures plan loop in lockstep against the SoA core and
 * asserts bit-identical iteration plans and results (the technique
 * sim::LegacyEventQueue serves for the event queue), and one timed
 * case there requires the SoA core to outrun this loop.
 *
 * DO NOT "improve" this file: its value is that it does not change.
 * It shares the public option/result/record structs with
 * core/serving_engine.hh, so both implementations are driven and
 * compared through identical types. The ServingEngine wrapper is not
 * reproduced; reference runs are driven by the manual
 * while (canStep()) step() loop, the same loop ServingEngine::run
 * runs.
 */

#ifndef PAPI_CORE_SERVING_REFERENCE_HH
#define PAPI_CORE_SERVING_REFERENCE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/dispatch_policy.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"
#include "llm/speculative.hh"
#include "sim/rng.hh"

namespace papi::core::refimpl {

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
class ReferenceServingSim
{
  public:
    /**
     * @param platform Timing/energy model of this backend.
     * @param spec Speculative-decoding configuration (validated).
     * @param model Model being served.
     * @param options Admission and scheduling options.
     * @param cost Per-iteration transform for tensor-parallel
     *        groups; the default leaves timing untouched.
     * @param fc_estimator AI-estimate override for the FC threshold
     *        rule (MoE deployments); default is the paper's Eq. 2.
     * @param static_mode DecodeEngine-compat extensions; default off.
     */
    ReferenceServingSim(const Platform &platform,
               const llm::SpeculativeConfig &spec,
               const llm::ModelConfig &model,
               const ServingOptions &options,
               IterationCostModel cost = {},
               AiEstimateFn fc_estimator = {},
               StaticBatchMode static_mode = {});

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
    bool hasActive() const { return !_active.empty(); }

    /** True if delivered requests await admission. */
    bool
    hasPending() const
    {
        return !_pending.empty() || !_pendingPrefilled.empty();
    }

    /** True if any delivered work remains (pending or active). */
    bool canStep() const { return hasActive() || hasPending(); }

    /** Live plus queued requests (the router's load signal). */
    std::uint32_t
    outstanding() const
    {
        return static_cast<std::uint32_t>(
            _active.size() + _pending.size() +
            _pendingPrefilled.size() + _preempted.size());
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

    /** Timelines of all retired requests, in completion order. */
    const std::vector<RequestRecord> &records() const
    {
        return _records;
    }

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
    /** A request being decoded, with serving-side bookkeeping. */
    struct ActiveRequest
    {
        llm::Request request;        ///< Generation progress.
        double arrivalSeconds = 0.0; ///< From the TimedRequest.
        double admissionSeconds = 0.0;  ///< Admission decision time.
        double firstTokenSeconds = 0.0; ///< First advancing iteration.
        bool firstTokenSeen = false;    ///< firstTokenSeconds valid.
        /** Chunked mode: prefill tokens still to process before this
         *  request can decode (0 = decoding). */
        std::uint32_t prefillRemaining = 0;
        /** KV tokens materialized (preemption mode accounting). */
        std::uint32_t kvTokens = 0;
        /** Global admission sequence; the preemption victim order
         *  (youngest admitted evicts first). */
        std::uint64_t admitSeq = 0;
        std::uint32_t preemptions = 0; ///< Evictions suffered so far.
        double stallSeconds = 0.0;     ///< Total time spent evicted.
        /** Session identity from the TimedRequest, preserved so a
         *  crash harvest can re-route with affinity intact. */
        std::uint64_t sessionId = 0;
    };

    /** A request evicted under KV pressure, awaiting re-admission. */
    struct PreemptedRequest
    {
        ActiveRequest state;         ///< Progress at eviction.
        double preemptSeconds = 0.0; ///< When it was evicted.
        /** KV tokens held at eviction (SwapRestore restores these;
         *  Recompute re-prefills the whole context). */
        std::uint32_t kvTokens = 0;
    };

    /**
     * FC tokens of the next iteration: live RLP x TLP, padded to the
     * static batch's initial RLP on non-tracking platforms.
     */
    std::uint32_t fcTokens(std::uint32_t rlp,
                           std::uint32_t tlp) const;

    /** Apply the TP cost model to a kernel-phase duration. */
    double scaledSeconds(double kernel_seconds, double other_seconds,
                         std::uint32_t tokens) const;

    /** One decode iteration's kernel-phase costs. */
    struct IterationTiming
    {
        KernelExec fc;        ///< FC phase on the chosen target.
        KernelExec at;        ///< Attention phase.
        double other = 0.0;   ///< Non-GEMV overhead (+ draft charge).
        double hidden = 0.0;  ///< Overlap-hidden seconds (static mode).
        double seconds = 0.0; ///< Total charged duration.
    };

    /**
     * Compute the next iteration's timing for @p target without
     * advancing state (refills _ctx). The single source of truth
     * shared by peekIterationSeconds() and stepDecode() - the
     * cluster event loop's ordering depends on peeked and charged
     * durations being exactly equal.
     */
    IterationTiming iterationTiming(TargetId target,
                                    std::uint32_t tokens,
                                    std::uint32_t tlp) const;

    /**
     * The full plan of the next iteration under continuous batching
     * (chunked prefill): which requests decode, which prompt chunks
     * are processed, the dispatch decision over the decode tokens,
     * and the total charged duration. Pure with respect to sim state
     * (scratch vectors aside) so peeks and steps agree exactly.
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

    /** Build the chunked-mode plan (requires hasActive()). */
    IterationPlan planIteration() const;

    /**
     * Ensure _plan describes the next iteration (computing it once
     * for both paths). The plan computed by a peek is cached and
     * consumed by the following stepDecode(), so the cost model
     * runs once per iteration even when a driver peeks to schedule
     * the boundary; state mutations (admission, decode, idle
     * fast-forward) invalidate it. Deliveries do not - the plan
     * depends only on the live batch.
     */
    void refreshPlan() const;

    /**
     * Dynamic-dispatch reschedule accounting (shared by both decode
     * paths). @return true if the target changed vs last iteration.
     */
    bool noteDispatch(TargetId target);

    /** Push the finished request's record/latency (shared by both
     *  decode paths; caller releases KV and erases). */
    void recordRetirement(const ActiveRequest &a);

    /** Legacy (non-chunked) decode iteration; the pre-refactor body
     *  of stepDecode(), bit-identical. */
    void stepDecodeLegacy();

    /** Chunked-mode decode/prefill iteration. */
    void stepDecodeChunked();

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

    /** Retire @p a into the handoff queue (Prefill role): snapshot
     *  and release its KV blocks, record the migration footprint. */
    void handoffPrefilled(const ActiveRequest &a);

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
    std::vector<ActiveRequest> _active;
    /** Evicted requests awaiting re-admission (preemption mode). */
    std::deque<PreemptedRequest> _preempted;
    std::vector<double> _latencies;
    std::vector<RequestRecord> _records;

    bool _chunked = false;  ///< prefillChunkTokens > 0.
    bool _preempt = false;  ///< preemptOnKvPressure.
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

    // Reused across iterations; refilled in place.
    mutable std::vector<std::uint32_t> _prefillLens;
    mutable std::vector<std::uint32_t> _ctx;
    mutable std::vector<std::uint32_t> _chunkPlan;
    mutable std::vector<std::uint32_t> _chunkPrior;
    mutable std::vector<std::uint32_t> _chunkNow;
    /** Decode-set snapshot of the running iteration (see
     *  stepDecodeChunked). */
    std::vector<std::uint8_t> _decoding;

    /** Cached next-iteration plan (see refreshPlan). */
    mutable IterationPlan _plan;
    mutable bool _planValid = false;

    ServingResult _out;
};

} // namespace papi::core::refimpl

#endif // PAPI_CORE_SERVING_REFERENCE_HH
