#include "core/serving_engine.hh"

#include <algorithm>

#include "core/metrics.hh"
#include "sim/logging.hh"

namespace papi::core {

namespace {

/** Host power charged against non-GEMV iteration time, watts. */
constexpr double kHostWatts = 50.0;

} // namespace

// --------------------------------------------------------------- ServingSim

ServingSim::ServingSim(const Platform &platform,
                       const llm::SpeculativeConfig &spec,
                       const llm::ModelConfig &model,
                       const ServingOptions &options,
                       IterationCostModel cost,
                       AiEstimateFn fc_estimator,
                       StaticBatchMode static_mode)
    : _platform(platform), _spec(spec), _model(model),
      _options(options), _cost(std::move(cost)), _static(static_mode),
      _kv(model, platform.config().numAttnDevices,
          options.kvCapacityOverrideBytes
              ? options.kvCapacityOverrideBytes
              : platform.config().attnDeviceConfig.capacityBytes()),
      _rng(options.seed),
      _fcDispatch(platform.dispatcher(Phase::Fc, options.alpha,
                                      std::move(fc_estimator))),
      _dynamic(_fcDispatch.rule() == DispatchRule::Threshold),
      _targetIters(platform.targets().size(), 0)
{
    _targetIsGpu.reserve(platform.targets().size());
    for (const ExecTarget &t : platform.targets().all())
        _targetIsGpu.push_back(t.kind == TargetKind::Gpu ? 1 : 0);
    spec.validate();
    if (options.maxRlp == 0)
        sim::fatal("ServingSim: maxRlp must be >= 1");
    if (options.alpha <= 0.0)
        sim::fatal("ServingSim: alpha must be positive");
    if (_cost.computeScale <= 0.0)
        sim::fatal("ServingSim: computeScale must be positive");
    _chunked = options.prefillChunkTokens > 0;
    _preempt = options.preemptOnKvPressure;
    _prefixOn = options.prefixCacheEnabled;
    _bounded = options.recordCapacity > 0;
    _role = options.role;
    if (_static.enabled && _prefixOn)
        sim::fatal("ServingSim: prefix caching is a serving-path "
                   "feature; static-batch (decode) runs bypass the "
                   "KV admission gate");
    _kv.setPrefixCacheEnabled(_prefixOn);
    if (_static.enabled && (_chunked || _preempt))
        sim::fatal("ServingSim: chunked prefill / KV preemption are "
                   "serving-path features; static-batch (decode) "
                   "runs use the monolithic prefill");
    if (_role != ServingRole::Colocated) {
        if (_static.enabled)
            sim::fatal("ServingSim: static-batch (decode) runs are "
                       "colocated; disaggregated roles are a "
                       "serving-path feature");
        if (options.admission != AdmissionPolicy::TokenLevel)
            sim::fatal("ServingSim: disaggregated roles require "
                       "token-level admission (batch-level fill "
                       "rules have no meaning on a phase pool)");
    }
    if (_role == ServingRole::Prefill && _preempt)
        sim::fatal("ServingSim: KV preemption is a decode-side "
                   "feature; a prefill replica frees its KV at "
                   "handoff, so pressure never builds");
    if (_preempt && _options.kvSwapGBps <= 0.0)
        sim::fatal("ServingSim: kvSwapGBps must be positive");
    if (_options.deadlineSeconds < 0.0)
        sim::fatal("ServingSim: deadlineSeconds cannot be negative");
    if (_static.enabled && _options.deadlineSeconds > 0.0)
        sim::fatal("ServingSim: deadlines/load shedding are "
                   "serving-path features; static-batch (decode) "
                   "runs admit the whole batch once");
    if (_static.enabled && !_cost.trivial())
        sim::fatal("ServingSim: tensor-parallel cost models are a "
                   "serving-path feature; static-batch (decode) "
                   "runs hide phase overlap on a single platform");
    _kvBlockTokens = _kv.blockTokens();
    _prefillLens.reserve(options.maxRlp);
    _hitPrior.reserve(options.maxRlp);
    _hitNow.reserve(options.maxRlp);
    _ctx.reserve(options.maxRlp);
    _chunkPlan.reserve(options.maxRlp);
    _chunkPrior.reserve(options.maxRlp);
    _chunkNow.reserve(options.maxRlp);
    _decoding.reserve(options.maxRlp);
    _growIdx.reserve(options.maxRlp);
    _growIds.reserve(options.maxRlp);
    _growTok.reserve(options.maxRlp);
    _growBlocks.reserve(options.maxRlp);
    _batch.reserve(options.maxRlp);
}

void
ServingSim::deliver(const llm::TimedRequest &request)
{
    if (_anchored && request.arrivalSeconds < _lastDelivered)
        sim::fatal("ServingSim: deliveries must be time-ordered");
    if (!_anchored) {
        _firstArrival = request.arrivalSeconds;
        _now = request.arrivalSeconds;
        _anchored = true;
    }
    _lastDelivered = request.arrivalSeconds;
    _pending.push_back({request, request.arrivalSeconds});
    publishLoad();
}

void
ServingSim::redeliver(const llm::TimedRequest &request,
                      double ready_seconds)
{
    if (_static.enabled ||
        _options.admission != AdmissionPolicy::TokenLevel)
        sim::fatal("ServingSim: retry redelivery requires the "
                   "token-level serving path");
    if (ready_seconds < request.arrivalSeconds)
        sim::fatal("ServingSim: retry of request ",
                   request.request.id,
                   " cannot precede its original arrival");
    if (_anchored && ready_seconds < _lastDelivered)
        sim::fatal("ServingSim: deliveries must be time-ordered");
    if (!_anchored) {
        _firstArrival = ready_seconds;
        _now = ready_seconds;
        _anchored = true;
    }
    _lastDelivered = ready_seconds;
    _pending.push_back({request, ready_seconds});
    publishLoad();
}

void
ServingSim::deliverPrefilled(const llm::TimedRequest &request,
                             double ready_seconds,
                             std::uint64_t kv_tokens)
{
    if (_role == ServingRole::Prefill)
        sim::fatal("ServingSim: a prefill-pool replica cannot "
                   "accept migrated KV (request ",
                   request.request.id, ")");
    if (_anchored && ready_seconds < _lastDelivered)
        sim::fatal("ServingSim: deliveries must be time-ordered");
    if (!_anchored) {
        _firstArrival = ready_seconds;
        _now = ready_seconds;
        _anchored = true;
    }
    _lastDelivered = ready_seconds;
    _pendingPrefilled.push_back({request, ready_seconds, kv_tokens});
    publishLoad();
}

std::vector<HandoffRecord>
ServingSim::takeHandoffs()
{
    std::vector<HandoffRecord> out;
    out.swap(_handoffs);
    return out;
}

std::vector<LostRequest>
ServingSim::crash(double when)
{
    if (_static.enabled)
        sim::fatal("ServingSim: static-batch (decode) runs have no "
                   "fault model");
    syncGen(); // harvest reads true generation progress
    std::vector<LostRequest> lost;
    lost.reserve(_batch.size() + _handoffs.size() +
                 _preempted.size() + _pendingPrefilled.size() +
                 _pending.size());
    // Harvest in a fixed order (active, handed off, preempted,
    // migrated-in, queued) so retry schedules are deterministic.
    for (std::size_t i = 0; i < _batch.size(); ++i) {
        LostRequest l;
        l.request.request.id = _batch.id[i];
        l.request.request.inputLen = _batch.inputLen[i];
        l.request.request.outputLen = _batch.outputLen[i];
        l.request.request.generated = 0;
        l.request.request.prefixKey = _batch.prefixKey[i];
        l.request.request.prefixTokens = _batch.prefixTokens[i];
        l.request.request.insertKey = _batch.insertKey[i];
        l.request.request.insertTokens = _batch.insertTokens[i];
        l.request.arrivalSeconds = _batch.arrivalSeconds[i];
        l.request.sessionId = _batch.sessionId[i];
        l.admitted = true;
        l.generatedLost = _batch.generated[i];
        l.prefillLostTokens =
            _batch.inputLen[i] - _batch.prefillRemaining[i];
        _kv.release(_batch.id[i]);
        lost.push_back(l);
    }
    _batch.clear();
    _steadyValid = false;
    // Handed-off prefills not yet collected by the driver die with
    // the replica (their KV was released at handoff; the buffered
    // transfer payload is lost).
    for (const HandoffRecord &h : _handoffs) {
        LostRequest l;
        l.request = h.request;
        l.request.request.generated = 0;
        l.admitted = true;
        l.prefillLostTokens = h.request.request.inputLen;
        lost.push_back(l);
    }
    _handoffs.clear();
    // Preempted requests released their device KV at eviction; any
    // swapped-out copy lived on this replica's host and is gone too.
    // The eviction log replays them in eviction order (entries whose
    // stamp no longer matches were resumed since - skip them).
    for (const auto &[key, stamp] : _preemptOrder) {
        const auto it = _preempted.find(key);
        if (it == _preempted.end() || it->second.evictSeq != stamp)
            continue;
        const PreemptedRequest &p = it->second;
        LostRequest l;
        l.request.request = p.state.request;
        l.request.request.generated = 0;
        l.request.arrivalSeconds = p.state.arrivalSeconds;
        l.request.sessionId = p.state.sessionId;
        l.admitted = true;
        l.generatedLost = p.state.request.generated;
        l.prefillLostTokens =
            p.state.request.inputLen - p.state.prefillRemaining;
        lost.push_back(l);
    }
    _preempted.clear();
    _preemptOrder.clear();
    // Migrated-in prefills awaiting admission: the prompt phase ran
    // on the prefill pool and its product died here unadmitted.
    for (const PrefilledPending &pp : _pendingPrefilled) {
        LostRequest l;
        l.request = pp.request;
        l.request.request.generated = 0;
        l.admitted = false;
        l.prefillLostTokens =
            static_cast<std::uint32_t>(pp.kvTokens);
        lost.push_back(l);
    }
    _pendingPrefilled.clear();
    for (const PendingRequest &p : _pending) {
        LostRequest l;
        l.request = p.request;
        l.request.request.generated = 0;
        l.admitted = false;
        lost.push_back(l);
    }
    _pending.clear();
    _planValid = false;
    _now = std::max(_now, when);
    publishLoad();
    return lost;
}

void
ServingSim::restartAt(double when)
{
    // The replica comes back empty and cold; only its clock moves
    // (work charged before the crash stays charged).
    _now = std::max(_now, when);
}

void
ServingSim::handoffPrefilled(std::size_t i)
{
    HandoffRecord h;
    h.request.request.id = _batch.id[i];
    h.request.request.inputLen = _batch.inputLen[i];
    h.request.request.outputLen = _batch.outputLen[i];
    h.request.request.generated = _batch.generated[i];
    h.request.arrivalSeconds = _batch.arrivalSeconds[i];
    h.readySeconds = _now;
    h.kvTokens = _batch.contextLen(i);
    const llm::KvExport kv = _kv.exportRequest(_batch.id[i]);
    std::uint64_t blocks = kv.blocks;
    std::uint64_t bytes = kv.bytes;
    if (_prefixOn && _batch.prefixHit[i] > 0 && kv.blocks > 0) {
        // The decode pool already holds the cached prefix blocks
        // (the hit implies a prior request published them), so only
        // the uncached suffix crosses the interconnect. Hits are
        // block-aligned, so the per-block arithmetic is exact.
        // kvTokens stays the full context: the decode pool still
        // reserves the complete footprint on import.
        const std::uint64_t hit_blocks = std::min<std::uint64_t>(
            _batch.prefixHit[i] / _kvBlockTokens, kv.blocks);
        const std::uint64_t block_bytes = kv.bytes / kv.blocks;
        blocks -= hit_blocks;
        bytes -= hit_blocks * block_bytes;
    }
    h.kvBlocks = blocks;
    h.kvBytes = bytes;
    publishPrefix(i);
    ++_out.handoffs;
    _out.prefillHandoffTokens += _batch.inputLen[i];
    _handoffs.push_back(h);
}

void
ServingSim::handoffCompletedPrefills()
{
    _planValid = false; // the live batch shrinks
    syncGen();
    _steadyValid = false;
    std::size_t w = 0;
    for (std::size_t r = 0; r < _batch.size(); ++r) {
        if (_batch.prefillRemaining[r] == 0) {
            handoffPrefilled(r);
        } else {
            _batch.moveTo(w, r);
            ++w;
        }
    }
    _batch.truncate(w);
}

std::uint32_t
ServingSim::fcTokens(std::uint32_t rlp, std::uint32_t tlp) const
{
    std::uint32_t fc_rlp = rlp;
    // The paper's Shortcoming 1: static-batching systems without
    // runtime-RLP tracking execute the padded batch until it drains.
    if (_static.enabled && !_platform.config().tracksRuntimeRlp &&
        _staticInitialRlp > 0)
        fc_rlp = _staticInitialRlp;
    return fc_rlp * tlp;
}

double
ServingSim::scaledSeconds(double kernel_seconds, double other_seconds,
                          std::uint32_t tokens) const
{
    // The trivial path must not be routed through here: callers keep
    // the original single-platform arithmetic bit-identical.
    double seconds =
        kernel_seconds / _cost.computeScale + other_seconds;
    if (_cost.extraSeconds)
        seconds += _cost.extraSeconds(tokens);
    return seconds;
}

void
ServingSim::chargePrefill(const KernelExec &pre,
                          const std::vector<std::uint32_t> &lens)
{
    double pre_seconds = pre.seconds;
    double pre_joules = pre.energyJoules;
    if (!_cost.trivial()) {
        std::uint64_t prompt_tokens = 0;
        for (std::uint32_t len : lens)
            prompt_tokens += len;
        const auto tokens = static_cast<std::uint32_t>(prompt_tokens);
        pre_seconds = scaledSeconds(pre.seconds, 0.0, tokens);
        if (_cost.extraJoules)
            pre_joules += _cost.extraJoules(tokens);
    }
    _now += pre_seconds;
    _busySeconds += pre_seconds;
    _breakdown.prefillSeconds += pre_seconds;
    _out.energyJoules += pre_joules;
}

std::uint32_t
ServingSim::admit()
{
    // Steady-state early-out: nothing can possibly join when every
    // source is empty or not yet eligible (the mirror of the three
    // admission loop guards below). Returning before any batch
    // access keeps the O(1) decode window's pending uniform advance
    // unfolded - this runs after every decode step.
    if ((!_preempt || _preempted.empty()) &&
        (_pendingPrefilled.empty() ||
         _pendingPrefilled.front().readySeconds > _now) &&
        (_pending.empty() ||
         _pending.front().readySeconds > _now))
        return 0;
    _planValid = false; // batch may change; a peeked plan is stale
    syncGen(); // pushes must not inherit the pending uniform advance
    std::uint32_t admitted = 0;
    _prefillLens.clear();
    _hitPrior.clear();
    _hitNow.clear();
    // Prefix-cache probe for a fresh keyed request (runs only after
    // its KV reservation is gated, so a lookup is never wasted on a
    // request that cannot join). A hit promotes the entry to MRU.
    const auto lookup_prefix =
        [this](const llm::Request &req) -> std::uint32_t {
        if (!_prefixOn || req.prefixKey == 0)
            return 0;
        ++_out.prefixLookups;
        const auto hit = static_cast<std::uint32_t>(_kv.prefixLookup(
            req.prefixKey,
            std::min(req.prefixTokens, req.inputLen)));
        if (hit > 0)
            ++_out.prefixHits;
        return hit;
    };
    // Batch-level scheduling admits only into an empty batch.
    if (_options.admission == AdmissionPolicy::BatchLevel &&
        !_batch.empty())
        return admitted;
    const double decision_time = _now;

    // Preemption mode: re-admit evicted requests first (oldest
    // arrival wins), before any newcomer - an evicted request
    // already holds its admission timestamp and must not starve.
    // _preempted is ordered by exactly that priority, so the head
    // of the map is the winner (O(log n) per resume).
    std::uint32_t resumed = 0;
    double swap_seconds = 0.0;
    while (_preempt && !_preempted.empty() &&
           _batch.size() < _options.maxRlp) {
        const auto best = _preempted.begin();
        const PreemptedRequest &pr = best->second;
        const std::uint32_t ctx = pr.state.request.contextLen();
        const bool recompute =
            _options.preemptPolicy == KvPreemptPolicy::Recompute;
        const std::uint64_t footprint =
            recompute ? ctx : std::max<std::uint32_t>(
                                  pr.kvTokens, 1);
        // Reserve the candidate's footprint plus its own first
        // iteration's growth on top of the existing batch's
        // headroom, so admission can never force an eviction.
        const std::uint64_t reserve = _kv.blocksForTokens(
            footprint + std::max<std::uint32_t>(
                            _spec.length,
                            _options.prefillChunkTokens));
        // Cached prefix blocks are reclaimable headroom (evicted
        // before any preemption); with the cache empty this is the
        // pre-cache freeBlocks() check bit-for-bit.
        if (_kv.availableBlocks() < reserve + worstGrowthBlocks())
            break;
        ActiveSnapshot a = pr.state;
        a.admitSeq = _admitSeqNext++;
        a.stallSeconds += _now - pr.preemptSeconds;
        _out.evictionStallSeconds += _now - pr.preemptSeconds;
        if (recompute) {
            _out.recomputedPrefillTokens += pr.kvTokens;
            if (_chunked) {
                a.prefillRemaining = ctx;
                a.kvTokens = 0;
                a.kvBlocks = _kv.admit(a.request.id, 0);
            } else {
                a.prefillRemaining = 0;
                a.kvTokens = ctx;
                a.kvBlocks = _kv.admit(a.request.id, ctx);
                _prefillLens.push_back(ctx);
            }
        } else {
            // SwapRestore: the KV content survives off-device; pay
            // the transfer back over the attention fabric.
            a.kvTokens = pr.kvTokens;
            a.kvBlocks = _kv.admit(
                a.request.id,
                std::max<std::uint32_t>(a.kvTokens, 1));
            swap_seconds +=
                static_cast<double>(a.kvTokens) *
                static_cast<double>(_model.kvBytesPerToken()) /
                (_options.kvSwapGBps * 1e9);
        }
        _batch.push(a);
        _allSeen = false;
        _steadyValid = false;
        _preempted.erase(best);
        ++resumed;
    }

    // Disaggregated decode pool: migrated-in prefills join with
    // their context already materialized - a KV reservation but no
    // prefill charge (the prompt phase ran on the prefill pool).
    while (!_pendingPrefilled.empty() &&
           _pendingPrefilled.front().readySeconds <= _now &&
           _batch.size() < _options.maxRlp) {
        const PrefilledPending &pp = _pendingPrefilled.front();
        if (_options.deadlineSeconds > 0.0 &&
            pp.request.arrivalSeconds + _options.deadlineSeconds <=
                _now) {
            // SLO-aware shedding: its first token can no longer
            // land inside the deadline, so admitting it would only
            // burn compute no user is waiting for.
            ++_out.shedRequests;
            _pendingPrefilled.pop_front();
            continue;
        }
        const llm::Request &req = pp.request.request;
        std::uint64_t kv_blocks;
        if (!_preempt) {
            // Migration-aware reservation: the migrated footprint
            // is already real, the worst case adds the full output.
            const std::uint64_t worst =
                pp.kvTokens + req.outputLen;
            if (!_kv.canAdmit(worst))
                break;
            kv_blocks = _kv.admit(req.id, worst);
        } else {
            // On-demand mode: import the migrated footprint plus
            // this request's own first-iteration growth, keeping
            // headroom for the existing batch (admission must never
            // force an eviction by itself).
            const std::uint64_t reserve = _kv.blocksForTokens(
                pp.kvTokens + _spec.length);
            if (_kv.availableBlocks() <
                reserve + worstGrowthBlocks())
                break;
            kv_blocks = _kv.importRequest(req.id, pp.kvTokens);
        }
        ActiveSnapshot a;
        a.request = req;
        a.arrivalSeconds = pp.request.arrivalSeconds;
        a.admissionSeconds = decision_time;
        a.admitSeq = _admitSeqNext++;
        a.prefillRemaining = 0;
        a.kvTokens = static_cast<std::uint32_t>(pp.kvTokens);
        a.kvBlocks = kv_blocks;
        a.sessionId = pp.request.sessionId;
        _batch.push(a);
        _allSeen = false;
        _steadyValid = false;
        _pendingPrefilled.pop_front();
        ++admitted;
    }

    while (!_pending.empty() &&
           _pending.front().readySeconds <= _now &&
           _batch.size() < _options.maxRlp) {
        if (_options.deadlineSeconds > 0.0 &&
            _pending.front().request.arrivalSeconds +
                    _options.deadlineSeconds <= _now) {
            ++_out.shedRequests;
            _pending.pop_front();
            continue;
        }
        const llm::Request &req = _pending.front().request.request;
        std::uint64_t kv_blocks = 0;
        std::uint32_t hit = 0;
        if (!_static.enabled) {
            if (!_preempt) {
                // Reserve the worst case so growth can never fail.
                // A prefill-pool replica never decodes, so its
                // worst case is the prompt footprint alone. A
                // prefix hit skips prefill COST only - the request
                // still materializes its full private KV copy, so
                // the reservation is hit-independent.
                std::uint64_t worst =
                    static_cast<std::uint64_t>(req.inputLen) +
                    (_role == ServingRole::Prefill ? 0
                                                   : req.outputLen);
                if (!_kv.canAdmit(worst))
                    break;
                hit = lookup_prefix(req);
                kv_blocks = _kv.admit(req.id, worst);
            } else {
                // Reserve the prompt footprint plus this request's
                // own first-iteration growth, and keep headroom for
                // the existing batch's next iteration - admission
                // must never trigger an eviction by itself.
                const std::uint64_t reserve = _kv.blocksForTokens(
                    static_cast<std::uint64_t>(req.inputLen) +
                    std::max<std::uint32_t>(
                        _spec.length,
                        _options.prefillChunkTokens));
                if (_kv.availableBlocks() <
                    reserve + worstGrowthBlocks())
                    break;
                // Chunked mode materializes the cached span right
                // away (its prefill is skipped, so no later chunk
                // will grow over it); hit == 0 keeps the legacy
                // admit-at-zero bit-for-bit.
                hit = lookup_prefix(req);
                kv_blocks = _kv.admit(req.id,
                                      _chunked ? hit : req.inputLen);
            }
        }
        ActiveSnapshot a;
        a.request = req;
        a.arrivalSeconds = _pending.front().request.arrivalSeconds;
        a.admissionSeconds = decision_time;
        a.admitSeq = _admitSeqNext++;
        a.sessionId = _pending.front().request.sessionId;
        a.kvBlocks = kv_blocks;
        a.prefixHitTokens = hit;
        if (_prefixOn) {
            _out.prefixHitTokens += hit;
            _out.prefixMissTokens += req.inputLen - hit;
        }
        if (_chunked) {
            // Chunked prefill starts at the first uncached token:
            // the cached span is charged as prior context by the
            // chunk cost model (prior = contextLen - remaining).
            a.prefillRemaining = req.inputLen - hit;
            if (_preempt)
                a.kvTokens = hit;
        } else {
            a.kvTokens = req.inputLen;
            if (hit == 0) {
                _prefillLens.push_back(a.request.inputLen);
            } else if (hit < req.inputLen) {
                // Charge only the uncached suffix, costed as an
                // incremental prefill over the cached prior span.
                _hitPrior.push_back(hit);
                _hitNow.push_back(req.inputLen - hit);
            } // Full-block full hit: no prefill charge at all.
        }
        _batch.push(a);
        _allSeen = false;
        _steadyValid = false;
        _pending.pop_front();
        ++admitted;
    }
    if (admitted > 0 && _static.enabled)
        _staticInitialRlp = admitted;
    // Prefill the newcomers before the next decode step.
    if (!_prefillLens.empty() &&
        (!_static.enabled || _static.includePrefill))
        chargePrefill(_platform.prefillExec(_model, _prefillLens),
                      _prefillLens);
    // Prefix-hit newcomers (monolithic prefill): prefill only the
    // uncached suffix, costed as an incremental prefill whose prior
    // context is the cached span - the same arithmetic chunked
    // prefill uses for its later chunks.
    if (!_hitNow.empty())
        chargePrefill(
            _platform.prefillChunkExec(_model, _hitPrior, _hitNow),
            _hitNow);
    if (swap_seconds > 0.0) {
        _now += swap_seconds;
        _busySeconds += swap_seconds;
        _breakdown.commSeconds += swap_seconds;
        // The lump-sum swap-in advance delays every live request at
        // this admit boundary, not just the resumed ones; attribute
        // the induced stall to all of them so preemption-stall
        // percentiles stay conservative.
        _batch.addStallAll(swap_seconds);
        _out.swapInducedStallSeconds +=
            swap_seconds * static_cast<double>(_batch.size());
    }
    // Prefill-pool replica: every request whose prompt phase just
    // completed (the whole non-chunked admission wave) retires into
    // the handoff queue instead of decoding here.
    if (_role == ServingRole::Prefill && !_batch.empty())
        handoffCompletedPrefills();
    if (admitted > 0)
        _out.admissions += admitted;
    _out.resumes += resumed;
    publishLoad();
    return admitted + resumed;
}

void
ServingSim::stepIdle()
{
    if (hasActive())
        sim::panic("ServingSim::stepIdle with a live batch");
    if (!hasPending())
        sim::panic("ServingSim::stepIdle with nothing pending");

    // Shedding can drain the entire eligible prefix inside admit()
    // without forming a batch, so fast-forward / admit loops until a
    // batch forms or nothing is left to try.
    for (;;) {
        // Idle until the next deliverable work item (a plain arrival
        // or a migrated-in prefill, whichever is earlier). Retries
        // become eligible at their backoff-delayed ready time, not
        // their original arrival.
        double next_work;
        if (_pendingPrefilled.empty()) {
            next_work = _pending.front().readySeconds;
        } else if (_pending.empty()) {
            next_work = _pendingPrefilled.front().readySeconds;
        } else {
            next_work =
                std::min(_pending.front().readySeconds,
                         _pendingPrefilled.front().readySeconds);
        }
        _now = std::max(_now, next_work);
        if (_options.admission == AdmissionPolicy::BatchLevel &&
            _pending.size() >= _options.maxRlp) {
            // Dynamic batching: if a full batch is already waiting,
            // start once the last member has arrived.
            _now = std::max(_now, _pending[_options.maxRlp - 1]
                                      .request.arrivalSeconds);
        } else if (_options.admission == AdmissionPolicy::BatchLevel) {
            // Otherwise wait out the fill timeout (or until the
            // batch fills, whichever comes first).
            double deadline =
                _pending.front().request.arrivalSeconds +
                _options.batchTimeoutSeconds;
            std::size_t fills = std::min<std::size_t>(
                _pending.size(), _options.maxRlp);
            double full_at =
                _pending[fills - 1].request.arrivalSeconds;
            _now = std::max(_now, std::min(deadline, full_at));
        }
        if (admit() > 0 || hasActive())
            return;
        if (!hasPending())
            return; // everything eligible was shed
        const bool eligible_front =
            (!_pending.empty() &&
             _pending.front().readySeconds <= _now) ||
            (!_pendingPrefilled.empty() &&
             _pendingPrefilled.front().readySeconds <= _now);
        if (eligible_front) {
            const std::uint64_t id =
                !_pending.empty()
                    ? _pending.front().request.request.id
                    : _pendingPrefilled.front().request.request.id;
            sim::fatal("ServingSim: request ", id,
                       " cannot be admitted into an empty batch (KV "
                       "worst-case footprint exceeds the Attn-PIM "
                       "pool)");
        }
        // Only not-yet-ready work remains; idle forward to it.
    }
}

void
ServingSim::planChunks(std::vector<std::uint32_t> &chunks) const
{
    const std::size_t n = _batch.size();
    chunks.assign(n, 0);
    std::uint32_t budget = _options.prefillChunkTokens;
    const std::uint32_t *pre = _batch.prefillRemaining.data();
    // The batch is kept in admission order, so the shared chunk
    // budget drains oldest-admission-first.
    for (std::size_t i = 0; i < n && budget > 0; ++i) {
        if (pre[i] == 0)
            continue;
        const std::uint32_t c = std::min(pre[i], budget);
        chunks[i] = c;
        budget -= c;
    }
}

ServingSim::IterationPlan
ServingSim::planIteration() const
{
    IterationPlan p;
    _chunkPrior.clear();
    _chunkNow.clear();
    const std::size_t n = _batch.size();
    const std::uint32_t tlp = _spec.length;
    std::uint32_t chunk_tokens = 0;
    // Monolithic prefill admits requests fully prefilled, so its
    // batch is always all-decoding and never pays the scan.
    if (!_chunked || !_batch.anyPrefilling()) {
        // Steady-state fast path: everyone decodes, so the plan
        // inputs are one sweep over the context columns, adding the
        // pending uniform advance instead of folding it in.
        p.decodeRlp = static_cast<std::uint32_t>(n);
        _batch.refillCtx(_ctx, _genShift);
    } else {
        planChunks(_chunkPlan);
        syncGen();
        _ctx.clear();
        const std::uint32_t *pre = _batch.prefillRemaining.data();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t ctx = _batch.contextLen(i);
            if (pre[i] == 0) {
                _ctx.push_back(ctx);
                ++p.decodeRlp;
            } else if (_chunkPlan[i] > 0) {
                // Prefill total for costing is the full context
                // being (re)built - contextLen() is constant while
                // a request prefills, and covers recompute resumes.
                _chunkPrior.push_back(ctx - pre[i]);
                _chunkNow.push_back(_chunkPlan[i]);
                chunk_tokens += _chunkPlan[i];
            }
        }
    }
    p.tokens = fcTokens(p.decodeRlp, tlp);
    p.chunkTokens = chunk_tokens;
    double kernel = 0.0;
    if (p.decodeRlp > 0) {
        p.dispatched = true;
        p.decision =
            _fcDispatch.select(_model, p.decodeRlp, tlp, p.tokens);
        IterationTiming &t = p.timing;
        t.fc = _platform.fcExec(_model, p.tokens, p.decision.target);
        t.at = _platform.attnExec(_model, _ctx, tlp);
        t.other = _platform.otherSeconds(_model);
        if (_static.enabled) {
            // The draft model's serial proposal pass (speculative
            // decoding): charged as a fraction of the verification
            // cost.
            if (_spec.length > 1 && _spec.draftCostFraction > 0.0)
                t.other += _spec.draftCostFraction *
                           (t.fc.seconds + t.at.seconds);
            // Kernels within a layer are dependent, so by default
            // the phases serialize (FC -> attention -> FC ...).
            // Platforms with sub-batch interleaving can hide a
            // fraction of the shorter phase under the longer one.
            t.hidden = _platform.config().phaseOverlapFraction *
                       std::min(t.fc.seconds, t.at.seconds);
        }
        kernel = t.fc.seconds + t.at.seconds;
    }
    if (!_chunkNow.empty())
        p.chunk = _platform.prefillChunkExec(_model, _chunkPrior,
                                             _chunkNow);
    kernel += p.chunk.seconds;
    // hidden is non-zero only in static mode, which the constructor
    // restricts to the trivial cost model.
    p.seconds = _cost.trivial()
                    ? kernel - p.timing.hidden + p.timing.other
                    : scaledSeconds(kernel, p.timing.other,
                                    p.tokens + chunk_tokens);
    return p;
}

void
ServingSim::refreshPlan() const
{
    if (_planValid)
        return;
    _plan = planIteration();
    _planValid = true;
}

bool
ServingSim::noteDispatch(TargetId target)
{
    bool rescheduled = false;
    if (_dynamic) {
        const bool was_gpu =
            _schedStarted && _targetIsGpu[_prevTarget] != 0;
        const bool is_gpu = _targetIsGpu[target] != 0;
        rescheduled = _schedStarted && target != _prevTarget;
        if (rescheduled)
            ++_out.reschedules;
        if (_schedStarted && is_gpu && !was_gpu)
            ++_out.reschedulesToGpu;
        _prevTarget = target;
        _schedStarted = true;
    }
    return rescheduled;
}

void
ServingSim::recordRetirementAt(std::size_t i)
{
    const double latency = _now - _batch.arrivalSeconds[i];
    RequestRecord rec;
    rec.id = _batch.id[i];
    rec.arrivalSeconds = _batch.arrivalSeconds[i];
    rec.admissionSeconds = _batch.admissionSeconds[i];
    rec.firstTokenSeconds = _batch.firstTokenSeen[i]
                                ? _batch.firstTokenSeconds[i]
                                : _now;
    rec.finishSeconds = _now;
    rec.outputTokens = _batch.outputLen[i];
    rec.preemptions = _batch.preemptions[i];
    rec.stallSeconds = _batch.stallSeconds[i];
    rec.prefixHitTokens = _batch.prefixHit[i];
    rec.prefixMissTokens =
        _batch.inputLen[i] - _batch.prefixHit[i];
    if (_bounded) {
        // Streaming metrics fold EVERY retirement, so the exact
        // counters and P-square estimators cover the whole run even
        // once the record buffer caps out.
        ++_stream.count;
        _stream.outputTokens += rec.outputTokens;
        if (_options.deadlineSeconds > 0.0 &&
            rec.ttftSeconds() <= _options.deadlineSeconds)
            ++_stream.deadlineMet;
        const double vals[kStreamMetricCount] = {
            rec.ttftSeconds(), rec.tpotSeconds(), latency,
            rec.queueingSeconds(), rec.stallSeconds};
        for (int m = 0; m < kStreamMetricCount; ++m) {
            _stream.sums[m] += vals[m];
            _stream.p50[m].add(vals[m]);
            _stream.p95[m].add(vals[m]);
            _stream.p99[m].add(vals[m]);
        }
        if (_records.size() >= _options.recordCapacity) {
            _stream.overflowed = true;
            return; // bounded memory: drop the per-request record
        }
    }
    _latencies.push_back(latency);
    _records.push_back(rec);
}

void
ServingSim::publishPrefix(std::size_t i)
{
    // Decode-pool replicas never see fresh admissions, so nothing
    // ever probes a prefix they publish - skip the pool pressure.
    if (!_prefixOn || _batch.insertKey[i] == 0 ||
        _role == ServingRole::Decode)
        return;
    const std::uint32_t span = _batch.insertTokens[i];
    const std::uint32_t ctx = _batch.contextLen(i);
    const std::uint64_t tok =
        span > 0 ? std::min(span, ctx) : ctx;
    _kv.prefixInsert(_batch.insertKey[i], tok);
}

std::uint32_t
ServingSim::probePrefixHitTokens(const llm::TimedRequest &tr) const
{
    const llm::Request &req = tr.request;
    if (!_prefixOn || req.prefixKey == 0)
        return 0;
    return static_cast<std::uint32_t>(_kv.peekPrefixHit(
        req.prefixKey, std::min(req.prefixTokens, req.inputLen)));
}

double
ServingSim::peekIterationSeconds() const
{
    if (_batch.empty())
        sim::panic("ServingSim::peekIterationSeconds without a batch");
    refreshPlan();
    return _plan.seconds;
}

void
ServingSim::syncGen() const
{
    if (_genShift == 0)
        return;
    const std::uint32_t s = _genShift;
    std::uint32_t *gen = _batch.generated.data();
    const std::size_t n = _batch.size();
    for (std::size_t i = 0; i < n; ++i)
        gen[i] += s;
    _genShift = 0;
}

void
ServingSim::refreshSteady()
{
    syncGen();
    const std::size_t n = _batch.size();
    const std::uint32_t *gen = _batch.generated.data();
    const std::uint32_t *out = _batch.outputLen.data();
    std::uint32_t rem = ~0u;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t r = out[i] - gen[i];
        rem = r < rem ? r : rem;
    }
    _minRem = rem;
    _steadyValid = true;
}

std::uint32_t
ServingSim::advanceAndRetire(std::uint32_t accepted, bool release_kv)
{
    const std::size_t n = _batch.size();
    if (!_steadyValid)
        refreshSteady();
    // O(1) algebraic advance: with every first token seen and
    // accepted strictly below the smallest remaining output, every
    // request advances by exactly `accepted` and nobody retires -
    // so the per-element sweep collapses to a scalar shift on the
    // generated column and closed-form aggregate updates. The token
    // total (n identical u32 increments summed in u64) and the
    // deferred per-element values are exactly what the sweep would
    // produce. Preemption mode reads per-element contexts right
    // after this call, so it stays on the materialized path.
    if (_allSeen && !_preempt && n > 0 && accepted < _minRem) {
        _genShift += accepted;
        _minRem -= accepted;
        _out.tokensGenerated +=
            static_cast<std::uint64_t>(accepted) * n;
        return 0;
    }
    syncGen();
    std::uint32_t *gen = _batch.generated.data();
    const std::uint32_t *out = _batch.outputLen.data();

    // First-token bookkeeping only matters while someone in the
    // batch has yet to produce a token - the iterations right after
    // an admission wave. _allSeen goes false on every batch
    // mutation and back to true here, so steady-state decode skips
    // this pass and the advance loop below stays a single-width
    // elementwise sweep. A request advances exactly when
    // min(accepted, out - gen) > 0, i.e. accepted > 0 and gen < out
    // - evaluated before gen moves, matching the fused original.
    if (!_allSeen && accepted > 0) {
        std::uint8_t *seen = _batch.firstTokenSeen.data();
        double *first = _batch.firstTokenSeconds.data();
        const double now = _now;
        std::uint32_t unseen = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const bool advances = gen[i] < out[i];
            const bool is_first = advances && seen[i] == 0;
            first[i] = is_first ? now : first[i];
            seen[i] = seen[i] | (advances ? 1 : 0);
            unseen += seen[i] == 0 ? 1u : 0u;
        }
        _allSeen = unseen == 0;
    }

    // Pass 1 - advance: elementwise min/add/compare over the
    // generation columns. No calls, no erases, no early exits:
    // this is the loop the compiler vectorizes.
    std::uint64_t tok = 0;
    std::uint32_t eos = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t rem = out[i] - gen[i];
        const std::uint32_t used = accepted < rem ? accepted : rem;
        gen[i] += used;
        tok += used;
        eos += gen[i] >= out[i] ? 1u : 0u;
    }
    _out.tokensGenerated += tok;

    // Pass 2 - retire: only when somebody finished. Records and KV
    // releases fire in batch (admission) order; survivors compact
    // in place, preserving admission order.
    if (eos > 0) {
        std::size_t w = 0;
        for (std::size_t r = 0; r < n; ++r) {
            if (gen[r] >= out[r]) {
                recordRetirementAt(r);
                if (release_kv) {
                    _kv.release(_batch.id[r]);
                    publishPrefix(r);
                }
            } else {
                _batch.moveTo(w, r);
                ++w;
            }
        }
        _batch.truncate(w);
    }
    _steadyValid = false; // generation/membership moved
    return eos;
}

void
ServingSim::stepDecode()
{
    if (_batch.empty())
        sim::panic("ServingSim::stepDecode without a batch");
    const std::size_t batch_before = _batch.size();
    // Per-iteration decisions are stateless threshold checks, so the
    // plan a driver peeked is the plan executed here. refreshPlan
    // also refilled _chunkPlan (via planIteration), which the mixed
    // loop below consumes; any mutation since a peek would have
    // invalidated the cache.
    refreshPlan();
    const IterationPlan plan = _plan;
    _planValid = false;
    const IterationTiming &t = plan.timing;
    const TargetId target = plan.decision.target;
    const bool rescheduled = plan.dispatched && noteDispatch(target);

    // Per-component accounting: decode FC/attention split, prompt
    // chunks under prefill. The overlap-hidden time (static mode)
    // executes under the longer phase, so the shorter phase's
    // contributions shrink (compute first, then its communication
    // share).
    double fc_part = t.fc.seconds - t.fc.commSeconds;
    double at_part = t.at.seconds - t.at.commSeconds;
    double comm_part = t.fc.commSeconds + t.at.commSeconds;
    double chunk_part = plan.chunk.seconds;
    if (t.hidden > 0.0) {
        double &shorter =
            t.fc.seconds <= t.at.seconds ? fc_part : at_part;
        const double deduct = std::min(t.hidden, shorter);
        shorter -= deduct;
        comm_part -= t.hidden - deduct;
    }
    // Under a tensor-parallel cost model the charged duration is the
    // scaled one; keep the breakdown in the same units (the group's
    // all-reduce counts as communication) so it still sums to the
    // busy time. Chunked prefill books that term as the residual of
    // the charged duration, monolithic prefill as extraSeconds
    // itself: the two round differently and both are pinned.
    if (!_cost.trivial()) {
        fc_part /= _cost.computeScale;
        at_part /= _cost.computeScale;
        comm_part /= _cost.computeScale;
        chunk_part /= _cost.computeScale;
        if (_cost.extraSeconds)
            comm_part += _chunked
                             ? plan.seconds -
                                   (fc_part + at_part + comm_part +
                                    chunk_part + t.other)
                             : _cost.extraSeconds(plan.tokens);
    }
    _breakdown.fcSeconds += fc_part;
    _breakdown.attnSeconds += at_part;
    _breakdown.commSeconds += comm_part;
    _breakdown.prefillSeconds += chunk_part;
    _breakdown.otherSeconds += t.other;

    const std::size_t n = _batch.size();
    _rlpTimeIntegral += plan.seconds * static_cast<std::uint32_t>(n);
    _busySeconds += plan.seconds;
    _now += plan.seconds;
    // Static mode keeps the pre-fold decode loop's floating-point
    // association (device and host terms added separately); the
    // serving path adds one sum.
    if (_static.enabled) {
        _out.energyJoules += t.fc.energyJoules + t.at.energyJoules;
        _out.energyJoules += t.other * kHostWatts;
    } else {
        double iter_joules = plan.chunk.energyJoules +
                             t.other * kHostWatts +
                             (t.fc.energyJoules + t.at.energyJoules);
        // Tokens in the fabric-energy term mirror the ones in the
        // fabric-time term (scaledSeconds): decode plus prefill
        // chunks.
        if (!_cost.trivial() && _cost.extraJoules)
            iter_joules +=
                _cost.extraJoules(plan.tokens + plan.chunkTokens);
        _out.energyJoules += iter_joules;
    }
    ++_out.iterations;
    if (plan.dispatched) {
        ++_targetIters[target];
        if (_targetIsGpu[target])
            ++_out.fcOnGpuIterations;
        else
            ++_out.fcOnPimIterations;
    }

    // Monolithic prefill samples the KV peak before retirees
    // release their blocks, chunked prefill after (pinned both ways).
    if (!_chunked && !_static.enabled)
        _out.peakKvUtilization = std::max(_out.peakKvUtilization,
                                          _kv.utilization());

    // All-decoding fast path: no chunk planned and nobody mid-prefill
    // (always the case under monolithic prefill) reduces the
    // iteration to one vectorized advance. Chunked prefill with
    // preemption stays on the mixed loop, which grows each
    // request's KV before the next one retires. Only the static
    // trace reads eos, and static batches always take the fast path.
    std::uint32_t eos = 0;
    const bool all_decoding =
        plan.chunkTokens == 0 &&
        plan.decodeRlp == static_cast<std::uint32_t>(n);
    if (all_decoding && !(_chunked && _preempt)) {
        eos = advanceAndRetire(_spec.sampleAccepted(_rng),
                               !_static.enabled);
        if (_preempt) {
            // On-demand accounting: materialize the tokens this
            // iteration appended in one bulk grow after the
            // retirees released (ascending batch order - the same
            // allocation sequence as per-request calls).
            const std::size_t live = _batch.size();
            _growIdx.clear();
            _growIds.clear();
            _growTok.clear();
            for (std::size_t i = 0; i < live; ++i) {
                const std::uint32_t ctx = _batch.contextLen(i);
                if (ctx > _batch.kvTokens[i]) {
                    _batch.kvTokens[i] = ctx;
                    _growIdx.push_back(i);
                    _growIds.push_back(_batch.id[i]);
                    _growTok.push_back(ctx);
                }
            }
            if (!_growIds.empty()) {
                _growBlocks.resize(_growIds.size());
                _kv.growMany(_growIds.data(), _growTok.data(),
                             _growBlocks.data(), _growIds.size());
                for (std::size_t j = 0; j < _growIdx.size(); ++j)
                    _batch.kvBlocks[_growIdx[j]] = _growBlocks[j];
            }
        }
    } else {
        advanceMixed(plan);
    }
    if (_preempt)
        ensureKvHeadroom();
    if (_chunked || _preempt)
        _out.peakKvUtilization = std::max(_out.peakKvUtilization,
                                          _kv.utilization());

    if (_static.recordTrace) {
        IterationTrace tr;
        tr.iteration = _out.iterations;
        tr.rlp = plan.decodeRlp;
        tr.tlp = _spec.length;
        tr.estimatedAi = _dynamic ? plan.decision.estimatedAi : 0.0;
        tr.targetId = target;
        tr.fcTarget = _platform.legacyFcTarget(target);
        tr.rescheduled = rescheduled;
        tr.eosCount = eos;
        tr.iterationSeconds = plan.seconds;
        _trace.push_back(tr);
    }

    // Prefill-pool replica: requests whose last chunk just ran are
    // done here - retire them into the handoff queue for migration
    // instead of letting them join the decode set.
    if (_role == ServingRole::Prefill)
        handoffCompletedPrefills();
    // Retirement, handoff and preemption all shrink the batch;
    // nothing else here changes the outstanding count.
    if (_batch.size() != batch_before)
        publishLoad();
}

void
ServingSim::advanceMixed(const IterationPlan &plan)
{
    // Freeze the decode set before prefill progress: a request
    // whose prefill completes in THIS iteration starts decoding at
    // the NEXT one (its chunk was costed, its decode was not).
    syncGen(); // the mixed loop below reads/writes generated[]
    const std::size_t n = _batch.size();
    _decoding.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        _decoding[i] = _batch.prefillRemaining[i] == 0;

    // Prefill progress; materialize the chunk's KV (bulk grow in
    // ascending batch order - the allocation sequence of the old
    // per-request loop).
    if (plan.chunkTokens > 0) {
        _growIdx.clear();
        _growIds.clear();
        _growTok.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (_chunkPlan[i] == 0)
                continue;
            _batch.prefillRemaining[i] -= _chunkPlan[i];
            if (_preempt) {
                _batch.kvTokens[i] += _chunkPlan[i];
                _growIdx.push_back(i);
                _growIds.push_back(_batch.id[i]);
                _growTok.push_back(std::max<std::uint32_t>(
                    _batch.kvTokens[i], 1));
            }
        }
        if (!_growIds.empty()) {
            _growBlocks.resize(_growIds.size());
            _kv.growMany(_growIds.data(), _growTok.data(),
                         _growBlocks.data(), _growIds.size());
            for (std::size_t j = 0; j < _growIdx.size(); ++j)
                _batch.kvBlocks[_growIdx[j]] = _growBlocks[j];
        }
    }

    // Advance the decoders; requests still prefilling produce no
    // tokens this iteration (their TTFT reflects the chunk delay).
    const std::uint32_t accepted =
        plan.decodeRlp > 0 ? _spec.sampleAccepted(_rng) : 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < n; ++r) {
        if (!_decoding[r]) {
            _batch.moveTo(w, r);
            ++w;
            continue;
        }
        const std::uint32_t rem =
            _batch.outputLen[r] - _batch.generated[r];
        const std::uint32_t used = std::min(accepted, rem);
        _batch.generated[r] += used;
        _out.tokensGenerated += used;
        if (used > 0 && _batch.firstTokenSeen[r] == 0) {
            _batch.firstTokenSeconds[r] = _now;
            _batch.firstTokenSeen[r] = 1;
        }
        if (_preempt && used > 0) {
            _batch.kvTokens[r] += used;
            _batch.kvBlocks[r] =
                _kv.grow(_batch.id[r], _batch.kvTokens[r]);
        }
        if (_batch.generated[r] >= _batch.outputLen[r]) {
            recordRetirementAt(r);
            _kv.release(_batch.id[r]);
            publishPrefix(r);
        } else {
            _batch.moveTo(w, r);
            ++w;
        }
    }
    _batch.truncate(w);
    _steadyValid = false;
}

std::uint64_t
ServingSim::worstGrowthBlocks() const
{
    // Pure array arithmetic against the kvBlocks mirror column - no
    // per-id hash lookups (kvBlocks[i] == _kv.requestBlocks(id[i])
    // by construction).
    syncGen();
    if (_chunked)
        planChunks(_chunkPlan);
    const std::size_t n = _batch.size();
    const std::uint64_t bt = _kvBlockTokens;
    const std::uint32_t tlp = _spec.length;
    const std::uint32_t *pre = _batch.prefillRemaining.data();
    const std::uint32_t *kv_tok = _batch.kvTokens.data();
    const std::uint32_t *in = _batch.inputLen.data();
    const std::uint32_t *gen = _batch.generated.data();
    const std::uint32_t *out = _batch.outputLen.data();
    const std::uint64_t *held = _batch.kvBlocks.data();
    std::uint64_t need = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t target;
        if (pre[i] > 0) {
            // Mid-prefill (chunked only): the next chunk's KV.
            target = std::max<std::uint64_t>(
                kv_tok[i] + _chunkPlan[i], 1);
        } else {
            // Next decode iteration appends at most TLP tokens,
            // clipped at the request's remaining output.
            const std::uint32_t rem = out[i] - gen[i];
            target = in[i] + gen[i] + (tlp < rem ? tlp : rem);
        }
        const std::uint64_t blocks = (target + bt - 1) / bt;
        need += blocks > held[i] ? blocks - held[i] : 0;
    }
    return need;
}

void
ServingSim::preemptYoungest()
{
    // The batch is sorted by admitSeq, so the youngest-admitted
    // victim is simply the last element - O(1) against the old
    // full-batch max scan, same selection.
    syncGen();
    _steadyValid = false;
    ActiveSnapshot a = _batch.snapshot(_batch.size() - 1);
    _batch.popBack();
    _kv.release(a.request.id);
    if (_options.preemptPolicy == KvPreemptPolicy::SwapRestore) {
        // The swap-out leg of the transfer is paid here; the
        // swap-in leg at resume (admit). Recompute frees for free -
        // its cost is the re-prefill.
        const double out_seconds =
            static_cast<double>(a.kvTokens) *
            static_cast<double>(_model.kvBytesPerToken()) /
            (_options.kvSwapGBps * 1e9);
        _now += out_seconds;
        _busySeconds += out_seconds;
        _breakdown.commSeconds += out_seconds;
        // The lump-sum swap-out delays every surviving request;
        // attribute the induced stall (the victim's own stall clock
        // starts at the post-swap _now, so it is not double-counted).
        _batch.addStallAll(out_seconds);
        _out.swapInducedStallSeconds +=
            out_seconds * static_cast<double>(_batch.size());
    }
    ++a.preemptions;
    PreemptedRequest pr;
    pr.kvTokens = a.kvTokens;
    pr.preemptSeconds = _now;
    pr.evictSeq = _evictSeqNext++;
    const PreemptKey key{a.arrivalSeconds, a.request.id};
    pr.state = std::move(a);
    _out.evictionOrder.push_back(pr.state.request.id);
    ++_out.preemptions;
    _preemptOrder.emplace_back(key, pr.evictSeq);
    _preempted.emplace(key, std::move(pr));
}

void
ServingSim::ensureKvHeadroom()
{
    // availableBlocks() counts cached-prefix blocks as reclaimable
    // headroom: eviction happens lazily inside KvCacheManager's
    // growth path, so the cache is always sacrificed before any
    // live request is preempted (evict-before-preempt).
    while (_batch.size() > 1 &&
           worstGrowthBlocks() > _kv.availableBlocks())
        preemptYoungest();
    if (!_batch.empty() &&
        worstGrowthBlocks() > _kv.availableBlocks())
        sim::fatal("ServingSim: KV pool cannot hold even a single "
                   "request's next-iteration growth (request ",
                   _batch.id.front(),
                   "); the Attn-PIM capacity is too small for this "
                   "workload");
}

void
ServingSim::step()
{
    if (!hasActive()) {
        stepIdle();
        return;
    }
    stepDecode();
    // Token-level scheduling: admit newcomers immediately.
    admit();
}

ServingResult
ServingSim::finish()
{
    _out.makespanSeconds = _now - _firstArrival;
    _out.meanRlp = _busySeconds > 0.0
                       ? _rlpTimeIntegral / _busySeconds
                       : 0.0;
    _out.prefixEvictedBytes = _kv.prefixEvictedBytes();

    if (_bounded && _stream.overflowed) {
        // The record buffer capped out: the retained latencies are a
        // prefix of the run, so summary stats come from the exact
        // streaming sums and the P-square estimator instead.
        _out.meanLatencySeconds =
            _stream.sums[kStreamLatency] /
            static_cast<double>(_stream.count);
        _out.p95LatencySeconds =
            _stream.p95[kStreamLatency].value();
    } else if (!_latencies.empty()) {
        double sum = 0.0;
        for (double l : _latencies)
            sum += l;
        _out.meanLatencySeconds =
            sum / static_cast<double>(_latencies.size());
        std::sort(_latencies.begin(), _latencies.end());
        _out.p95LatencySeconds = percentileSorted(_latencies, 0.95);
    }
    return _out;
}

// ------------------------------------------------------------ ServingEngine

ServingResult
ServingEngine::run(const std::vector<llm::TimedRequest> &stream,
                   const llm::SpeculativeConfig &spec,
                   const llm::ModelConfig &model,
                   const ServingOptions &options)
{
    spec.validate();
    if (stream.empty())
        sim::fatal("ServingEngine: empty request stream");
    if (options.maxRlp == 0)
        sim::fatal("ServingEngine: maxRlp must be >= 1");
    for (std::size_t i = 1; i < stream.size(); ++i) {
        if (stream[i].arrivalSeconds < stream[i - 1].arrivalSeconds)
            sim::fatal("ServingEngine: arrivals must be sorted");
    }

    // The stream is delivered up front (admission sees the full
    // arrival schedule, which the batch-level fill rule's lookahead
    // needs), then the one decode loop DecodeEngine::run also uses
    // drives it to completion.
    ServingSim sim(_platform, spec, model, options);
    for (const auto &tr : stream)
        sim.deliver(tr);
    while (sim.canStep())
        sim.step();
    // Parked work the loop cannot reach: preempted requests that
    // never re-admitted, or handoffs with no decode pool to take
    // them (a Prefill-role sim outside a disaggregated cluster).
    if (sim.preemptedCount() > 0 || sim.hasHandoffs())
        sim::fatal("ServingEngine: work still parked after the "
                   "stream drained (preempted requests could not be "
                   "re-admitted - KV pool too small?)");
    return sim.finish();
}

} // namespace papi::core
