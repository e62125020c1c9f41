#include "core/serving_events.hh"

#include <algorithm>
#include <memory>

#include "sim/logging.hh"

namespace papi::core {

ServingEventDriver::ServingEventDriver(std::vector<ServingSim *> sims)
    : _sims(std::move(sims)),
      _timeline(std::max<std::size_t>(_sims.size(), 1))
{
    if (_sims.empty())
        sim::fatal("ServingEventDriver: need at least one replica");
    for (const ServingSim *s : _sims) {
        if (!s)
            sim::fatal("ServingEventDriver: null replica");
    }
    _deadlineGen.assign(_sims.size(), 0);
    _deadlineArmed.assign(_sims.size(), 0);
    _down.assign(_sims.size(), 0);
    _boundaryGen.assign(_sims.size(), 0);
    _outstanding.assign(_sims.size(), 0);
    for (std::uint32_t g = 0; g < _sims.size(); ++g)
        _sims[g]->publishLoadTo(&_outstanding[g]);
}

ServingEventDriver::~ServingEventDriver()
{
    for (ServingSim *s : _sims)
        s->publishLoadTo(nullptr);
}

void
ServingEventDriver::setWorkerThreads(unsigned threads)
{
    _workerThreads = threads == 0 ? 1 : threads;
}

std::vector<LostRequest>
ServingEventDriver::crashReplica(std::uint32_t g, double when)
{
    if (g >= _sims.size())
        sim::fatal("ServingEventDriver: crash targets replica ", g,
                   " of ", _sims.size());
    if (_down[g])
        return {}; // already dark; nothing further to lose
    _down[g] = 1;
    // Strand every event the dead batch had in flight: its next
    // iteration boundary and any armed fill deadline must no-op.
    ++_boundaryGen[g];
    ++_deadlineGen[g];
    _deadlineArmed[g] = 0;
    return _sims[g]->crash(when);
}

void
ServingEventDriver::restartReplica(std::uint32_t g, double when)
{
    if (g >= _sims.size())
        sim::fatal("ServingEventDriver: restart targets replica ", g,
                   " of ", _sims.size());
    if (!_down[g])
        return;
    _down[g] = 0;
    _sims[g]->restartAt(when);
    // Arrivals routed here while it was dark (total-outage fallback)
    // queued in its pending list; start draining them now.
    if (!_sims[g]->hasActive() &&
        (_sims[g]->hasPending() || _sims[g]->preemptedCount() > 0))
        idlePoke(g);
}

void
ServingEventDriver::redeliver(std::uint32_t g,
                              const llm::TimedRequest &request,
                              double ready_seconds)
{
    if (g >= _sims.size())
        sim::fatal("ServingEventDriver: redeliver targets replica ",
                   g, " of ", _sims.size());
    _sims[g]->redeliver(request, ready_seconds);
    if (!_down[g] && !_sims[g]->hasActive())
        idlePoke(g);
}

void
ServingEventDriver::scheduleAt(double seconds,
                               std::function<void()> fn)
{
    scheduleGlobal(seconds, kFaultPriority, std::move(fn));
}

void
ServingEventDriver::setLinkFaults(
    std::vector<sim::LinkFault> windows, double timeout_seconds)
{
    if (!_disagg)
        sim::fatal("ServingEventDriver: link faults degrade the KV "
                   "migration fabric; there is none without a "
                   "disaggregated topology");
    if (!(timeout_seconds > 0.0))
        sim::fatal("ServingEventDriver: transfer timeout must be "
                   "positive (got ", timeout_seconds, ")");
    _linkFaults = std::move(windows);
    _transferTimeoutSeconds = timeout_seconds;
}

void
ServingEventDriver::enableDisaggregation(
    const DisaggTopology &topology)
{
    if (topology.prefillReplicas == 0 ||
        topology.prefillReplicas >= _sims.size())
        sim::fatal("ServingEventDriver: a disaggregated topology "
                   "needs at least one prefill and one decode "
                   "replica (got ", topology.prefillReplicas,
                   " prefill of ", _sims.size(), " total)");
    topology.transferLink.validate();
    for (std::uint32_t g = 0; g < _sims.size(); ++g) {
        const ServingRole want = g < topology.prefillReplicas
                                     ? ServingRole::Prefill
                                     : ServingRole::Decode;
        if (_sims[g]->role() != want)
            sim::fatal("ServingEventDriver: replica ", g,
                       " role does not match the disaggregated "
                       "topology (pool split at ",
                       topology.prefillReplicas, ")");
    }
    _disagg = true;
    _topology = topology;
    _inFlightTo.assign(_sims.size(), 0);
}

std::uint32_t
ServingEventDriver::pickDecodeReplica() const
{
    const std::uint32_t alive = pickAliveDecodeReplica();
    if (alive != kNoReplica)
        return alive;
    // Whole decode pool down: pick as if healthy (deterministic);
    // the completion event sees the dead target and falls back.
    std::uint32_t best = _topology.prefillReplicas;
    std::uint64_t best_load = ~std::uint64_t{0};
    for (std::uint32_t d = _topology.prefillReplicas;
         d < _sims.size(); ++d) {
        const std::uint64_t load =
            std::uint64_t{_outstanding[d]} + _inFlightTo[d];
        if (load < best_load) {
            best = d;
            best_load = load;
        }
    }
    return best;
}

std::uint32_t
ServingEventDriver::pickAliveDecodeReplica() const
{
    std::uint32_t best = kNoReplica;
    std::uint64_t best_load = ~std::uint64_t{0};
    for (std::uint32_t d = _topology.prefillReplicas;
         d < _sims.size(); ++d) {
        if (_down[d])
            continue;
        const std::uint64_t load =
            std::uint64_t{_outstanding[d]} + _inFlightTo[d];
        if (load < best_load) {
            best = d;
            best_load = load;
        }
    }
    return best;
}

void
ServingEventDriver::fallbackRecompute(
    const llm::TimedRequest &request, double when)
{
    ++_xfer.fallbacks;
    const std::uint32_t d = pickAliveDecodeReplica();
    if (d == kNoReplica) {
        if (!_onUnrecoverable)
            sim::fatal("ServingEventDriver: request ",
                       request.request.id,
                       " lost its KV migration with no alive decode "
                       "replica and no recovery handler installed");
        _onUnrecoverable(request, when);
        return;
    }
    // The decode replica's plain pending path charges the full
    // prompt prefill - the recompute is paid honestly there.
    redeliver(d, request, when);
}

void
ServingEventDriver::drainHandoffs(std::uint32_t g)
{
    if (!_sims[g]->hasHandoffs())
        return;
    if (!_disagg)
        sim::fatal("ServingEventDriver: replica ", g,
                   " handed off prefilled requests but no "
                   "disaggregated topology is configured");
    for (HandoffRecord &h : _sims[g]->takeHandoffs()) {
        // The migration is a timed transfer on the fabric: one
        // message of the handoff's KV block bytes, overlappable
        // with compute on both pools but SERIALIZED on the shared
        // link (a busy-until cursor queues concurrent migrations,
        // so aggregate transfer throughput can never exceed the
        // link's bandwidth). Link slots are reserved in
        // handoff-drain (event) order; a transfer drained later but
        // ready earlier waits its turn, so the model is
        // conservative - it never grants more fabric than exists,
        // at the price of occasional idle gaps. The destination is
        // chosen at handoff time (deterministic: least loaded,
        // lowest index).
        const std::uint32_t d = pickDecodeReplica();
        const double start =
            std::max(h.readySeconds, _linkBusyUntil);
        double link_seconds =
            _topology.transferLink.transferSeconds(h.kvBytes);
        double done = start + link_seconds;
        // Only a window overlapping the transfer changes anything;
        // untouched transfers keep the nominal arithmetic bit-for-
        // bit (a crash-free plan whose windows never engage is
        // byte-identical to no injector at all - pinned).
        for (const sim::LinkFault &w : _linkFaults) {
            if (w.endSeconds > start && w.startSeconds < done) {
                done = sim::degradedTransferEnd(
                    start,
                    _topology.transferLink.latencySeconds +
                        _topology.transferLink
                            .messageOverheadSeconds,
                    static_cast<double>(h.kvBytes),
                    _topology.transferLink.bandwidthBytesPerSec,
                    _linkFaults);
                link_seconds = done - start;
                break;
            }
        }
        if (done - start > _transferTimeoutSeconds) {
            // The fabric is too degraded (or partitioned) to move
            // this KV block in time: abandon the migration, free the
            // link at the timeout, and recompute the prompt on the
            // decode pool instead.
            _linkBusyUntil = start + _transferTimeoutSeconds;
            _xfer.linkSeconds += _transferTimeoutSeconds;
            const llm::TimedRequest req = h.request;
            const double when = start + _transferTimeoutSeconds;
            scheduleGlobal(when, kTransferPriority,
                           [this, req, when] {
                               fallbackRecompute(req, when);
                           });
            continue;
        }
        _linkBusyUntil = done;
        ++_xfer.transfers;
        _xfer.bytes += h.kvBytes;
        _xfer.linkSeconds += link_seconds;
        _xfer.joules +=
            _topology.transferLink.transferJoules(h.kvBytes);
        ++_inFlightTo[d];
        const std::size_t idx = _transferStore.size();
        _transferStore.push_back(
            {h.request, done, h.kvTokens, d});
        scheduleGlobal(done, kTransferPriority, [this, idx] {
            const PendingTransfer &t = _transferStore[idx];
            --_inFlightTo[t.target];
            if (_down[t.target]) {
                // The destination died while the KV was in flight;
                // the migrated bytes landed nowhere.
                fallbackRecompute(t.request, t.doneSeconds);
                return;
            }
            _sims[t.target]->deliverPrefilled(t.request,
                                              t.doneSeconds,
                                              t.kvTokens);
            if (!_sims[t.target]->hasActive())
                idlePoke(t.target);
        });
    }
}

bool
ServingEventDriver::fastPathEligible() const
{
    // Pre-routing requires that routing decisions cannot observe
    // replica state (the caller's declaration) and that no event
    // needs the coordinator mid-stream: disaggregation migrates KV
    // through global transfer events, and batch-level fill rules
    // read the shared undelivered-arrivals counter.
    if (!_routeIndependent || _disagg)
        return false;
    for (ServingSim *s : _sims) {
        if (s->servingOptions().admission ==
            AdmissionPolicy::BatchLevel)
            return false;
    }
    return true;
}

void
ServingEventDriver::preRouteStream(
    const std::vector<llm::TimedRequest> &stream,
    const RouteFn &route)
{
    // Route the whole stream up front, in stream order - the exact
    // call sequence the delivery-time path makes, so stateful-but-
    // state-independent routers (a round-robin cursor) decide
    // identically. Each replica's arrivals then become events on
    // its own shard: one event per burst timestamp delivering that
    // replica's slice (in stream order) and resolving the replica,
    // which is the per-replica projection of the global
    // deliver-burst-then-poke-everyone rule - exact, because a poke
    // of a replica that received nothing is a no-op under
    // token-level admission.
    _preRouted.assign(_sims.size(), {});
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::uint32_t g = route(stream[i]);
        if (g >= _sims.size())
            sim::fatal("ServingEventDriver: route returned "
                       "replica ", g, " of ", _sims.size());
        _preRouted[g].push_back(static_cast<std::uint32_t>(i));
    }
    // All arrivals are accounted for before the clock starts; the
    // shared counter stays untouched by the parallel shards (no
    // batch-level admission on this path reads it).
    _undelivered = 0;
    const llm::TimedRequest *reqs = stream.data();
    for (std::uint32_t g = 0; g < _sims.size(); ++g) {
        const std::vector<std::uint32_t> &order = _preRouted[g];
        const std::uint32_t *ids = order.data();
        for (std::size_t a = 0; a < order.size();) {
            std::size_t b = a + 1;
            while (b < order.size() &&
                   // detlint: allow(float-eq): same-instant burst
                   // grouping compares two copies of one stream
                   // timestamp, never a computed value; bitwise
                   // equality IS the contract.
                   reqs[ids[b]].arrivalSeconds ==
                       reqs[ids[a]].arrivalSeconds)
                ++b;
            scheduleReplica(
                g, reqs[ids[a]].arrivalSeconds, kArrivalPriority,
                [this, g, reqs, ids, a, b] {
                    for (std::size_t k = a; k < b; ++k)
                        _sims[g]->deliver(reqs[ids[k]]);
                    idlePoke(g);
                });
            a = b;
        }
    }
}

void
ServingEventDriver::runQueues()
{
    if (_workerThreads > 1 && _sims.size() > 1) {
        sim::WorkerPool pool(_workerThreads);
        _timeline.run(&pool);
    } else {
        _timeline.run(nullptr);
    }
}

void
ServingEventDriver::runStream(
    const std::vector<llm::TimedRequest> &stream,
    const RouteFn &route)
{
    if (!route)
        sim::fatal("ServingEventDriver: no routing function");
    // Checked once here so the pre-routed fast path rejects an
    // unsorted stream exactly as the generated path does.
    for (std::size_t i = 1; i < stream.size(); ++i) {
        if (stream[i].arrivalSeconds < stream[i - 1].arrivalSeconds)
            sim::fatal("ServingEventDriver: arrivals must be sorted (",
                       stream[i].arrivalSeconds, " after ",
                       stream[i - 1].arrivalSeconds, ")");
    }
    if (!stream.empty() && !fastPathEligible()) {
        // Dynamic routing: the generated path over a vector cursor
        // (a vector and a generator of the same sequence are one
        // run, byte for byte).
        std::size_t next = 0;
        runStreamGenerated([&stream, &next] { return stream[next++]; },
                           stream.size(), route);
        return;
    }
    // Pre-routed fast path (an empty stream just drains).
    _undelivered = stream.size();
    preRouteStream(stream, route);
    runQueues();
    checkDrained();
    _preRouted.clear();
    _preRouted.shrink_to_fit();
}

void
ServingEventDriver::runStreamGenerated(
    const std::function<llm::TimedRequest()> &next,
    std::uint64_t count, const RouteFn &route)
{
    if (!next)
        sim::fatal("ServingEventDriver: no arrival generator");
    if (!route)
        sim::fatal("ServingEventDriver: no routing function");
    if (count == 0)
        sim::fatal("ServingEventDriver: empty generated stream");
    _undelivered = count;

    // One-arrival lookahead: the head is the next burst's first
    // arrival; each burst event delivers the head plus every
    // same-timestamp follower (pulling as it goes), then schedules
    // the next burst at the new head's timestamp. The whole burst
    // is delivered before any replica reacts, so two same-time
    // arrivals to one idle replica prefill as one batch. Chained
    // global events keep arrivals as window barriers (every shard
    // is advanced to just below the burst's key first), so dynamic
    // routing observes exactly the serial-order loads - and only
    // one undelivered arrival ever exists in memory.
    struct GenState
    {
        llm::TimedRequest head;
        bool headValid = false;
        std::uint64_t pullsLeft = 0;
    };
    auto st = std::make_shared<GenState>();
    st->pullsLeft = count;
    st->head = next();
    st->headValid = true;
    --st->pullsLeft;

    auto burst = std::make_shared<std::function<void()>>();
    *burst = [this, st, &next, &route, burst] {
        const double t = st->head.arrivalSeconds;
        for (;;) {
            const llm::TimedRequest r = st->head;
            st->headValid = false;
            const std::uint32_t g = route(r);
            if (g >= _sims.size())
                sim::fatal("ServingEventDriver: route returned "
                           "replica ", g, " of ", _sims.size());
            _sims[g]->deliver(r);
            --_undelivered;
            if (st->pullsLeft == 0)
                break;
            st->head = next();
            st->headValid = true;
            --st->pullsLeft;
            if (st->head.arrivalSeconds < t)
                sim::fatal("ServingEventDriver: generated arrivals "
                           "must be sorted (", st->head.arrivalSeconds,
                           " after ", t, ")");
            // detlint: allow(float-eq): burst boundary test between
            // two generator-produced timestamps; values are carried,
            // never recomputed, so inequality is exact.
            if (st->head.arrivalSeconds != t)
                break; // next burst starts later
        }
        if (st->headValid)
            scheduleGlobal(st->head.arrivalSeconds, kArrivalPriority,
                           [burst] { (*burst)(); });
        pokeIdleReplicas();
    };
    scheduleGlobal(st->head.arrivalSeconds, kArrivalPriority,
                   [burst] { (*burst)(); });
    runQueues();
    *burst = nullptr; // break the self-capture cycle
    checkDrained();
}

void
ServingEventDriver::pokeIdleReplicas()
{
    // Index order mirrors the retired loop's top-of-pass sweep.
    for (std::uint32_t g = 0; g < _sims.size(); ++g) {
        if (!_down[g] && !_sims[g]->hasActive() &&
            (_sims[g]->hasPending() ||
             _sims[g]->preemptedCount() > 0))
            idlePoke(g);
    }
}

void
ServingEventDriver::idlePoke(std::uint32_t g)
{
    ServingSim &s = *_sims[g];
    if (_down[g] || s.hasActive())
        return;
    if (!s.hasPending()) {
        // Only parked (preempted) work remains: resume immediately;
        // there is no arrival to wait for.
        if (s.preemptedCount() > 0 && s.admit() > 0)
            scheduleBoundary(g, nextBoundaryTick(g));
        return;
    }
    const bool batch_level =
        s.servingOptions().admission == AdmissionPolicy::BatchLevel;
    if (!batch_level) {
        // Token-level admission: start right away.
        startBatch(g);
        return;
    }
    // Batch-level admission: start once the batch is full
    // or no further arrival can ever join, otherwise arm the fill
    // timeout for this idle spell.
    if (s.pendingCount() >= s.servingOptions().maxRlp ||
        _undelivered == 0) {
        startBatch(g);
        return;
    }
    if (_deadlineArmed[g])
        return;
    _deadlineArmed[g] = 1;
    const std::uint64_t gen = ++_deadlineGen[g];
    const double deadline = s.firstPendingArrivalSeconds() +
                            s.servingOptions().batchTimeoutSeconds;
    scheduleReplica(g, deadline, kDeadlinePriority, [this, g, gen] {
        if (gen != _deadlineGen[g])
            return; // a batch started since; stale deadline
        _deadlineArmed[g] = 0;
        if (!_sims[g]->hasActive() && _sims[g]->hasPending())
            startBatch(g);
    });
}

void
ServingEventDriver::startBatch(std::uint32_t g)
{
    ++_deadlineGen[g]; // invalidate any outstanding deadline
    _deadlineArmed[g] = 0;
    _sims[g]->stepIdle();
    drainHandoffs(g);
    if (_sims[g]->hasActive()) {
        scheduleBoundary(g, nextBoundaryTick(g));
        return;
    }
    // Prefill-pool replica with non-chunked prefill: the whole
    // admission wave was handed off synchronously. Keep admitting
    // while already-delivered work remains (each pass admits at
    // least one request or stepIdle diagnoses the KV fit).
    if (_sims[g]->hasPending())
        idlePoke(g);
}

sim::Tick
ServingEventDriver::nextBoundaryTick(std::uint32_t g)
{
    const ServingSim &s = *_sims[g];
    return replicaTick(g, s.now() + s.peekIterationSeconds());
}

void
ServingEventDriver::scheduleBoundary(std::uint32_t g, sim::Tick when)
{
    const std::uint64_t gen = _boundaryGen[g];
    replicaQueue(g).schedule(
        when,
        [this, g, gen] {
            if (gen != _boundaryGen[g])
                return; // replica crashed since; stale
            boundary(g);
        },
        boundaryPriority(g));
}

void
ServingEventDriver::boundary(std::uint32_t g)
{
    ServingSim &s = *_sims[g];
    for (;;) {
        s.stepDecode();
        s.admit();
        drainHandoffs(g);
        if (!s.hasActive()) {
            if (s.hasPending() || s.preemptedCount() > 0)
                idlePoke(g);
            return;
        }
        // The next boundary runs in this dispatch when the shard
        // queue proves nothing else - no pending shard event, no
        // global event at the window edge - would run first; the
        // executed order is the scheduled one, minus the round trip.
        // No crash can intervene (faults are global events, which
        // bound the window), so the boundary generation still holds.
        const sim::Tick when = nextBoundaryTick(g);
        if (coordinatorOwned(g) ||
            !_timeline.shard(g).tryRunInline(when,
                                             boundaryPriority(g))) {
            scheduleBoundary(g, when);
            return;
        }
    }
}

void
ServingEventDriver::checkDrained() const
{
    for (std::size_t g = 0; g < _sims.size(); ++g) {
        if (_down[g])
            continue; // never restarted; FaultInjector::finalize
                      // harvests anything still queued as failed
        if (_sims[g]->canStep() || _sims[g]->preemptedCount() > 0 ||
            _sims[g]->hasHandoffs())
            sim::fatal("ServingEventDriver: replica ", g,
                       " still holds work after the event queue "
                       "drained (preempted requests could not be "
                       "re-admitted - KV pool too small?)");
    }
}

} // namespace papi::core
