#include "cluster/fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/serving_events.hh"
#include "sim/logging.hh"

namespace papi::cluster {

namespace {
constexpr std::uint32_t kNone = ~std::uint32_t{0};
} // namespace

FaultInjector::FaultInjector(core::ServingEventDriver &driver,
                             const sim::FaultPlan &plan,
                             const FaultRecoveryOptions &recovery)
    : _driver(driver), _plan(plan), _recovery(recovery)
{
    _plan.validate(
        static_cast<std::uint32_t>(_driver.replicaCount()));
    if (_recovery.maxAttempts == 0)
        sim::fatal("FaultInjector: maxAttempts must be >= 1 (the "
                   "first delivery is an attempt)");
    if (_recovery.retryBackoffSeconds < 0.0)
        sim::fatal("FaultInjector: retry backoff cannot be "
                   "negative");
    if (_recovery.retryBackoffMultiplier < 1.0)
        sim::fatal("FaultInjector: backoff multiplier must be "
                   ">= 1 (backoff never shrinks)");
    if (!(_recovery.transferTimeoutSeconds > 0.0))
        sim::fatal("FaultInjector: transfer timeout must be "
                   "positive");
    _downSince.assign(_driver.replicaCount(), -1.0);
    _stats.downtimeSeconds.assign(_driver.replicaCount(), 0.0);
    _driver.setUnrecoverableHandler(
        [this](const llm::TimedRequest &request, double when) {
            // A KV-migration fallback found no alive decode
            // replica: the prefill-pool work is lost; treat it as a
            // fault loss (the resubmit re-prefills from scratch).
            ++_stats.lostRequests;
            onLost(request, when, request.request.inputLen);
        });
}

void
FaultInjector::arm()
{
    for (const sim::ReplicaFault &f : _plan.replicaFaults) {
        _driver.scheduleAt(f.crashSeconds, [this, f] {
            onCrash(f.replica, f.crashSeconds);
        });
        if (std::isfinite(f.restartSeconds))
            _driver.scheduleAt(f.restartSeconds, [this, f] {
                onRestart(f.replica, f.restartSeconds);
            });
    }
}

bool
FaultInjector::alive(std::uint32_t g) const
{
    return !_driver.isDown(g);
}

void
FaultInjector::onCrash(std::uint32_t g, double when)
{
    if (_driver.isDown(g))
        return; // plan crashed an already-dark replica
    ++_stats.crashes;
    _downSince[g] = when;
    std::vector<core::LostRequest> lost =
        _driver.crashReplica(g, when);
    _stats.lostRequests += lost.size();
    for (const core::LostRequest &l : lost)
        onLost(l.request, when,
               static_cast<std::uint64_t>(l.prefillLostTokens) +
                   l.generatedLost);
}

void
FaultInjector::onRestart(std::uint32_t g, double when)
{
    if (!_driver.isDown(g))
        return;
    ++_stats.restarts;
    _stats.downtimeSeconds[g] += when - _downSince[g];
    _downSince[g] = -1.0;
    _driver.restartReplica(g, when);
}

void
FaultInjector::onLost(const llm::TimedRequest &request, double when,
                      std::uint64_t recompute_tokens)
{
    if (!_recovery.retryFailedRequests) {
        ++_stats.failedRequests;
        return;
    }
    const std::uint32_t losses = ++_losses[request.request.id];
    if (losses >= _recovery.maxAttempts) {
        ++_stats.failedRequests;
        return;
    }
    const double delay =
        _recovery.retryBackoffSeconds *
        std::pow(_recovery.retryBackoffMultiplier,
                 static_cast<double>(losses - 1));
    const double ready = when + delay;
    ++_stats.retriesScheduled;
    _stats.retryRecomputedTokens += recompute_tokens;
    _driver.scheduleAt(ready, [this, request, ready] {
        resubmit(request, ready);
    });
}

void
FaultInjector::resubmit(const llm::TimedRequest &request,
                        double when)
{
    // Failover routing: least outstanding work among alive replicas
    // on the admission edge (the prefill pool under disaggregation),
    // ties toward the lowest index. Done here rather than through
    // the front-end Router so a retry never advances its
    // round-robin cursor (fresh-arrival routing stays independent
    // of how many retries interleave).
    const std::uint32_t width = _driver.routeWidth();
    std::uint32_t best = kNone;
    std::uint64_t best_load = ~std::uint64_t{0};
    for (std::uint32_t g = 0; g < width; ++g) {
        if (_driver.isDown(g))
            continue;
        const std::uint64_t load = _driver.outstanding(g);
        if (load < best_load) {
            best = g;
            best_load = load;
        }
    }
    if (best == kNone) {
        // Total outage on the admission edge: park the retry at the
        // next planned restart (a same-time restart fires first -
        // it was armed earlier, and insertion order breaks the
        // tie), or give up if nothing ever comes back.
        const double next = nextRestartAfter(when);
        if (!std::isfinite(next)) {
            ++_stats.failedRequests;
            return;
        }
        _driver.scheduleAt(next, [this, request, next] {
            resubmit(request, next);
        });
        return;
    }
    _driver.redeliver(best, request, when);
}

double
FaultInjector::nextRestartAfter(double t) const
{
    double next = std::numeric_limits<double>::infinity();
    for (const sim::ReplicaFault &f : _plan.replicaFaults) {
        if (std::isfinite(f.restartSeconds) &&
            f.restartSeconds > t && f.restartSeconds < next)
            next = f.restartSeconds;
    }
    return next;
}

void
FaultInjector::finalize(double end_seconds)
{
    for (std::uint32_t g = 0; g < _driver.replicaCount(); ++g) {
        if (_downSince[g] < 0.0)
            continue;
        // Never restarted: dark through the end of the run.
        _stats.downtimeSeconds[g] +=
            std::max(0.0, end_seconds - _downSince[g]);
        // Arrivals the total-outage fallback routed here queued and
        // can never be served; harvest them as failed so request
        // conservation (offered = served + failed + shed) holds.
        std::vector<core::LostRequest> stuck =
            _driver.replica(g).crash(end_seconds);
        _stats.lostRequests += stuck.size();
        _stats.failedRequests += stuck.size();
    }
}

} // namespace papi::cluster
