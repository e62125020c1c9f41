/**
 * @file
 * Perf harness for the simulator itself.
 *
 * Measures the hot paths that bound every figure run - event queue
 * throughput, DRAM command replay, and full decode/serving iterations
 * - and emits one machine-readable JSON document (schema below) so CI
 * can archive per-commit trajectories (BENCH_*.json).
 *
 * The event-queue section measures the production queue
 * (sim::EventQueue: one binary heap of small keys over a callback
 * slab) and the original std::function binary-heap implementation
 * (sim::LegacyEventQueue) in the same process and reports the
 * speedup, so a regression in the allocation-free path is visible
 * without checking out an old revision.
 *
 * Usage:
 *   microbench_simulator [--quick] [--legacy-queue] [--out FILE]
 *
 *   --quick         smaller problem sizes (CI smoke mode)
 *   --legacy-queue  event-queue section runs only the legacy heap
 *                   (for A/B against older checkouts)
 *   --out FILE      also write the JSON document to FILE
 *
 * JSON schema (papi-microbench/1):
 *   {
 *     "schema": "papi-microbench/1",
 *     "quick": bool,
 *     "event_queue": {
 *       "events_per_pattern": N,
 *       "patterns": {
 *         "<replay|controller|devices>": {
 *           "new_events_per_sec": x,    // absent with --legacy-queue
 *           "legacy_events_per_sec": x,
 *           "speedup": x                // new / legacy
 *         }, ...
 *       },
 *       "speedup_geomean": x
 *     },
 *     "dram": {
 *       "<stream|pump>": {              // two workload shapes
 *         "requests": n,
 *         "new":    { "wall_seconds": s, "events": n,
 *                     "events_per_sec": x, "requests_per_sec": x },
 *         "legacy": { ... same fields ... },
 *         "speedup": x                  // new/legacy requests_per_sec
 *       }
 *     },
 *     "decode": { "simulated_tokens": n, "iterations": n,
 *                 "wall_seconds": s, "tokens_per_sec": x },
 *     "serving": { "simulated_tokens": n, "iterations": n,
 *                  "wall_seconds": s, "tokens_per_sec": x },
 *     "figure_cell": { "cells": n, "wall_seconds": s },
 *     "policy": { ... },                // papi-policy/1, see below
 *     "cluster": { ... },               // papi-cluster/1, see below
 *     "continuous": { ... },            // papi-continuous/1, below
 *     "disagg": { ... },                // papi-disagg/1, below
 *     "faults": { ... },                // papi-faults/1, below
 *     "parallel": { ... },              // papi-parallel/1, below
 *     "soa": { ... },                   // papi-soa/1, below
 *     "prefix": { ... },                // papi-prefix/1, below
 *     "summary": {                      // absent with --legacy-queue
 *       "event_queue_speedup_geomean": x,
 *       "dram_stream_speedup": x,
 *       "dram_pump_speedup": x,
 *       "overall_speedup_geomean": x    // all five speedups
 *     }
 *   }
 *
 * The "policy" section is its own sub-schema (papi-policy/1): the
 * paper's FC scheduling-policy comparison on the serving workload -
 * identical PAPI hardware, one shared GeneralQa stream, FC dispatch
 * swept over dynamic / always-gpu / always-pim / oracle
 * (docs/BENCHMARKS.md documents every field):
 *   {
 *     "schema": "papi-policy/1",
 *     "model": str,
 *     "arrival": { "trace": str, "rate_rps": x, "requests": n,
 *                  "seed": n, "max_rlp": n, "spec_length": n },
 *     "alpha": x,                       // calibrated threshold
 *     "policies": [
 *       { "policy": str, "dispatch": str,
 *         "makespan_seconds": x, "sim_tokens_per_sec": x,
 *         "mean_latency_seconds": x, "p95_latency_seconds": x,
 *         "reschedules": n, "fc_gpu_iterations": n,
 *         "fc_pim_iterations": n, "energy_joules": x,
 *         "wall_seconds": x }, ...      // dynamic, always-gpu,
 *     ],                                // always-pim, oracle
 *     "dynamic_speedup_vs_always_gpu": x,
 *     "dynamic_speedup_vs_always_pim": x,
 *     "oracle_over_dynamic": x          // <= 1; 1 = oracle-equal
 *   }
 *
 * The "cluster" section is its own sub-schema (papi-cluster/1): a
 * strong-scaling study of the cluster serving layer, one shared
 * arrival stream fanned across N in {1,2,4,8} platforms under
 * least-outstanding routing (docs/BENCHMARKS.md documents every
 * field):
 *   {
 *     "schema": "papi-cluster/1",
 *     "model": str, "policy": str, "tp_degree": n,
 *     "arrival": { "trace": str, "rate_rps": x, "requests": n,
 *                  "seed": n, "max_rlp": n },
 *     "n1_matches_serving_engine": bool, // bit-identity check
 *     "scaling": [
 *       { "platforms": n, "groups": n,
 *         "makespan_seconds": x, "sim_tokens_per_sec": x,
 *         "ttft_p50_seconds": x, "ttft_p95_seconds": x,
 *         "ttft_p99_seconds": x, "tpot_p50_seconds": x,
 *         "tpot_p95_seconds": x, "tpot_p99_seconds": x,
 *         "queueing_mean_seconds": x, "queueing_p99_seconds": x,
 *         "mean_utilization": x, "energy_joules": x,
 *         "wall_seconds": s }, ...      // one entry per N
 *     ]
 *   }
 *
 * The "continuous" section is its own sub-schema
 * (papi-continuous/1): the serving-mode comparison the event-driven
 * core unlocked - static batching (batch-level admission) vs
 * continuous batching (token-level admission + chunked prefill) vs
 * continuous batching under KV pressure with preemption/resume, on
 * one shared stream and one PAPI platform
 * (docs/BENCHMARKS.md documents every field):
 *   {
 *     "schema": "papi-continuous/1",
 *     "model": str,
 *     "arrival": { "trace": str, "rate_rps": x, "requests": n,
 *                  "seed": n, "max_rlp": n },
 *     "prefill_chunk_tokens": n,        // continuous modes
 *     "kv_pool_tokens": n,              // preemption mode only
 *     "modes": [
 *       { "mode": "static|continuous|continuous+preemption",
 *         "admission": "batch-level|token-level",
 *         "makespan_seconds": x, "sim_tokens_per_sec": x,
 *         "ttft_p50_seconds": x, "ttft_p99_seconds": x,
 *         "queueing_mean_seconds": x, "preemptions": n,
 *         "preemption_stall_p99_seconds": x,
 *         "wall_seconds": s }, ...
 *     ],
 *     "continuous_ttft_p99_speedup_vs_static": x,  // > 1 = win
 *     "preemption_count": n             // preemption mode total
 *   }
 *
 * The "disagg" section is its own sub-schema (papi-disagg/1):
 * disaggregated prefill/decode serving vs a colocated cluster of
 * the same total hardware, both running continuous batching with
 * chunked prefill, on a prefill-heavy trace; completed prefills
 * migrate their KV to the decode pool over a modeled link
 * (docs/BENCHMARKS.md documents every field):
 *   {
 *     "schema": "papi-disagg/1",
 *     "model": str,
 *     "arrival": { "trace": "prefill-heavy", "rate_rps": x,
 *                  "requests": n, "seed": n, "max_rlp": n },
 *     "prefill_chunk_tokens": n,
 *     "replicas": n,                    // both modes' total
 *     "prefill_replicas": n, "decode_replicas": n,
 *     "transfer_link": { "name": str, "bandwidth_gbps": x,
 *                        "latency_us": x },
 *     "modes": [
 *       { "mode": "colocated|disaggregated",
 *         "makespan_seconds": x, "sim_tokens_per_sec": x,
 *         "ttft_p50_seconds": x, "ttft_p99_seconds": x,
 *         "tpot_p50_seconds": x, "tpot_p99_seconds": x,
 *         "queueing_mean_seconds": x, "energy_joules": x,
 *         "kv_transfers": n, "kv_transfer_gb": x,
 *         "kv_transfer_seconds": x, "wall_seconds": s }, ...
 *     ],
 *     "disagg_ttft_p99_speedup_vs_colocated": x,  // > 1 = win
 *     "disagg_tpot_p99_speedup_vs_colocated": x,
 *     "kv_transfer_count": n            // disagg-mode migrations
 *   }
 *
 * The "faults" section is its own sub-schema (papi-faults/1): one
 * shared GeneralQa stream on a disaggregated cluster, served under
 * four recovery policies against the same deterministic FaultPlan
 * (a mid-run decode-replica crash with a cold restart): no faults
 * at all, fail-stop (losses dropped), retry with failover, and
 * retry plus SLO-aware load shedding
 * (docs/BENCHMARKS.md documents every field):
 *   {
 *     "schema": "papi-faults/1",
 *     "model": str,
 *     "arrival": { "trace": "general-qa", "rate_rps": x,
 *                  "requests": n, "seed": n, "max_rlp": n },
 *     "prefill_replicas": n, "decode_replicas": n,
 *     "plan": { "victim_replica": n, "crash_seconds": x,
 *               "restart_seconds": x },
 *     "recovery": { "max_attempts": n,
 *                   "retry_backoff_seconds": x,
 *                   "deadline_seconds": x },  // retry+shed only
 *     "no_fault_matches_baseline": bool, // bit-identity check
 *     "modes": [
 *       { "mode": "no-fault|fail-stop|retry|retry+shed",
 *         "requests_offered": n, "requests_served": n,
 *         "failed_requests": n, "shed_requests": n,
 *         "retried_requests": n, "retry_recomputed_tokens": n,
 *         "injected_crashes": n, "replica_restarts": n,
 *         "kv_transfer_fallbacks": n, "makespan_seconds": x,
 *         "goodput_tokens_per_sec": x, "slo_attainment": x,
 *         "ttft_p99_seconds": x, "wall_seconds": s }, ...
 *     ],
 *     "retry_goodput_speedup_vs_failstop": x  // > 1 = win
 *   }
 *
 * The "parallel" section is its own sub-schema (papi-parallel/1):
 * self-speedup of the sharded cluster simulation - one 64-replica
 * round-robin cluster serving one GeneralQa stream at 1, 2, 4, and
 * 8 worker threads, with a bit-identity check of every parallel
 * run against the serial one (the determinism contract
 * tests/parallel_identity_test.cc proves across the feature grid).
 * hardware_threads records what the host can actually run
 * concurrently: tools/check_bench_schema.py requires > 2x
 * self-speedup at 8 workers only when the host has >= 8 hardware
 * threads, but requires parallel_matches_serial unconditionally
 * (docs/BENCHMARKS.md documents every field):
 *   {
 *     "schema": "papi-parallel/1",
 *     "model": str,
 *     "arrival": { "trace": "general-qa", "rate_rps": x,
 *                  "requests": n, "seed": n, "max_rlp": n },
 *     "replicas": n,
 *     "hardware_threads": n,            // host concurrency
 *     "parallel_matches_serial": bool,  // AND over all cells
 *     "workers": [
 *       { "workers": n, "wall_seconds": s,
 *         "speedup_vs_serial": x,       // serial wall / this wall
 *         "matches_serial": bool }, ...
 *     ],
 *     "speedup_at_8_workers": x
 *   }
 *
 * The "soa" section is its own sub-schema (papi-soa/1): the PR-8
 * structure-of-arrays serving core against the frozen pre-SoA
 * reference engine (core/serving_reference.hh) in the same binary,
 * both driven through the identical decode-heavy episode stream on
 * their own Platform. The episode is re-delivered with shifted
 * arrival times so batch compositions repeat - the SoA plan memo
 * serves repeat iterations from cache the way a steady-state
 * serving deployment would, while the reference re-derives every
 * plan. Results are compared bitwise (soa_matches_reference), and
 * the compiler flags + SIMD ISA width the binary was built with are
 * recorded so archived trajectories are comparable
 * (docs/BENCHMARKS.md documents every field):
 *   {
 *     "schema": "papi-soa/1",
 *     "model": str,
 *     "workload": { "trace": "uniform", "requests": n,
 *                   "episodes": n, "input_len": n, "output_len": n,
 *                   "max_rlp": n, "spec_length": 1 },
 *     "build": { "compiler_flags": str, "simd_width_bits": n,
 *                "native_build": bool },
 *     "soa":       { "simulated_tokens": n, "iterations": n,
 *                    "wall_seconds": s, "tokens_per_sec": x },
 *     "reference": { ... same fields ... },
 *     "soa_matches_reference": bool,    // bitwise result equality
 *     "speedup": x                      // soa / reference tok/s
 *   }
 *
 * The "prefix" section is its own sub-schema (papi-prefix/1): the
 * shared prefix-cache study. Cell A replays one multi-turn agentic
 * stream (llm::TraceCategory::AgenticLoop, every turn keyed with its
 * session's prefix identity) through a 4-replica cluster with the
 * prefix cache on, under round-robin vs session-affinity vs
 * cache-hit-aware routing - the p99-TTFT and hit-rate comparison the
 * cache-hit-aware policy exists for. Cell B is the million-request
 * streaming cell: ClusterEngine::runStream() over a pull-based
 * generator (no materialized trace) with
 * ClusterOptions::recordCapacity bounding the metrics side, and the
 * process peak RSS sampled before/after so CI can pin the
 * constant-memory claim (docs/BENCHMARKS.md documents every field):
 *   {
 *     "schema": "papi-prefix/1",
 *     "model": str,
 *     "arrival": { "trace": "agentic", "rate_rps": x,
 *                  "requests": n, "seed": n, "max_rlp": n },
 *     "prefill_chunk_tokens": n, "replicas": n,
 *     "policies": [
 *       { "policy": str, "makespan_seconds": x,
 *         "ttft_p50_seconds": x, "ttft_p99_seconds": x,
 *         "prefix_lookups": n, "prefix_hits": n, "hit_rate": x,
 *         "prefix_hit_tokens": n, "prefix_miss_tokens": n,
 *         "prefix_evicted_bytes": n, "wall_seconds": s }, ...
 *     ],                                // round-robin,
 *                                       // session-affinity,
 *                                       // cache-hit-aware
 *     "cache_hit_aware_ttft_p99_speedup_vs_round_robin": x,
 *     "cache_hit_aware_hit_rate": x,
 *     "streaming": {
 *       "trace": str, "rate_rps": x, "requests": n, "seed": n,
 *       "replicas": n, "max_rlp": n, "record_capacity": n,
 *       "requests_served": n, "stats_truncated": bool,
 *       "records_retained": n, "ttft_p99_seconds": x,
 *       "mean_latency_seconds": x, "wall_seconds": s,
 *       "requests_per_sec": x, "rss_before_mb": x,
 *       "rss_peak_mb": x, "rss_growth_mb": x
 *     }
 *   }
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/legacy_dram.hh"
#include "cluster/cluster_engine.hh"
#include "core/decode_engine.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "core/serving_reference.hh"
#include "core/threshold_calibrator.hh"
#include "dram/controller.hh"
#include "llm/arrival.hh"
#include "llm/trace.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace papi;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Process-lifetime peak RSS in MiB (getrusage; monotonic, so the
 * delta across a run is the memory that run's high-water mark added
 * on top of everything before it). 0.0 where unavailable.
 */
double
peakRssMb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
#else
    return 0.0;
#endif
}

/**
 * Event payload representative of device events: a few words of
 * captured state (32 bytes) and a touch of an accumulator. Well
 * inside EventCallback's inline buffer; past std::function's.
 */
struct Payload
{
    std::uint64_t *acc;
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t c;
};

/**
 * Command-replay pattern (GemvEngine-style): phases that schedule a
 * burst of closely spaced commands from the current time and drain
 * them before the next burst.
 */
template <typename Queue>
double
runReplay(std::uint64_t n)
{
    constexpr std::uint64_t phases = 16;
    const std::uint64_t per_phase = n / phases;
    std::uint64_t acc = 0;
    auto start = Clock::now();
    Queue q;
    for (std::uint64_t ph = 0; ph < phases; ++ph) {
        const sim::Tick base = q.now();
        for (std::uint64_t i = 0; i < per_phase; ++i) {
            Payload p{&acc, i, i ^ 0x9e3779b9, i * 3};
            q.schedule(base + i * 8,
                       [p] { *p.acc += p.a + p.b + p.c; });
        }
        q.run();
    }
    double wall = secondsSince(start);
    if (q.executed() != phases * per_phase || acc == 0)
        std::fprintf(stderr, "replay: bad drain\n");
    return static_cast<double>(phases * per_phase) / wall;
}

/**
 * Controller pattern: a fixed population of in-flight requests, each
 * completion scheduling a successor at a random bounded offset (the
 * same precomputed offset stream for both implementations). Like the
 * production MemController, every completion event carries the
 * request's user callback - a std::function - in its capture, which
 * is exactly the event shape that dominates DRAM-heavy runs.
 */
template <typename Queue>
struct ControllerDriver
{
    Queue *q;
    const sim::Tick *offsets;
    std::uint64_t next = 0;
    std::uint64_t total = 0;
    std::uint64_t acc = 0;

    void
    fire(sim::Tick arrival,
         const std::function<void(sim::Tick)> &on_complete)
    {
        on_complete(q->now() - arrival);
        if (next < total) {
            sim::Tick off = offsets[next++];
            ControllerDriver *d = this;
            std::uint64_t *acc_p = &acc;
            std::function<void(sim::Tick)> cb =
                [acc_p](sim::Tick lat) { *acc_p += lat; };
            q->scheduleAfter(
                off, [d, arrival = q->now(),
                      cb = std::move(cb)] { d->fire(arrival, cb); });
        }
    }
};

template <typename Queue>
double
runController(std::uint64_t n)
{
    // In-flight population sized to the modeled platform: 90 HBM
    // devices x 16 pseudo-channel controllers keeping requests in flight.
    constexpr std::uint64_t inflight = 1024;
    sim::Rng rng(12345);
    std::vector<sim::Tick> offsets(n);
    for (auto &t : offsets)
        t = static_cast<sim::Tick>(rng.uniformInt(64, 1 << 15));

    auto start = Clock::now();
    Queue q;
    ControllerDriver<Queue> d{&q, offsets.data()};
    d.total = n > inflight ? n - inflight : 0;
    std::uint64_t *acc_p = &d.acc;
    std::function<void(sim::Tick)> cb = [acc_p](sim::Tick lat) {
        *acc_p += lat;
    };
    for (std::uint64_t i = 0; i < inflight && i < n; ++i) {
        ControllerDriver<Queue> *dp = &d;
        q.schedule(i, [dp, i, cb] { dp->fire(i, cb); });
    }
    q.run();
    double wall = secondsSince(start);
    if (q.executed() != n)
        std::fprintf(stderr, "controller: bad drain\n");
    return static_cast<double>(n) / wall;
}

/**
 * Device pattern: 1024 clocked devices (the platform models 90 HBM
 * stacks x 16 pseudo-channel sequencers) each re-scheduling
 * themselves at a device-specific period, the way engines drive the
 * queue.
 */
template <typename Queue>
struct DeviceChain
{
    Queue *q;
    std::uint64_t left;
    sim::Tick period;
    std::uint64_t acc;

    void
    fire(std::uint64_t salt)
    {
        acc += period + salt;
        if (--left > 0) {
            DeviceChain *c = this;
            Payload p{&acc, period, left, salt};
            q->scheduleAfter(period, [c, p] { c->fire(p.c + 1); });
        }
    }
};

template <typename Queue>
double
runDevices(std::uint64_t n)
{
    constexpr std::uint64_t chains = 1024;
    auto start = Clock::now();
    Queue q;
    std::vector<DeviceChain<Queue>> cs(chains);
    for (std::uint64_t i = 0; i < chains; ++i) {
        cs[i] = DeviceChain<Queue>{&q, n / chains, 100 + 37 * i, 0};
        DeviceChain<Queue> *c = &cs[i];
        q.schedule(i, [c] { c->fire(0); });
    }
    q.run();
    double wall = secondsSince(start);
    return static_cast<double>(q.executed()) / wall;
}

/** Results of one DRAM streaming run (new or legacy path). */
struct DramResult
{
    double wall = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double reqsPerSec = 0.0;
};

/**
 * End-to-end DRAM comparison: the same request stream through the
 * production path (sim::EventQueue + batched MemController) and
 * through the reconstructed pre-change path (binary-heap queue +
 * polling controller, bench::LegacyMemController). Same simulated
 * work, so requests/sec compares the simulator implementations
 * directly. Two workload shapes:
 *
 *  - "stream": the whole request list enqueued up front (FCFS,
 *    unbounded queue), the shape kernel replays produce. Exercises
 *    the per-command event path.
 *  - "pump": a completion-driven client keeping the 64-deep FR-FCFS
 *    queue full, the shape online serving produces. Exercises
 *    service-event management (the pre-change implementation's
 *    superseded-event pathology shows up here).
 */
void
benchDram(std::uint64_t n, DramResult &stream_new,
          DramResult &stream_legacy, DramResult &pump_new,
          DramResult &pump_legacy)
{
    // The pump shape simulates far more events per request on the
    // pre-change path, so it runs a smaller request count.
    const std::uint64_t pump_n = n / 8;

    auto finish = [](auto &eq, std::uint64_t done, std::uint64_t want,
                     DramResult &out, Clock::time_point start,
                     const char *label) {
        out.wall = secondsSince(start);
        if (done != want)
            std::fprintf(stderr, "%s: bad drain (%llu)\n", label,
                         static_cast<unsigned long long>(done));
        out.events = eq.executed();
        out.eventsPerSec =
            static_cast<double>(eq.executed()) / out.wall;
        out.reqsPerSec = static_cast<double>(want) / out.wall;
    };

    auto stream = [&](auto &ctrl, auto &eq, DramResult &out,
                      const char *label) {
        auto start = Clock::now();
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            dram::MemRequest r;
            r.addr = i * 32;
            r.isWrite = (i % 7 == 0);
            r.onComplete = [&done](sim::Tick) { ++done; };
            ctrl.enqueue(std::move(r));
        }
        eq.run();
        finish(eq, done, n, out, start, label);
    };

    auto pump = [&](auto &ctrl, auto &eq, DramResult &out,
                    const char *label) {
        auto start = Clock::now();
        std::uint64_t next = 0;
        std::uint64_t done = 0;
        std::function<void()> refill = [&] {
            while (next < pump_n) {
                dram::MemRequest r;
                r.addr = next * 32;
                r.isWrite = (next % 7 == 0);
                r.onComplete = [&](sim::Tick) {
                    ++done;
                    refill();
                };
                if (!ctrl.enqueue(std::move(r)))
                    break;
                ++next;
            }
        };
        refill();
        eq.run();
        finish(eq, done, pump_n, out, start, label);
    };

    {
        sim::EventQueue eq;
        dram::MemController ctrl(eq, dram::hbm3Spec(),
                                 dram::SchedulingPolicy::Fcfs,
                                 dram::MappingPolicy::RoCoBaBg, 0);
        ctrl.setRefreshEnabled(false);
        stream(ctrl, eq, stream_new, "dram stream new");
    }
    {
        sim::LegacyEventQueue eq;
        bench::LegacyMemController ctrl(
            eq, dram::hbm3Spec(), 0, dram::SchedulingPolicy::Fcfs);
        stream(ctrl, eq, stream_legacy, "dram stream legacy");
    }
    {
        sim::EventQueue eq;
        dram::MemController ctrl(eq, dram::hbm3Spec(),
                                 dram::SchedulingPolicy::FrFcfs,
                                 dram::MappingPolicy::RoCoBaBg, 64);
        ctrl.setRefreshEnabled(false);
        pump(ctrl, eq, pump_new, "dram pump new");
    }
    {
        sim::LegacyEventQueue eq;
        bench::LegacyMemController ctrl(eq, dram::hbm3Spec(), 64);
        pump(ctrl, eq, pump_legacy, "dram pump legacy");
    }
}

/** Static-batch decode loop throughput in simulated tokens/sec. */
void
benchDecode(std::uint32_t reps, std::uint64_t &tokens,
            std::uint64_t &iters, double &wall)
{
    core::Platform papi_sys(core::makePapiConfig());
    llm::ModelConfig model = llm::llama65b();
    double alpha =
        core::ThresholdCalibrator::calibrate(papi_sys, model).alpha;
    core::DecodeEngine engine(papi_sys);
    llm::SpeculativeConfig spec;
    spec.length = 2;

    tokens = 0;
    iters = 0;
    auto start = Clock::now();
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        llm::TraceGenerator gen(llm::TraceCategory::CreativeWriting,
                                42 + rep);
        llm::Batch batch(gen.generate(64), model);
        core::RunOptions opt;
        opt.alpha = alpha;
        opt.seed = rep + 1;
        core::RunResult r = engine.run(batch, spec, model, opt);
        tokens += r.tokensGenerated;
        iters += r.iterations;
    }
    wall = secondsSince(start);
}

/** Arrival-driven serving loop throughput in simulated tokens/sec. */
void
benchServing(std::uint32_t reps, std::uint64_t &tokens,
             std::uint64_t &iters, double &wall)
{
    core::Platform papi_sys(core::makePapiConfig());
    llm::ModelConfig model = llm::llama65b();
    core::ServingEngine engine(papi_sys);
    llm::SpeculativeConfig spec;
    spec.length = 4;

    tokens = 0;
    iters = 0;
    auto start = Clock::now();
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        llm::TraceGenerator gen(llm::TraceCategory::GeneralQa,
                                7 + rep);
        auto reqs = gen.generate(96);
        std::vector<llm::TimedRequest> stream;
        stream.reserve(reqs.size());
        double t = 0.0;
        for (auto &r : reqs) {
            llm::TimedRequest tr;
            tr.request = r;
            tr.arrivalSeconds = t;
            t += 0.02;
            stream.push_back(tr);
        }
        core::ServingOptions opt;
        opt.maxRlp = 32;
        opt.alpha = 24.0;
        opt.seed = rep + 1;
        core::ServingResult r =
            engine.run(stream, spec, model, opt);
        tokens += r.tokensGenerated;
        iters += r.iterations;
    }
    wall = secondsSince(start);
}

/** Wall-clock of representative figure cells (fig08-style). */
void
benchFigureCells(std::uint32_t &cells, double &wall)
{
    core::Platform base(core::makeA100AttAccConfig());
    core::Platform papi_sys(core::makePapiConfig());
    core::DecodeEngine e_base(base), e_papi(papi_sys);
    llm::ModelConfig model = llm::llama65b();
    double alpha =
        core::ThresholdCalibrator::calibrate(papi_sys, model).alpha;

    cells = 0;
    auto start = Clock::now();
    for (std::uint32_t spec_len : {1u, 2u, 4u}) {
        for (std::uint32_t batch_size : {4u, 16u, 64u}) {
            llm::SpeculativeConfig spec;
            spec.length = spec_len;
            for (auto *engine : {&e_base, &e_papi}) {
                llm::TraceGenerator gen(
                    llm::TraceCategory::CreativeWriting, 42);
                llm::Batch batch(gen.generate(batch_size), model);
                core::RunOptions opt;
                opt.alpha = alpha;
                engine->run(batch, spec, model, opt);
                ++cells;
            }
        }
    }
    wall = secondsSince(start);
}

struct PatternResult
{
    const char *name;
    double newRate = 0.0;
    double legacyRate = 0.0;
};

/** One FC-policy cell of the papi-policy/1 section. */
struct PolicyCell
{
    const char *policy = nullptr; ///< fcPolicyName of the cell.
    std::string dispatch;         ///< Resolved dispatch policy.
    core::ServingResult result;
    double wall = 0.0;
};

/** Inputs and outcomes of the FC-policy sweep. */
struct PolicyBench
{
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t maxRlp = 0;
    std::uint32_t specLength = 0;
    std::uint64_t seed = 0;
    double alpha = 0.0;
    std::vector<PolicyCell> cells;
};

/**
 * The paper's scheduling-policy comparison on the serving workload:
 * identical PAPI hardware, one shared GeneralQa Poisson stream, FC
 * dispatch swept over Dynamic / AlwaysGpu / AlwaysPim / Oracle.
 * Reports simulated serving quality per policy (the dynamic
 * threshold should sit between the static extremes and track the
 * oracle) plus harness wall-clock per cell.
 */
PolicyBench
benchPolicy(bool quick)
{
    PolicyBench out;
    out.rateRps = 80.0;
    out.requests = quick ? 64 : 192;
    out.maxRlp = 32;
    out.specLength = 2;
    out.seed = 11;

    llm::ModelConfig model = llm::llama65b();
    {
        core::Platform reference(core::makePapiConfig());
        out.alpha = core::ThresholdCalibrator::calibrate(reference,
                                                         model)
                        .alpha;
    }
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 out.rateRps, out.seed);
    auto stream = arrivals.generate(out.requests);
    llm::SpeculativeConfig spec;
    spec.length = out.specLength;
    core::ServingOptions opt;
    opt.maxRlp = out.maxRlp;
    opt.alpha = out.alpha;
    opt.seed = 3;

    for (core::FcPolicy policy :
         {core::FcPolicy::Dynamic, core::FcPolicy::AlwaysGpu,
          core::FcPolicy::AlwaysPim, core::FcPolicy::Oracle}) {
        core::PlatformConfig cfg = core::makePapiConfig();
        cfg.fcPolicy = policy;
        core::Platform platform(cfg);
        auto start = Clock::now();
        PolicyCell cell;
        cell.policy = core::fcPolicyName(policy);
        cell.dispatch = core::dispatchPolicyName(
            platform.dispatchPolicy(core::Phase::Fc));
        cell.result = core::ServingEngine(platform).run(stream, spec,
                                                        model, opt);
        cell.wall = secondsSince(start);
        out.cells.push_back(std::move(cell));
    }
    return out;
}

/** One strong-scaling cell of the papi-cluster/1 section. */
struct ClusterCell
{
    std::uint32_t platforms = 0;
    cluster::ClusterResult result;
    double wall = 0.0;
};

/** Inputs and outcomes of the cluster scaling study. */
struct ClusterBench
{
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t maxRlp = 0;
    std::uint64_t seed = 0;
    bool n1Match = false;
    std::vector<ClusterCell> cells;
};

/**
 * Strong scaling of the cluster serving layer: one shared GeneralQa
 * Poisson stream across N in {1,2,4,8} platforms under
 * least-outstanding routing, plus the N=1 bit-identity check
 * against the bare ServingEngine (the contract that anchors the
 * scale axis to the validated single-platform simulation).
 */
ClusterBench
benchCluster(bool quick)
{
    ClusterBench out;
    out.rateRps = 120.0;
    out.requests = quick ? 96 : 256;
    out.maxRlp = 32;
    out.seed = 7;

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    core::Platform reference(cfg);
    double alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;

    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 out.rateRps, out.seed);
    auto stream = arrivals.generate(out.requests);
    llm::SpeculativeConfig spec;

    cluster::ClusterOptions opt;
    opt.policy = cluster::RouterPolicy::LeastOutstanding;
    opt.serving.alpha = alpha;
    opt.serving.maxRlp = out.maxRlp;

    for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
        opt.numPlatforms = n;
        cluster::ClusterEngine engine(cfg, opt);
        auto start = Clock::now();
        ClusterCell cell;
        cell.platforms = n;
        cell.result = engine.run(stream, spec, model);
        cell.wall = secondsSince(start);
        out.cells.push_back(std::move(cell));
    }

    core::ServingResult single =
        core::ServingEngine(reference).run(stream, spec, model,
                                           opt.serving);
    const core::ServingResult &n1 = out.cells[0].result.perGroup[0];
    out.n1Match = single.makespanSeconds == n1.makespanSeconds &&
                  single.energyJoules == n1.energyJoules &&
                  single.tokensGenerated == n1.tokensGenerated &&
                  single.iterations == n1.iterations &&
                  single.meanLatencySeconds ==
                      n1.meanLatencySeconds &&
                  single.p95LatencySeconds == n1.p95LatencySeconds;
    return out;
}

/** One serving-mode cell of the papi-continuous/1 section. */
struct ContinuousCell
{
    const char *mode = nullptr;      ///< Section mode label.
    const char *admission = nullptr; ///< Admission-policy label.
    cluster::ClusterResult result;
    double wall = 0.0;
};

/** Inputs and outcomes of the serving-mode comparison. */
struct ContinuousBench
{
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t maxRlp = 0;
    std::uint32_t chunkTokens = 0;
    std::uint64_t seed = 0;
    std::uint64_t kvPoolTokens = 0;
    std::vector<ContinuousCell> cells;
};

/**
 * The serving-mode comparison the event-driven core unlocked:
 * static batching (batch-level admission, the paper's Section
 * 3.2(c) baseline) vs continuous batching (token-level admission
 * with chunked prefill) vs continuous batching under forced KV
 * pressure with preemption/resume. One shared GeneralQa stream, one
 * PAPI platform behind the cluster driver (N=1), so TTFT/queueing
 * percentiles come from the same aggregation path production runs
 * use. Continuous batching must beat static on p99 TTFT - the
 * headline ratio is emitted as its own key.
 */
ContinuousBench
benchContinuous(bool quick)
{
    ContinuousBench out;
    out.rateRps = 150.0;
    out.requests = quick ? 64 : 192;
    out.maxRlp = 16;
    out.chunkTokens = 64;
    out.seed = 13;
    out.kvPoolTokens = 2048;

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    core::Platform reference(cfg);
    // Threshold calibrated once; shared by all three modes.
    double alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 out.rateRps, out.seed);
    auto stream = arrivals.generate(out.requests);
    llm::SpeculativeConfig spec;

    auto run_mode = [&](const char *mode, const char *admission,
                        const core::ServingOptions &sopt) {
        cluster::ClusterOptions copt;
        copt.numPlatforms = 1;
        copt.serving = sopt;
        cluster::ClusterEngine engine(cfg, copt);
        auto start = Clock::now();
        ContinuousCell cell;
        cell.mode = mode;
        cell.admission = admission;
        cell.result = engine.run(stream, spec, model);
        cell.wall = secondsSince(start);
        out.cells.push_back(std::move(cell));
    };

    core::ServingOptions base;
    base.maxRlp = out.maxRlp;
    base.alpha = alpha;
    base.seed = 3;

    core::ServingOptions stat = base;
    stat.admission = core::AdmissionPolicy::BatchLevel;
    stat.batchTimeoutSeconds = 0.05;
    run_mode("static", "batch-level", stat);

    core::ServingOptions cont = base;
    cont.prefillChunkTokens = out.chunkTokens;
    run_mode("continuous", "token-level", cont);

    core::ServingOptions preempt = cont;
    preempt.preemptOnKvPressure = true;
    preempt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
        model, out.kvPoolTokens, cfg.numAttnDevices);
    run_mode("continuous+preemption", "token-level", preempt);
    return out;
}

/** One serving-mode cell of the papi-disagg/1 section. */
struct DisaggCell
{
    const char *mode = nullptr; ///< "colocated" | "disaggregated".
    cluster::ClusterResult result;
    double wall = 0.0;
};

/** Inputs and outcomes of the disaggregation comparison. */
struct DisaggBench
{
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t maxRlp = 0;
    std::uint32_t chunkTokens = 0;
    std::uint64_t seed = 0;
    std::uint32_t replicas = 0;        ///< Total platforms, both modes.
    std::uint32_t prefillReplicas = 0; ///< Disagg prefill pool.
    std::uint32_t decodeReplicas = 0;  ///< Disagg decode pool.
    interconnect::Link transferLink;
    std::vector<DisaggCell> cells;     ///< colocated, disaggregated.
};

/**
 * Disaggregated vs colocated serving on a prefill-heavy trace
 * (long documents in, terse answers out), same total hardware and
 * the same production serving mode (continuous batching with
 * chunked prefill) on both sides - the only delta is the pool
 * split (routing is least-outstanding in both modes). Colocated
 * replicas interleave prompt chunks with decode iterations, so
 * every prompt's completion stretches by the decode work sharing
 * its iterations and every decode iteration carries prefill
 * chunks; dedicated pools remove both interferences at the price
 * of a per-request KV migration costed over the transfer link.
 * Disaggregated must win p99 TTFT - that ratio is enforced by
 * tools/check_bench_schema.py; the TPOT ratio is informational
 * (median improves, the tail is set by decode batch depth).
 */
DisaggBench
benchDisagg(bool quick)
{
    DisaggBench out;
    out.rateRps = 45.0;
    out.requests = quick ? 96 : 192;
    out.maxRlp = 16;
    out.chunkTokens = 32;
    out.seed = 7;
    out.replicas = 4;
    out.prefillReplicas = 2;
    out.decodeReplicas = 2;

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    core::Platform reference(cfg);
    double alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;
    llm::ArrivalProcess arrivals(llm::TraceCategory::PrefillHeavy,
                                 out.rateRps, out.seed);
    auto stream = arrivals.generate(out.requests);
    llm::SpeculativeConfig spec;

    cluster::ClusterOptions base;
    base.policy = cluster::RouterPolicy::LeastOutstanding;
    base.serving.alpha = alpha;
    base.serving.maxRlp = out.maxRlp;
    base.serving.prefillChunkTokens = out.chunkTokens;

    auto run_mode = [&](const char *mode,
                        const cluster::ClusterOptions &opt) {
        cluster::ClusterEngine engine(cfg, opt);
        auto start = Clock::now();
        DisaggCell cell;
        cell.mode = mode;
        cell.result = engine.run(stream, spec, model);
        cell.wall = secondsSince(start);
        out.cells.push_back(std::move(cell));
    };

    cluster::ClusterOptions coloc = base;
    coloc.numPlatforms = out.replicas;
    run_mode("colocated", coloc);

    cluster::ClusterOptions disagg = base;
    disagg.disagg.enabled = true;
    disagg.disagg.prefillReplicas = out.prefillReplicas;
    disagg.disagg.decodeReplicas = out.decodeReplicas;
    // Hold routing equal to the colocated baseline: the pool split
    // must be the only delta between the two modes.
    disagg.disagg.prefillPolicy =
        cluster::RouterPolicy::LeastOutstanding;
    out.transferLink = disagg.disagg.transferLink;
    run_mode("disaggregated", disagg);
    return out;
}

/** One recovery-policy cell of the papi-faults/1 section. */
struct FaultCell
{
    /** "no-fault" | "fail-stop" | "retry" | "retry+shed". */
    const char *mode = nullptr;
    cluster::ClusterResult result;
    double wall = 0.0;
};

/** Inputs and outcomes of the failure-recovery comparison. */
struct FaultBench
{
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t maxRlp = 0;
    std::uint32_t chunkTokens = 0;
    std::uint64_t seed = 0;
    std::uint32_t prefillReplicas = 0;
    std::uint32_t decodeReplicas = 0;
    std::uint32_t victimReplica = 0; ///< Crashed replica index.
    double crashSeconds = 0.0;
    double restartSeconds = 0.0;
    double deadlineSeconds = 0.0; ///< retry+shed TTFT deadline.
    cluster::FaultRecoveryOptions recovery;
    /** Bitwise: arming a never-engaged crash-free plan changed
     *  nothing (the fault machinery is free until a fault fires). */
    bool noFaultMatchesBaseline = false;
    std::vector<FaultCell> cells; ///< no-fault, fail-stop, retry,
                                  ///< retry+shed.
};

/** Key cluster aggregates compared bitwise (no tolerance). */
bool
clusterBitwiseEqual(const cluster::ClusterResult &a,
                    const cluster::ClusterResult &b)
{
    return a.makespanSeconds == b.makespanSeconds &&
           a.energyJoules == b.energyJoules &&
           a.tokensGenerated == b.tokensGenerated &&
           a.requestsServed == b.requestsServed &&
           a.ttft.p99 == b.ttft.p99 && a.tpot.p99 == b.tpot.p99 &&
           a.kvTransferSeconds == b.kvTransferSeconds &&
           a.goodputTokensPerSecond == b.goodputTokensPerSecond &&
           a.sloAttainment == b.sloAttainment;
}

/**
 * Failure recovery under one deterministic FaultPlan: the same
 * GeneralQa stream on a disaggregated 2+2 cluster, with the first
 * decode replica fail-stopping mid-run and cold-restarting half a
 * second later. Four recovery policies serve the identical fault
 * schedule: no plan at all (the baseline, plus a bitwise check that
 * arming a never-engaged crash-free plan changes nothing),
 * fail-stop (every request the crash harvests is dropped - lowest
 * goodput), retry with failover (losses re-prefill through the
 * prefill pool and migrate to the surviving decode replica), and
 * retry with an SLO deadline that sheds requests whose TTFT target
 * already passed while queued. Retry must beat fail-stop on goodput
 * - that ratio is enforced by tools/check_bench_schema.py.
 */
FaultBench
benchFaults(bool quick)
{
    FaultBench out;
    out.rateRps = 60.0;
    out.requests = quick ? 96 : 192;
    out.maxRlp = 16;
    out.chunkTokens = 32;
    out.seed = 11;
    out.prefillReplicas = 2;
    out.decodeReplicas = 2;
    out.victimReplica = 2; // first decode replica
    out.crashSeconds = 0.7;
    out.restartSeconds = 1.0;
    out.deadlineSeconds = 1.5;
    out.recovery.retryBackoffSeconds = 0.02;

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    core::Platform reference(cfg);
    double alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 out.rateRps, out.seed);
    auto stream = arrivals.generate(out.requests);
    llm::SpeculativeConfig spec;

    cluster::ClusterOptions base;
    base.serving.alpha = alpha;
    base.serving.maxRlp = out.maxRlp;
    base.serving.prefillChunkTokens = out.chunkTokens;
    base.disagg.enabled = true;
    base.disagg.prefillReplicas = out.prefillReplicas;
    base.disagg.decodeReplicas = out.decodeReplicas;
    base.disagg.prefillPolicy =
        cluster::RouterPolicy::LeastOutstanding;
    base.recovery = out.recovery;

    auto run_mode = [&](const char *mode,
                        const cluster::ClusterOptions &opt) {
        cluster::ClusterEngine engine(cfg, opt);
        auto start = Clock::now();
        FaultCell cell;
        cell.mode = mode;
        cell.result = engine.run(stream, spec, model);
        cell.wall = secondsSince(start);
        out.cells.push_back(std::move(cell));
    };

    run_mode("no-fault", base);

    // Crash-free plan whose single link window sits far past the
    // run: the injector arms but nothing ever fires, so the result
    // must stay bitwise equal to the unarmed baseline.
    cluster::ClusterOptions ghost = base;
    ghost.faults.linkFaults.push_back({1.0e6, 1.0e6 + 1.0, 0.0});
    cluster::ClusterResult armed =
        cluster::ClusterEngine(cfg, ghost).run(stream, spec, model);
    out.noFaultMatchesBaseline =
        clusterBitwiseEqual(out.cells[0].result, armed);

    cluster::ClusterOptions faulty = base;
    faulty.faults.replicaFaults.push_back(
        {out.victimReplica, out.crashSeconds, out.restartSeconds});

    cluster::ClusterOptions failstop = faulty;
    failstop.recovery.retryFailedRequests = false;
    run_mode("fail-stop", failstop);

    run_mode("retry", faulty);

    cluster::ClusterOptions shed = faulty;
    shed.serving.deadlineSeconds = out.deadlineSeconds;
    run_mode("retry+shed", shed);
    return out;
}

/** One worker-count cell of the papi-parallel/1 section. */
struct ParallelCell
{
    unsigned workers = 0;
    double wall = 0.0;
    bool matchesSerial = false;
};

/** Inputs and outcomes of the parallel self-speedup study. */
struct ParallelBench
{
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t replicas = 0;
    std::uint32_t maxRlp = 0;
    std::uint64_t seed = 0;
    unsigned hardwareThreads = 0;
    bool parallelMatchesSerial = false;
    std::vector<ParallelCell> cells;
};

/**
 * Self-speedup of the sharded cluster simulation: the same
 * 64-replica round-robin cluster and GeneralQa stream at 1, 2, 4,
 * and 8 worker threads. Round-robin routing with no faults takes
 * the driver's pre-routed fast path (zero window barriers), so
 * this measures the parallel ceiling; every parallel cell is also
 * bit-compared against the serial run - the determinism contract
 * the identity harness proves feature-by-feature, re-checked here
 * at bench scale on every run.
 */
ParallelBench
benchParallel(bool quick)
{
    ParallelBench out;
    out.rateRps = 600.0;
    out.requests = quick ? 384 : 1536;
    out.replicas = 64;
    out.maxRlp = 16;
    out.seed = 13;
    out.hardwareThreads = std::thread::hardware_concurrency();

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    core::Platform reference(cfg);
    double alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;

    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 out.rateRps, out.seed);
    auto stream = arrivals.generate(out.requests);
    llm::SpeculativeConfig spec;

    cluster::ClusterOptions opt;
    opt.numPlatforms = out.replicas;
    opt.policy = cluster::RouterPolicy::RoundRobin;
    opt.serving.alpha = alpha;
    opt.serving.maxRlp = out.maxRlp;

    cluster::ClusterResult serial;
    out.parallelMatchesSerial = true;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        opt.workerThreads = workers;
        cluster::ClusterEngine engine(cfg, opt);
        auto start = Clock::now();
        cluster::ClusterResult r = engine.run(stream, spec, model);
        ParallelCell cell;
        cell.workers = workers;
        cell.wall = secondsSince(start);
        if (workers == 1) {
            cell.matchesSerial = true;
            serial = std::move(r);
        } else {
            cell.matchesSerial = clusterBitwiseEqual(serial, r);
            out.parallelMatchesSerial =
                out.parallelMatchesSerial && cell.matchesSerial;
        }
        out.cells.push_back(cell);
    }
    return out;
}

// Build provenance for the papi-soa/1 section: the effective
// optimization flags and the widest SIMD ISA the compiler could
// assume, baked in by CMake (PAPI_BENCH_FLAGS / PAPI_NATIVE_BUILD).
#ifndef PAPI_BENCH_FLAGS
#define PAPI_BENCH_FLAGS "unknown"
#endif
#ifndef PAPI_NATIVE_BUILD
#define PAPI_NATIVE_BUILD 0
#endif
#if defined(__AVX512F__)
constexpr unsigned kSimdWidthBits = 512;
#elif defined(__AVX2__)
constexpr unsigned kSimdWidthBits = 256;
#elif defined(__SSE2__) || defined(__x86_64__)
constexpr unsigned kSimdWidthBits = 128;
#else
constexpr unsigned kSimdWidthBits = 64;
#endif

/** One engine's throughput in the SoA vs reference comparison. */
struct SoaSide
{
    std::uint64_t tokens = 0;
    std::uint64_t iterations = 0;
    double wall = 0.0;

    double
    tokensPerSec() const
    {
        return wall > 0.0 ? static_cast<double>(tokens) / wall : 0.0;
    }
};

/** Inputs and outcomes of the papi-soa/1 section. */
struct SoaBench
{
    std::uint32_t requests = 0; ///< Requests per episode.
    std::uint32_t episodes = 0; ///< Stream re-deliveries.
    std::uint32_t inputLen = 0;
    std::uint32_t outputLen = 0;
    std::uint32_t maxRlp = 0;
    SoaSide soa;
    SoaSide reference;
    bool soaMatchesReference = false;
};

/** Full-result bitwise equality (no tolerance) - the SoA core's
 *  determinism contract against the frozen reference engine. */
bool
servingBitwiseEqual(const core::ServingResult &a,
                    const core::ServingResult &b)
{
    return a.makespanSeconds == b.makespanSeconds &&
           a.energyJoules == b.energyJoules &&
           a.iterations == b.iterations &&
           a.tokensGenerated == b.tokensGenerated &&
           a.admissions == b.admissions &&
           a.reschedules == b.reschedules &&
           a.reschedulesToGpu == b.reschedulesToGpu &&
           a.fcOnGpuIterations == b.fcOnGpuIterations &&
           a.fcOnPimIterations == b.fcOnPimIterations &&
           a.meanLatencySeconds == b.meanLatencySeconds &&
           a.p95LatencySeconds == b.p95LatencySeconds &&
           a.meanRlp == b.meanRlp &&
           a.peakKvUtilization == b.peakKvUtilization &&
           a.preemptions == b.preemptions &&
           a.resumes == b.resumes &&
           a.recomputedPrefillTokens == b.recomputedPrefillTokens &&
           a.evictionStallSeconds == b.evictionStallSeconds &&
           a.swapInducedStallSeconds == b.swapInducedStallSeconds &&
           a.handoffs == b.handoffs &&
           a.prefillHandoffTokens == b.prefillHandoffTokens &&
           a.shedRequests == b.shedRequests &&
           a.evictionOrder == b.evictionOrder;
}

/**
 * Drive one engine through the shared multi-episode workload: the
 * same request stream re-delivered with arrival times shifted past
 * the previous drain (fresh ids, identical relative spacing), so
 * every episode walks the same batch-composition trajectory. The
 * engine is long-lived across episodes - the SoA plan memo carries
 * over, serving repeat iterations from cache exactly as a
 * steady-state deployment's recurring batch shapes would.
 */
template <typename Sim>
core::ServingResult
runSoaSide(const std::vector<llm::TimedRequest> &episode,
           std::uint32_t episodes, const core::ServingOptions &opt,
           SoaSide &out)
{
    core::Platform papi_sys(core::makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    spec.length = 1; // Deterministic advance: episodes repeat exactly.
    Sim sim(papi_sys, spec, model, opt);
    auto start = Clock::now();
    for (std::uint32_t e = 0; e < episodes; ++e) {
        // Both engines reach the same now() after each drain (the
        // determinism contract), so the shifted arrivals - and hence
        // the results being compared bitwise - stay identical.
        const double offset = sim.now();
        const std::uint64_t id_base =
            static_cast<std::uint64_t>(e) * episode.size();
        for (const llm::TimedRequest &tr : episode) {
            llm::TimedRequest t = tr;
            t.request.id += id_base;
            t.arrivalSeconds += offset;
            sim.deliver(t);
        }
        while (sim.canStep())
            sim.step();
    }
    core::ServingResult r = sim.finish();
    out.wall = secondsSince(start);
    out.tokens = r.tokensGenerated;
    out.iterations = r.iterations;
    return r;
}

/**
 * SoA serving core vs the frozen pre-SoA reference
 * (core::refimpl::ReferenceServingSim) on a uniform decode-heavy
 * burst: all requests arrive together, fill the batch to maxRlp,
 * and decode in lockstep to a shared retirement - the steady-state
 * regime the structure-of-arrays hot loops target (the same window
 * tests/serving_zero_alloc_test.cc pins at zero heap traffic).
 */
SoaBench
benchSoa(bool quick)
{
    SoaBench out;
    out.requests = 512;
    out.episodes = quick ? 2 : 32;
    out.inputLen = 64;
    out.outputLen = 688;
    out.maxRlp = 512;

    llm::TraceGenerator gen(llm::TraceCategory::Uniform, 1);
    auto reqs = gen.generateUniform(out.requests, out.inputLen,
                                    out.outputLen);
    std::vector<llm::TimedRequest> episode;
    episode.reserve(reqs.size());
    std::uint64_t id = 1;
    for (const llm::Request &r : reqs) {
        llm::TimedRequest tr;
        tr.request = r;
        tr.request.id = id++;
        tr.arrivalSeconds = 0.0;
        episode.push_back(tr);
    }

    core::ServingOptions opt;
    opt.maxRlp = out.maxRlp;
    opt.alpha = 24.0;
    // One memo key per decode iteration (ctx_sum strictly grows):
    // size the memo past the ~2k-iteration episode so repeat
    // episodes replay their plans from cache (~4 MB per engine;
    // the frozen reference predates the memo and ignores this).
    opt.planMemoSlots = 32768;

    core::ServingResult ref = runSoaSide<core::refimpl::ReferenceServingSim>(
        episode, out.episodes, opt, out.reference);
    core::ServingResult soa = runSoaSide<core::ServingSim>(
        episode, out.episodes, opt, out.soa);
    out.soaMatchesReference = servingBitwiseEqual(soa, ref);
    return out;
}

/** One routing-policy cell of the papi-prefix/1 comparison. */
struct PrefixCell
{
    const char *policy = "";
    cluster::ClusterResult result;
    double wall = 0.0;

    double
    hitRate() const
    {
        return result.prefixLookups > 0
                   ? static_cast<double>(result.prefixHits) /
                         static_cast<double>(result.prefixLookups)
                   : 0.0;
    }
};

/** Inputs and outcomes of the papi-prefix/1 section. */
struct PrefixBench
{
    // Cell A: routing-policy comparison on the agentic trace.
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t replicas = 0;
    std::uint32_t maxRlp = 0;
    std::uint32_t chunkTokens = 0;
    std::uint64_t seed = 0;
    /// round-robin, session-affinity, cache-hit-aware (that order).
    std::vector<PrefixCell> cells;

    // Cell B: the million-request streaming run.
    double streamRateRps = 0.0;
    std::uint64_t streamRequests = 0;
    std::uint64_t streamSeed = 0;
    std::uint32_t streamReplicas = 0;
    std::uint32_t streamMaxRlp = 0;
    std::uint64_t recordCapacity = 0;
    cluster::ClusterResult streamResult;
    double streamWall = 0.0;
    double rssBeforeMb = 0.0;
    double rssPeakMb = 0.0;
};

/**
 * Shared prefix-cache study (papi-prefix/1). Cell A replays one
 * multi-turn agentic stream through a 4-replica cluster with the
 * prefix cache enabled under each routing policy. The arrival rate
 * is deliberately slow: a session's next turn can only hit the cache
 * if its previous turn already retired (publishing its context), so
 * the inter-turn gap (active sessions / rate) must exceed request
 * latency - at bursty rates every turn is admitted before any
 * retires and nothing can hit, regardless of routing. Under these
 * conditions round-robin scatters a session's turns across replicas
 * (the prefix is almost never where the turn lands) while
 * cache-hit-aware routing follows the cached bytes, so the TTFT gap
 * isolates routing quality, not load imbalance.
 *
 * Cell B streams one million GeneralQa requests through
 * ClusterEngine::runStream() - arrivals pulled one at a time from
 * llm::ArrivalProcess::next(), never materialized - with
 * ClusterOptions::recordCapacity bounding per-replica record storage
 * (past the cap, exact streaming counters and P-square estimators
 * carry the aggregates). Peak RSS is sampled before and after: the
 * growth is the cell's memory high-water mark, which must stay flat
 * in request count for the constant-memory claim to hold. The
 * offered rate sits well under the 4-replica capacity so the
 * router's pending queue - the one structure that scales with
 * overload - stays bounded too.
 */
PrefixBench
benchPrefix(bool quick)
{
    PrefixBench out;
    out.rateRps = 2.0;
    out.requests = quick ? 168 : 448;
    out.replicas = 4;
    out.maxRlp = 16;
    out.chunkTokens = 64;
    out.seed = 97;

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;

    llm::ArrivalProcess arrivals(llm::TraceCategory::AgenticLoop,
                                 out.rateRps, out.seed);
    const auto stream = arrivals.generate(out.requests);

    cluster::ClusterOptions opt;
    opt.numPlatforms = out.replicas;
    opt.serving.maxRlp = out.maxRlp;
    opt.serving.prefillChunkTokens = out.chunkTokens;
    opt.serving.prefixCacheEnabled = true;

    const std::pair<cluster::RouterPolicy, const char *> policies[] = {
        {cluster::RouterPolicy::RoundRobin, "round-robin"},
        {cluster::RouterPolicy::SessionAffinity, "session-affinity"},
        {cluster::RouterPolicy::CacheHitAware, "cache-hit-aware"},
    };
    for (const auto &[policy, name] : policies) {
        opt.policy = policy;
        cluster::ClusterEngine engine(cfg, opt);
        PrefixCell cell;
        cell.policy = name;
        auto start = Clock::now();
        cell.result = engine.run(stream, spec, model);
        cell.wall = secondsSince(start);
        out.cells.push_back(std::move(cell));
    }

    out.streamRateRps = 30.0;
    out.streamRequests = 1'000'000;
    out.streamSeed = 101;
    out.streamReplicas = 4;
    out.streamMaxRlp = 16;
    out.recordCapacity = 32768;

    cluster::ClusterOptions sopt;
    sopt.numPlatforms = out.streamReplicas;
    sopt.policy = cluster::RouterPolicy::RoundRobin;
    sopt.serving.maxRlp = out.streamMaxRlp;
    sopt.recordCapacity = out.recordCapacity;

    llm::ArrivalProcess gen(llm::TraceCategory::GeneralQa,
                            out.streamRateRps, out.streamSeed);
    out.rssBeforeMb = peakRssMb();
    cluster::ClusterEngine engine(cfg, sopt);
    auto start = Clock::now();
    out.streamResult =
        engine.runStream(gen, out.streamRequests, spec, model);
    out.streamWall = secondsSince(start);
    out.rssPeakMb = peakRssMb();
    return out;
}

void
writeJson(std::FILE *f, bool quick, bool legacy_only,
          std::uint64_t eq_events,
          const std::vector<PatternResult> &patterns,
          double geomean, std::uint64_t dram_n,
          const DramResult &stream_new,
          const DramResult &stream_legacy, const DramResult &pump_new,
          const DramResult &pump_legacy, std::uint64_t dec_tokens,
          std::uint64_t dec_iters, double dec_wall,
          std::uint64_t srv_tokens, std::uint64_t srv_iters,
          double srv_wall, std::uint32_t fig_cells, double fig_wall,
          const PolicyBench &pb, const ClusterBench &cb,
          const ContinuousBench &nb, const DisaggBench &db,
          const FaultBench &fb, const ParallelBench &xb,
          const SoaBench &sb, const PrefixBench &qb)
{
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"papi-microbench/1\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"event_queue\": {\n");
    std::fprintf(f, "    \"events_per_pattern\": %llu,\n",
                 static_cast<unsigned long long>(eq_events));
    std::fprintf(f, "    \"patterns\": {\n");
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        const auto &p = patterns[i];
        std::fprintf(f, "      \"%s\": {", p.name);
        if (!legacy_only) {
            std::fprintf(f, "\"new_events_per_sec\": %.6e, ",
                         p.newRate);
        }
        std::fprintf(f, "\"legacy_events_per_sec\": %.6e",
                     p.legacyRate);
        if (!legacy_only) {
            std::fprintf(f, ", \"speedup\": %.3f",
                         p.newRate / p.legacyRate);
        }
        std::fprintf(f, "}%s\n",
                     i + 1 < patterns.size() ? "," : "");
    }
    std::fprintf(f, "    }%s\n", legacy_only ? "" : ",");
    if (!legacy_only)
        std::fprintf(f, "    \"speedup_geomean\": %.3f\n", geomean);
    std::fprintf(f, "  },\n");
    auto dram_shape = [f](const char *name, std::uint64_t reqs,
                          const DramResult &nw, const DramResult &lg,
                          const char *trailer) {
        std::fprintf(
            f,
            "    \"%s\": {\"requests\": %llu,\n"
            "      \"new\": {\"wall_seconds\": %.6f, \"events\": "
            "%llu, \"events_per_sec\": %.6e, \"requests_per_sec\": "
            "%.6e},\n"
            "      \"legacy\": {\"wall_seconds\": %.6f, \"events\": "
            "%llu, \"events_per_sec\": %.6e, \"requests_per_sec\": "
            "%.6e},\n"
            "      \"speedup\": %.3f}%s\n",
            name, static_cast<unsigned long long>(reqs), nw.wall,
            static_cast<unsigned long long>(nw.events),
            nw.eventsPerSec, nw.reqsPerSec, lg.wall,
            static_cast<unsigned long long>(lg.events),
            lg.eventsPerSec, lg.reqsPerSec,
            nw.reqsPerSec / lg.reqsPerSec, trailer);
    };
    std::fprintf(f, "  \"dram\": {\n");
    dram_shape("stream", dram_n, stream_new, stream_legacy, ",");
    dram_shape("pump", dram_n / 8, pump_new, pump_legacy, "");
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"decode\": {\"simulated_tokens\": %llu, "
                 "\"iterations\": %llu, \"wall_seconds\": %.6f, "
                 "\"tokens_per_sec\": %.6e},\n",
                 static_cast<unsigned long long>(dec_tokens),
                 static_cast<unsigned long long>(dec_iters), dec_wall,
                 static_cast<double>(dec_tokens) / dec_wall);
    std::fprintf(f,
                 "  \"serving\": {\"simulated_tokens\": %llu, "
                 "\"iterations\": %llu, \"wall_seconds\": %.6f, "
                 "\"tokens_per_sec\": %.6e},\n",
                 static_cast<unsigned long long>(srv_tokens),
                 static_cast<unsigned long long>(srv_iters), srv_wall,
                 static_cast<double>(srv_tokens) / srv_wall);
    std::fprintf(f,
                 "  \"figure_cell\": {\"cells\": %u, "
                 "\"wall_seconds\": %.6f},\n",
                 fig_cells, fig_wall);
    std::fprintf(f, "  \"policy\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-policy/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, \"seed\": "
                 "%llu, \"max_rlp\": %u, \"spec_length\": %u},\n",
                 pb.rateRps, pb.requests,
                 static_cast<unsigned long long>(pb.seed), pb.maxRlp,
                 pb.specLength);
    std::fprintf(f, "    \"alpha\": %.1f,\n", pb.alpha);
    std::fprintf(f, "    \"policies\": [\n");
    for (std::size_t i = 0; i < pb.cells.size(); ++i) {
        const PolicyCell &c = pb.cells[i];
        const core::ServingResult &r = c.result;
        std::fprintf(
            f,
            "      {\"policy\": \"%s\", \"dispatch\": \"%s\",\n"
            "       \"makespan_seconds\": %.6f, "
            "\"sim_tokens_per_sec\": %.6e,\n"
            "       \"mean_latency_seconds\": %.6f, "
            "\"p95_latency_seconds\": %.6f,\n"
            "       \"reschedules\": %llu, "
            "\"fc_gpu_iterations\": %llu, "
            "\"fc_pim_iterations\": %llu,\n"
            "       \"energy_joules\": %.4f, "
            "\"wall_seconds\": %.6f}%s\n",
            c.policy, c.dispatch.c_str(), r.makespanSeconds,
            r.throughputTokensPerSecond(), r.meanLatencySeconds,
            r.p95LatencySeconds,
            static_cast<unsigned long long>(r.reschedules),
            static_cast<unsigned long long>(r.fcOnGpuIterations),
            static_cast<unsigned long long>(r.fcOnPimIterations),
            r.energyJoules, c.wall,
            i + 1 < pb.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    // Cells are ordered dynamic, always-gpu, always-pim, oracle.
    std::fprintf(
        f,
        "    \"dynamic_speedup_vs_always_gpu\": %.3f,\n"
        "    \"dynamic_speedup_vs_always_pim\": %.3f,\n"
        "    \"oracle_over_dynamic\": %.4f\n",
        pb.cells[1].result.makespanSeconds /
            pb.cells[0].result.makespanSeconds,
        pb.cells[2].result.makespanSeconds /
            pb.cells[0].result.makespanSeconds,
        pb.cells[0].result.makespanSeconds /
            pb.cells[3].result.makespanSeconds);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"cluster\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-cluster/1\",\n");
    std::fprintf(f,
                 "    \"model\": \"llama-65b\", \"policy\": "
                 "\"least-outstanding\", \"tp_degree\": 1,\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, \"seed\": "
                 "%llu, \"max_rlp\": %u},\n",
                 cb.rateRps, cb.requests,
                 static_cast<unsigned long long>(cb.seed), cb.maxRlp);
    std::fprintf(f, "    \"n1_matches_serving_engine\": %s,\n",
                 cb.n1Match ? "true" : "false");
    std::fprintf(f, "    \"scaling\": [\n");
    for (std::size_t i = 0; i < cb.cells.size(); ++i) {
        const ClusterCell &c = cb.cells[i];
        const cluster::ClusterResult &r = c.result;
        double util = 0.0;
        for (double u : r.groupUtilization)
            util += u;
        util /= static_cast<double>(r.groupUtilization.size());
        std::fprintf(
            f,
            "      {\"platforms\": %u, \"groups\": %u,\n"
            "       \"makespan_seconds\": %.6f, "
            "\"sim_tokens_per_sec\": %.6e,\n"
            "       \"ttft_p50_seconds\": %.6f, "
            "\"ttft_p95_seconds\": %.6f, "
            "\"ttft_p99_seconds\": %.6f,\n"
            "       \"tpot_p50_seconds\": %.6f, "
            "\"tpot_p95_seconds\": %.6f, "
            "\"tpot_p99_seconds\": %.6f,\n"
            "       \"queueing_mean_seconds\": %.6f, "
            "\"queueing_p99_seconds\": %.6f,\n"
            "       \"mean_utilization\": %.4f, "
            "\"energy_joules\": %.4f, \"wall_seconds\": %.6f}%s\n",
            c.platforms, r.numGroups, r.makespanSeconds,
            r.throughputTokensPerSecond(), r.ttft.p50, r.ttft.p95,
            r.ttft.p99, r.tpot.p50, r.tpot.p95, r.tpot.p99,
            r.meanQueueingSeconds, r.queueing.p99, util,
            r.energyJoules, c.wall,
            i + 1 < cb.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"continuous\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-continuous/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, \"seed\": "
                 "%llu, \"max_rlp\": %u},\n",
                 nb.rateRps, nb.requests,
                 static_cast<unsigned long long>(nb.seed), nb.maxRlp);
    std::fprintf(f, "    \"prefill_chunk_tokens\": %u,\n",
                 nb.chunkTokens);
    std::fprintf(f, "    \"kv_pool_tokens\": %llu,\n",
                 static_cast<unsigned long long>(nb.kvPoolTokens));
    std::fprintf(f, "    \"modes\": [\n");
    for (std::size_t i = 0; i < nb.cells.size(); ++i) {
        const ContinuousCell &c = nb.cells[i];
        const cluster::ClusterResult &r = c.result;
        std::fprintf(
            f,
            "      {\"mode\": \"%s\", \"admission\": \"%s\",\n"
            "       \"makespan_seconds\": %.6f, "
            "\"sim_tokens_per_sec\": %.6e,\n"
            "       \"ttft_p50_seconds\": %.6f, "
            "\"ttft_p99_seconds\": %.6f,\n"
            "       \"queueing_mean_seconds\": %.6f, "
            "\"preemptions\": %llu,\n"
            "       \"preemption_stall_p99_seconds\": %.6f, "
            "\"wall_seconds\": %.6f}%s\n",
            c.mode, c.admission, r.makespanSeconds,
            r.throughputTokensPerSecond(), r.ttft.p50, r.ttft.p99,
            r.meanQueueingSeconds,
            static_cast<unsigned long long>(r.preemptions),
            r.preemptionStall.p99, c.wall,
            i + 1 < nb.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    // Cells are ordered static, continuous, continuous+preemption.
    std::fprintf(
        f,
        "    \"continuous_ttft_p99_speedup_vs_static\": %.3f,\n"
        "    \"preemption_count\": %llu\n",
        nb.cells[0].result.ttft.p99 / nb.cells[1].result.ttft.p99,
        static_cast<unsigned long long>(
            nb.cells[2].result.preemptions));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"disagg\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-disagg/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"prefill-heavy\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, \"seed\": "
                 "%llu, \"max_rlp\": %u},\n",
                 db.rateRps, db.requests,
                 static_cast<unsigned long long>(db.seed), db.maxRlp);
    std::fprintf(f, "    \"prefill_chunk_tokens\": %u,\n",
                 db.chunkTokens);
    std::fprintf(f,
                 "    \"replicas\": %u, \"prefill_replicas\": %u, "
                 "\"decode_replicas\": %u,\n",
                 db.replicas, db.prefillReplicas, db.decodeReplicas);
    std::fprintf(f,
                 "    \"transfer_link\": {\"name\": \"%s\", "
                 "\"bandwidth_gbps\": %.1f, \"latency_us\": %.2f},\n",
                 db.transferLink.name.c_str(),
                 db.transferLink.bandwidthBytesPerSec / 1e9,
                 (db.transferLink.latencySeconds +
                  db.transferLink.messageOverheadSeconds) *
                     1e6);
    std::fprintf(f, "    \"modes\": [\n");
    for (std::size_t i = 0; i < db.cells.size(); ++i) {
        const DisaggCell &c = db.cells[i];
        const cluster::ClusterResult &r = c.result;
        std::fprintf(
            f,
            "      {\"mode\": \"%s\",\n"
            "       \"makespan_seconds\": %.6f, "
            "\"sim_tokens_per_sec\": %.6e,\n"
            "       \"ttft_p50_seconds\": %.6f, "
            "\"ttft_p99_seconds\": %.6f,\n"
            "       \"tpot_p50_seconds\": %.6f, "
            "\"tpot_p99_seconds\": %.6f,\n"
            "       \"queueing_mean_seconds\": %.6f, "
            "\"energy_joules\": %.4f,\n"
            "       \"kv_transfers\": %llu, "
            "\"kv_transfer_gb\": %.3f, "
            "\"kv_transfer_seconds\": %.6f,\n"
            "       \"wall_seconds\": %.6f}%s\n",
            c.mode, r.makespanSeconds,
            r.throughputTokensPerSecond(), r.ttft.p50, r.ttft.p99,
            r.tpot.p50, r.tpot.p99, r.meanQueueingSeconds,
            r.energyJoules,
            static_cast<unsigned long long>(r.kvTransfers),
            static_cast<double>(r.kvTransferBytes) / 1e9,
            r.kvTransferSeconds, c.wall,
            i + 1 < db.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    // Cells are ordered colocated, disaggregated.
    std::fprintf(
        f,
        "    \"disagg_ttft_p99_speedup_vs_colocated\": %.3f,\n"
        "    \"disagg_tpot_p99_speedup_vs_colocated\": %.3f,\n"
        "    \"kv_transfer_count\": %llu\n",
        db.cells[0].result.ttft.p99 / db.cells[1].result.ttft.p99,
        db.cells[0].result.tpot.p99 / db.cells[1].result.tpot.p99,
        static_cast<unsigned long long>(
            db.cells[1].result.kvTransfers));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"faults\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-faults/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, \"seed\": "
                 "%llu, \"max_rlp\": %u},\n",
                 fb.rateRps, fb.requests,
                 static_cast<unsigned long long>(fb.seed), fb.maxRlp);
    std::fprintf(f,
                 "    \"prefill_replicas\": %u, "
                 "\"decode_replicas\": %u,\n",
                 fb.prefillReplicas, fb.decodeReplicas);
    std::fprintf(f,
                 "    \"plan\": {\"victim_replica\": %u, "
                 "\"crash_seconds\": %.3f, "
                 "\"restart_seconds\": %.3f},\n",
                 fb.victimReplica, fb.crashSeconds,
                 fb.restartSeconds);
    std::fprintf(f,
                 "    \"recovery\": {\"max_attempts\": %u, "
                 "\"retry_backoff_seconds\": %.3f, "
                 "\"deadline_seconds\": %.3f},\n",
                 fb.recovery.maxAttempts,
                 fb.recovery.retryBackoffSeconds, fb.deadlineSeconds);
    std::fprintf(f, "    \"no_fault_matches_baseline\": %s,\n",
                 fb.noFaultMatchesBaseline ? "true" : "false");
    std::fprintf(f, "    \"modes\": [\n");
    for (std::size_t i = 0; i < fb.cells.size(); ++i) {
        const FaultCell &c = fb.cells[i];
        const cluster::ClusterResult &r = c.result;
        std::fprintf(
            f,
            "      {\"mode\": \"%s\",\n"
            "       \"requests_offered\": %llu, "
            "\"requests_served\": %llu, "
            "\"failed_requests\": %llu,\n"
            "       \"shed_requests\": %llu, "
            "\"retried_requests\": %llu, "
            "\"retry_recomputed_tokens\": %llu,\n"
            "       \"injected_crashes\": %llu, "
            "\"replica_restarts\": %llu, "
            "\"kv_transfer_fallbacks\": %llu,\n"
            "       \"makespan_seconds\": %.6f, "
            "\"goodput_tokens_per_sec\": %.6e,\n"
            "       \"slo_attainment\": %.6f, "
            "\"ttft_p99_seconds\": %.6f, "
            "\"wall_seconds\": %.6f}%s\n",
            c.mode,
            static_cast<unsigned long long>(r.requestsOffered),
            static_cast<unsigned long long>(r.requestsServed),
            static_cast<unsigned long long>(r.failedRequests),
            static_cast<unsigned long long>(r.shedRequests),
            static_cast<unsigned long long>(r.retriedRequests),
            static_cast<unsigned long long>(r.retryRecomputedTokens),
            static_cast<unsigned long long>(r.injectedCrashes),
            static_cast<unsigned long long>(r.replicaRestarts),
            static_cast<unsigned long long>(r.kvTransferFallbacks),
            r.makespanSeconds, r.goodputTokensPerSecond,
            r.sloAttainment, r.ttft.p99, c.wall,
            i + 1 < fb.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    // Cells are ordered no-fault, fail-stop, retry, retry+shed.
    std::fprintf(
        f, "    \"retry_goodput_speedup_vs_failstop\": %.3f\n",
        fb.cells[2].result.goodputTokensPerSecond /
            fb.cells[1].result.goodputTokensPerSecond);
    std::fprintf(f, "  },\n");

    std::fprintf(f, "  \"parallel\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-parallel/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, "
                 "\"seed\": %llu, \"max_rlp\": %u},\n",
                 xb.rateRps, xb.requests,
                 static_cast<unsigned long long>(xb.seed),
                 xb.maxRlp);
    std::fprintf(f, "    \"replicas\": %u,\n", xb.replicas);
    std::fprintf(f, "    \"hardware_threads\": %u,\n",
                 xb.hardwareThreads);
    std::fprintf(f, "    \"parallel_matches_serial\": %s,\n",
                 xb.parallelMatchesSerial ? "true" : "false");
    std::fprintf(f, "    \"workers\": [\n");
    const double serial_wall = xb.cells[0].wall;
    for (std::size_t i = 0; i < xb.cells.size(); ++i) {
        const ParallelCell &c = xb.cells[i];
        std::fprintf(f,
                     "      {\"workers\": %u, "
                     "\"wall_seconds\": %.6f, "
                     "\"speedup_vs_serial\": %.3f, "
                     "\"matches_serial\": %s}%s\n",
                     c.workers, c.wall, serial_wall / c.wall,
                     c.matchesSerial ? "true" : "false",
                     i + 1 < xb.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"speedup_at_8_workers\": %.3f\n",
                 serial_wall / xb.cells.back().wall);
    std::fprintf(f, "  },\n");

    std::fprintf(f, "  \"soa\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-soa/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"workload\": {\"trace\": \"uniform\", "
                 "\"requests\": %u, \"episodes\": %u, "
                 "\"input_len\": %u, \"output_len\": %u, "
                 "\"max_rlp\": %u, \"spec_length\": 1},\n",
                 sb.requests, sb.episodes, sb.inputLen, sb.outputLen,
                 sb.maxRlp);
    std::fprintf(f,
                 "    \"build\": {\"compiler_flags\": \"%s\", "
                 "\"simd_width_bits\": %u, \"native_build\": %s},\n",
                 PAPI_BENCH_FLAGS, kSimdWidthBits,
                 PAPI_NATIVE_BUILD ? "true" : "false");
    auto soa_side = [f](const char *name, const SoaSide &s,
                        const char *trailer) {
        std::fprintf(f,
                     "    \"%s\": {\"simulated_tokens\": %llu, "
                     "\"iterations\": %llu, \"wall_seconds\": %.6f, "
                     "\"tokens_per_sec\": %.6e}%s\n",
                     name,
                     static_cast<unsigned long long>(s.tokens),
                     static_cast<unsigned long long>(s.iterations),
                     s.wall, s.tokensPerSec(), trailer);
    };
    soa_side("soa", sb.soa, ",");
    soa_side("reference", sb.reference, ",");
    std::fprintf(f, "    \"soa_matches_reference\": %s,\n",
                 sb.soaMatchesReference ? "true" : "false");
    std::fprintf(f, "    \"speedup\": %.3f\n",
                 sb.soa.tokensPerSec() /
                     sb.reference.tokensPerSec());
    std::fprintf(f, "  },\n");

    std::fprintf(f, "  \"prefix\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-prefix/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"agentic\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, "
                 "\"seed\": %llu, \"max_rlp\": %u},\n",
                 qb.rateRps, qb.requests,
                 static_cast<unsigned long long>(qb.seed), qb.maxRlp);
    std::fprintf(f, "    \"prefill_chunk_tokens\": %u,\n",
                 qb.chunkTokens);
    std::fprintf(f, "    \"replicas\": %u,\n", qb.replicas);
    std::fprintf(f, "    \"policies\": [\n");
    for (std::size_t i = 0; i < qb.cells.size(); ++i) {
        const PrefixCell &c = qb.cells[i];
        const cluster::ClusterResult &r = c.result;
        std::fprintf(
            f,
            "      {\"policy\": \"%s\", "
            "\"makespan_seconds\": %.6f, "
            "\"ttft_p50_seconds\": %.6f, "
            "\"ttft_p99_seconds\": %.6f, "
            "\"prefix_lookups\": %llu, \"prefix_hits\": %llu, "
            "\"hit_rate\": %.4f, "
            "\"prefix_hit_tokens\": %llu, "
            "\"prefix_miss_tokens\": %llu, "
            "\"prefix_evicted_bytes\": %llu, "
            "\"wall_seconds\": %.6f}%s\n",
            c.policy, r.makespanSeconds, r.ttft.p50, r.ttft.p99,
            static_cast<unsigned long long>(r.prefixLookups),
            static_cast<unsigned long long>(r.prefixHits),
            c.hitRate(),
            static_cast<unsigned long long>(r.prefixHitTokens),
            static_cast<unsigned long long>(r.prefixMissTokens),
            static_cast<unsigned long long>(r.prefixEvictedBytes),
            c.wall, i + 1 < qb.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(
        f,
        "    \"cache_hit_aware_ttft_p99_speedup_vs_round_robin\": "
        "%.3f,\n",
        qb.cells.front().result.ttft.p99 /
            qb.cells.back().result.ttft.p99);
    std::fprintf(f, "    \"cache_hit_aware_hit_rate\": %.4f,\n",
                 qb.cells.back().hitRate());
    const cluster::ClusterResult &sr = qb.streamResult;
    std::fprintf(f, "    \"streaming\": {\n");
    std::fprintf(f,
                 "      \"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %llu, "
                 "\"seed\": %llu, \"replicas\": %u, "
                 "\"max_rlp\": %u,\n",
                 qb.streamRateRps,
                 static_cast<unsigned long long>(qb.streamRequests),
                 static_cast<unsigned long long>(qb.streamSeed),
                 qb.streamReplicas, qb.streamMaxRlp);
    std::fprintf(f, "      \"record_capacity\": %llu,\n",
                 static_cast<unsigned long long>(qb.recordCapacity));
    std::fprintf(f,
                 "      \"requests_served\": %llu, "
                 "\"stats_truncated\": %s, "
                 "\"records_retained\": %llu,\n",
                 static_cast<unsigned long long>(sr.requestsServed),
                 sr.statsTruncated ? "true" : "false",
                 static_cast<unsigned long long>(sr.records.size()));
    std::fprintf(f,
                 "      \"ttft_p99_seconds\": %.6f, "
                 "\"mean_latency_seconds\": %.6f,\n",
                 sr.ttft.p99, sr.meanLatencySeconds);
    std::fprintf(f,
                 "      \"wall_seconds\": %.6f, "
                 "\"requests_per_sec\": %.6e,\n",
                 qb.streamWall,
                 qb.streamWall > 0.0
                     ? static_cast<double>(sr.requestsServed) /
                           qb.streamWall
                     : 0.0);
    std::fprintf(f,
                 "      \"rss_before_mb\": %.1f, "
                 "\"rss_peak_mb\": %.1f, "
                 "\"rss_growth_mb\": %.1f\n",
                 qb.rssBeforeMb, qb.rssPeakMb,
                 qb.rssPeakMb - qb.rssBeforeMb);
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  }%s\n", legacy_only ? "" : ",");
    if (!legacy_only) {
        double stream_speedup =
            stream_new.reqsPerSec / stream_legacy.reqsPerSec;
        double pump_speedup =
            pump_new.reqsPerSec / pump_legacy.reqsPerSec;
        double overall = stream_speedup * pump_speedup;
        for (const auto &p : patterns)
            overall *= p.newRate / p.legacyRate;
        overall = std::pow(overall,
                           1.0 / (patterns.size() + 2.0));
        std::fprintf(f,
                     "  \"summary\": {"
                     "\"event_queue_speedup_geomean\": %.3f, "
                     "\"dram_stream_speedup\": %.3f, "
                     "\"dram_pump_speedup\": %.3f, "
                     "\"overall_speedup_geomean\": %.3f}\n",
                     geomean, stream_speedup, pump_speedup, overall);
    }
    std::fprintf(f, "}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool legacy_only = false;
    const char *out_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--legacy-queue") == 0) {
            legacy_only = true;
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--legacy-queue] "
                         "[--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    const std::uint64_t eq_events = quick ? 1u << 16 : 1u << 19;
    const std::uint64_t dram_n = quick ? 2048 : 16384;
    const std::uint32_t decode_reps = quick ? 2 : 8;
    const std::uint32_t serving_reps = quick ? 1 : 4;

    // Event-queue patterns: run each three times, keep the best rate
    // (minimizes scheduler noise), alternating implementations.
    std::vector<PatternResult> patterns = {
        {"replay"}, {"controller"}, {"devices"}};
    for (int rep = 0; rep < 3; ++rep) {
        if (!legacy_only) {
            patterns[0].newRate = std::max(
                patterns[0].newRate,
                runReplay<sim::EventQueue>(eq_events));
            patterns[1].newRate = std::max(
                patterns[1].newRate,
                runController<sim::EventQueue>(eq_events));
            patterns[2].newRate = std::max(
                patterns[2].newRate,
                runDevices<sim::EventQueue>(eq_events));
        }
        patterns[0].legacyRate = std::max(
            patterns[0].legacyRate,
            runReplay<sim::LegacyEventQueue>(eq_events));
        patterns[1].legacyRate = std::max(
            patterns[1].legacyRate,
            runController<sim::LegacyEventQueue>(eq_events));
        patterns[2].legacyRate = std::max(
            patterns[2].legacyRate,
            runDevices<sim::LegacyEventQueue>(eq_events));
    }
    double geomean = 1.0;
    for (const auto &p : patterns)
        geomean *= p.newRate / p.legacyRate;
    geomean = std::pow(geomean, 1.0 / patterns.size());

    DramResult stream_new, stream_legacy, pump_new, pump_legacy;
    benchDram(dram_n, stream_new, stream_legacy, pump_new,
              pump_legacy);

    std::uint64_t dec_tokens = 0, dec_iters = 0;
    double dec_wall = 0;
    benchDecode(decode_reps, dec_tokens, dec_iters, dec_wall);

    std::uint64_t srv_tokens = 0, srv_iters = 0;
    double srv_wall = 0;
    benchServing(serving_reps, srv_tokens, srv_iters, srv_wall);

    std::uint32_t fig_cells = 0;
    double fig_wall = 0;
    benchFigureCells(fig_cells, fig_wall);

    PolicyBench pb = benchPolicy(quick);
    ClusterBench cb = benchCluster(quick);
    ContinuousBench nb = benchContinuous(quick);
    DisaggBench db = benchDisagg(quick);
    FaultBench fb = benchFaults(quick);
    ParallelBench xb = benchParallel(quick);
    SoaBench sb = benchSoa(quick);
    PrefixBench qb = benchPrefix(quick);

    writeJson(stdout, quick, legacy_only, eq_events, patterns,
              geomean, dram_n, stream_new, stream_legacy, pump_new,
              pump_legacy, dec_tokens, dec_iters, dec_wall,
              srv_tokens, srv_iters, srv_wall, fig_cells, fig_wall,
              pb, cb, nb, db, fb, xb, sb, qb);
    if (out_path) {
        std::FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", out_path);
            return 1;
        }
        writeJson(f, quick, legacy_only, eq_events, patterns, geomean,
                  dram_n, stream_new, stream_legacy, pump_new,
                  pump_legacy, dec_tokens, dec_iters, dec_wall,
                  srv_tokens, srv_iters, srv_wall, fig_cells,
                  fig_wall, pb, cb, nb, db, fb, xb, sb, qb);
        std::fclose(f);
    }
    return 0;
}
