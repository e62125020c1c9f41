/**
 * @file
 * The benchmark's workload definitions and the pieces the untraced
 * and traced runs share: the serving workloads' cluster shape, the
 * result digests, and the Fig. 8 grid.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hh"
#include "common.hh"
#include "core/decode_engine.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "llm/model_config.hh"
#include "llm/trace.hh"

namespace perfbench {

namespace cluster = papi::cluster;
namespace core = papi::core;
namespace dram = papi::dram;
namespace llm = papi::llm;
namespace pim = papi::pim;
namespace sim = papi::sim;

/** Host time and call count of one span name. */
struct Span
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;

    void
    add(Clock::time_point a, Clock::time_point b)
    {
        ns += nsBetween(a, b);
        ++calls;
    }
};

/** One open-loop serving workload on a PAPI cluster. */
struct ServingWorkload
{
    std::string name;
    llm::TraceCategory category = llm::TraceCategory::GeneralQa;
    double rateRps = 0.0;       ///< Poisson arrival rate.
    std::uint32_t replicas = 0; ///< Platforms, tensor-parallel 1.
    cluster::RouterPolicy policy = cluster::RouterPolicy::RoundRobin;
    std::uint32_t maxRlp = 16;
    std::uint64_t recordCapacity = 0;
    bool prefixCache = false;
    std::uint32_t prefillChunkTokens = 0;
    bool preemptOnKvPressure = false;
    /** KV pool per replica, tokens (0 = the platform's own). */
    std::uint64_t kvPoolTokens = 0;
    /** Runs on parallelWorkers() threads instead of one. */
    bool parallel = false;
    /** Requests per repetition at Size::Full and Size::Tiny. */
    std::uint64_t requestsFull = 0;
    std::uint64_t requestsTiny = 0;

    std::uint64_t
    requests(Size size) const
    {
        return size == Size::Tiny ? requestsTiny : requestsFull;
    }

    unsigned workers() const { return parallel ? parallelWorkers() : 1; }
};

/** The serving workload called @p name (fatal if none). */
const ServingWorkload &servingWorkload(const std::string &name);

/** Cluster options of @p w with the calibrated @p alpha. */
cluster::ClusterOptions clusterOptions(const ServingWorkload &w,
                                       const core::PlatformConfig &cfg,
                                       const llm::ModelConfig &model,
                                       double alpha, unsigned workers);

/** The model every serving workload serves. */
llm::ModelConfig servingModel();

/** Feed one replica's simulated result into @p d. */
void digestServing(Digest &d, const core::ServingResult &r);

/** Digest of a whole cluster run: every replica, then aggregates. */
std::string digestCluster(const cluster::ClusterResult &r);

/** The four Fig. 8 platforms, built fresh (cold kernel memos). */
struct Fig8Platforms
{
    Fig8Platforms();
    core::Platform base;   ///< A100+AttAcc (the normalization base).
    core::Platform hbm;    ///< A100+HBM-PIM.
    core::Platform attacc; ///< AttAcc-only.
    core::Platform papi;   ///< PAPI.
};

/** Outcome of one pass over a Fig. 8-style grid. */
struct GridResult
{
    std::uint64_t cells = 0;    ///< DecodeEngine runs executed.
    std::uint64_t requests = 0; ///< Sequences decoded, all cells.
    std::uint64_t tokens = 0;   ///< Output tokens, all cells.
    double papiSpeedupVsBase = 0.0;  ///< Geomean, PAPI / A100+AttAcc.
    double papiEnergyEffVsBase = 0.0;
    double papiSpeedupVsAttacc = 0.0;
    /** PAPI cells: simulated TTFT (prefill + mean iteration) and
     *  time per output token (mean iteration / spec), seconds. */
    std::vector<double> papiTtft, papiTpot;
    double papiTokens = 0.0;  ///< Output tokens on PAPI cells.
    double papiSeconds = 0.0; ///< Simulated seconds on PAPI cells.
    core::RunBreakdown papiTime; ///< Summed PAPI breakdown.
    std::uint64_t papiIterations = 0, papiFcPimIterations = 0,
                  papiReschedules = 0;
    /** Cells whose result failed a sanity check. */
    std::uint64_t badCells = 0;
    std::string digest;
};

/** Spans of a traced grid pass: input synthesis and decode runs. */
struct GridSpans
{
    Span inputs, decode;
};

/** Fig. 8 grid: batch {4,16,64} x spec {1,2,4} per model. */
constexpr std::uint32_t kGridBatches[] = {4, 16, 64};
constexpr std::uint32_t kGridSpecs[] = {1, 2, 4};

/**
 * Run every (model, spec, batch) cell of the grid @p draws times on
 * all four platforms of @p p, each draw a fresh batch from
 * @p category seeded from (@p seed, cell, draw). Several independent
 * batches per cell keep the grid's geomeans from resting on one
 * short trace per seed.
 */
GridResult runGrid(Fig8Platforms &p,
                   const std::vector<llm::ModelConfig> &models,
                   const std::vector<double> &alphas,
                   llm::TraceCategory category, std::uint64_t seed,
                   std::uint32_t draws, GridSpans *spans = nullptr);

/** The three Fig. 8 models. */
std::vector<llm::ModelConfig> fig8Models();

/** PAPI's calibrated alpha for @p model on a fresh PAPI platform. */
double calibrateAlpha(const llm::ModelConfig &model);

/** Layer probes shared by every traced run (probes.cc). */
struct ProbeInputs
{
    core::PlatformConfig config;
    llm::ModelConfig model;
    llm::TraceCategory category = llm::TraceCategory::GeneralQa;
    std::uint64_t seed = 0;
    std::uint32_t batch = 16; ///< Requests per probed iteration.
    double alpha = 32.0;
    Size size = Size::Full;
    /** Front end the workload routes through (or would). */
    cluster::RouterPolicy policy = cluster::RouterPolicy::RoundRobin;
    std::uint32_t replicas = 1;
    core::ServingOptions serving;
    /** The workload never calls the router / the prefix-cache probe,
     *  so the probes time those calls on its requests off the path. */
    bool routeOffPath = false;
    bool prefixProbeOffPath = false;
};

/**
 * Adds the core.platform.*, core.decode.*, pim.gemv.* and
 * sim.event_queue.* metrics to @p out, plus off-path timings of the
 * router and the prefix-cache probe where ProbeInputs asks.
 */
void runLayerProbes(const ProbeInputs &in, Report &out);

/**
 * core.step / core.driver metrics: @p stream replayed three times on
 * @p platform, bare (deliver all, then step until drained) and
 * through a one-replica ServingEventDriver, alternating. Both replays
 * must reproduce @p expect_digest (a digestServing digest) when it is
 * not empty, and each other always.
 */
void addReplayMetrics(const core::Platform &platform,
                      const core::ServingOptions &options,
                      const std::vector<llm::TimedRequest> &stream,
                      const llm::ModelConfig &model,
                      const std::string &expect_digest, Report &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
