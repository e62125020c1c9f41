/**
 * @file
 * The fig8-cold workload: the paper's Fig. 8 grid (LLaMA-65B, GPT-3
 * 66B, GPT-3 175B x batch {4,16,64} x spec {1,2,4} x the four
 * platforms, creative-writing traces) through DecodeEngine::run, on
 * freshly built platforms every repetition, so every repetition pays
 * the kernel-memo misses (PIM command replay on the DRAM model) the
 * figure binaries pay.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/metrics.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr llm::TraceCategory kCategory = llm::TraceCategory::CreativeWriting;

/** The self-check size runs LLaMA-65B only. */
std::vector<llm::ModelConfig>
modelsFor(Size size)
{
    std::vector<llm::ModelConfig> models = fig8Models();
    if (size == Size::Tiny)
        models.resize(1);
    return models;
}

/** Independent batches per grid cell in one repetition. */
std::uint32_t
drawsFor(Size size)
{
    return size == Size::Tiny ? 1 : 4;
}

std::vector<double>
alphasFor(const std::vector<llm::ModelConfig> &models)
{
    std::vector<double> alphas;
    for (const llm::ModelConfig &m : models)
        alphas.push_back(calibrateAlpha(m));
    return alphas;
}

double
p99(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return core::percentileSorted(v, 0.99);
}

/** A model-versus-paper line: value, paper value, relative error. */
std::string
paperNote(const char *name, double model, double paper)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: model %.2fx, paper ~%.1fx (%+.0f%%)", name, model,
                  paper, 100.0 * (model / paper - 1.0));
    return buf;
}

} // namespace

Report
runFig8(const Args &args)
{
    const std::vector<llm::ModelConfig> models = modelsFor(args.size);
    const std::uint32_t draws = drawsFor(args.size);
    Report rep;

    // Set-up (the alpha calibrations) is timed again before every
    // repetition, so its median samples the same host conditions.
    std::vector<double> setup_s;
    auto timed_set_up = [&]() {
        const Clock::time_point t0 = Clock::now();
        std::vector<double> a = alphasFor(models);
        setup_s.push_back(secondsSince(t0));
        return a;
    };
    const std::vector<double> alphas = timed_set_up();

    GridResult ref;
    {
        Fig8Platforms p;
        ref = runGrid(p, models, alphas, kCategory, args.seed, draws);
    }
    rep.check(ref.badCells == 0, "degenerate grid cell");
    rep.digest = ref.digest;

    std::vector<double> cell_rate, req_rate, tok_rate, ref_speed;
    const Clock::time_point timed = Clock::now();
    do {
        ref_speed.push_back(referenceSpeed());
        for (int i = 0; i < setUpsPerRepetition(args.size); ++i)
            timed_set_up();
        const Clock::time_point t0 = Clock::now();
        Fig8Platforms p;
        const GridResult g =
            runGrid(p, models, alphas, kCategory, args.seed, draws);
        const double wall = secondsSince(t0);
        rep.attempted += g.cells;
        rep.failed += g.badCells;
        rep.check(g.digest == rep.digest,
                  "repetition differs from the reference pass");
        cell_rate.push_back(static_cast<double>(g.cells) / wall);
        req_rate.push_back(static_cast<double>(g.requests) / wall);
        tok_rate.push_back(static_cast<double>(g.tokens) / wall);
    } while (secondsSince(timed) < args.seconds);
    rep.repetitions = cell_rate.size();
    rep.notes.push_back(repetitionNote(cell_rate));
    rep.referenceSpeed = median(ref_speed);
    const double rss = peakRssMb();

    rep.add("sim_requests_per_host_s", median(req_rate), "1/s");
    rep.add("sim_tokens_per_host_s", median(tok_rate), "1/s");
    rep.add("cells_per_host_s", median(cell_rate), "1/s");
    rep.add("setup_s", median(setup_s), "s");
    rep.add("peak_rss_mb", rss, "MB");
    rep.add("served_share",
            static_cast<double>(ref.cells - ref.badCells) /
                static_cast<double>(ref.cells),
            "ratio");
    rep.add("sim_ttft_p99_s", p99(ref.papiTtft), "s");
    rep.add("sim_tpot_p99_s", p99(ref.papiTpot), "s");
    rep.add("sim_goodput_tok_per_s", ref.papiTokens / ref.papiSeconds,
            "tok/s");
    rep.add("sim_papi_speedup_vs_a100_attacc", ref.papiSpeedupVsBase, "x");
    rep.add("sim_papi_energy_eff_vs_a100_attacc", ref.papiEnergyEffVsBase,
            "x");
    rep.add("sim_papi_speedup_vs_attacc_only", ref.papiSpeedupVsAttacc, "x");
    rep.notes.push_back(paperNote("sim_papi_speedup_vs_a100_attacc",
                                  ref.papiSpeedupVsBase, 1.8));
    rep.notes.push_back(paperNote("sim_papi_energy_eff_vs_a100_attacc",
                                  ref.papiEnergyEffVsBase, 3.4));
    rep.notes.push_back(paperNote("sim_papi_speedup_vs_attacc_only",
                                  ref.papiSpeedupVsAttacc, 11.1));
    return rep;
}

Report
runFig8Traced(const Args &args)
{
    const std::vector<llm::ModelConfig> models = modelsFor(args.size);
    const std::vector<double> alphas = alphasFor(models);
    const std::uint32_t draws = drawsFor(args.size);
    Report rep;

    // Cold untraced, the same platforms again warm, and cold traced,
    // alternating; medians of each.
    std::vector<double> cold, warm, traced, inputs_ns, decode_share;
    GridResult ref;
    const int passes = args.size == Size::Tiny ? 1 : 5;
    for (int i = 0; i < passes; ++i) {
        {
            Clock::time_point t0 = Clock::now();
            Fig8Platforms p;
            ref = runGrid(p, models, alphas, kCategory, args.seed, draws);
            cold.push_back(secondsSince(t0));
            t0 = Clock::now();
            const GridResult w =
                runGrid(p, models, alphas, kCategory, args.seed, draws);
            warm.push_back(secondsSince(t0));
            rep.check(w.digest == ref.digest, "warm pass differs");
        }
        GridSpans spans;
        const Clock::time_point t0 = Clock::now();
        Fig8Platforms p;
        const GridResult t =
            runGrid(p, models, alphas, kCategory, args.seed, draws,
                    &spans);
        const double wall = secondsSince(t0);
        traced.push_back(wall);
        rep.check(t.digest == ref.digest,
                  "traced pass differs from the untraced one");
        inputs_ns.push_back(static_cast<double>(spans.inputs.ns) /
                            static_cast<double>(t.requests));
        decode_share.push_back(static_cast<double>(spans.decode.ns) * 1e-9 /
                               wall);
        rep.attempted += 3 * ref.cells;
    }
    rep.check(ref.badCells == 0, "degenerate grid cell");
    rep.digest = ref.digest;

    rep.add("llm.arrival.host_ns_per_req", median(inputs_ns), "ns");
    rep.add("core.replica.host_share", median(decode_share), "ratio");

    // The serving layers on this workload's own requests: the
    // largest Fig. 8 batch (64 LLaMA-65B prompts, all due at t = 0)
    // served by one PAPI replica.
    const core::PlatformConfig cfg = core::makePapiConfig();
    const llm::ModelConfig &model = models.front();
    core::ServingOptions sopt;
    sopt.alpha = alphas.front();
    sopt.maxRlp = kGridBatches[2];
    llm::TraceGenerator gen(kCategory, args.seed);
    std::vector<llm::TimedRequest> batch;
    for (const llm::Request &r : gen.generate(kGridBatches[2]))
        batch.push_back({r, 0.0, r.id + 1});
    const core::Platform papi(cfg);
    addReplayMetrics(papi, sopt, batch, model, "", rep);

    ProbeInputs probe;
    probe.config = cfg;
    probe.model = model;
    probe.category = kCategory;
    probe.seed = args.seed;
    probe.batch = kGridBatches[2];
    probe.alpha = alphas.front();
    probe.size = args.size;
    probe.policy = cluster::RouterPolicy::RoundRobin;
    probe.replicas = 4;
    probe.serving = sopt;
    probe.routeOffPath = true;
    probe.prefixProbeOffPath = true;
    runLayerProbes(probe, rep);

    const double cold_s = median(cold), warm_s = median(warm);
    rep.add("pim.memo_miss_share", share(cold_s - warm_s, cold_s), "ratio");
    rep.add("sim.parallel.workers", 1, "count");
    rep.add("sim.parallel.speedup", 1.0, "x");

    rep.add("core.iterations", static_cast<double>(ref.papiIterations),
            "count");
    rep.add("core.dispatch.fc_pim_share",
            share(static_cast<double>(ref.papiFcPimIterations),
                  static_cast<double>(ref.papiIterations)),
            "ratio");
    rep.add("core.dispatch.reschedules",
            static_cast<double>(ref.papiReschedules), "count");
    const core::RunBreakdown &b = ref.papiTime;
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
    // Static batches hold no shared KV cache: the KV layer is off
    // this workload's path.
    for (const char *name :
         {"llm.kv.prefix_hit_rate", "llm.kv.prefix_hit_token_share",
          "llm.kv.peak_utilization"})
        rep.add(name, 0.0, "ratio");
    rep.add("llm.kv.prefix_evicted_gb", 0.0, "GB");
    rep.add("llm.kv.preemptions", 0.0, "count");
    rep.add("llm.kv.recomputed_prefill_tokens", 0.0, "count");
    rep.add("trace_overhead_share", median(traced) / median(cold) - 1.0,
            "ratio");
    rep.repetitions = cold.size();
    return rep;
}

} // namespace perfbench
