/**
 * @file
 * Cycle-level near-bank GEMV execution on a PIM pseudo-channel.
 *
 * The engine models the weight-stationary dataflow used by AttAcc and
 * PAPI: every bank holds a shard of the matrix; the kernel streams
 * each shard through the bank's row buffer (ACT + a PIM_MAC column
 * read per 32 B) and the near-bank FPUs combine each column with
 * `reuse` input vectors (reuse = RLP x TLP for FC kernels, TLP for
 * attention score/context kernels).
 *
 * Timing is produced by replaying the actual DRAM command stream on a
 * dram::PseudoChannel (tRCD/tRP/tRAS/tCCD/tRRD/tFAW enforced) with
 * FPU back-pressure: a column cannot issue if the bank's FPU group is
 * more than one column behind (double buffering).
 */

#ifndef PAPI_PIM_GEMV_ENGINE_HH
#define PAPI_PIM_GEMV_ENGINE_HH

#include <cstdint>

#include "pim/pim_config.hh"
#include "pim/trace_validator.hh"
#include "sim/flat_memo.hh"
#include "sim/types.hh"

namespace papi::pim {

/** Outcome of one per-pseudo-channel GEMV stream. */
struct GemvResult
{
    /** Kernel duration in ticks (stream start to last FPU done). */
    sim::Tick ticks = 0;
    /** Row activations performed (whole channel, unscaled). */
    std::uint64_t activations = 0;
    /** Bytes streamed out of the cell arrays (whole channel). */
    std::uint64_t streamedBytes = 0;
    /** FLOPs performed (whole channel). */
    double flops = 0.0;
    /** Fraction of kernel time the FPUs were busy [0,1]. */
    double fpuBusyFrac = 0.0;
    /** True when FPU service time, not DRAM, set the pace. */
    bool computeBound = false;
};

/** Near-bank GEMV timing engine for one PIM configuration. */
class GemvEngine
{
  public:
    explicit GemvEngine(const PimConfig &config);

    const PimConfig &config() const { return _config; }

    /**
     * Stream @p bytes_per_bank of matrix data through every bank of
     * one pseudo-channel, combining each column with @p reuse input
     * vectors.
     *
     * Shards larger than an internal cap are simulated in
     * steady-state and scaled linearly (streaming is row-periodic, so
     * the error is bounded by one row's fill time).
     *
     * @param bytes_per_bank Matrix bytes resident in each bank.
     * @param reuse Number of input vectors each column serves
     *        (>= 1); the data-reuse level of the paper's Fig. 7.
     */
    GemvResult run(std::uint64_t bytes_per_bank,
                   std::uint32_t reuse) const;

    /**
     * FPU service ticks needed per 32 B column per bank:
     * ceil(reuse * banksPerGroup / fpusPerGroup) FPU cycles.
     */
    sim::Tick computeTicksPerColumn(std::uint32_t reuse) const;

    /**
     * Analytic lower bound on streaming time for cross-checks:
     * max(DRAM cadence, FPU service) per column x columns, plus row
     * overheads. Tests assert the cycle-level result stays within a
     * small factor of this bound.
     */
    sim::Tick analyticLowerBound(std::uint64_t bytes_per_bank,
                                 std::uint32_t reuse) const;

    /**
     * Record every issued command into @p trace (nullptr disables).
     * While a recorder is attached the memo cache is bypassed so the
     * trace reflects a full fresh replay (see pim::TraceValidator).
     */
    void setTraceRecorder(CommandTrace *trace) { _recorder = trace; }

  private:
    GemvResult runExact(std::uint64_t bytes_per_bank,
                        std::uint32_t reuse) const;

    PimConfig _config;

    /** Identity hash of a GEMV memo key (FlatMemo mixes it). */
    struct KeyHash
    {
        std::uint64_t
        operator()(std::uint64_t key) const
        {
            return key;
        }
    };

    /**
     * Memoized exact results keyed by (columns, reuse). Decode loops
     * call run() with recurring shapes; replaying identical command
     * streams would dominate simulation time otherwise.
     */
    mutable sim::FlatMemo<std::uint64_t, GemvResult, KeyHash> _cache;
    CommandTrace *_recorder = nullptr;
};

} // namespace papi::pim

#endif // PAPI_PIM_GEMV_ENGINE_HH
