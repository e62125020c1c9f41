#include "pim/gemv_engine.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dram/pseudo_channel.hh"
#include "sim/logging.hh"

namespace papi::pim {

using dram::Command;
using dram::CommandType;
using dram::Coord;
using sim::Tick;

namespace {

/** Cap on simulated rows per bank; larger shards scale linearly.
 *  Streaming is row-periodic, so 16 rows capture the steady state
 *  (fill effects span ~4 activates via tFAW). */
constexpr std::uint64_t simRowsCap = 16;

} // namespace

GemvEngine::GemvEngine(const PimConfig &config) : _config(config)
{
    if (_config.fpusPerGroup == 0 || _config.banksPerGroup == 0)
        sim::fatal("GemvEngine: xPyB parameters must be nonzero");
    const auto &org = _config.dramSpec.org;
    if (org.banks() % _config.banksPerGroup != 0)
        sim::fatal("GemvEngine: banksPerGroup=", _config.banksPerGroup,
                   " does not divide channel banks=", org.banks());
}

Tick
GemvEngine::computeTicksPerColumn(std::uint32_t reuse) const
{
    if (reuse == 0)
        sim::fatal("GemvEngine: reuse must be >= 1");
    // Work per column per bank: lanes * reuse MACs; the FPU group
    // contributes fpusPerGroup/banksPerGroup FPUs to this bank, each
    // retiring `lanes` MACs per cycle.
    std::uint64_t cycles =
        (static_cast<std::uint64_t>(reuse) * _config.banksPerGroup +
         _config.fpusPerGroup - 1) /
        _config.fpusPerGroup;
    return cycles * _config.fpu.periodTicks();
}

Tick
GemvEngine::analyticLowerBound(std::uint64_t bytes_per_bank,
                               std::uint32_t reuse) const
{
    const auto &org = _config.dramSpec.org;
    const auto &t = _config.dramSpec.timing;
    std::uint64_t columns =
        (bytes_per_bank + org.accessBytes - 1) / org.accessBytes;
    Tick per_column = std::max<Tick>(t.tCCD_S,
                                     computeTicksPerColumn(reuse));
    return columns * per_column;
}

GemvResult
GemvEngine::run(std::uint64_t bytes_per_bank, std::uint32_t reuse) const
{
    const auto &org = _config.dramSpec.org;
    if (bytes_per_bank == 0)
        return GemvResult{};

    std::uint64_t rows =
        (bytes_per_bank + org.rowBytes - 1) / org.rowBytes;

    if (rows <= simRowsCap)
        return runExact(bytes_per_bank, reuse);

    // Steady-state scaling: simulate the cap and scale per-row cost.
    GemvResult base = runExact(simRowsCap * org.rowBytes, reuse);
    double scale = static_cast<double>(rows) /
                   static_cast<double>(simRowsCap);

    GemvResult out;
    out.ticks = static_cast<Tick>(
        static_cast<double>(base.ticks) * scale + 0.5);
    out.activations = static_cast<std::uint64_t>(
        static_cast<double>(base.activations) * scale + 0.5);
    out.streamedBytes = static_cast<std::uint64_t>(
        static_cast<double>(base.streamedBytes) * scale + 0.5);
    out.flops = base.flops * scale;
    out.fpuBusyFrac = base.fpuBusyFrac;
    out.computeBound = base.computeBound;
    return out;
}

GemvResult
GemvEngine::runExact(std::uint64_t bytes_per_bank,
                     std::uint32_t reuse) const
{
    const auto &org = _config.dramSpec.org;
    const auto &t = _config.dramSpec.timing;

    // Timing depends on reuse only through the FPU service time per
    // column, so distinct reuse values sharing computeTicksPerColumn
    // hit the same cache entry; FLOPs are fixed up below.
    const Tick compute_key = computeTicksPerColumn(reuse);
    const std::uint64_t key =
        ((bytes_per_bank + org.accessBytes - 1) / org.accessBytes) *
            (1ULL << 32) +
        std::min<Tick>(compute_key, (1ULL << 32) - 1);
    if (_recorder == nullptr) {
        if (const GemvResult *hit = _cache.find(key)) {
            GemvResult out = *hit;
            out.flops = static_cast<double>(out.streamedBytes) / 2.0 *
                        static_cast<double>(reuse) * 2.0;
            return out;
        }
    }

    dram::PseudoChannel channel(_config.dramSpec);

    const std::uint32_t cols_per_row = org.columnsPerRow();
    const std::uint64_t total_columns =
        (bytes_per_bank + org.accessBytes - 1) / org.accessBytes;
    const std::uint64_t full_rows = total_columns / cols_per_row;
    const std::uint32_t tail_cols =
        static_cast<std::uint32_t>(total_columns % cols_per_row);

    const Tick compute_per_col = computeTicksPerColumn(reuse);

    struct BankCursor
    {
        std::uint32_t group = 0;
        std::uint32_t bank = 0;
        std::uint64_t rowsLeft = 0; ///< Rows still to open (incl. cur).
        std::uint32_t colsLeftInRow = 0;
        std::uint32_t nextRow = 0;
        Tick fpuReadyAt = 0;
        Tick fpuBusyTicks = 0;
        bool rowOpen = false;
        bool done = false;
    };

    std::vector<BankCursor> banks;
    banks.reserve(org.banks());
    for (std::uint32_t g = 0; g < org.bankGroups; ++g) {
        for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
            BankCursor c;
            c.group = g;
            c.bank = b;
            c.rowsLeft = full_rows + (tail_cols != 0 ? 1 : 0);
            if (c.rowsLeft == 0)
                c.done = true;
            banks.push_back(c);
        }
    }

    auto cols_for_row = [&](const BankCursor &c) -> std::uint32_t {
        // The last row may be partial.
        bool is_last = (c.rowsLeft == 1);
        return (is_last && tail_cols != 0) ? tail_cols : cols_per_row;
    };

    Tick now = 0;
    std::uint64_t activations = 0;
    std::uint64_t column_accesses = 0;
    Tick kernel_end = 0;
    std::uint64_t compute_stalled_cols = 0;

    // Issue commands bank-by-bank in global earliest-first order.
    while (true) {
        int best = -1;
        Tick best_tick = sim::maxTick;
        Command best_cmd;

        for (std::size_t i = 0; i < banks.size(); ++i) {
            auto &c = banks[i];
            if (c.done)
                continue;

            Command cmd;
            cmd.coord = Coord{c.group, c.bank, c.nextRow, 0};
            if (!c.rowOpen) {
                cmd.type = CommandType::Act;
            } else if (c.colsLeftInRow > 0) {
                cmd.type = CommandType::PimMac;
            } else {
                cmd.type = CommandType::Pre;
            }

            Tick earliest = channel.earliestIssue(cmd, now);
            if (cmd.type == CommandType::PimMac) {
                // FPU input queue of four columns: a new column may
                // issue while earlier ones are in flight through the
                // read latency (tCL + tBURST) or queued at the FPUs,
                // but not so early that the queue would overflow.
                Tick pipe = t.tCL + t.tBURST + 4 * compute_per_col;
                Tick gate = c.fpuReadyAt > pipe ? c.fpuReadyAt - pipe
                                                : 0;
                earliest = std::max(earliest, gate);
            }
            if (earliest < best_tick) {
                best_tick = earliest;
                best = static_cast<int>(i);
                best_cmd = cmd;
            }
        }

        if (best < 0)
            break; // all banks done

        auto &c = banks[best];
        now = std::max(now, best_tick);
        Tick done_at = channel.issue(best_cmd, best_tick);
        if (_recorder)
            _recorder->push_back(TraceEntry{best_tick, best_cmd});

        switch (best_cmd.type) {
          case CommandType::Act:
            c.rowOpen = true;
            c.colsLeftInRow = cols_for_row(c);
            ++activations;
            break;
          case CommandType::PimMac: {
            ++column_accesses;
            --c.colsLeftInRow;
            Tick data_at = done_at;
            Tick start = std::max(data_at, c.fpuReadyAt);
            if (start > data_at)
                ++compute_stalled_cols;
            c.fpuReadyAt = start + compute_per_col;
            c.fpuBusyTicks += compute_per_col;
            kernel_end = std::max(kernel_end, c.fpuReadyAt);
            if (c.colsLeftInRow == 0) {
                --c.rowsLeft;
                ++c.nextRow;
                if (c.rowsLeft == 0)
                    c.done = true;
                // else: a Pre will be issued next for this bank.
            }
            break;
          }
          case CommandType::Pre:
            c.rowOpen = false;
            break;
          default:
            sim::panic("GemvEngine: unexpected command");
        }
        (void)t;
    }

    GemvResult out;
    out.ticks = kernel_end;
    out.activations = activations;
    out.streamedBytes = column_accesses * org.accessBytes;
    // Each streamed FP16 element is combined with `reuse` inputs,
    // one MAC (2 FLOPs) each.
    out.flops = static_cast<double>(out.streamedBytes) / 2.0 *
                static_cast<double>(reuse) * 2.0;
    Tick busy_max = 0;
    for (const auto &c : banks)
        busy_max = std::max(busy_max, c.fpuBusyTicks);
    out.fpuBusyFrac =
        kernel_end == 0
            ? 0.0
            : static_cast<double>(busy_max) /
                  static_cast<double>(kernel_end);
    out.computeBound =
        column_accesses > 0 &&
        compute_stalled_cols * 2 > column_accesses;
    if (_recorder == nullptr)
        _cache.insert(key, out);
    return out;
}

} // namespace papi::pim
