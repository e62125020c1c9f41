/**
 * @file
 * Dynamic speculation-length example: drives the decode loop
 * manually through the library's lower-level API (Platform +
 * PhaseDispatcher + Batch) and changes TLP mid-flight, as dynamic
 * speculation optimizers do (paper Section 3.2, reference [28]).
 * Each iteration the FC dispatcher re-estimates AI as RLP x TLP
 * (paper Section 5), so a TLP update by "system software" shows up
 * as an FC reschedule.
 */

#include <iostream>

#include "core/platform.hh"
#include "core/threshold_calibrator.hh"
#include "llm/batch.hh"
#include "llm/trace.hh"

using namespace papi;

int
main()
{
    llm::ModelConfig model = llm::llama65b();
    core::Platform papi(core::makePapiConfig());
    double alpha =
        core::ThresholdCalibrator::calibrate(papi, model).alpha;
    std::cout << "alpha = " << alpha << "\n\n";

    // A small batch: with TLP=1 it is memory-bound (FC on PIM);
    // raising TLP to 8 pushes RLP x TLP past alpha (FC to GPU).
    llm::TraceGenerator gen(llm::TraceCategory::Uniform, 9);
    llm::Batch batch(gen.generateUniform(8, 64, 96), model);

    // Dispatch between the platform's FC threshold pair (the
    // registry ids of fc-pim and gpu).
    std::uint32_t tlp = 1;
    const core::PhaseDispatcher fc_dispatch =
        papi.dispatcher(core::Phase::Fc, alpha);
    core::TargetId prev_target = 0;
    std::uint64_t reschedules = 0;

    double total_seconds = 0.0;
    std::printf("%-6s %-5s %-5s %-9s %-7s %-10s\n", "iter", "RLP",
                "TLP", "est. AI", "FC on", "iter time");
    while (!batch.done()) {
        std::uint64_t iter = batch.iterations() + 1;

        // "System software" raises the speculation length at
        // iteration 20 to exploit the idle GPU, then drops it back
        // at iteration 60 (e.g. acceptance rates fell).
        if (iter == 20) {
            tlp = 8;
            std::printf("-- host raised speculation length to 8 --\n");
        } else if (iter == 60) {
            tlp = 2;
            std::printf("-- host lowered speculation length to 2 --\n");
        }

        std::uint32_t tokens = batch.liveRlp() * tlp;
        core::DispatchDecision decision =
            fc_dispatch.select(model, batch.liveRlp(), tlp, tokens);
        const bool rescheduled =
            iter > 1 && decision.target != prev_target;
        if (rescheduled)
            ++reschedules;
        prev_target = decision.target;
        core::KernelExec fc = papi.fcExec(model, tokens,
                                          decision.target);
        core::KernelExec at =
            papi.attnExec(model, batch.liveContextLens(), tlp);
        double iter_seconds =
            fc.seconds + at.seconds + papi.otherSeconds(model);
        total_seconds += iter_seconds;

        if (iter <= 2 || rescheduled || iter % 25 == 0) {
            std::printf("%-6lu %-5u %-5u %-9.0f %-7s %.3f ms%s\n",
                        static_cast<unsigned long>(iter),
                        batch.liveRlp(), tlp, decision.estimatedAi,
                        papi.targets().at(decision.target).name.c_str(),
                        iter_seconds * 1e3,
                        rescheduled ? "   <-- reschedule" : "");
        }

        batch.step(tlp);
    }

    std::printf("\ndecode time %.3f s over %lu iterations, %lu "
                "reschedules\n",
                total_seconds,
                static_cast<unsigned long>(batch.iterations()),
                static_cast<unsigned long>(reschedules));
    return 0;
}
