/**
 * @file
 * Per-phase dispatch policies over a platform's execution-target
 * registry.
 *
 * The paper's FC scheduling policies (always-GPU, always-PIM, the
 * AI-threshold dynamic rule of Section 5, and the hindsight oracle)
 * generalize to three rules over an arbitrary candidate target list:
 *
 *  - Static: pin the phase to one named target.
 *  - Threshold: the paper's rule between any target pair - AI
 *    estimates strictly greater than alpha run on the compute-bound
 *    side of the pair, everything else on the memory-bound side.
 *  - Oracle: race the candidates' cost models and pick the fastest
 *    (the Fig. 11/12 ablation's hindsight scheduler).
 *
 * A DispatchPolicy is the declarative form (rule + target names)
 * carried by PlatformConfig per phase; a PhaseDispatcher is that
 * policy bound to a concrete Platform registry plus the runtime
 * threshold alpha, making per-iteration picks.
 *
 * The legacy two-way vocabulary (FcTarget/FcPolicy) lives here too:
 * it remains the paper-facing shorthand that factories, benchmarks,
 * and reports speak, translated into registry policies at Platform
 * construction.
 */

#ifndef PAPI_CORE_DISPATCH_POLICY_HH
#define PAPI_CORE_DISPATCH_POLICY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/exec_target.hh"

namespace papi::core {

// ------------------------------------------------- legacy vocabulary

/** Where an FC kernel may execute (the paper's two-way view). */
enum class FcTarget : std::uint8_t
{
    Gpu,   ///< The GPU's processing units.
    FcPim, ///< The near-bank FC-PIM devices.
};

/** FC scheduling policy of a platform (paper-level shorthand). */
enum class FcPolicy : std::uint8_t
{
    AlwaysGpu, ///< Static: FC on the GPU (AttAcc/HBM-PIM baselines).
    AlwaysPim, ///< Static: FC on PIM (AttAcc-only, PIM-only PAPI).
    Dynamic,   ///< PAPI: AI-threshold dynamic scheduling.
    Oracle,    ///< Ablation: pick the faster target with hindsight.
};

/** Printable policy name ("always-gpu", "dynamic", ...). */
const char *fcPolicyName(FcPolicy policy);
/** Printable target name ("gpu" or "fc-pim"). */
const char *fcTargetName(FcTarget target);
/** Inverse of fcPolicyName; fatal on unknown names. */
FcPolicy fcPolicyFromName(const std::string &name);
/** Inverse of fcTargetName; fatal on unknown names. */
FcTarget fcTargetFromName(const std::string &name);

// -------------------------------------------------- dispatch policy

/** How a phase picks among its candidate targets. */
enum class DispatchRule : std::uint8_t
{
    Static,    ///< Always the first (pinned) candidate.
    Threshold, ///< AI-threshold rule between a target pair.
    Oracle,    ///< Fastest candidate by the cost model (hindsight).
};

/** Printable rule name ("static", "threshold", "oracle"). */
const char *dispatchRuleName(DispatchRule rule);
/** Inverse of dispatchRuleName; fatal on unknown names. */
DispatchRule dispatchRuleFromName(const std::string &name);

/**
 * Declarative per-phase policy: a rule over candidate target names,
 * resolved against the owning platform's registry at construction.
 *
 *  - Static: targets = { pin }.
 *  - Threshold: targets = { below, above } - the memory-bound side
 *    (AI <= alpha) first, the compute-bound side second.
 *  - Oracle: targets = the raced candidates (two or more).
 *
 * An empty target list means "unset"; Platform derives a default
 * from the legacy FcPolicy (FC), the attention devices (attention),
 * or GPU presence (prefill).
 */
struct DispatchPolicy
{
    DispatchRule rule = DispatchRule::Static; ///< Selection rule.
    std::vector<std::string> targets;         ///< Candidate names.

    /** True if the policy was explicitly set (non-empty targets). */
    bool configured() const { return !targets.empty(); }
};

/** Static pin to one named target. */
DispatchPolicy staticDispatch(std::string target);
/** Threshold rule between @p below (AI <= alpha) and @p above. */
DispatchPolicy thresholdDispatch(std::string below, std::string above);
/** Oracle race over @p targets. */
DispatchPolicy oracleDispatch(std::vector<std::string> targets);
/** Translate the paper-level FcPolicy into a registry policy. */
DispatchPolicy dispatchFromFcPolicy(FcPolicy policy);

/**
 * Printable round-trippable form: "static:gpu",
 * "threshold:fc-pim->gpu", "oracle:gpu,fc-pim".
 */
std::string dispatchPolicyName(const DispatchPolicy &policy);
/** Inverse of dispatchPolicyName; fatal on malformed strings. */
DispatchPolicy dispatchPolicyFromName(const std::string &name);

// ----------------------------------------------- threshold decision

/**
 * Pluggable arithmetic-intensity estimate for threshold dispatch.
 * The default is the paper's Eq. 2 (RLP x TLP); MoE deployments
 * supply llm::moeFcIntensityEstimate (Section 6.5).
 */
using AiEstimateFn =
    std::function<double(std::uint32_t rlp, std::uint32_t tlp)>;

/** The pair of targets a calibrated threshold separates. */
struct TargetPair
{
    TargetId below = 0; ///< Memory-bound side (AI <= alpha).
    TargetId above = 1; ///< Compute-bound side (AI > alpha).
};

/** Outcome of one dispatch pick. */
struct DispatchDecision
{
    TargetId target = 0;      ///< The selected target.
    double estimatedAi = 0.0; ///< AI estimate (threshold rule only).
};

/**
 * The paper's Section 5 rule behind PhaseDispatcher's Threshold
 * policy: estimate AI from the parallelism and route estimates
 * strictly greater than @p alpha to @p pair.above.
 */
DispatchDecision thresholdDecision(double alpha, std::uint32_t rlp,
                                   std::uint32_t tlp,
                                   const AiEstimateFn &estimator,
                                   TargetPair pair);

// --------------------------------------------------- bound dispatch

class Platform;

/**
 * A DispatchPolicy bound to a platform's registry: resolves the
 * candidate names to TargetIds once and makes per-iteration picks.
 * Copyable and cheap; engines build one per phase per run (the
 * threshold alpha is a runtime parameter, not a platform property).
 */
class PhaseDispatcher
{
  public:
    /**
     * Bind @p platform's policy for @p phase.
     * @param alpha Threshold for the Threshold rule (ignored by
     *        Static and Oracle).
     * @param estimator AI estimate override (Threshold rule).
     */
    PhaseDispatcher(const Platform &platform, Phase phase,
                    double alpha = 0.0, AiEstimateFn estimator = {});

    /** The phase this dispatcher serves. */
    Phase phase() const { return _phase; }
    /** The policy's selection rule. */
    DispatchRule rule() const { return _rule; }
    /** The resolved candidate ids, in policy order. */
    const std::vector<TargetId> &candidates() const { return _ids; }
    /** The threshold (Threshold rule only). */
    double alpha() const { return _alpha; }
    /** The threshold pair (Threshold rule only; fatal otherwise). */
    TargetPair pair() const;

    /**
     * Pick the FC-phase target for a decode iteration.
     * @param rlp Live request-level parallelism (AI estimate).
     * @param tlp Speculation length (AI estimate).
     * @param tokens FC token count actually executed (oracle cost
     *        queries); differs from rlp*tlp on padded static batches.
     */
    DispatchDecision select(const llm::ModelConfig &model,
                            std::uint32_t rlp, std::uint32_t tlp,
                            std::uint32_t tokens) const;

    /** Pick the attention-phase target over live contexts. */
    DispatchDecision
    selectAttention(const llm::ModelConfig &model,
                    const std::vector<std::uint32_t> &ctx_lens,
                    std::uint32_t tlp) const;

    /** Pick the prefill target over admitted prompt lengths. */
    DispatchDecision
    selectPrefill(const llm::ModelConfig &model,
                  const std::vector<std::uint32_t> &input_lens) const;

  private:
    const Platform *_platform;
    Phase _phase;
    DispatchRule _rule;
    std::vector<TargetId> _ids;
    double _alpha;
    AiEstimateFn _estimator;
};

} // namespace papi::core

#endif // PAPI_CORE_DISPATCH_POLICY_HH
