/**
 * @file
 * Platform composition: PAPI and the baseline systems it is compared
 * against (paper Section 7.1).
 *
 * Every platform has 90 HBM devices: 30 holding FC weights and 60
 * holding KV caches. What differs is the compute attached to them
 * and the FC scheduling policy:
 *
 *  - A100+AttAcc: FC on 6 A100 GPUs (weights in plain GPU HBM),
 *    attention on AttAcc-style 1P1B PIM devices.
 *  - A100+HBM-PIM: as above with Samsung HBM-PIM (1P2B) attention
 *    devices.
 *  - AttAcc-only: FC and attention both on 1P1B PIM devices, no GPU.
 *  - PAPI: FC dynamically scheduled between GPU PUs and FC-PIM
 *    (4P1B, 12 GB) devices; attention on Attn-PIM (1P2B) devices.
 *  - PIM-only PAPI: FC always on FC-PIM, attention on Attn-PIM
 *    (the ablation of Fig. 11/12).
 *
 * Each Platform owns an execution-target registry (core::ExecTarget)
 * describing every compute resource it can run a kernel phase on -
 * "gpu", "fc-pim", "attn-pim" as configured - and one DispatchPolicy
 * per phase (prefill, FC, attention) selecting over that registry.
 * The paper-level FcPolicy enum remains the configuration shorthand;
 * it is translated into a registry policy at construction, and
 * explicit per-phase policies in PlatformConfig override it.
 */

#ifndef PAPI_CORE_PLATFORM_HH
#define PAPI_CORE_PLATFORM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatch_policy.hh"
#include "core/exec_target.hh"
#include "gpu/gpu_model.hh"
#include "interconnect/link.hh"
#include "llm/kernel_spec.hh"
#include "llm/model_config.hh"
#include "pim/pim_device.hh"
#include "sim/flat_memo.hh"

/**
 * @namespace papi
 * PAPI reproduction: GPU/PIM LLM-serving simulation.
 */
/**
 * @namespace papi::core
 * Platform composition, dynamic scheduling, and serving engines.
 */
namespace papi::core {

/** Structural description of a platform. */
struct PlatformConfig
{
    std::string name = "platform"; ///< Display/report name.
    FcPolicy fcPolicy = FcPolicy::Dynamic; ///< FC scheduling policy.

    /**
     * Per-phase dispatch policies over the target registry. Unset
     * (empty-target) policies are derived at Platform construction:
     * FC from @ref fcPolicy, attention pinned to "attn-pim", prefill
     * pinned to "gpu" when present else "fc-pim". Setting these
     * explicitly overrides the legacy enum and admits shapes the
     * enum cannot express (e.g. oracle attention offload).
     */
    DispatchPolicy fcDispatch;      ///< FC phase policy.
    DispatchPolicy attnDispatch;    ///< Attention phase policy.
    DispatchPolicy prefillDispatch; ///< Prefill phase policy.

    /**
     * True if the system tracks runtime RLP (PAPI's token-level
     * <eos> counting, Section 5.2.2) and shrinks the FC token count
     * as requests finish. Static-batching baselines keep computing
     * the padded batch until it drains (the paper's Shortcoming 1);
     * this costs the GPU baselines almost nothing (their FC roofline
     * is flat in the memory-bound regime) but is ruinous for
     * PIM-executed FC, whose latency scales with tokens.
     */
    bool tracksRuntimeRlp = false;

    bool hasGpu = true;        ///< False for PIM-only systems.
    std::uint32_t numGpus = 6; ///< GPUs in the tensor-parallel group.
    gpu::GpuSpec gpuSpec;      ///< Per-GPU roofline parameters.

    /** Devices holding FC weights (GPU-attached). */
    pim::PimConfig fcDeviceConfig;
    std::uint32_t numFcDevices = 30; ///< Devices in the FC fleet.
    /** True if the FC devices have usable near-bank compute. */
    bool fcDevicesCompute = true;

    /** Disaggregated devices holding KV caches. */
    pim::PimConfig attnDeviceConfig;
    std::uint32_t numAttnDevices = 60; ///< Devices in the KV fleet.

    interconnect::Topology topology; ///< Fabric link classes.
    /** Parallel links aggregating the FC fabric. */
    std::uint32_t fcFabricLinks = 6;
    /** Parallel links aggregating the attention fabric. */
    std::uint32_t attnFabricLinks = 8;

    /**
     * Fraction of the shorter of the FC/attention phases that can
     * hide under the longer one via sub-batch interleaving (the
     * NeuPIMs/SpecPIM-style co-execution of related work). 0 = fully
     * serial phases (kernels within a layer are dependent); 1 =
     * perfect cross-layer pipelining. Applies only when the phases
     * run on different hardware (FC on GPU/FC-PIM vs attention on
     * Attn-PIM).
     */
    double phaseOverlapFraction = 0.0;

    /** Non-GEMV per-layer overhead (layernorm, residual), seconds. */
    double otherPerLayerSeconds = 0.5e-6;
    /** Per-iteration overhead (sampling, token gather), seconds. */
    double otherPerIterationSeconds = 30.0e-6;

    pim::PimEnergyParams pimEnergyParams; ///< PIM energy constants.
};

/** An instantiated platform with its device models. */
class Platform
{
  public:
    /** Instantiate the device models @p config describes. */
    explicit Platform(const PlatformConfig &config);

    /**
     * Non-copyable: the target registry's cost callbacks bind
     * `this`, so a copied or moved platform would dangle.
     */
    Platform(const Platform &) = delete;
    /** Non-copyable (see the copy constructor). */
    Platform &operator=(const Platform &) = delete;

    /** The structural description this platform was built from. */
    const PlatformConfig &config() const { return _config; }
    /** Display name (from the config). */
    const std::string &name() const { return _config.name; }
    /** True if the platform has GPU processing units. */
    bool hasGpu() const { return _config.hasGpu; }

    /** The FC-weight device model. */
    const pim::PimDevice &fcDevice() const { return *_fcDevice; }
    /** The KV-cache (attention) device model. */
    const pim::PimDevice &attnDevice() const { return *_attnDevice; }
    /** The GPU model, or nullptr for PIM-only platforms. */
    const gpu::GpuModel *gpuModel() const { return _gpu.get(); }

    // ------------------------------------------ target registry

    /** The platform's execution targets, in registration order. */
    const TargetRegistry &targets() const { return _registry; }

    /** Id of the target named @p name; fatal if absent. */
    TargetId targetId(std::string_view name) const;

    /** The resolved dispatch policy for @p phase. */
    const DispatchPolicy &dispatchPolicy(Phase phase) const;

    /**
     * Bind @p phase's policy into a dispatcher with runtime
     * threshold @p alpha and optional AI-estimate override.
     */
    PhaseDispatcher dispatcher(Phase phase, double alpha = 0.0,
                               AiEstimateFn estimator = {}) const;

    /** Registry id of the legacy two-way FC target; fatal if absent. */
    TargetId targetIdFor(FcTarget target) const;

    /** Two-way view of a registry target (Gpu kind vs everything else). */
    FcTarget legacyFcTarget(TargetId id) const;

    /**
     * Verify the model's weights fit the FC devices and a batch's
     * peak KV cache fits the attention devices; fatal otherwise.
     */
    void validateFit(const llm::ModelConfig &model,
                     std::uint64_t peak_kv_bytes) const;

    // ------------------------------------------ phase execution

    /**
     * One decode iteration's FC phase (all layers, all sub-kernels)
     * with @p tokens = RLP x TLP tokens, on registry target @p id.
     */
    KernelExec fcExec(const llm::ModelConfig &model,
                      std::uint32_t tokens, TargetId id) const;

    /** Legacy two-way overload of @ref fcExec. */
    KernelExec fcExec(const llm::ModelConfig &model,
                      std::uint32_t tokens, FcTarget target) const;

    /**
     * One decode iteration's attention phase over live contexts
     * @p ctx_lens with speculation length @p tlp, on registry
     * target @p id.
     */
    KernelExec attnExec(const llm::ModelConfig &model,
                        const std::vector<std::uint32_t> &ctx_lens,
                        std::uint32_t tlp, TargetId id) const;

    /** Attention phase on the platform's attention dispatch policy. */
    KernelExec attnExec(const llm::ModelConfig &model,
                        const std::vector<std::uint32_t> &ctx_lens,
                        std::uint32_t tlp) const;

    /** Prefill phase for @p input_lens on registry target @p id. */
    KernelExec prefillExec(const llm::ModelConfig &model,
                           const std::vector<std::uint32_t> &input_lens,
                           TargetId id) const;

    /** Prefill phase on the platform's prefill dispatch policy. */
    KernelExec prefillExec(const llm::ModelConfig &model,
                           const std::vector<std::uint32_t> &input_lens)
        const;

    /**
     * Incremental cost of one chunked-prefill step: each request i
     * has already prefilled @p prior_lens[i] prompt tokens and now
     * processes @p chunk_lens[i] more. Charged as the difference
     * between the full prefill of (prior + chunk) and of prior
     * alone, so prefill attention stays quadratic in the total
     * prompt (later chunks attend over earlier ones) and the chunks
     * of one prompt sum exactly to its monolithic prefill cost.
     * Vectors must be the same length; requests whose chunk is 0
     * contribute nothing.
     */
    KernelExec prefillChunkExec(
        const llm::ModelConfig &model,
        const std::vector<std::uint32_t> &prior_lens,
        const std::vector<std::uint32_t> &chunk_lens) const;

    /** Non-GEMV overhead of one decode iteration. */
    double otherSeconds(const llm::ModelConfig &model) const;

    /** The FC target a static policy implies (fatal otherwise). */
    FcTarget staticFcTarget() const;

  private:
    void buildRegistry();
    void resolveDispatch();

    /** Validate one resolved policy against the registry. */
    void validatePolicy(Phase phase,
                        const DispatchPolicy &policy) const;

    KernelExec fcOnGpu(const llm::ModelConfig &model,
                       std::uint32_t tokens) const;
    KernelExec fcOnPim(const llm::ModelConfig &model,
                       std::uint32_t tokens) const;

    /** Per-layer activation round trip to the attention devices. */
    double attnCommSeconds(const llm::ModelConfig &model,
                           std::uint32_t tokens) const;

    KernelExec attnOnPim(const llm::ModelConfig &model,
                         const std::vector<std::uint32_t> &ctx_lens,
                         std::uint32_t tlp) const;

    KernelExec prefillOnGpu(const llm::ModelConfig &model,
                            const std::vector<std::uint32_t>
                                &input_lens) const;
    KernelExec prefillOnPim(const llm::ModelConfig &model,
                            const std::vector<std::uint32_t>
                                &input_lens) const;

    /** KV-cache write-out to the attention fleet (shared tail). */
    void addKvWriteout(std::uint64_t kv_bytes, KernelExec &out) const;

    /**
     * Memoization of kernel-phase results. Every query above is a
     * pure function of the model's numeric shape and a handful of
     * workload scalars, and PAPI's online kernel characterization
     * re-prices the FC and attention phases at every decode
     * iteration of every replica - so the serving loop makes two
     * lookups per iteration here, and oracle policies and threshold
     * calibration re-ask the same shapes millions of times per
     * figure run. Keys fold the model's shape hash with the workload
     * shape into one sim::FlatMemo (dense entries, open-addressed
     * index); it is discarded wholesale at sim::flatMemoMaxEntries
     * (long serving sweeps with ever-changing context sums).
     */
    struct KernelKey
    {
        std::uint64_t model = 0;  ///< Hash of the model's shape fields.
        std::uint64_t shape0 = 0; ///< tokens / total context length.
        std::uint64_t shape1 = 0; ///< request count, TLP, ...
        std::uint64_t shape2 = 0; ///< prefill sum of squared lengths.
        std::uint32_t kind = 0;   ///< (phase, target id) of the query.

        bool operator==(const KernelKey &) const = default;
    };

    struct KernelKeyHash
    {
        std::uint64_t operator()(const KernelKey &k) const;
    };

    /** The nine ModelConfig fields the kernel costs depend on. */
    using ModelShape = std::array<std::uint32_t, 9>;
    static ModelShape modelShape(const llm::ModelConfig &model);
    static std::uint64_t shapeHash(const ModelShape &shape);

    /**
     * Hash of @p model's shape fields. Serving asks about one model
     * for a whole run, so the last shape and its hash are kept and
     * the fields are compared before rehashing.
     */
    std::uint64_t modelHash(const llm::ModelConfig &model) const;

    /** Look up @p key or compute-and-insert via @p compute. */
    template <typename ComputeFn>
    KernelExec cached(const KernelKey &key, ComputeFn &&compute) const;

    PlatformConfig _config;
    std::unique_ptr<pim::PimDevice> _fcDevice;
    std::unique_ptr<pim::PimDevice> _attnDevice;
    std::unique_ptr<gpu::GpuModel> _gpu;

    TargetRegistry _registry;
    TargetId _gpuId = kInvalidTargetId;
    TargetId _fcPimId = kInvalidTargetId;
    TargetId _attnPimId = kInvalidTargetId;
    DispatchPolicy _fcDispatch;      ///< Resolved FC policy.
    DispatchPolicy _attnDispatch;    ///< Resolved attention policy.
    DispatchPolicy _prefillDispatch; ///< Resolved prefill policy.
    /** Pre-bound dispatchers for the alpha-free phases (hot path). */
    std::optional<PhaseDispatcher> _attnDispatcher;
    std::optional<PhaseDispatcher> _prefillDispatcher;

    mutable sim::FlatMemo<KernelKey, KernelExec, KernelKeyHash>
        _kernelCache;
    /** modelHash()'s last shape and that shape's hash. */
    mutable ModelShape _lastShape{};
    mutable std::uint64_t _lastShapeHash = shapeHash({});
};

/** Factory: the PAPI system (dynamic scheduling, hybrid PIM). */
PlatformConfig makePapiConfig();
/** Factory: A100+AttAcc baseline. */
PlatformConfig makeA100AttAccConfig();
/** Factory: A100+HBM-PIM baseline. */
PlatformConfig makeA100HbmPimConfig();
/** Factory: AttAcc-only baseline (PIM-only, 1P1B everywhere). */
PlatformConfig makeAttAccOnlyConfig();
/** Factory: PIM-only PAPI (hybrid PIM, no GPU; Fig. 11/12). */
PlatformConfig makePimOnlyPapiConfig();

} // namespace papi::core

#endif // PAPI_CORE_PLATFORM_HH
