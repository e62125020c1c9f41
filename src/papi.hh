/**
 * @file
 * Umbrella header: the complete public API of the PAPI library.
 *
 * Downstream users can include this single header; the individual
 * module headers remain available for finer-grained dependencies.
 */

#ifndef PAPI_PAPI_HH
#define PAPI_PAPI_HH

// Simulation kernel.
#include "sim/clocked.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

// HBM3 DRAM substrate.
#include "dram/address.hh"
#include "dram/bank.hh"
#include "dram/command.hh"
#include "dram/controller.hh"
#include "dram/energy.hh"
#include "dram/hbm_stack.hh"
#include "dram/pseudo_channel.hh"
#include "dram/request.hh"
#include "dram/timing.hh"

// Near-bank PIM devices.
#include "pim/area_model.hh"
#include "pim/attention_engine.hh"
#include "pim/data_layout.hh"
#include "pim/energy_model.hh"
#include "pim/gemv_engine.hh"
#include "pim/mapping.hh"
#include "pim/pim_config.hh"
#include "pim/pim_device.hh"
#include "pim/power_model.hh"
#include "pim/trace_validator.hh"

// Computation-centric processor and fabrics.
#include "gpu/gpu_config.hh"
#include "gpu/gpu_model.hh"
#include "interconnect/link.hh"

// LLM workloads.
#include "llm/arrival.hh"
#include "llm/batch.hh"
#include "llm/kernel_spec.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"
#include "llm/moe.hh"
#include "llm/request.hh"
#include "llm/speculative.hh"
#include "llm/trace.hh"
#include "llm/trace_io.hh"

// PAPI core: scheduling, platforms, engines, reporting.
#include "core/ai_estimator.hh"
#include "core/config_loader.hh"
#include "core/decode_engine.hh"
#include "core/dispatch_policy.hh"
#include "core/metrics.hh"
#include "core/platform.hh"
#include "core/report.hh"
#include "core/serving_engine.hh"
#include "core/threshold_calibrator.hh"

#endif // PAPI_PAPI_HH
