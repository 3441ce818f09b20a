// Constructs DecodeBackend implementations from one set of quantized model
// weights, so callers (the serve engine, benches, tests) select the engine
// with an option instead of hard-wiring a concrete type:
//
//   kHost  — model::ReferenceEngine, the fused skinny-GEMM host fast path.
//            Real wall-clock throughput; StepCost::simulated_ns is 0.
//   kAccel — accel::Accelerator, the functional KV260 twin priced by the
//            cycle model. Wall time is simulation overhead; the meaningful
//            number is StepCost::simulated_ns (what the device would take).
//
// The accel backend consumes a PackedModel (the Fig. 4 interleaved DDR
// image), which the factory builds from the quantized weights and the bundle
// owns — callers keep the one-weights-object lifetime model they already
// have for the host path.
#pragma once

#include <memory>
#include <string_view>

#include "accel/accelerator.hpp"
#include "engine/decode_backend.hpp"
#include "model/reference_engine.hpp"
#include "model/weights.hpp"

namespace efld::engine {

enum class BackendKind { kHost, kAccel };

[[nodiscard]] std::string_view to_string(BackendKind kind) noexcept;
// Parses "host" / "accel"; throws std::invalid_argument otherwise.
[[nodiscard]] BackendKind backend_kind_from_string(std::string_view name);

// A backend plus the storage it borrows from: the accel backend's packed DDR
// image lives here (null for the host backend, which reads the quantized
// weights directly). Movable; the backend's internal pointers stay valid
// because both members live behind unique_ptrs.
struct BackendBundle {
    std::unique_ptr<accel::PackedModel> packed;
    std::unique_ptr<DecodeBackend> backend;
};

// Builds the selected backend around `weights` (non-owning for kHost:
// `weights` must outlive the bundle; kAccel copies what it needs into the
// packed image). host_opts.max_batch, kv_page_tokens and kv_pool_pages size
// the slots and the KV page pool for both kinds; kAccel prices its steps
// with the default AccelConfig on the KV260 memory system (construct an
// accel::Accelerator directly for any other cycle-model configuration).
// A non-empty `fault_spec` (see fault_injection.hpp for the grammar) wraps
// the backend in a FaultInjectingBackend with that scripted schedule, so
// tests and benches can spawn an engine guaranteed to die at step K; throws
// std::invalid_argument on a malformed spec.
[[nodiscard]] BackendBundle make_backend(BackendKind kind,
                                         const model::QuantizedModelWeights& weights,
                                         const model::EngineOptions& host_opts,
                                         std::string_view fault_spec = {});

}  // namespace efld::engine
