#include "engine/backend_factory.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "engine/fault_injection.hpp"

namespace efld::engine {

std::string_view to_string(BackendKind kind) noexcept {
    return kind == BackendKind::kAccel ? "accel" : "host";
}

BackendKind backend_kind_from_string(std::string_view name) {
    if (name == "host") return BackendKind::kHost;
    if (name == "accel") return BackendKind::kAccel;
    throw std::invalid_argument("unknown backend '" + std::string(name) +
                                "' (expected host|accel)");
}

BackendBundle make_backend(BackendKind kind, const model::QuantizedModelWeights& weights,
                           const model::EngineOptions& host_opts,
                           accel::AcceleratorOptions accel_opts,
                           std::string_view fault_spec) {
    // Parse before building: a malformed spec must not cost a packed-model
    // construction just to throw.
    const FaultPlan plan = parse_fault_plan(fault_spec);
    BackendBundle b;
    if (kind == BackendKind::kHost) {
        b.backend = std::make_unique<model::ReferenceEngine>(weights, host_opts);
    } else {
        b.packed =
            std::make_unique<accel::PackedModel>(accel::PackedModel::build(weights));
        accel_opts.max_batch = host_opts.max_batch;
        // Same page layout and pool as the host: the twin stores its KV in a
        // kvpool arena and prices the per-page bursts in its cycle model.
        accel_opts.accel.kv_page_tokens = host_opts.kv_page_tokens;
        accel_opts.kv_pool_pages = host_opts.kv_pool_pages;
        b.backend = std::make_unique<accel::Accelerator>(*b.packed, accel_opts);
    }
    if (!plan.empty()) {
        b.backend = std::make_unique<FaultInjectingBackend>(std::move(b.backend),
                                                            plan);
    }
    return b;
}

}  // namespace efld::engine
