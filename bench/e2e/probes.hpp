// Per-layer probes of the traced run: timed direct calls into each module's
// public functions, run after the load phase so they never overlap the load
// being measured. Each adds `<module>.<metric>` rows to the report and one
// bench span per timed sample to the trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "cluster/cluster_router.hpp"
#include "measure.hpp"
#include "model/config.hpp"
#include "model/weights.hpp"

namespace efld::bench {

// Times `reps` samples of `inner` calls of fn each; returns µs per call and
// logs one span per sample.
template <class F>
Samples time_us(SpanLog& spans, const char* name, std::size_t reps, std::size_t inner,
                F&& fn) {
    Samples us;
    for (std::size_t r = 0; r < reps; ++r) {
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < inner; ++i) fn();
        const std::uint64_t t1 = now_ns();
        spans.slice(name, 4, t0, t1);
        us.add(static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(inner));
    }
    return us;
}

// model.op_us.*, model.step_ms.*, model.op_coverage, model.thread_speedup
// and quant.weight_gbps on the deployment's weights with a bench-owned pool
// of `threads`.
void probe_model(Report& rep, SpanLog& spans, const model::QuantizedModelWeights& qw,
                 std::size_t threads);

// accel.op_sim_us.*, accel.{mem_bound_frac,overhead_frac,achieved_gbps},
// memsim.* and runtime.{weight_gib,kv_gib} for one geometry on the KV260
// cycle model.
void probe_cycle_model(Report& rep, SpanLog& spans, const model::ModelConfig& cfg);

// accel.pricing_us and accel.sim_step_us.b4: one batch_timing call over four
// lanes of `cfg`.
void probe_pricing(Report& rep, SpanLog& spans, const model::ModelConfig& cfg);

// accel.twin_step_ms.{b1,b4}: direct Accelerator::decode_batch calls.
void probe_twin(Report& rep, SpanLog& spans, const model::QuantizedModelWeights& qw);

// cluster.wire_codec_us: encode + decode of a typical request and response.
void probe_wire(Report& rep, SpanLog& spans);

// prefix.probe_us: ServeEngine::probe_prefix on shard 0 for `prompt`.
void probe_prefix(Report& rep, SpanLog& spans, cluster::ClusterRouter& router,
                  std::span<const std::int32_t> prompt);

}  // namespace efld::bench
