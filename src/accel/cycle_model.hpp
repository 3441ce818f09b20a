// Decode-phase cycle model: walks the fused pipeline schedule (Fig. 3) over
// the memory-system substrate and reports per-token latency.
//
// Decoding is bandwidth-bound: each operation's wall time is the max of its
// weight/KV stream time (from memsim) and its VPU occupancy. Miscellaneous
// SPU work (RoPE, RMSNorm, softmax, SiLU, online quant) is *hidden* inside
// the dense streams in the paper's fine-grained head-wise pipeline; a
// DFX-style coarse pipeline exposes it serially. Both schedules are modeled
// so the Fig. 3 mechanism is measurable.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accel/mcu.hpp"
#include "memsim/memory_system.hpp"
#include "model/config.hpp"

namespace efld::accel {

struct AccelConfig {
    double clock_mhz = 300.0;  // PL clock (the paper closes timing at 300 MHz)
    std::size_t vpu_lanes = 128;

    // Schedule: true = paper's fine-grained head-wise fusion; false = coarse
    // stage-by-stage pipeline (DFX-style baseline).
    bool fine_grained_fusion = true;

    // Per-operation FSM/datamover startup that cannot overlap computation.
    unsigned op_start_overhead_clk = 32;
    // Head/layer switch bubbles (operand FIFO turnaround).
    unsigned head_overhead_clk = 16;
    unsigned layer_overhead_clk = 128;
    // Per-token PS turnaround: AXI-Lite command, sampling, next-token sync.
    unsigned token_overhead_clk = 3000;

    // Paged KV streaming: > 0 prices each session's KV history as one
    // descriptor per kv_page_tokens-token page instead of one burst per
    // history — the datamover cost of the kvpool block tables. Each page is a
    // separate transaction paying its own FSM start, so paging trades a
    // little decode latency for the capacity headroom the pool buys. Byte
    // counts are unchanged when the page is a multiple of the 16-token pack
    // word. 0 = contiguous per-session KV regions.
    std::size_t kv_page_tokens = 0;

    [[nodiscard]] double clk_ns() const noexcept { return 1000.0 / clock_mhz; }
};

struct OpTiming {
    std::string name;
    double mem_ns = 0.0;      // stream time from the memory system
    double compute_ns = 0.0;  // VPU occupancy
    double spu_ns = 0.0;      // misc work attached to this op
    bool spu_hidden = false;  // hidden inside the dense stream?
    double total_ns = 0.0;
};

struct TokenTiming {
    double total_ns = 0.0;
    double mem_bound_ns = 0.0;     // sum of max(mem, compute) terms
    double spu_exposed_ns = 0.0;   // misc work that was NOT hidden
    double overhead_ns = 0.0;      // FSM/head/layer/token bubbles
    std::uint64_t weight_bytes = 0;
    std::uint64_t kv_read_bytes = 0;
    std::uint64_t kv_write_bytes = 0;
    std::vector<OpTiming> ops;     // populated when collect_ops is set

    [[nodiscard]] double tokens_per_s() const noexcept {
        return total_ns > 0.0 ? 1e9 / total_ns : 0.0;
    }
};

struct GenerationTiming {
    double total_ns = 0.0;
    std::size_t tokens = 0;

    [[nodiscard]] double tokens_per_s() const noexcept {
        return total_ns > 0.0 ? static_cast<double>(tokens) * 1e9 / total_ns : 0.0;
    }
};

// Prefill-phase timing (Fig. 2A). The paper's vector engine trades prefill
// performance for decode PPA: prompt tokens are processed in on-chip tiles of
// `tile_tokens`, streaming the weights once per tile but occupying the
// 128-lane VPU for `tile_tokens` cycles per weight group — compute-bound for
// any tile larger than one token.
struct PrefillTiming {
    double total_ns = 0.0;  // time to first token (TTFT)
    std::size_t prompt_tokens = 0;
    double compute_ns = 0.0;     // VPU-occupancy portion
    double mem_ns = 0.0;         // weight/KV stream portion
    std::uint64_t weight_bytes = 0;

    [[nodiscard]] double tokens_per_s() const noexcept {
        return total_ns > 0.0
                   ? static_cast<double>(prompt_tokens) * 1e9 / total_ns
                   : 0.0;
    }
    [[nodiscard]] bool compute_bound() const noexcept { return compute_ns > mem_ns; }
};

class DecodeCycleModel {
public:
    DecodeCycleModel(const model::ModelConfig& cfg, const model::QuantScheme& scheme,
                     const AccelConfig& accel,
                     const memsim::MemorySystemConfig& mem =
                         memsim::MemorySystemConfig::kv260());

    // Latency of decoding one token with `ctx` cached tokens. Exactly
    // batch_timing({ctx}).
    TokenTiming token_timing(std::size_t ctx, bool collect_ops = false);

    // Latency of ONE batched decode step advancing ctxs.size() concurrent
    // sessions, lane b holding ctxs[b] cached tokens. This is the serving
    // counterpart of token_timing and the device-side mirror of the host's
    // skinny GEMM: each weight stream crosses the bus ONCE while the VPU runs
    // one dot per lane per group (compute scales with the batch, weight
    // traffic does not — same trade as prefill_timing's tiles); KV streams,
    // writebacks, and SPU work are per-session, each lane priced at its own
    // context length. Because the paper balances the VPU width to the stream
    // rate, dense ops flip compute-bound for batch >= 2 — the serving gain on
    // unmodified KV260 hardware comes from the once-per-step overheads
    // (FSM starts, head/layer bubbles, PS token turnaround) and the shared
    // streams, and tokens/s still rises monotonically with the batch.
    // batch_timing({ctx}) is bit-identical to token_timing(ctx).
    TokenTiming batch_timing(std::span<const std::size_t> ctxs,
                             bool collect_ops = false);

    // Total time for `n_tokens` decode steps starting after `prompt_len`
    // cached tokens (each step's context grows by one).
    GenerationTiming generate_timing(std::size_t prompt_len, std::size_t n_tokens);

    // TTFT for a `prompt_len`-token prompt with `tile_tokens` processed per
    // weight pass (limited by on-chip activation storage; 16 on the KV260).
    PrefillTiming prefill_timing(std::size_t prompt_len, std::size_t tile_tokens = 16);

    // Hypothetical matrix-engine prefill (weights streamed once, a
    // `macs_per_cycle`-wide systolic array reusing them) — the comparison
    // point behind Chen et al.'s prefill/decode asymmetry analysis.
    [[nodiscard]] double matrix_engine_prefill_ns(std::size_t prompt_len,
                                                  double macs_per_cycle);

    // Decode speed as a fraction of the paper's theoretical bandwidth limit
    // (bandwidth / (projection+head params at 4 bits) — Table II footnote 1).
    [[nodiscard]] double bandwidth_utilization(std::size_t ctx);

    [[nodiscard]] const Mcu& mcu() const noexcept { return mcu_; }
    [[nodiscard]] const AccelConfig& accel_config() const noexcept { return accel_; }
    [[nodiscard]] memsim::MemorySystem& memory() noexcept { return *mem_; }

private:
    struct OpCtx {
        TokenTiming* out;
        bool collect;
    };

    // Records one dense op: stream transaction + VPU cycles + attached SPU ns.
    void dense_op(OpCtx& octx, const std::string& name, const memsim::Transaction& txn,
                  std::uint64_t vpu_cycles, double spu_ns);
    void spu_only_op(OpCtx& octx, const std::string& name, double spu_ns);

    model::ModelConfig cfg_;
    model::QuantScheme scheme_;
    AccelConfig accel_;
    Mcu mcu_;
    std::unique_ptr<memsim::MemorySystem> mem_;
};

}  // namespace efld::accel
