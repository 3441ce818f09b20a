// Top-level accelerator simulator: the full functional datapath (fp16 VPU,
// SPU submodules, KV8 cache, Fig. 4 formats) plus the cycle model.
//
// It is a DecodeBackend: decode_batch executes one decode step exactly as the
// hardware would — weights dequantized from the interleaved bus stream,
// activations in fp16, RoPE from the quarter-wave ROM, three-pass softmax,
// online KV quantization with the scale-zero FIFO — and last_step_cost()
// reports the step's simulated latency on the KV260 memory system.
// Functional results are therefore validated against the float reference
// while timing reproduces the paper's decode-speed numbers.
//
// With max_batch > 1 it owns that many independent KV session slots (per-slot
// arena sequence, position, and scale-zero FIFO) and decode_batch advances
// any subset of them in one simulated step.
// The step runs as the device executes it and as it is priced
// (DecodeCycleModel::batch_timing): layer by layer across the lanes, each
// weight stream walked and dequantized once for the whole batch
// (DotEngine::gemm), KV streams and SPU work per session. Every lane performs
// the same fp16 operations in the same order as a solo run, so its logits are
// bit-identical to one; the serving layer reports simulated KV260 serving
// throughput, not just single-stream decode.
//
// KV storage: the slots' KV8 rows live in a kvpool::PagedQuantizedKvArena
// (one sequence per slot), the same page store the host engine uses, so
// both backends share its quantizer and its copy-on-write, cadence and
// pool-exhaustion rules. The arena quantizes each token's RoPE'd K and V into
// its codes and packs regions, and the FIFO takes each pack from the stored
// row. Attention reads history through the slot's block table. Pages are
// AccelConfig::kv_page_tokens tokens, sized by kvpool::pool_config as on the
// host (0 = its 16-token default), and the pool holds
// AcceleratorOptions::kv_pool_pages of them.
//
// Paged KV (AccelConfig::kv_page_tokens > 0): the cycle model prices a
// session's history as one DDR burst per block-table page (each with its own
// descriptor overhead) instead of one contiguous burst, and the twin shares
// prefixes through prefix::PrefixStore like the host. Functional results are
// unchanged — paging is a capacity/layout property.
//
// Slots, positions, reservation, the step checks and the prefix calls come
// from engine::PagedBackend, as on the host; the twin adds its one piece of
// per-slot state outside the arena, the scale-zero FIFO, through the base's
// reset and adoption hooks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/cycle_model.hpp"
#include "accel/hw_exp.hpp"
#include "accel/packed_model.hpp"
#include "accel/spu_rmsnorm.hpp"
#include "accel/spu_rope.hpp"
#include "accel/spu_silu.hpp"
#include "accel/spu_softmax.hpp"
#include "accel/vpu.hpp"
#include "engine/paged_backend.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "quant/scale_zero_pack.hpp"

namespace efld::accel {

struct AcceleratorOptions {
    AccelConfig accel{};
    memsim::MemorySystemConfig mem = memsim::MemorySystemConfig::kv260();
    // Concurrent KV session slots (DecodeBackend), each with its own arena
    // sequence, position, and scale-zero FIFO.
    std::size_t max_batch = 1;
    // KV arena size in pages. 0 = max_batch full-context sessions; the
    // serving layer's CapacityGovernor sizes it from the DDR budget, as it
    // does EngineOptions::kv_pool_pages for the host.
    std::size_t kv_pool_pages = 0;
};

class Accelerator : public engine::PagedBackend {
public:
    // Non-owning: `m` must outlive the accelerator.
    explicit Accelerator(const PackedModel& m, AcceleratorOptions opts = {});

    // The slot's scale-zero FIFO (Fig. 4B).
    [[nodiscard]] const quant::ScaleZeroFifo& scale_zero_fifo(std::size_t slot) const;
    [[nodiscard]] DecodeCycleModel& cycle_model() noexcept { return timing_; }

    // --- engine::DecodeBackend ---
    [[nodiscard]] std::string_view name() const noexcept override { return "accel"; }
    // One token per slot per step (max_feed_tokens() stays 1): a span longer
    // than one row is rejected. Pricing prompt tiles through the cycle
    // model's prefill tile walk is not modeled here yet.
    using DecodeBackend::decode_batch;
    void decode_batch(std::span<const std::int32_t> tokens,
                      std::span<const std::size_t> slots,
                      std::span<const std::size_t> rows,
                      std::span<float> logits_out) override;

protected:
    // A reset slot starts an empty FIFO.
    void on_reset_session(std::size_t slot) override;
    // Adoption replays the adopted packs through the slot's fresh FIFO,
    // leaving it exactly as a prefill of the covered tokens would.
    void on_prefix_adopted(std::size_t slot, std::size_t covered) override;

private:
    // One functional forward pass of tokens[b] through session slots[b] for
    // every lane b (a step that passed check_step), layer by layer across the
    // lanes: each weight stream is walked once (DotEngine::gemm) and feeds
    // all lanes. Writes float logits ([nb][vocab]) and advances each slot's
    // position. No timing.
    void forward(std::span<const std::int32_t> tokens, std::span<const std::size_t> slots,
                 std::span<float> logits_out);

    // xn_ = RMSNorm(x_) with `weight`, for lanes [0, nb).
    void norm(std::span<const Fp16> weight, std::size_t nb);

    // One layer's halves of the forward pass over lanes [0, slots.size()),
    // reading and updating x_.
    void attention(std::size_t layer, std::span<const std::size_t> slots);
    void mlp(std::size_t layer, std::size_t nb);
    // Lane `lane`'s per-session part of attention(): RoPE, KV8 quantize and
    // store into session `slot`, and head-wise attention into att_out_.
    void attend(std::size_t layer, std::size_t lane, std::size_t slot);
    // Pushes token `tok`'s stored K and V packs for `layer` through the slot's
    // scale-zero FIFO, head by head (keys before values).
    void push_packs(std::size_t slot, std::size_t layer, std::size_t tok);

    const PackedModel* model_;
    AcceleratorOptions opts_;
    DecodeCycleModel timing_;

    HwExp exp_;
    SpuRope rope_;
    SpuRmsNorm rms_;
    SpuSoftmax softmax_;
    SpuSilu silu_;
    DotEngine vpu_;
    std::vector<quant::ScaleZeroFifo> sz_fifo_;  // one per session slot

    // Forward-pass scratch, sized once at construction so a step allocates
    // none. fp16 vectors feed the SPUs and GEMVs; the float ones hold exact
    // fp16 lanes for the KV store and the attention dot products.
    // Per-lane vectors are [max_batch][n]; attention scratch is single, since
    // lanes attend one after another.
    std::vector<Fp16> x_, xn_, q_, k_, v_, att_out_, proj_;  // [lane][dim / kv_dim]
    std::vector<Fp16> gate_, up_, hidden_;                   // [lane][hidden_dim]
    std::vector<Fp16> logits_h_;                             // [lane][vocab_size]
    std::vector<Fp16> scores_, probs_;                       // max_seq_len
    std::vector<float> q_head_, kv_head_, out_head_;         // head_dim
    std::vector<float> k_row_, v_row_;                       // kv_dim

    kvpool::PagedQuantizedKvArena kv_;       // slot s = arena sequence s
    std::vector<std::size_t> ctx_scratch_;   // batch pricing, no per-step alloc
};

}  // namespace efld::accel
