// Top-level accelerator simulator: the full functional datapath (fp16 VPU,
// SPU submodules, KV8 cache, Fig. 4 formats) plus the cycle model.
//
// step() executes one decode step exactly as the hardware would — weights
// dequantized from the interleaved bus stream, activations in fp16, RoPE from
// the quarter-wave ROM, three-pass softmax, online KV quantization with the
// scale-zero FIFO — and simultaneously reports the token's simulated latency
// on the KV260 memory system. Functional results are therefore validated
// against the float reference while timing reproduces the paper's
// decode-speed numbers.
//
// The accelerator is also a DecodeBackend: with max_batch > 1 it owns that
// many independent KV session slots (per-slot cache, position, and scale-zero
// FIFO) and decode_batch advances any subset of them in one simulated step.
// The functional math stays per-session (each lane is bit-identical to a solo
// run), but the step is PRICED as the device would execute it — weights
// streamed once for the whole batch, KV streams and SPU work per session
// (DecodeCycleModel::batch_timing) — so the serving layer can report
// simulated KV260 serving throughput, not just single-stream decode.
//
// Paged KV (AccelConfig::kv_page_tokens > 0): a session's KV history is
// priced as one DDR burst per block-table page (each with its own descriptor
// overhead) instead of one contiguous burst, matching the kvpool layout the
// serving layer budgets with. Functional results are unchanged — paging is a
// capacity/layout property; the twin's in-memory KV arrays are simulation
// scaffolding, not modeled DDR.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "accel/cycle_model.hpp"
#include "accel/hw_exp.hpp"
#include "accel/packed_model.hpp"
#include "accel/serial_to_parallel.hpp"
#include "accel/spu_quant.hpp"
#include "accel/spu_rmsnorm.hpp"
#include "accel/spu_rope.hpp"
#include "accel/spu_silu.hpp"
#include "accel/spu_softmax.hpp"
#include "accel/vpu.hpp"
#include "engine/decode_backend.hpp"
#include "model/sampler.hpp"
#include "prefix/prefix_index.hpp"
#include "quant/scale_zero_pack.hpp"

namespace efld::accel {

struct AcceleratorOptions {
    AccelConfig accel{};
    memsim::MemorySystemConfig mem = memsim::MemorySystemConfig::kv260();
    bool collect_timing = true;  // disable to run functional-only (faster)
    // Concurrent KV session slots (DecodeBackend). Each slot reserves its own
    // KV cache region, position, and scale-zero FIFO.
    std::size_t max_batch = 1;
    // Prefix sharing (requires accel.kv_page_tokens > 0): keep a store of
    // computed KV pages keyed by chained prompt-page hashes, so sessions whose
    // prompts start with an already-served prefix skip that prefill. The twin
    // has no shared physical pool — its in-memory caches are per-session
    // simulation scaffolding — so adoption deep-copies the stored entries
    // (bit-identical to re-prefilling) and there is no copy-on-write; the DDR
    // capacity effect is modeled by the serving layer's governor, the latency
    // effect by DecodeCycleModel::prefill_timing_shared. Off by default.
    bool prefix_sharing = false;
};

struct StepResult {
    std::vector<float> logits;
    TokenTiming timing;  // zeroed when collect_timing is off
};

struct GenerationResult {
    std::vector<std::int32_t> tokens;
    double total_ns = 0.0;

    [[nodiscard]] double tokens_per_s() const noexcept {
        return total_ns > 0.0
                   ? static_cast<double>(tokens.size()) * 1e9 / total_ns
                   : 0.0;
    }
};

class Accelerator : public engine::DecodeBackend {
public:
    // Non-owning: `m` must outlive the accelerator.
    explicit Accelerator(const PackedModel& m, AcceleratorOptions opts = {});

    // One decode step on slot 0 (the historical single-session API).
    StepResult step(std::int32_t token);

    // Prefills `prompt`, then decodes up to `max_new` tokens (stops at EOS id
    // if `eos` >= 0) on slot 0. Returns generated tokens and simulated decode
    // time.
    GenerationResult generate(std::span<const std::int32_t> prompt, std::size_t max_new,
                              model::Sampler& sampler, std::int32_t eos = -1);

    [[nodiscard]] std::size_t position() const noexcept { return pos_[0]; }
    [[nodiscard]] const quant::ScaleZeroFifo& scale_zero_fifo() const noexcept {
        return sz_fifo_[0];
    }
    [[nodiscard]] DecodeCycleModel& cycle_model() noexcept { return timing_; }

    // --- engine::DecodeBackend ---
    [[nodiscard]] const model::ModelConfig& config() const noexcept override {
        return model_->config;
    }
    [[nodiscard]] std::size_t max_batch() const noexcept override {
        return opts_.max_batch;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "accel"; }
    [[nodiscard]] std::size_t position(std::size_t slot) const override;
    [[nodiscard]] std::size_t reserve_slot() override;
    void release_slot(std::size_t slot) override;
    void decode_batch(std::span<const std::int32_t> tokens,
                      std::span<const std::size_t> slots,
                      std::span<float> logits_out) override;
    void reset() override;  // all slots (reservations survive)
    [[nodiscard]] engine::StepCost last_step_cost() const noexcept override {
        return last_cost_;
    }
    void set_profiler(obs::Profiler* profiler) override { profiler_ = profiler; }

    // Prefix sharing (active when opts_.prefix_sharing): the contract is in
    // decode_backend.hpp. Full-page adoption only — the scale-zero FIFO is
    // replayed from the stored packs, so covered spans must end on a page
    // boundary to leave it exactly as a real prefill would.
    [[nodiscard]] std::size_t probe_prefix(std::span<const std::int32_t> prompt,
                                           std::size_t max_cover) const override;
    std::size_t adopt_prefix(std::size_t slot, std::span<const std::int32_t> prompt,
                             std::size_t max_cover) override;
    std::size_t register_prefix(std::size_t slot,
                                std::span<const std::int32_t> prompt,
                                std::size_t max_new_pages) override;
    std::size_t drop_prefix_cache() override;
    [[nodiscard]] engine::PrefixSharingStats prefix_stats() const override;

private:
    struct KvEntry {
        std::vector<std::uint8_t> codes;
        quant::KvQuantParams params;
    };

    // One stored prefix page: deep copies of the KV entries for a full
    // kv_page_tokens span, keyed in prefix_store_ by the span's chain hash.
    // Entry (layer, t, head) lives at (layer * page_tokens + t) * n_kv_heads
    // + head.
    struct StoredPage {
        std::vector<KvEntry> k;
        std::vector<KvEntry> v;
    };

    [[nodiscard]] std::size_t kv_slot(std::size_t session, std::size_t layer,
                                      std::size_t token,
                                      std::size_t kv_head) const noexcept;
    [[nodiscard]] std::size_t page_entry_idx(std::size_t layer, std::size_t t,
                                             std::size_t kv_head) const noexcept;
    // Pages of `hashes` present front-to-back in prefix_store_ (first miss
    // stops the walk). Caller holds prefix_mu_.
    [[nodiscard]] std::size_t matched_pages(
        const std::vector<std::uint64_t>& hashes) const;
    void reset_session(std::size_t slot);

    // One functional forward pass of `token` through session `slot`, writing
    // float logits and advancing the slot's position. No timing.
    void forward_slot(std::int32_t token, std::size_t slot, std::span<float> logits_out);

    // One layer's halves of the forward pass, reading and updating x_.
    void attention(std::size_t layer, std::size_t slot);
    void mlp(std::size_t layer);

    const PackedModel* model_;
    AcceleratorOptions opts_;
    DecodeCycleModel timing_;

    HwExp exp_;
    SpuRope rope_;
    SpuRmsNorm rms_;
    SpuSoftmax softmax_;
    SpuSilu silu_;
    SpuQuant kv_quant_;
    SerialToParallel s2p_;
    DotEngine vpu_;
    std::vector<quant::ScaleZeroFifo> sz_fifo_;  // one per session slot

    // Forward-pass scratch, sized once at construction so a step allocates
    // only the KV entries it stores. fp16 vectors feed the SPUs and GEMVs;
    // the float ones hold exact fp16 lanes for the attention dot products.
    std::vector<Fp16> x_, xn_, q_, k_, v_, att_out_, proj_;  // dim / kv_dim
    std::vector<Fp16> gate_, up_, hidden_;                   // hidden_dim
    std::vector<Fp16> scores_, probs_;                       // max_seq_len
    std::vector<Fp16> logits_h_;                             // vocab_size
    std::vector<float> q_head_, kv_head_, out_head_;         // head_dim

    std::vector<std::size_t> pos_;           // per session slot
    engine::SlotLedger slots_;               // DecodeBackend reservations
    std::vector<KvEntry> k_cache_;           // [session][layer][token][kv_head]
    std::vector<KvEntry> v_cache_;
    std::vector<std::size_t> ctx_scratch_;   // batch pricing, no per-step alloc
    engine::StepCost last_cost_{};
    obs::Profiler* profiler_ = nullptr;      // serving-layer owned; may be null

    // Prefix store + its lock (probe reads cross-thread while the driver
    // adopts/registers); hit counters are relaxed atomics like the host's.
    mutable std::mutex prefix_mu_;
    std::unordered_map<std::uint64_t, StoredPage> prefix_store_;
    std::atomic<std::size_t> prefix_hits_{0};
    std::atomic<std::size_t> prefix_covered_{0};
};

}  // namespace efld::accel
