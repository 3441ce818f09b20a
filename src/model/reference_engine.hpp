// Software reference inference engine (the golden model).
//
// Runs a full LLaMA-style forward pass in float32, with optional W4A16
// weights and/or KV8 storage so each quantization stage of the deployed
// pipeline can be validated in isolation:
//
//   float weights + float KV   -> pure golden
//   W4A16 weights + float KV   -> weight-quantization effect only
//   W4A16 weights + KV8 KV     -> software twin of the accelerator
//
// Decode advances one token per session per step (the phase the paper
// optimizes); a prompt instead advances in tiles of up to max_feed_tokens()
// rows per step, the host mirror of the vector engine's on-chip prefill
// tiles (Fig. 2A): every row rides the same skinny-GEMM weight walk, RoPE
// and the KV append run at each row's own position, attention is causal
// inside the tile, and in the final layer only a span's last row goes on
// past its KV append (attention, MLP, LM head) — the other rows' outputs
// feed nothing. Tiled logits are bit-for-bit what token-by-token feeding
// produces.
//
// The decode loop is allocation-free: projections run through the fused
// quantized GEMM fast path at every batch — one register-tiled W4 kernel
// whose batch-1 tile overlaps four rows' lane chains, so single-stream decode
// pays no skinny-GEMM tax (or preallocated buffers on the float path),
// RoPE trigonometry is precomputed per position at construction, attention
// walks each slot's history page by page where it lives (attention_paged:
// float pages in place, KV8 pages dequantized one page at a time). With
// `threads > 1` GEMV rows and attention KV-head
// clusters are partitioned across a persistent worker pool; results are
// bit-for-bit independent of the thread count.
//
// Multi-session decode: with `max_batch > 1` the engine owns that many
// session slots, each with its own KV history and position. `decode_batch`
// advances any subset of them in lockstep, walking the quantized weights
// once per kGemmBatchTile rows via the skinny-GEMM fast path — decoding is
// weight-bound, so amortizing the walk across sessions and prompt rows is
// the host-side mirror of the paper's bandwidth argument. Every slot's
// logits are bit-for-bit identical to what a dedicated single-session engine
// fed the same tokens one at a time would produce.
//
// KV storage: as on the KV260 twin, every slot's history lives in one kvpool
// arena (PagedKvArena, or PagedQuantizedKvArena with use_kv8), slot s being
// its sequence s. Slots draw fixed-size token pages from the shared pool
// instead of reserving max_seq_len each, so aggregate KV capacity follows the
// pool budget (the paper's capacity axis) rather than max_batch x context
// window. Logits do not depend on the page size: a page holds each value
// exactly as the contiguous caches in kv_cache.hpp do, and the page walk runs
// attention_head's float ops in its order.
// With EngineOptions::kv_page_tokens > 0 the engine also shares prompt
// prefixes through a prefix::PrefixStore over the arena's pool.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/threadpool.hpp"
#include "engine/decode_backend.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "model/kernels.hpp"
#include "model/weights.hpp"
#include "prefix/prefix_index.hpp"
#include "quant/groupquant.hpp"

namespace efld::model {

struct EngineOptions {
    bool use_kv8 = false;  // quantized KV arena instead of float
    unsigned kv_bits = 8;  // code grid when use_kv8 (8 = KV8, 4 = KV4)
    // 1 = fully single-threaded; N > 1 = private worker pool of N; 0 = borrow
    // the process-wide ThreadPool::global() (sized by
    // ThreadPool::set_global_threads).
    // A private pool may be wider than the machine (its idle workers park at
    // once instead of spinning); one wider than max(4, 4 x hardware threads)
    // is rejected at construction as a garbage value — borrow the global pool
    // for process-wide sizing instead.
    std::size_t threads = 1;
    // Concurrent session slots (KV histories + positions) for decode_batch.
    std::size_t max_batch = 1;
    // Tokens per page of the kvpool arena every slot's KV lives in: slots take
    // pages as their history grows and return them on release, so aggregate
    // KV capacity is the POOL size, not max_batch x max_seq_len. Logits do not
    // depend on it. > 0 also turns on prefix sharing; 0 = the default 16-token
    // pages (kvpool::pool_config) and no prefix store, as on the twin.
    std::size_t kv_page_tokens = 0;
    // Pool size in pages. 0 = worst case (max_batch full-context sessions —
    // no capacity pressure); an admission layer (serve::ServeEngine's
    // CapacityGovernor) sizes this from the DDR budget.
    std::size_t kv_pool_pages = 0;
};

// Throws std::invalid_argument on option combinations that would silently
// misbehave: max_batch == 0 (no session slots), a kv_bits outside [2, 8] with
// use_kv8, or a private thread pool wider than max(4, 4 x hardware threads).
// Called by the engine constructor; exposed so serving layers can validate
// before building anything expensive.
void validate(const EngineOptions& opts);

class ReferenceEngine : public engine::DecodeBackend {
public:
    // Non-owning: `weights` must outlive the engine.
    explicit ReferenceEngine(const ModelWeights& weights, EngineOptions opts = {});
    explicit ReferenceEngine(const QuantizedModelWeights& weights, EngineOptions opts = {});

    // Advances tokens[i] through session slot slots[i] for every i, in one
    // step. Slots must be distinct and < max_batch; each slot keeps its own
    // KV history and position, so sessions at different context lengths
    // batch together freely (continuous batching joins at token
    // boundaries). Returns logits [tokens.size()][vocab], row i = slots[i],
    // aliasing internal scratch until the next step or reset.
    std::span<const float> decode_batch(std::span<const std::int32_t> tokens,
                                        std::span<const std::size_t> slots) {
        return step(tokens, slots, {});
    }

    // Rows one step may take per slot: 2 x kGemmBatchTile (two register
    // tiles, so a full tile step walks the weights twice).
    static constexpr std::size_t kMaxFeedTokens = 2 * quant::kGemmBatchTile;

    [[nodiscard]] const EngineOptions& options() const noexcept { return opts_; }
    void reset_session(std::size_t slot);  // one slot's KV history + position

    // --- engine::DecodeBackend ---
    [[nodiscard]] const ModelConfig& config() const noexcept override { return cfg_; }
    [[nodiscard]] std::size_t max_batch() const noexcept override { return opts_.max_batch; }
    [[nodiscard]] std::string_view name() const noexcept override { return "host"; }
    [[nodiscard]] std::size_t position(std::size_t slot) const override;
    [[nodiscard]] std::size_t reserve_slot() override;
    void release_slot(std::size_t slot) override;
    using DecodeBackend::decode_batch;
    void decode_batch(std::span<const std::int32_t> tokens,
                      std::span<const std::size_t> slots,
                      std::span<const std::size_t> rows,
                      std::span<float> logits_out) override;
    [[nodiscard]] std::size_t max_feed_tokens() const noexcept override {
        return kMaxFeedTokens;
    }
    void reset() override;  // all slots (reservations survive)
    [[nodiscard]] engine::StepCost last_step_cost() const noexcept override {
        return last_cost_;
    }
    void set_profiler(obs::Profiler* profiler) override { profiler_ = profiler; }

    // Prefix sharing (kv_page_tokens > 0; 0 otherwise): see decode_backend.hpp for the
    // contract and prefix::PrefixStore for the store, its adoption rule and
    // its threading.
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
    // One slot's token span within a step: rows first .. first + n - 1.
    struct Span {
        std::size_t slot = 0;
        std::size_t first = 0;
        std::size_t n = 0;
    };

    void init_scratch();
    // The step both decode_batch overloads run: spans as in DecodeBackend::
    // decode_batch (empty rows = one token per slot). Books last_cost_ and
    // returns the last-row logits [slots.size()][vocab], aliasing internal
    // scratch.
    std::span<const float> step(std::span<const std::int32_t> tokens,
                                std::span<const std::size_t> slots,
                                std::span<const std::size_t> rows);
    // One forward pass over spans_ (at most row_cap_ rows): last-row logits
    // land in logits_ from row `logits_row` on.
    void forward_rows(std::span<const std::int32_t> tokens, std::size_t logits_row);
    // Runs a layer's attention over nr rows; returns the rows the layer goes
    // on with (nr, or one per span in the final layer).
    std::size_t attention_block(std::size_t layer, std::size_t nr);
    void mlp_block(std::size_t layer, std::size_t nr);

    // Batched weight accessor bridging the float / quantized storage:
    // x is [nb][in], y is [nb][out], lanes contiguous.
    void proj(std::size_t layer, int which, std::size_t nb, std::span<const float> x,
              std::span<float> y);
    [[nodiscard]] std::span<const float> attn_norm(std::size_t layer) const;
    [[nodiscard]] std::span<const float> mlp_norm(std::size_t layer) const;

    // Active worker pool: the private one, the shared global one (threads ==
    // 0), or nullptr when the effective pool would be single-threaded anyway.
    [[nodiscard]] ThreadPool* pool() noexcept {
        if (pool_ != nullptr) return pool_.get();
        if (opts_.threads == 0) {
            ThreadPool& g = ThreadPool::global();
            return g.size() > 1 ? &g : nullptr;
        }
        return nullptr;
    }

    ModelConfig cfg_;
    EngineOptions opts_;
    const ModelWeights* fw_ = nullptr;
    const QuantizedModelWeights* qw_ = nullptr;

    // The KV arena (slot s = sequence s): only the precision the options
    // select is constructed.
    std::unique_ptr<kvpool::PagedKvArena> float_kv_;
    std::unique_ptr<kvpool::PagedQuantizedKvArena> quant_kv_;
    kvpool::PagedArena* kv_ = nullptr;  // whichever of the two exists
    std::vector<std::size_t> pos_;      // per session slot
    engine::SlotLedger slots_;  // DecodeBackend reservations
    std::vector<Span> spans_;   // the current pass's spans (max_batch reserved)
    engine::StepCost last_cost_{};  // of the last step, booked by step()
    obs::Profiler* profiler_ = nullptr;  // serving-layer owned; may be null

    std::optional<prefix::PrefixStore> prefix_;  // over kv_'s pool; kv_page_tokens > 0

    std::unique_ptr<ThreadPool> pool_;  // only when opts_.threads > 1
    RopeTable rope_;                    // per-position sin/cos, built once

    // Scratch buffers reused across steps, one row per fed token (no per-step
    // allocation): row_cap_ = max(max_batch, max_feed_tokens()) rows, the
    // most a serving step feeds (its row budget). A step with more rows runs
    // as several passes. Row r of a [rows][dim] block starts at r * dim.
    std::size_t row_cap_ = 0;
    std::vector<float> x_, xb_, q_, k_, v_, att_out_, gate_, up_;
    std::vector<float> logits_;   // [batch][vocab]: one row per span
    // [row][n_heads][max_seq_len] attention scores: each (span, KV head)
    // task's block starts at its first query row (attention_paged's scratch).
    std::vector<float> scores_;
    // KV8 only: [batch][n_kv_heads][page_tokens * head_dim], one dequantized
    // page per (span, KV head) task. The float arena's pages are read in place.
    std::vector<float> kv_page_;
};

}  // namespace efld::model
