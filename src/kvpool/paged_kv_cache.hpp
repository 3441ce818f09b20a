// Physically paged KV storage: the KvBlockPool's block tables backed by real
// page-resident slabs. These arenas are the only KV store either backend
// uses: the host engine keeps its float or KV8 history in one of them in
// every configuration, and the KV260 twin keeps its KV8 entries in the
// quantized one.
//
// Two arenas mirror the two contiguous caches in model/kv_cache.hpp — float
// (golden path) and KV8-quantized (deployed form) — but storage is a shared
// page arena instead of a per-session max_seq_len reservation: a sequence
// owns only the pages its history actually fills, so the arena's footprint is
// the pool budget, not sessions x context window.
//
// Within a page, a (layer, kv_head) keeps its page_tokens token rows
// contiguous ([layer][kv_head][token_in_page][head_dim]), matching the MCU's
// head-major DDR layout at page granularity: reading one head's history is
// one burst per PAGE rather than one burst per sequence. The read path is
// one page at a time, in place: `page` hands back the rows one (layer,
// kv_head, keys or values) holds in the i-th page of a sequence's block
// table, with no copy, and attention walks the block table page by page
// (model::attention_paged on the host, Accelerator::attend on the twin).
// Page rows hold each value verbatim, so walking them is bit-for-bit reading
// the contiguous caches at every page size and span length — the parity
// test_paged_kv_cache proves against them as oracles, and the reason an
// engine's logits do not depend on its page size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kvpool/kv_block_pool.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "quant/kvquant.hpp"

namespace efld::kvpool {

// Pool of `page_tokens`-token pages for `max_batch` sequences, the one sizing
// rule both backends share. page_tokens 0 means KvPoolConfig's default (16,
// the scale-zero FIFO flush width, so a page never splits a pack word).
// `n_pages` when > 0, else enough for every sequence to fill the context
// window (paging layout without capacity pressure).
[[nodiscard]] KvPoolConfig pool_config(const model::ModelConfig& cfg,
                                       std::size_t max_batch, std::size_t page_tokens,
                                       std::size_t n_pages);

// Which half of a (layer, kv_head)'s history a page read returns.
enum class KvPart { kKeys, kValues };

// What both arenas share: the pool, its block tables, and the append cadence
// (model::SpanCadence, as in KvCache::append: all layers append the same
// span of tokens, then the next span opens).
class PagedArena {
public:
    [[nodiscard]] std::size_t create_sequence() { return pool_.create_sequence(); }
    void free_sequence(std::size_t seq);
    void reset_sequence(std::size_t seq);

    // Maps an already-resident prefix chain into the EMPTY sequence `seq` at
    // `tokens` logical tokens without recomputing any KV (the pages carry
    // complete per-layer state, so adoption is cadence-safe at any position).
    // A subsequent append into a still-shared page copies the page first —
    // copy-on-write, so sharers never see the divergence.
    void adopt_prefix(std::size_t seq, std::span<const std::size_t> pages,
                      std::size_t tokens);

    [[nodiscard]] std::size_t length(std::size_t seq) const {
        return pool_.seq_tokens(seq);
    }
    // Pages an n-token span append to `seq` takes from the pool: fresh pages
    // past its block table, plus one when the span starts in a page another
    // holder still maps (copy-on-write). A step sums this over its spans and
    // refuses up front when pages_free() cannot cover it, so a refused step
    // leaves every sequence untouched rather than some half-appended.
    [[nodiscard]] std::size_t pages_to_append(std::size_t seq, std::size_t n) const;
    [[nodiscard]] const KvBlockPool& pool() const noexcept { return pool_; }
    [[nodiscard]] KvBlockPool& pool() noexcept { return pool_; }

protected:
    PagedArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg);

    // Where one layer's n-token span append for `seq` writes: tokens
    // first .. first + n - 1. The first layer of a span takes its n tokens
    // from the pool (fresh pages at page boundaries); throws efld::Error,
    // with the sequence unchanged, when the pool cannot hold the whole span
    // — the admission governor exists to make that unreachable for admitted
    // sequences. When the span starts in a page another holder still maps,
    // `seq` first gets a private page: cow_source is then the shared
    // original, whose contents the caller copies into the span's first page
    // before writing (only that page can be shared; later pages are fresh).
    struct WriteSpan {
        std::size_t first = 0;
        std::size_t cow_source = KvBlockPool::kNoPage;
    };
    [[nodiscard]] WriteSpan open_write(std::size_t seq, std::size_t layer,
                                       std::size_t n);

    // Both arenas store token rows in [page][layer][kv_head][tok_in_page]
    // order; this is a row's index in it.
    [[nodiscard]] std::size_t row_index(std::size_t page, std::size_t layer,
                                        std::size_t kv_head,
                                        std::size_t tok_in_page) const noexcept {
        return ((page * cfg_.n_layers + layer) * cfg_.n_kv_heads + kv_head) *
                   pool_.page_tokens() +
               tok_in_page;
    }
    // One head's rows in page i of seq's block table: the first's row_index
    // and how many the history fills (page_tokens, fewer in the last page).
    // Throws efld::Error on a bad head or a page past the history.
    struct PageRows {
        std::size_t first = 0;
        std::size_t rows = 0;
    };
    [[nodiscard]] PageRows page_rows(std::size_t seq, std::size_t layer,
                                     std::size_t kv_head, std::size_t i) const;

    model::ModelConfig cfg_;
    KvBlockPool pool_;

private:
    std::vector<model::SpanCadence> cadence_;  // per sequence
};

// Float paged KV arena (reference path).
class PagedKvArena : public PagedArena {
public:
    PagedKvArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg);

    // Appends a span of n >= 1 tokens' K and V for `layer` (k and v hold n
    // rows of kv_dim; see PagedArena::open_write).
    void append(std::size_t seq, std::size_t layer, std::span<const float> k,
                std::span<const float> v);

    // The history rows of one head's keys or values in page i of seq's block
    // table, in place: rows x head_dim floats (page_tokens rows, fewer in the
    // last page), valid until the next append into that page.
    [[nodiscard]] std::span<const float> page(std::size_t seq, std::size_t layer,
                                              std::size_t kv_head, KvPart part,
                                              std::size_t i) const;

private:
    std::size_t page_floats_ = 0;  // floats per page slab (K or V)
    std::vector<float> k_;         // [page][layer][kv_head][tok_in_page][head_dim]
    std::vector<float> v_;
};

// KV8 paged arena (deployed form): per-(token, head) code vectors + params,
// page-resident like the codes/packs regions in DDR.
class PagedQuantizedKvArena : public PagedArena {
public:
    PagedQuantizedKvArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg,
                          unsigned kv_bits = 8);

    // Quantizes each head of a span of n >= 1 tokens' K and V (per-head
    // params, like QuantizedKvCache; k and v hold n rows of kv_dim) and
    // stores them in place, reusing the replaced entries' code buffers (no
    // allocation in steady state).
    void append(std::size_t seq, std::size_t layer, std::span<const float> k,
                std::span<const float> v);

    // Stores one token's already-quantized K and V heads (n_kv_heads entries
    // each) for `layer` — a one-token span. Entries are swapped in: k and v
    // come back holding the entries they replaced, so a caller can reuse
    // their code buffers.
    void append_quantized(std::size_t seq, std::size_t layer,
                          std::span<quant::KvQuantized> k,
                          std::span<quant::KvQuantized> v);

    // The stored entries of one head's keys or values in page i of seq's
    // block table, in place (page_tokens entries, fewer in the last page), for
    // readers that dequantize with their own datapath: the host with
    // quant::kv_dequantize_into, the twin with its DequantUnit.
    [[nodiscard]] std::span<const quant::KvQuantized> page(std::size_t seq,
                                                           std::size_t layer,
                                                           std::size_t kv_head,
                                                           KvPart part,
                                                           std::size_t i) const;

private:
    // Copies the shared page a span append diverged from into the span's
    // first page (no-op when the write needed no copy-on-write).
    void copy_on_write(std::size_t seq, const WriteSpan& w);

    unsigned kv_bits_ = 8;
    std::vector<quant::KvQuantized> k_;  // [page][layer][kv_head][tok_in_page]
    std::vector<quant::KvQuantized> v_;
};

}  // namespace efld::kvpool
