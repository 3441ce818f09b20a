// Physically paged KV storage: the KvBlockPool's block tables backed by real
// page-resident slabs. These arenas are the only KV store either backend
// uses: the host engine keeps its float or KV8 history in one of them in
// every configuration, and the KV260 twin keeps its KV8 rows in the
// quantized one.
//
// Two arenas mirror the two contiguous caches in model/kv_cache.hpp — float
// (golden path) and KV8-quantized (deployed form) — but storage is a shared
// page arena instead of a per-session max_seq_len reservation: a sequence
// owns only the pages its history actually fills, so the arena's footprint is
// the pool budget, not sessions x context window.
//
// Storage is flat, as in the MCU's DDR map: each arena keeps its token rows
// in slabs (RowSlab), one row per (page, layer, kv_head, token_in_page), in
// that order, so a (layer, kv_head) keeps its page_tokens rows contiguous and
// reading one head's history is one burst per PAGE rather than per sequence.
// The float arena has a K and a V slab of head_dim floats per row; the KV8
// arena has a K and a V codes slab (head_dim bytes per row, the codes region)
// and a K and a V packs slab (one scale-zero pack per row, the packs region).
// A slab is one anonymous mapping the OS zero-fills on first touch, so the
// resident bytes follow the pages sequences fill, not the pool size.
//
// The read path is one page at a time, in place: `page` hands back the rows
// one (layer, kv_head, keys or values) holds in the i-th page of a
// sequence's block table, with no copy, and attention walks the block table
// page by page (model::attention_paged on the host, Accelerator::attend on
// the twin). Page rows hold each value verbatim, so walking them is
// bit-for-bit reading the contiguous caches at every page size and span
// length — the parity test_paged_kv_cache proves against them as oracles,
// and the reason an engine's logits do not depend on its page size.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
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

namespace detail {
// A zero-filled anonymous mapping of `bytes` (nullptr for 0); throws
// std::bad_alloc when the OS refuses it.
[[nodiscard]] void* map_zeroed(std::size_t bytes);
void unmap(void* p, std::size_t bytes) noexcept;
}  // namespace detail

// `rows` rows of `width` Ts in one anonymous private mapping, zero until
// written. The OS backs a page of it only when a row on that page is first
// touched, so an arena sized for the whole pool holds resident only the rows
// its sequences write. Rows are copied as bytes (copy-on-write pages).
template <class T>
class RowSlab {
    static_assert(std::is_trivially_copyable_v<T>);

public:
    RowSlab(std::size_t rows, std::size_t width)
        : data_(static_cast<T*>(detail::map_zeroed(rows * width * sizeof(T)))),
          bytes_(rows * width * sizeof(T)),
          width_(width) {}
    ~RowSlab() { detail::unmap(data_, bytes_); }
    RowSlab(const RowSlab&) = delete;
    RowSlab& operator=(const RowSlab&) = delete;

    [[nodiscard]] std::span<T> rows(std::size_t first, std::size_t n) noexcept {
        return {data_ + first * width_, n * width_};
    }
    [[nodiscard]] std::span<const T> rows(std::size_t first, std::size_t n) const noexcept {
        return {data_ + first * width_, n * width_};
    }
    [[nodiscard]] std::span<T> row(std::size_t r) noexcept { return rows(r, 1); }

    // Copies n rows starting at row `from` over the n rows starting at `to`
    // (the ranges must not overlap).
    void copy_rows(std::size_t from, std::size_t to, std::size_t n) noexcept {
        std::memcpy(data_ + to * width_, data_ + from * width_, n * width_ * sizeof(T));
    }

private:
    T* data_;
    std::size_t bytes_;
    std::size_t width_;
};

// One head's KV8 rows in one page, in place: rows x head_dim codes (the
// codes region) and one scale-zero pack per row (the packs region).
struct KvPage {
    std::span<const std::uint8_t> codes;
    std::span<const quant::KvQuantParams> params;

    [[nodiscard]] std::size_t rows() const noexcept { return params.size(); }
    // Row t's head_dim codes.
    [[nodiscard]] std::span<const std::uint8_t> row(std::size_t t) const noexcept {
        const std::size_t w = codes.size() / params.size();
        return codes.subspan(t * w, w);
    }
};

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
    // original and cow_page the private copy, which copy_on_write fills
    // before the caller writes (only that page can be shared; later pages
    // are fresh).
    struct WriteSpan {
        std::size_t first = 0;
        std::size_t cow_source = KvBlockPool::kNoPage;
        std::size_t cow_page = KvBlockPool::kNoPage;
    };
    [[nodiscard]] WriteSpan open_write(std::size_t seq, std::size_t layer,
                                       std::size_t n);

    // Copies the shared page a span append diverged from into its private
    // page, in every slab the arena keeps (a no-op when the write needed no
    // copy-on-write).
    template <class... Slab>
    void copy_on_write(const WriteSpan& w, Slab&... slabs) const noexcept {
        if (w.cow_source == KvBlockPool::kNoPage) return;
        const std::size_t n = rows_per_page();
        (slabs.copy_rows(w.cow_source * n, w.cow_page * n, n), ...);
    }

    // Both arenas store token rows in [page][layer][kv_head][tok_in_page]
    // order; this is a row's index in it, and a page's rows are
    // rows_per_page() consecutive indices.
    [[nodiscard]] std::size_t rows_per_page() const noexcept {
        return cfg_.n_layers * cfg_.n_kv_heads * pool_.page_tokens();
    }
    [[nodiscard]] std::size_t rows_total() const noexcept {
        return pool_.pages_total() * rows_per_page();
    }
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
    RowSlab<float> k_, v_;  // head_dim floats per row
};

// KV8 paged arena (deployed form): the codes and packs regions of DDR, one
// codes row and one scale-zero pack per (token, layer, kv_head).
class PagedQuantizedKvArena : public PagedArena {
public:
    PagedQuantizedKvArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg,
                          unsigned kv_bits = 8);

    // Quantizes each head of a span of n >= 1 tokens' K and V (per-head
    // params, like QuantizedKvCache; k and v hold n rows of kv_dim) straight
    // into its rows. Both backends quantize their KV here: the host its float
    // K and V, the twin its fp16 lanes held exactly in floats.
    void append(std::size_t seq, std::size_t layer, std::span<const float> k,
                std::span<const float> v);

    // The stored rows of one head's keys or values in page i of seq's block
    // table, in place (page_tokens rows, fewer in the last page), for readers
    // that dequantize with their own datapath: the host with
    // quant::kv_dequantize_into, the twin with its DequantUnit.
    [[nodiscard]] KvPage page(std::size_t seq, std::size_t layer, std::size_t kv_head,
                              KvPart part, std::size_t i) const;

private:
    unsigned kv_bits_ = 8;
    RowSlab<std::uint8_t> k_codes_, v_codes_;         // head_dim codes per row
    RowSlab<quant::KvQuantParams> k_packs_, v_packs_;  // one pack per row
};

}  // namespace efld::kvpool
