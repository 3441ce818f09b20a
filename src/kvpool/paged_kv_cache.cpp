#include "kvpool/paged_kv_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace efld::kvpool {

KvPoolConfig pool_config(const model::ModelConfig& cfg, std::size_t max_batch,
                         std::size_t page_tokens, std::size_t n_pages) {
    KvPoolConfig pc;
    if (page_tokens > 0) pc.page_tokens = page_tokens;
    pc.n_pages = n_pages > 0 ? n_pages
                             : max_batch * ((cfg.max_seq_len + pc.page_tokens - 1) /
                                            pc.page_tokens);
    return pc;
}

PagedArena::PagedArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg)
    : cfg_(cfg), pool_(pool_cfg) {}

void PagedArena::free_sequence(std::size_t seq) {
    pool_.free_sequence(seq);
    if (seq < cadence_.size()) cadence_[seq] = {};
}

void PagedArena::reset_sequence(std::size_t seq) {
    pool_.reset_sequence(seq);
    if (seq < cadence_.size()) cadence_[seq] = {};
}

void PagedArena::adopt_prefix(std::size_t seq, std::span<const std::size_t> pages,
                              std::size_t tokens) {
    pool_.adopt_pages(seq, pages, tokens);
    if (seq >= cadence_.size()) cadence_.resize(seq + 1);
    cadence_[seq] = {};  // adoption lands on a span boundary
}

std::size_t PagedArena::pages_to_append(std::size_t seq, std::size_t n) const {
    const std::size_t held = pool_.block_table(seq).size();
    const std::size_t need = pool_.pages_for_tokens(pool_.seq_tokens(seq) + n);
    return (need > held ? need - held : 0) + (pool_.write_needs_cow(seq) ? 1 : 0);
}

PagedArena::PageRows PagedArena::page_rows(std::size_t seq, std::size_t layer,
                                            std::size_t kv_head, std::size_t i) const {
    check(layer < cfg_.n_layers && kv_head < cfg_.n_kv_heads, "PagedArena: bad head");
    const std::size_t len = pool_.seq_tokens(seq);
    const std::size_t first = i * pool_.page_tokens();
    check(first < len, "PagedArena: page past the sequence's history");
    return {.first = row_index(pool_.block_table(seq)[i], layer, kv_head, 0),
            .rows = std::min(pool_.page_tokens(), len - first)};
}

PagedArena::WriteSpan PagedArena::open_write(std::size_t seq, std::size_t layer,
                                             std::size_t n) {
    check(layer < cfg_.n_layers, "PagedArena: layer out of range");
    if (seq >= cadence_.size()) cadence_.resize(seq + 1);
    model::SpanCadence& cad = cadence_[seq];
    WriteSpan w;
    w.first = pool_.seq_tokens(seq);
    if (cad.opens(n)) {
        // Check the whole span fits before taking anything, so a refusal
        // leaves the sequence and its cadence exactly as they were.
        check(pool_.pages_free() >= pages_to_append(seq, n),
              "PagedArena: KV pool exhausted (admission should have deferred "
              "this sequence)");
        if (pool_.write_needs_cow(seq)) {
            const KvBlockPool::CowResult c = pool_.cow_page(seq);
            check(c.ok,
                  "PagedArena: no free page for a copy-on-write divergence "
                  "(admission should have reserved it)");
            w.cow_source = c.old_page;
        }
        for (std::size_t t = 0; t < n; ++t) {
            check(pool_.append_token(seq), "PagedArena: KV pool exhausted");
        }
    } else {
        w.first -= n;  // later layers write the span the first layer opened
    }
    (void)cad.advance(n, cfg_.n_layers);
    return w;
}

PagedKvArena::PagedKvArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg)
    : PagedArena(cfg, pool_cfg) {
    page_floats_ =
        cfg_.n_layers * cfg_.n_kv_heads * pool_.page_tokens() * cfg_.head_dim();
    k_.resize(pool_.pages_total() * page_floats_);
    v_.resize(pool_.pages_total() * page_floats_);
}

void PagedKvArena::append(std::size_t seq, std::size_t layer, std::span<const float> k,
                          std::span<const float> v) {
    const std::size_t kvd = cfg_.kv_dim();
    check(k.size() % kvd == 0 && v.size() == k.size(), "PagedKvArena: bad vector size");
    const std::size_t n = k.size() / kvd;
    const WriteSpan w = open_write(seq, layer, n);
    if (w.cow_source != KvBlockPool::kNoPage) {
        const std::size_t page = pool_.locate(seq, w.first).page;
        std::copy_n(k_.data() + w.cow_source * page_floats_, page_floats_,
                    k_.data() + page * page_floats_);
        std::copy_n(v_.data() + w.cow_source * page_floats_, page_floats_,
                    v_.data() + page * page_floats_);
    }
    const std::size_t hd = cfg_.head_dim();
    for (std::size_t t = 0; t < n; ++t) {
        const KvBlockPool::PageSlot at = pool_.locate(seq, w.first + t);
        for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
            const std::size_t off = row_index(at.page, layer, h, at.offset) * hd;
            std::copy_n(k.data() + t * kvd + h * hd, hd, k_.data() + off);
            std::copy_n(v.data() + t * kvd + h * hd, hd, v_.data() + off);
        }
    }
}

std::span<const float> PagedKvArena::page(std::size_t seq, std::size_t layer,
                                          std::size_t kv_head, KvPart part,
                                          std::size_t i) const {
    const PageRows p = page_rows(seq, layer, kv_head, i);
    const std::vector<float>& store = part == KvPart::kKeys ? k_ : v_;
    return {store.data() + p.first * cfg_.head_dim(), p.rows * cfg_.head_dim()};
}

PagedQuantizedKvArena::PagedQuantizedKvArena(const model::ModelConfig& cfg,
                                             KvPoolConfig pool_cfg, unsigned kv_bits)
    : PagedArena(cfg, pool_cfg), kv_bits_(kv_bits) {
    const std::size_t entries_per_page =
        cfg_.n_layers * cfg_.n_kv_heads * pool_.page_tokens();
    k_.resize(pool_.pages_total() * entries_per_page);
    v_.resize(pool_.pages_total() * entries_per_page);
}

void PagedQuantizedKvArena::copy_on_write(std::size_t seq, const WriteSpan& w) {
    if (w.cow_source == KvBlockPool::kNoPage) return;
    // Deep entry copies: the sharers keep their codes untouched.
    const std::size_t page = pool_.locate(seq, w.first).page;
    const std::size_t epp = cfg_.n_layers * cfg_.n_kv_heads * pool_.page_tokens();
    for (std::size_t i = 0; i < epp; ++i) {
        k_[page * epp + i] = k_[w.cow_source * epp + i];
        v_[page * epp + i] = v_[w.cow_source * epp + i];
    }
}

void PagedQuantizedKvArena::append(std::size_t seq, std::size_t layer,
                                   std::span<const float> k, std::span<const float> v) {
    const std::size_t kvd = cfg_.kv_dim();
    check(k.size() % kvd == 0 && v.size() == k.size(),
          "PagedQuantizedKvArena: bad vector size");
    const std::size_t n = k.size() / kvd;
    const WriteSpan w = open_write(seq, layer, n);
    copy_on_write(seq, w);
    const std::size_t hd = cfg_.head_dim();
    for (std::size_t t = 0; t < n; ++t) {
        const KvBlockPool::PageSlot at = pool_.locate(seq, w.first + t);
        for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
            const std::size_t off = t * kvd + h * hd;
            const std::size_t e = row_index(at.page, layer, h, at.offset);
            quant::kv_quantize_bits_into(k.subspan(off, hd), kv_bits_, k_[e]);
            quant::kv_quantize_bits_into(v.subspan(off, hd), kv_bits_, v_[e]);
        }
    }
}

void PagedQuantizedKvArena::append_quantized(std::size_t seq, std::size_t layer,
                                             std::span<quant::KvQuantized> k,
                                             std::span<quant::KvQuantized> v) {
    check(k.size() == cfg_.n_kv_heads && v.size() == cfg_.n_kv_heads,
          "PagedQuantizedKvArena: need one entry per KV head");
    const WriteSpan w = open_write(seq, layer, 1);
    copy_on_write(seq, w);
    const KvBlockPool::PageSlot at = pool_.locate(seq, w.first);
    for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
        std::swap(k_[row_index(at.page, layer, h, at.offset)], k[h]);
        std::swap(v_[row_index(at.page, layer, h, at.offset)], v[h]);
    }
}

std::span<const quant::KvQuantized> PagedQuantizedKvArena::page(
    std::size_t seq, std::size_t layer, std::size_t kv_head, KvPart part,
    std::size_t i) const {
    const PageRows p = page_rows(seq, layer, kv_head, i);
    const std::vector<quant::KvQuantized>& store = part == KvPart::kKeys ? k_ : v_;
    return {store.data() + p.first, p.rows};
}

}  // namespace efld::kvpool
