#include "kvpool/paged_kv_cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "common/check.hpp"

namespace efld::kvpool {

namespace detail {

void* map_zeroed(std::size_t bytes) {
    if (bytes == 0) return nullptr;
    // MAP_NORESERVE: a pool sized for the whole DDR budget commits swap for
    // none of it; pages come into being as rows are written.
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
}

void unmap(void* p, std::size_t bytes) noexcept {
    if (p != nullptr) (void)munmap(p, bytes);
}

}  // namespace detail

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
            w.cow_page = c.new_page;
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
    : PagedArena(cfg, pool_cfg),
      k_(rows_total(), cfg_.head_dim()),
      v_(rows_total(), cfg_.head_dim()) {}

void PagedKvArena::append(std::size_t seq, std::size_t layer, std::span<const float> k,
                          std::span<const float> v) {
    const std::size_t kvd = cfg_.kv_dim();
    check(k.size() % kvd == 0 && v.size() == k.size(), "PagedKvArena: bad vector size");
    const std::size_t n = k.size() / kvd;
    const WriteSpan w = open_write(seq, layer, n);
    copy_on_write(w, k_, v_);
    const std::size_t hd = cfg_.head_dim();
    for (std::size_t t = 0; t < n; ++t) {
        const KvBlockPool::PageSlot at = pool_.locate(seq, w.first + t);
        for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
            const std::size_t r = row_index(at.page, layer, h, at.offset);
            std::copy_n(k.data() + t * kvd + h * hd, hd, k_.row(r).data());
            std::copy_n(v.data() + t * kvd + h * hd, hd, v_.row(r).data());
        }
    }
}

std::span<const float> PagedKvArena::page(std::size_t seq, std::size_t layer,
                                          std::size_t kv_head, KvPart part,
                                          std::size_t i) const {
    const PageRows p = page_rows(seq, layer, kv_head, i);
    return (part == KvPart::kKeys ? k_ : v_).rows(p.first, p.rows);
}

PagedQuantizedKvArena::PagedQuantizedKvArena(const model::ModelConfig& cfg,
                                             KvPoolConfig pool_cfg, unsigned kv_bits)
    : PagedArena(cfg, pool_cfg),
      kv_bits_(kv_bits),
      k_codes_(rows_total(), cfg_.head_dim()),
      v_codes_(rows_total(), cfg_.head_dim()),
      k_packs_(rows_total(), 1),
      v_packs_(rows_total(), 1) {}

void PagedQuantizedKvArena::append(std::size_t seq, std::size_t layer,
                                   std::span<const float> k, std::span<const float> v) {
    const std::size_t kvd = cfg_.kv_dim();
    check(k.size() % kvd == 0 && v.size() == k.size(),
          "PagedQuantizedKvArena: bad vector size");
    const std::size_t n = k.size() / kvd;
    const WriteSpan w = open_write(seq, layer, n);
    copy_on_write(w, k_codes_, v_codes_, k_packs_, v_packs_);
    const std::size_t hd = cfg_.head_dim();
    for (std::size_t t = 0; t < n; ++t) {
        const KvBlockPool::PageSlot at = pool_.locate(seq, w.first + t);
        for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
            const std::size_t off = t * kvd + h * hd;
            const std::size_t r = row_index(at.page, layer, h, at.offset);
            k_packs_.row(r)[0] =
                quant::kv_quantize_bits_into(k.subspan(off, hd), kv_bits_, k_codes_.row(r));
            v_packs_.row(r)[0] =
                quant::kv_quantize_bits_into(v.subspan(off, hd), kv_bits_, v_codes_.row(r));
        }
    }
}

KvPage PagedQuantizedKvArena::page(std::size_t seq, std::size_t layer,
                                   std::size_t kv_head, KvPart part, std::size_t i) const {
    const PageRows p = page_rows(seq, layer, kv_head, i);
    const bool keys = part == KvPart::kKeys;
    return {.codes = (keys ? k_codes_ : v_codes_).rows(p.first, p.rows),
            .params = (keys ? k_packs_ : v_packs_).rows(p.first, p.rows)};
}

}  // namespace efld::kvpool
