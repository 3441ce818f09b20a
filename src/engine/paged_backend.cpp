#include "engine/paged_backend.hpp"

#include "common/check.hpp"

namespace efld::engine {

PagedBackend::PagedBackend(const model::ModelConfig& cfg, std::size_t max_batch)
    : cfg_(cfg), pos_(max_batch, 0), reserved_(max_batch, 0) {}

void PagedBackend::attach(kvpool::PagedArena& arena, bool prefix_store) {
    arena_ = &arena;
    for (std::size_t s = 0; s < max_batch(); ++s) (void)arena.create_sequence();
    if (prefix_store) prefix_.emplace(arena.pool());
}

std::size_t PagedBackend::reserve_slot() {
    for (std::size_t s = 0; s < reserved_.size(); ++s) {
        if (reserved_[s] == 0) {
            reserved_[s] = 1;
            return s;
        }
    }
    return kNoSlot;
}

void PagedBackend::release_slot(std::size_t slot) {
    check(slot < reserved_.size() && reserved_[slot] != 0,
          "release_slot: slot out of range or not reserved");
    reserved_[slot] = 0;
    reset_session(slot);
}

std::size_t PagedBackend::position(std::size_t slot) const {
    check(slot < max_batch(), "position: slot out of range");
    return pos_[slot];
}

void PagedBackend::reset() {
    for (std::size_t s = 0; s < max_batch(); ++s) reset_session(s);
}

void PagedBackend::reset_session(std::size_t slot) {
    check(slot < max_batch(), "reset_session: slot out of range");
    arena_->reset_sequence(slot);  // pages back to the pool
    pos_[slot] = 0;
    on_reset_session(slot);
}

void PagedBackend::check_step(std::span<const std::int32_t> tokens,
                              std::span<const std::size_t> slots,
                              std::span<const std::size_t> rows,
                              std::size_t logits_floats) const {
    const std::size_t ns = slots.size();
    check(ns >= 1, "decode_batch: empty batch");
    check(ns <= max_batch(), "decode_batch: batch exceeds max_batch");
    check(rows.empty() || rows.size() == ns, "decode_batch: rows/slots size mismatch");
    std::size_t total = 0;
    std::size_t pages = 0;  // the pool pages the step's appends take
    for (std::size_t b = 0; b < ns; ++b) {
        const std::size_t n = rows.empty() ? 1 : rows[b];
        check(slots[b] < max_batch(), "decode_batch: slot out of range");
        for (std::size_t c = b + 1; c < ns; ++c) {
            check(slots[b] != slots[c], "decode_batch: duplicate slot");
        }
        check(n >= 1 && n <= max_feed_tokens(), "decode_batch: span length out of range");
        check(pos_[slots[b]] + n <= cfg_.max_seq_len,
              "decode_batch: context window exhausted");
        total += n;
        pages += arena_->pages_to_append(slots[b], n);
    }
    check(total == tokens.size(), "decode_batch: rows do not sum to the token count");
    for (const std::int32_t t : tokens) {
        check(t >= 0 && static_cast<std::uint64_t>(t) < cfg_.vocab_size,
              "decode_batch: token out of range");
    }
    check(logits_floats >= ns * cfg_.vocab_size, "decode_batch: logits_out too small");
    check(pages <= arena_->pool().pages_free(),
          "decode_batch: KV pool exhausted (admission should have deferred a "
          "sequence)");
}

std::size_t PagedBackend::probe_prefix(std::span<const std::int32_t> prompt,
                                       std::size_t max_cover) const {
    return prefix_ ? prefix_->match(prompt, max_cover).covered : 0;
}

std::size_t PagedBackend::adopt_prefix(std::size_t slot,
                                       std::span<const std::int32_t> prompt,
                                       std::size_t max_cover) {
    if (!prefix_) return 0;
    const prefix::PrefixStore::Match m = prefix_->match(prompt, max_cover);
    if (m.covered == 0) return 0;
    arena_->adopt_prefix(slot, m.pages, m.covered);
    on_prefix_adopted(slot, m.covered);
    pos_[slot] = m.covered;
    return m.covered;
}

std::size_t PagedBackend::register_prefix(std::size_t slot,
                                          std::span<const std::int32_t> prompt,
                                          std::size_t max_new_pages) {
    return prefix_ ? prefix_->register_prefix(slot, prompt, max_new_pages) : 0;
}

std::size_t PagedBackend::drop_prefix_cache() { return prefix_ ? prefix_->drop() : 0; }

PrefixSharingStats PagedBackend::prefix_stats() const {
    if (!prefix_) return {};
    return {.pages_shared = prefix_->pages_held(),
            .cow_copies = static_cast<std::size_t>(arena_->pool().cow_copies())};
}

}  // namespace efld::engine
