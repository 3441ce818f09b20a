// The slot layer both paged engines share: everything the DecodeBackend seam
// says about slots, written once.
//
// A PagedBackend owns the model config, each slot's position and
// reservation, the step's cost report and profiler, and the prefix store over
// the engine's kvpool arena. The engine that derives from it keeps only two
// things: building its arena (handed over through attach()) and its forward
// pass (decode_batch, which calls check_step() before it touches any slot).
// Slot s is arena sequence s.
//
// An engine with per-slot state outside the arena (the accel twin's
// scale-zero FIFO) keeps it in step through two hooks: on_reset_session
// when a slot's history is cleared, on_prefix_adopted after an adoption maps
// pages into a fresh slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "engine/decode_backend.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "model/config.hpp"
#include "prefix/prefix_index.hpp"

namespace efld::engine {

class PagedBackend : public DecodeBackend {
public:
    [[nodiscard]] const model::ModelConfig& config() const noexcept final { return cfg_; }
    [[nodiscard]] std::size_t max_batch() const noexcept final { return pos_.size(); }

    [[nodiscard]] std::size_t reserve_slot() final;
    void release_slot(std::size_t slot) final;
    [[nodiscard]] std::size_t position(std::size_t slot) const final;
    void reset() final;  // all slots (reservations survive)
    // One slot's KV history and position back to empty; its reservation stays.
    void reset_session(std::size_t slot);

    [[nodiscard]] StepCost last_step_cost() const noexcept final { return last_cost_; }
    void set_profiler(obs::Profiler* profiler) final { profiler_ = profiler; }

    // Prefix sharing (kv_page_tokens > 0; 0 otherwise): the contract is in
    // decode_backend.hpp, the store, its adoption rule and its threading in
    // prefix::PrefixStore.
    [[nodiscard]] std::size_t probe_prefix(std::span<const std::int32_t> prompt,
                                           std::size_t max_cover) const final;
    std::size_t adopt_prefix(std::size_t slot, std::span<const std::int32_t> prompt,
                             std::size_t max_cover) final;
    std::size_t register_prefix(std::size_t slot, std::span<const std::int32_t> prompt,
                                std::size_t max_new_pages) final;
    std::size_t drop_prefix_cache() final;
    [[nodiscard]] PrefixSharingStats prefix_stats() const final;

protected:
    PagedBackend(const model::ModelConfig& cfg, std::size_t max_batch);

    // Takes the arena the engine built (non-owning: it must outlive every
    // call into this base) and creates one sequence per slot. With
    // `prefix_store` (kv_page_tokens > 0 on both engines) a prefix store
    // over the arena's pool shares prompt pages between slots.
    void attach(kvpool::PagedArena& arena, bool prefix_store);
    [[nodiscard]] const kvpool::PagedArena& arena() const noexcept { return *arena_; }

    // The seam's step contract, checked before any slot changes; throws
    // efld::Error on the first violation: 1 .. max_batch() distinct in-range
    // slots; `rows` empty (one token each) or one span length per slot,
    // summing to tokens.size(); each span 1 .. max_feed_tokens() tokens and
    // inside the context window; every token inside the vocabulary; room for
    // slots.size() logit rows in `logits_floats`; and the pool pages the
    // spans' appends take within pages_free().
    void check_step(std::span<const std::int32_t> tokens,
                    std::span<const std::size_t> slots,
                    std::span<const std::size_t> rows, std::size_t logits_floats) const;

    // Per-slot state an engine keeps outside the arena: cleared with the
    // slot's history, and brought to what prefilling the `covered` tokens an
    // adoption just mapped would have left (position not yet advanced).
    virtual void on_reset_session(std::size_t /*slot*/) {}
    virtual void on_prefix_adopted(std::size_t /*slot*/, std::size_t /*covered*/) {}

    model::ModelConfig cfg_;
    std::vector<std::size_t> pos_;     // tokens in each slot's KV history
    StepCost last_cost_{};             // of the last decode_batch
    obs::Profiler* profiler_ = nullptr;  // serving-layer owned; may be null

private:
    std::vector<std::uint8_t> reserved_;  // per slot: handed out by reserve_slot
    kvpool::PagedArena* arena_ = nullptr;
    std::optional<prefix::PrefixStore> prefix_;  // over arena_'s pool
};

}  // namespace efld::engine
