// Prefix index: chained page hashes -> resident KV pages.
//
// At production scale most traffic shares long system prompts, so the biggest
// remaining capacity win on a fixed DDR budget is storing each shared
// prefix's KV pages ONCE. The index is the lookup half of that deal: it maps
// a hash of the first k FULL pages of a prompt's tokens to the physical page
// holding that span's computed KV state, so a new session whose prompt starts
// with an already-served prefix adopts those pages instead of re-prefilling
// them.
//
// Hashes chain: page k's key folds page k-1's key into an FNV-1a walk over
// page k's token ids, so equal keys imply an identical token PATH from the
// prompt start — two prompts that differ anywhere before page k can never
// collide into sharing page k (up to 64-bit hash collisions, the standard
// paged-attention trade). Only full pages index; a partial tail page is
// private by construction.
//
// PrefixIndex is a plain map. PrefixStore wraps one around a KvBlockPool and
// is what every paged backend (host engine and KV260 twin) shares: it owns
// the lock, the adoption rule and the pool-reference discipline — each
// indexed page holds one pool reference, retained on register and released
// on drop — so both backends share prefixes with the same semantics. Physical
// KV bytes stay in the arenas.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "kvpool/kv_block_pool.hpp"

namespace efld::prefix {

// Chained FNV-1a keys for every FULL page of `tokens`: out[k] covers
// tokens [0, (k+1)*page_tokens). Empty when tokens holds less than one page.
[[nodiscard]] std::vector<std::uint64_t> prefix_chain_hashes(
    std::span<const std::int32_t> tokens, std::size_t page_tokens);

class PrefixIndex {
public:
    // Longest indexed chain matching `hashes` front-to-back: the physical
    // pages for hashes[0..n), stopping at the first miss. Never returns a
    // gap — a chain is only walkable while every link is present.
    [[nodiscard]] std::vector<std::size_t> match(
        std::span<const std::uint64_t> hashes) const;

    [[nodiscard]] bool contains(std::uint64_t hash) const {
        return pages_.find(hash) != pages_.end();
    }

    // Registers `page` under `hash`, chained after `parent` (the previous
    // link's hash; 0 for the first page of a prompt). Returns false without
    // touching anything when the hash is already indexed, or when the parent
    // link is absent — chains must be inserted root-first so match() never
    // walks a gap.
    bool insert(std::uint64_t hash, std::size_t page, std::uint64_t parent);

    // Pages the index currently pins (one pool reference each).
    [[nodiscard]] std::size_t pages_held() const { return pages_.size(); }

    // Drops every entry, returning the pages so the caller can release each
    // pool reference. The capacity-pressure escape hatch: a pool starved by
    // pinned prefixes dumps the cache rather than refuse admissible work.
    [[nodiscard]] std::vector<std::size_t> clear();

private:
    std::unordered_map<std::uint64_t, std::size_t> pages_;  // hash -> page
};

// A PrefixIndex over one KvBlockPool, shared by every paged backend.
//
// match() is safe from any thread (the router's affinity probe);
// register_prefix and drop touch pool refcounts, so they run on the thread
// that owns the pool — the serving driver — like every other pool write.
class PrefixStore {
public:
    // Non-owning: `pool` must outlive the store.
    explicit PrefixStore(kvpool::KvBlockPool& pool) : pool_(&pool) {}

    struct Match {
        std::vector<std::size_t> pages;  // the chain the covered tokens reach
        std::size_t covered = 0;         // tokens an adoption covers
    };
    // The adoption rule: covered = min(matched pages × page_tokens,
    // max_cover), mid-page included, and `pages` holds the ceil(covered /
    // page_tokens) pages that span it — what the arena's adopt_prefix maps
    // into a fresh sequence. A later write into the partially covered last
    // page copies it first. Pure lookup; no state changes.
    [[nodiscard]] Match match(std::span<const std::int32_t> prompt,
                              std::size_t max_cover) const;

    // Indexes the full pages of `prompt` resident in sequence `seq` (its
    // prefill just completed), retaining one pool reference per page newly
    // indexed, at most `max_new_pages` of them. Returns that count; 0 when
    // the sequence does not yet hold every full prompt page.
    std::size_t register_prefix(std::size_t seq, std::span<const std::int32_t> prompt,
                                std::size_t max_new_pages);

    // Empties the index and releases its pool references. Returns pages
    // released.
    std::size_t drop();

    [[nodiscard]] std::size_t pages_held() const;

private:
    kvpool::KvBlockPool* pool_;
    mutable std::mutex mu_;  // guards index_
    PrefixIndex index_;
};

}  // namespace efld::prefix
