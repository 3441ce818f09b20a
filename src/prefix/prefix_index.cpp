#include "prefix/prefix_index.hpp"

#include <algorithm>

namespace efld::prefix {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a_u32(std::uint64_t h, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
        h ^= (v >> shift) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

}  // namespace

std::vector<std::uint64_t> prefix_chain_hashes(std::span<const std::int32_t> tokens,
                                               std::size_t page_tokens) {
    std::vector<std::uint64_t> out;
    if (page_tokens == 0) return out;
    out.reserve(tokens.size() / page_tokens);
    std::uint64_t h = kFnvOffset;
    for (std::size_t k = 0; (k + 1) * page_tokens <= tokens.size(); ++k) {
        // Fold this page's tokens into the running walk: page k's key commits
        // to every token in [0, (k+1)*page_tokens).
        for (std::size_t i = k * page_tokens; i < (k + 1) * page_tokens; ++i) {
            h = fnv1a_u32(h, static_cast<std::uint32_t>(tokens[i]));
        }
        // 0 is the "no parent" sentinel; remap the (vanishingly unlikely)
        // genuine 0 so a chain key is never ambiguous.
        out.push_back(h == 0 ? kFnvOffset : h);
    }
    return out;
}

std::vector<std::size_t> PrefixIndex::match(
    std::span<const std::uint64_t> hashes) const {
    std::vector<std::size_t> pages;
    for (const std::uint64_t h : hashes) {
        const auto it = pages_.find(h);
        if (it == pages_.end()) break;
        pages.push_back(it->second);
    }
    return pages;
}

bool PrefixIndex::insert(std::uint64_t hash, std::size_t page, std::uint64_t parent) {
    if (contains(hash)) return false;
    if (parent != 0 && !contains(parent)) return false;
    pages_.emplace(hash, page);
    return true;
}

std::vector<std::size_t> PrefixIndex::clear() {
    std::vector<std::size_t> pages;
    pages.reserve(pages_.size());
    for (const auto& [h, page] : pages_) pages.push_back(page);
    pages_.clear();
    return pages;
}

PrefixStore::Match PrefixStore::match(std::span<const std::int32_t> prompt,
                                      std::size_t max_cover) const {
    const std::size_t pt = pool_->page_tokens();
    const std::vector<std::uint64_t> hashes = prefix_chain_hashes(prompt, pt);
    Match m;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        m.pages = index_.match(hashes);
    }
    m.covered = std::min(m.pages.size() * pt, max_cover);
    m.pages.resize((m.covered + pt - 1) / pt);
    return m;
}

std::size_t PrefixStore::register_prefix(std::size_t seq,
                                         std::span<const std::int32_t> prompt,
                                         std::size_t max_new_pages) {
    const std::size_t pt = pool_->page_tokens();
    const std::vector<std::uint64_t> hashes = prefix_chain_hashes(prompt, pt);
    if (pool_->seq_tokens(seq) < hashes.size() * pt) return 0;  // prefill incomplete
    const std::vector<std::size_t>& table = pool_->block_table(seq);
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t pinned = 0;
    for (std::size_t k = 0; k < hashes.size() && pinned < max_new_pages; ++k) {
        const std::uint64_t parent = k == 0 ? 0 : hashes[k - 1];
        if (!index_.insert(hashes[k], table[k], parent)) continue;
        pool_->retain_page(table[k]);  // the index's own reference
        ++pinned;
    }
    return pinned;
}

std::size_t PrefixStore::drop() {
    std::vector<std::size_t> pages;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        pages = index_.clear();
    }
    for (const std::size_t p : pages) pool_->release_page(p);
    return pages.size();
}

std::size_t PrefixStore::pages_held() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return index_.pages_held();
}

}  // namespace efld::prefix
