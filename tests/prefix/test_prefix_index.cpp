// Prefix index: chained page hashing and root-first chain bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "prefix/prefix_index.hpp"

namespace efld::prefix {
namespace {

std::vector<std::int32_t> iota_tokens(std::size_t n, std::int32_t base = 3) {
    std::vector<std::int32_t> t(n);
    for (std::size_t i = 0; i < n; ++i) t[i] = base + static_cast<std::int32_t>(i);
    return t;
}

TEST(PrefixChainHashes, OnlyFullPagesHash) {
    EXPECT_TRUE(prefix_chain_hashes({}, 4).empty());
    EXPECT_TRUE(prefix_chain_hashes(iota_tokens(3), 4).empty());
    EXPECT_EQ(prefix_chain_hashes(iota_tokens(4), 4).size(), 1u);
    EXPECT_EQ(prefix_chain_hashes(iota_tokens(7), 4).size(), 1u);
    EXPECT_EQ(prefix_chain_hashes(iota_tokens(8), 4).size(), 2u);
}

TEST(PrefixChainHashes, LongerPromptExtendsShorterChain) {
    // The chain for a prompt is a prefix of the chain for any extension of it
    // — the property the whole index relies on.
    const auto short_chain = prefix_chain_hashes(iota_tokens(8), 4);
    const auto long_chain = prefix_chain_hashes(iota_tokens(20), 4);
    ASSERT_EQ(short_chain.size(), 2u);
    ASSERT_EQ(long_chain.size(), 5u);
    EXPECT_EQ(long_chain[0], short_chain[0]);
    EXPECT_EQ(long_chain[1], short_chain[1]);
}

TEST(PrefixChainHashes, EarlyDivergenceChangesEveryLaterKey) {
    // Two prompts differing in page 0 must never share ANY later key, or the
    // index would alias different token paths into one physical page.
    auto a = iota_tokens(16);
    auto b = iota_tokens(16);
    b[1] += 1;
    const auto ha = prefix_chain_hashes(a, 4);
    const auto hb = prefix_chain_hashes(b, 4);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t k = 0; k < ha.size(); ++k) {
        EXPECT_NE(ha[k], hb[k]) << "page " << k;
    }
}

TEST(PrefixChainHashes, LateDivergenceKeepsEarlierKeys) {
    auto a = iota_tokens(16);
    auto b = iota_tokens(16);
    b[13] += 1;  // page 3 differs; pages 0..2 identical
    const auto ha = prefix_chain_hashes(a, 4);
    const auto hb = prefix_chain_hashes(b, 4);
    EXPECT_EQ(ha[0], hb[0]);
    EXPECT_EQ(ha[1], hb[1]);
    EXPECT_EQ(ha[2], hb[2]);
    EXPECT_NE(ha[3], hb[3]);
}

TEST(PrefixChainHashes, NeverProducesTheReservedZeroKey) {
    // 0 marks "no parent" in index entries, so no real key may be 0.
    for (std::int32_t base = 0; base < 64; ++base) {
        for (const std::uint64_t h : prefix_chain_hashes(iota_tokens(32, base), 4)) {
            EXPECT_NE(h, 0u);
        }
    }
}

TEST(PrefixIndex, InsertsRootFirstAndMatchesFrontToBack) {
    PrefixIndex idx;
    const auto h = prefix_chain_hashes(iota_tokens(12), 4);
    ASSERT_EQ(h.size(), 3u);
    EXPECT_TRUE(idx.insert(h[0], 10, 0));
    EXPECT_TRUE(idx.insert(h[1], 11, h[0]));
    EXPECT_TRUE(idx.insert(h[2], 12, h[1]));
    EXPECT_EQ(idx.pages_held(), 3u);

    const std::vector<std::size_t> pages = idx.match(h);
    ASSERT_EQ(pages.size(), 3u);
    EXPECT_EQ(pages[0], 10u);
    EXPECT_EQ(pages[1], 11u);
    EXPECT_EQ(pages[2], 12u);

    // A diverged prompt matches only the shared head of the chain.
    auto div = iota_tokens(12);
    div[9] += 1;
    const auto hd = prefix_chain_hashes(div, 4);
    const std::vector<std::size_t> partial = idx.match(hd);
    ASSERT_EQ(partial.size(), 2u);
    EXPECT_EQ(partial[1], 11u);
}

TEST(PrefixIndex, RefusesGapsAndDuplicates) {
    PrefixIndex idx;
    const auto h = prefix_chain_hashes(iota_tokens(12), 4);
    // A link before its parent: rejected, or match() could walk a gap.
    EXPECT_FALSE(idx.insert(h[1], 11, h[0]));
    EXPECT_TRUE(idx.insert(h[0], 10, 0));
    EXPECT_FALSE(idx.insert(h[0], 99, 0));  // duplicate keeps first page
    EXPECT_TRUE(idx.insert(h[1], 11, h[0]));
    EXPECT_EQ(idx.pages_held(), 2u);
    EXPECT_EQ(idx.match(h)[0], 10u);
}

TEST(PrefixIndex, ClearReturnsEveryPinnedPage) {
    PrefixIndex idx;
    const auto h = prefix_chain_hashes(iota_tokens(12), 4);
    ASSERT_TRUE(idx.insert(h[0], 10, 0));
    ASSERT_TRUE(idx.insert(h[1], 11, h[0]));
    std::vector<std::size_t> pages = idx.clear();
    std::sort(pages.begin(), pages.end());
    EXPECT_EQ(pages, (std::vector<std::size_t>{10, 11}));
    EXPECT_EQ(idx.pages_held(), 0u);
    EXPECT_TRUE(idx.match(h).empty());
}

}  // namespace
}  // namespace efld::prefix
