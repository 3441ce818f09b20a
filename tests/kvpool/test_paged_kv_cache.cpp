// Paged KV arenas vs the contiguous caches: history read page by page (KV8
// pages dequantized) must be bit-for-bit what the contiguous reservation
// returns at every page size, span length and history length,
// pages must recycle across sequences, and exhaustion must surface as an
// error, not corruption. Both engines keep all their KV in these arenas, so
// this is the proof that their logits do not depend on the page size.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "model/kv_cache.hpp"

namespace efld::kvpool {
namespace {

model::ModelConfig cfg() {
    model::ModelConfig c = model::ModelConfig::micro_256();
    c.max_seq_len = 64;  // keep the contiguous oracle small
    return c;
}

std::vector<float> random_vec(Xoshiro256& rng, std::size_t n) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    return v;
}

// Appends the same random spans of `spans[i]` rows each to an arena sequence
// and to its contiguous oracle, every layer in turn (the engines' cadence);
// returns the token count.
template <class Arena, class Oracle>
std::size_t append_spans(const model::ModelConfig& c, Arena& arena, std::size_t seq,
                         Oracle& oracle, std::span<const std::size_t> spans,
                         Xoshiro256& rng) {
    std::size_t tokens = 0;
    for (const std::size_t n : spans) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            const std::vector<float> k = random_vec(rng, n * c.kv_dim());
            const std::vector<float> v = random_vec(rng, n * c.kv_dim());
            arena.append(seq, l, k, v);
            oracle.append(l, k, v);
        }
        tokens += n;
    }
    return tokens;
}

// The first `len` rows of one head's keys or values, read through the
// arena's page accessor one block-table page at a time.
std::vector<float> read_pages(const PagedKvArena& arena, std::size_t seq,
                              std::size_t layer, std::size_t kv_head, KvPart part,
                              std::size_t len, std::size_t head_dim) {
    std::vector<float> out;
    for (std::size_t i = 0; out.size() < len * head_dim; ++i) {
        const std::span<const float> page = arena.page(seq, layer, kv_head, part, i);
        const std::size_t n = std::min(page.size(), len * head_dim - out.size());
        out.insert(out.end(), page.begin(),
                   page.begin() + static_cast<std::ptrdiff_t>(n));
    }
    return out;
}

// The same for KV8, each entry dequantized as the host engine does.
std::vector<float> read_pages(const PagedQuantizedKvArena& arena, std::size_t seq,
                              std::size_t layer, std::size_t kv_head, KvPart part,
                              std::size_t len, std::size_t head_dim) {
    std::vector<float> out(len * head_dim);
    std::size_t t = 0;
    for (std::size_t i = 0; t < len; ++i) {
        const KvPage page = arena.page(seq, layer, kv_head, part, i);
        for (std::size_t r = 0; r < page.rows() && t < len; ++r, ++t) {
            quant::kv_dequantize_into(page.row(r), page.params[r],
                                      std::span(out).subspan(t * head_dim, head_dim));
        }
    }
    return out;
}

// The layouts both store tests sweep: single-token appends on pages smaller
// than the history, then 1-, 5- and 16-row spans (as prefill tiles append)
// across 4- and 16-token pages. Every history length is read back, so reads
// cross pages and end mid-page.
struct Layout {
    std::size_t page_tokens;
    std::vector<std::size_t> spans;
};
std::vector<Layout> layouts(std::size_t single_tokens) {
    const std::vector<std::size_t> tiles = {1, 5, 16, 1, 5, 16};  // 44 tokens
    return {{4, std::vector<std::size_t>(single_tokens, 1)}, {4, tiles}, {16, tiles}};
}

TEST(PagedKvArena, PagesMatchContiguousSpansBitForBit) {
    const model::ModelConfig c = cfg();
    // 19 single tokens: not a page multiple, so a partial last page.
    for (const Layout& lay : layouts(19)) {
        SCOPED_TRACE(lay.page_tokens);
        PagedKvArena arena(c, {.page_tokens = lay.page_tokens, .n_pages = 64});
        model::KvCache oracle(c);
        const std::size_t seq = arena.create_sequence();

        Xoshiro256 rng(7);
        const std::size_t n_tokens = append_spans(c, arena, seq, oracle, lay.spans, rng);
        ASSERT_EQ(arena.length(seq), n_tokens);

        for (std::size_t l = 0; l < c.n_layers; ++l) {
            for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
                for (std::size_t len = 1; len <= n_tokens; ++len) {
                    const std::vector<float> got =
                        read_pages(arena, seq, l, h, KvPart::kKeys, len, c.head_dim());
                    const std::span<const float> want = oracle.keys_span(l, h, len);
                    ASSERT_EQ(got.size(), want.size());
                    for (std::size_t i = 0; i < got.size(); ++i) {
                        ASSERT_EQ(got[i], want[i]) << "keys l" << l << " h" << h;
                    }
                    const std::vector<float> gv =
                        read_pages(arena, seq, l, h, KvPart::kValues, len, c.head_dim());
                    const std::span<const float> wv = oracle.values_span(l, h, len);
                    ASSERT_EQ(gv.size(), wv.size());
                    for (std::size_t i = 0; i < gv.size(); ++i) {
                        ASSERT_EQ(gv[i], wv[i]) << "values l" << l << " h" << h;
                    }
                }
            }
        }
    }
}

TEST(PagedQuantizedKvArena, DequantizedPagesMatchContiguousQuantizedCache) {
    const model::ModelConfig c = cfg();
    for (const Layout& lay : layouts(13)) {
        SCOPED_TRACE(lay.page_tokens);
        PagedQuantizedKvArena arena(c, {.page_tokens = lay.page_tokens, .n_pages = 64}, 8);
        model::QuantizedKvCache oracle(c, 8);
        const std::size_t seq = arena.create_sequence();

        Xoshiro256 rng(11);
        const std::size_t n_tokens = append_spans(c, arena, seq, oracle, lay.spans, rng);
        ASSERT_EQ(arena.length(seq), n_tokens);

        std::vector<float> want(n_tokens * c.head_dim());
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
                for (std::size_t len = 1; len <= n_tokens; ++len) {
                    const auto g =
                        read_pages(arena, seq, l, h, KvPart::kKeys, len, c.head_dim());
                    const auto w = oracle.dequant_keys_into(l, h, len, want);
                    ASSERT_EQ(g.size(), w.size());
                    for (std::size_t i = 0; i < g.size(); ++i) {
                        ASSERT_EQ(g[i], w[i]) << "keys l" << l << " h" << h;
                    }
                    const auto gv =
                        read_pages(arena, seq, l, h, KvPart::kValues, len, c.head_dim());
                    const auto wv = oracle.dequant_values_into(l, h, len, want);
                    ASSERT_EQ(gv.size(), wv.size());
                    for (std::size_t i = 0; i < gv.size(); ++i) {
                        ASSERT_EQ(gv[i], wv[i]) << "values l" << l << " h" << h;
                    }
                }
            }
        }
    }
}

TEST(PagedArena, PageReadsHoldTheRowsTheHistoryFills) {
    // 6 tokens on 4-token pages: page 0 holds 4 rows, page 1 the 2 filled
    // rows of its 4, and a page past the history is refused, on both arenas.
    const model::ModelConfig c = cfg();
    PagedKvArena arena(c, {.page_tokens = 4, .n_pages = 8});
    PagedQuantizedKvArena qarena(c, {.page_tokens = 4, .n_pages = 8});
    model::KvCache oracle(c);
    model::QuantizedKvCache qoracle(c);
    const std::size_t six[] = {6};
    Xoshiro256 rng(13);
    const std::size_t seq = arena.create_sequence();
    const std::size_t qseq = qarena.create_sequence();
    (void)append_spans(c, arena, seq, oracle, six, rng);
    (void)append_spans(c, qarena, qseq, qoracle, six, rng);
    for (const KvPart part : {KvPart::kKeys, KvPart::kValues}) {
        EXPECT_EQ(arena.page(seq, 1, 1, part, 0).size(), 4 * c.head_dim());
        EXPECT_EQ(arena.page(seq, 1, 1, part, 1).size(), 2 * c.head_dim());
        EXPECT_THROW((void)arena.page(seq, 1, 1, part, 2), efld::Error);
        EXPECT_EQ(qarena.page(qseq, 1, 1, part, 0).rows(), 4u);
        EXPECT_EQ(qarena.page(qseq, 1, 1, part, 1).rows(), 2u);
        EXPECT_EQ(qarena.page(qseq, 1, 1, part, 1).codes.size(), 2 * c.head_dim());
        EXPECT_THROW((void)qarena.page(qseq, 1, 1, part, 2), efld::Error);
    }
    EXPECT_THROW((void)arena.page(seq, c.n_layers, 0, KvPart::kKeys, 0), efld::Error);
    EXPECT_THROW((void)qarena.page(qseq, 0, c.n_kv_heads, KvPart::kKeys, 0), efld::Error);
}

TEST(PagedArena, PagesToAppendCountsFreshAndCopyOnWritePages) {
    const model::ModelConfig c = cfg();
    PagedKvArena arena(c, {.page_tokens = 4, .n_pages = 16});
    const std::size_t a = arena.create_sequence();
    EXPECT_EQ(arena.pages_to_append(a, 1), 1u);
    EXPECT_EQ(arena.pages_to_append(a, 5), 2u);
    Xoshiro256 rng(9);
    model::KvCache oracle(c);
    const std::size_t six[] = {6};
    (void)append_spans(c, arena, a, oracle, six, rng);
    EXPECT_EQ(arena.pages_to_append(a, 2), 0u);  // fills page 2
    EXPECT_EQ(arena.pages_to_append(a, 3), 1u);

    // A sequence that adopts a's two pages at 6 tokens writes into the
    // shared page 2 first: one copy-on-write page on top of the fresh ones.
    const std::size_t b = arena.create_sequence();
    arena.adopt_prefix(b, arena.pool().block_table(a), 6);
    EXPECT_EQ(arena.pages_to_append(b, 1), 1u);
    EXPECT_EQ(arena.pages_to_append(b, 3), 2u);
    const std::size_t free_before = arena.pool().pages_free();
    arena.append(b, 0, random_vec(rng, 3 * c.kv_dim()), random_vec(rng, 3 * c.kv_dim()));
    EXPECT_EQ(free_before - arena.pool().pages_free(), 2u);
}

// One token's K and V for every layer ([layer][kv_dim] each).
struct Token {
    std::vector<float> k, v;
};

// A appends 6 tokens on 4-token pages; B adopts A's block table at 6 tokens
// (mid-page) and appends 3 different tokens, so its first write copies the
// shared page 1. Each sequence must then read back exactly its own history:
// A its 6 tokens, B A's first 6 and its own 3. expect_row(seq, t, layer,
// kv_head, part, want) checks the stored row against the head's input row.
template <class Arena, class ExpectRow>
void expect_cow_round_trip(const model::ModelConfig& c, Arena& arena,
                           ExpectRow&& expect_row) {
    const std::size_t kvd = c.kv_dim(), hd = c.head_dim();
    Xoshiro256 rng(17);
    const auto append = [&](std::size_t seq, std::vector<Token>& hist) {
        hist.push_back({random_vec(rng, c.n_layers * kvd), random_vec(rng, c.n_layers * kvd)});
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            arena.append(seq, l, std::span(hist.back().k).subspan(l * kvd, kvd),
                         std::span(hist.back().v).subspan(l * kvd, kvd));
        }
    };
    std::vector<Token> a_hist;
    const std::size_t a = arena.create_sequence();
    for (int t = 0; t < 6; ++t) append(a, a_hist);
    const std::size_t b = arena.create_sequence();
    arena.adopt_prefix(b, arena.pool().block_table(a), 6);
    std::vector<Token> b_hist = a_hist;
    for (int t = 0; t < 3; ++t) append(b, b_hist);
    EXPECT_EQ(arena.pool().cow_copies(), 1u);
    ASSERT_EQ(arena.length(a), 6u);
    ASSERT_EQ(arena.length(b), 9u);

    for (const auto& [seq, hist] : {std::pair{a, &a_hist}, std::pair{b, &b_hist}}) {
        for (std::size_t t = 0; t < hist->size(); ++t) {
            for (std::size_t l = 0; l < c.n_layers; ++l) {
                for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
                    const std::size_t off = l * kvd + h * hd;
                    SCOPED_TRACE(testing::Message() << "seq " << seq << " token " << t
                                                    << " layer " << l << " head " << h);
                    expect_row(seq, t, l, h, KvPart::kKeys,
                               std::span<const float>((*hist)[t].k).subspan(off, hd));
                    expect_row(seq, t, l, h, KvPart::kValues,
                               std::span<const float>((*hist)[t].v).subspan(off, hd));
                }
            }
        }
    }
}

TEST(PagedArena, CopyOnWriteKeepsBothHistories) {
    const model::ModelConfig c = cfg();
    const std::size_t pt = 4, hd = c.head_dim();
    {
        PagedKvArena arena(c, {.page_tokens = pt, .n_pages = 8});
        expect_cow_round_trip(c, arena, [&](std::size_t seq, std::size_t t, std::size_t l,
                                            std::size_t h, KvPart part,
                                            std::span<const float> want) {
            const std::span<const float> got =
                arena.page(seq, l, h, part, t / pt).subspan((t % pt) * hd, hd);
            EXPECT_TRUE(std::ranges::equal(got, want));
        });
    }
    {
        PagedQuantizedKvArena arena(c, {.page_tokens = pt, .n_pages = 8});
        expect_cow_round_trip(c, arena, [&](std::size_t seq, std::size_t t, std::size_t l,
                                            std::size_t h, KvPart part,
                                            std::span<const float> want) {
            const quant::KvQuantized q = quant::kv_quantize(want);
            const KvPage page = arena.page(seq, l, h, part, t / pt);
            EXPECT_TRUE(std::ranges::equal(page.row(t % pt), q.codes));
            EXPECT_EQ(page.params[t % pt].scale.bits(), q.params.scale.bits());
            EXPECT_EQ(page.params[t % pt].zero, q.params.zero);
        });
    }
}

TEST(PagedKvArena, SequencesInterleaveWithoutCrosstalk) {
    const model::ModelConfig c = cfg();
    PagedKvArena arena(c, {.page_tokens = 2, .n_pages = 32});
    model::KvCache oracle_a(c), oracle_b(c);
    const std::size_t a = arena.create_sequence();
    const std::size_t b = arena.create_sequence();

    Xoshiro256 rng(3);
    for (std::size_t t = 0; t < 7; ++t) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            const std::vector<float> ka = random_vec(rng, c.kv_dim());
            const std::vector<float> va = random_vec(rng, c.kv_dim());
            const std::vector<float> kb = random_vec(rng, c.kv_dim());
            const std::vector<float> vb = random_vec(rng, c.kv_dim());
            arena.append(a, l, ka, va);
            arena.append(b, l, kb, vb);
            oracle_a.append(l, ka, va);
            oracle_b.append(l, kb, vb);
        }
    }
    for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
        const auto ga = read_pages(arena, a, 1, h, KvPart::kKeys, 7, c.head_dim());
        const auto wa = oracle_a.keys_span(1, h, 7);
        for (std::size_t i = 0; i < ga.size(); ++i) ASSERT_EQ(ga[i], wa[i]);
        const auto gb = read_pages(arena, b, 1, h, KvPart::kValues, 7, c.head_dim());
        const auto wb = oracle_b.values_span(1, h, 7);
        for (std::size_t i = 0; i < gb.size(); ++i) ASSERT_EQ(gb[i], wb[i]);
    }
}

TEST(PagedKvArena, ExhaustionThrowsAndFreedPagesRecycle) {
    const model::ModelConfig c = cfg();
    // 4 pages of 2 tokens: one sequence can hold at most 8 tokens.
    PagedKvArena arena(c, {.page_tokens = 2, .n_pages = 4});
    const std::size_t a = arena.create_sequence();
    Xoshiro256 rng(5);
    auto push = [&](std::size_t seq) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            arena.append(seq, l, random_vec(rng, c.kv_dim()),
                         random_vec(rng, c.kv_dim()));
        }
    };
    for (int t = 0; t < 8; ++t) push(a);
    EXPECT_THROW(push(a), efld::Error);

    // Retiring the hog returns its pages; a new sequence grows again.
    arena.free_sequence(a);
    const std::size_t b = arena.create_sequence();
    for (int t = 0; t < 8; ++t) push(b);
    EXPECT_EQ(arena.length(b), 8u);
    EXPECT_EQ(arena.pool().pages_used(), 4u);
}

}  // namespace
}  // namespace efld::kvpool
