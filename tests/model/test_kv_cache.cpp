// Float and KV8 caches: layout, GQA head views, quantization transparency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "model/kv_cache.hpp"

namespace {

// Global allocation counter for the allocation-free append test: counts
// operator new calls only while armed.
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(n > 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace efld::model {
namespace {

ModelConfig micro() { return ModelConfig::micro_256(); }  // 2 layers, 2 heads, hd=128

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.gaussian());
    return v;
}

TEST(KvCache, AppendAdvancesAfterAllLayers) {
    const ModelConfig cfg = micro();
    KvCache cache(cfg);
    const auto k = random_vec(cfg.kv_dim(), 1), v = random_vec(cfg.kv_dim(), 2);
    cache.append(0, k, v);
    EXPECT_EQ(cache.length(), 0u);  // layer 1 still pending
    cache.append(1, k, v);
    EXPECT_EQ(cache.length(), 1u);
}

TEST(KvCache, HeadViewExtractsCorrectSlice) {
    const ModelConfig cfg = micro();
    KvCache cache(cfg);
    std::vector<float> k(cfg.kv_dim()), v(cfg.kv_dim());
    for (std::size_t i = 0; i < cfg.kv_dim(); ++i) {
        k[i] = static_cast<float>(i);
        v[i] = -static_cast<float>(i);
    }
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, k, v);

    const std::size_t hd = cfg.head_dim();
    const std::span<const float> head1 = cache.keys_span(0, 1, 1);
    ASSERT_EQ(head1.size(), hd);
    for (std::size_t i = 0; i < hd; ++i) {
        EXPECT_FLOAT_EQ(head1[i], static_cast<float>(hd + i));
    }
}

TEST(KvCache, MultiTokenHistoryOrdered) {
    const ModelConfig cfg = micro();
    KvCache cache(cfg);
    for (int t = 0; t < 3; ++t) {
        std::vector<float> k(cfg.kv_dim(), static_cast<float>(t));
        for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, k, k);
    }
    const std::span<const float> hist = cache.keys_span(1, 0, 3);
    const std::size_t hd = cfg.head_dim();
    EXPECT_FLOAT_EQ(hist[0], 0.0f);
    EXPECT_FLOAT_EQ(hist[hd], 1.0f);
    EXPECT_FLOAT_EQ(hist[2 * hd], 2.0f);
}

TEST(KvCache, CapacityEnforced) {
    ModelConfig cfg = micro();
    cfg.max_seq_len = 2;
    KvCache cache(cfg);
    const auto k = random_vec(cfg.kv_dim(), 3);
    for (int t = 0; t < 2; ++t) {
        for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, k, k);
    }
    EXPECT_THROW(cache.append(0, k, k), efld::Error);
}

TEST(KvCache, ResetClearsLength) {
    const ModelConfig cfg = micro();
    KvCache cache(cfg);
    const auto k = random_vec(cfg.kv_dim(), 4);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, k, k);
    cache.reset();
    EXPECT_EQ(cache.length(), 0u);
}

TEST(QuantizedKvCache, ReconstructionCloseToFloat) {
    const ModelConfig cfg = micro();
    QuantizedKvCache qcache(cfg);
    KvCache fcache(cfg);
    const auto k = random_vec(cfg.kv_dim(), 5), v = random_vec(cfg.kv_dim(), 6);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
        qcache.append(l, k, v);
        fcache.append(l, k, v);
    }
    std::vector<float> scratch(cfg.head_dim());
    const std::span<const float> qk = qcache.dequant_keys_into(0, 0, 1, scratch);
    const std::span<const float> fk = fcache.keys_span(0, 0, 1);
    ASSERT_EQ(qk.size(), fk.size());
    for (std::size_t i = 0; i < qk.size(); ++i) {
        EXPECT_NEAR(qk[i], fk[i], 0.05f) << i;  // 8-bit grid over ~N(0,1)
    }
}

TEST(QuantizedKvCache, PerHeadParamsIndependent) {
    const ModelConfig cfg = micro();
    QuantizedKvCache qcache(cfg);
    std::vector<float> k(cfg.kv_dim()), v(cfg.kv_dim(), 0.1f);
    const std::size_t hd = cfg.head_dim();
    // Head 0 small range, head 1 large range.
    for (std::size_t i = 0; i < hd; ++i) k[i] = 0.01f * static_cast<float>(i % 3);
    for (std::size_t i = hd; i < 2 * hd; ++i) k[i] = 10.0f * static_cast<float>(i % 5);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) qcache.append(l, k, v);

    const float s0 = qcache.key_params(0, 0, 0).scale.to_float();
    const float s1 = qcache.key_params(0, 0, 1).scale.to_float();
    EXPECT_LT(s0, s1 / 100.0f);
}

TEST(QuantizedKvCache, ValuesRoundTripToo) {
    const ModelConfig cfg = micro();
    QuantizedKvCache qcache(cfg);
    const auto k = random_vec(cfg.kv_dim(), 7), v = random_vec(cfg.kv_dim(), 8);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) qcache.append(l, k, v);
    const std::size_t hd = cfg.head_dim();
    std::vector<float> scratch(hd);
    const std::span<const float> qv = qcache.dequant_values_into(1, 1, 1, scratch);
    ASSERT_EQ(qv.size(), hd);
    for (std::size_t i = 0; i < hd; ++i) {
        EXPECT_NEAR(qv[i], v[hd + i], 0.05f);
    }
}

TEST(QuantizedKvCache, RefillAfterResetAllocatesNothing) {
    // Decode must not allocate once the KV stores are warm: after reset(), a
    // re-fill reuses every entry's code buffer in the contiguous cache, and
    // a paged arena writes into the rows it mapped at construction, so
    // neither its first fill nor a re-fill allocates per row. Both store
    // exactly what a fresh cache stores for the same data.
    const ModelConfig cfg = micro();
    const std::size_t tokens = 20, span = 4, kvd = cfg.kv_dim(), hd = cfg.head_dim();
    const auto history = [&](std::uint64_t seed) {
        return std::pair{random_vec(cfg.n_layers * tokens * kvd, seed),
                         random_vec(cfg.n_layers * tokens * kvd, seed + 1)};
    };
    const auto [ka, va] = history(100);
    const auto [kb, vb] = history(200);
    // Spans of `span` tokens, every layer per span (the append cadence).
    const auto fill = [&](const std::vector<float>& k, const std::vector<float>& v,
                          auto&& append) {
        for (std::size_t t = 0; t < tokens; t += span) {
            for (std::size_t l = 0; l < cfg.n_layers; ++l) {
                const std::size_t off = (l * tokens + t) * kvd;
                append(l, std::span(k).subspan(off, span * kvd),
                       std::span(v).subspan(off, span * kvd));
            }
        }
    };

    QuantizedKvCache cache(cfg), fresh(cfg);
    // Two 16-token pages: the re-fill lands on the pages the first fill
    // wrote.
    kvpool::PagedQuantizedKvArena arena(cfg, kvpool::pool_config(cfg, 1, 16, 2));
    const std::size_t seq = arena.create_sequence();
    const auto cache_append = [&](QuantizedKvCache& c) {
        return [&c](std::size_t l, std::span<const float> k, std::span<const float> v) {
            c.append(l, k, v);
        };
    };
    const auto arena_append = [&](std::size_t l, std::span<const float> k,
                                  std::span<const float> v) { arena.append(seq, l, k, v); };
    fill(ka, va, cache_append(cache));
    g_allocs = 0;
    g_count_allocs = true;
    fill(ka, va, arena_append);
    const std::size_t first_fill_allocs = g_allocs.load();
    g_count_allocs = false;
    // Only the sequence's bookkeeping grows on a first fill: its span
    // cadence and its block table (at most one allocation per page).
    EXPECT_LE(first_fill_allocs, arena.pool().block_table(seq).size() + 1);
    fill(kb, vb, cache_append(fresh));
    cache.reset();
    arena.reset_sequence(seq);

    g_allocs = 0;
    g_count_allocs = true;
    fill(kb, vb, cache_append(cache));
    const std::size_t cache_allocs = g_allocs.exchange(0);
    fill(kb, vb, arena_append);
    const std::size_t arena_allocs = g_allocs.load();
    g_count_allocs = false;
    EXPECT_EQ(cache_allocs, 0u);
    EXPECT_EQ(arena_allocs, 0u);

    ASSERT_EQ(cache.length(), tokens);
    ASSERT_EQ(arena.length(seq), tokens);
    std::vector<float> want(tokens * hd), got(tokens * hd);
    // The arena's history, dequantized page by page as the host engine reads it.
    const auto arena_rows = [&](std::size_t l, std::size_t h, kvpool::KvPart part) {
        const std::size_t pt = arena.pool().page_tokens();
        for (std::size_t t = 0; t < tokens; ++t) {
            const kvpool::KvPage page = arena.page(seq, l, h, part, t / pt);
            quant::kv_dequantize_into(page.row(t % pt), page.params[t % pt],
                                      std::span(got).subspan(t * hd, hd));
        }
    };
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
        for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
            fresh.dequant_keys_into(l, h, tokens, want);
            cache.dequant_keys_into(l, h, tokens, got);
            EXPECT_EQ(got, want) << "keys, layer " << l << " head " << h;
            arena_rows(l, h, kvpool::KvPart::kKeys);
            EXPECT_EQ(got, want) << "arena keys, layer " << l << " head " << h;
            fresh.dequant_values_into(l, h, tokens, want);
            cache.dequant_values_into(l, h, tokens, got);
            EXPECT_EQ(got, want) << "values, layer " << l << " head " << h;
            arena_rows(l, h, kvpool::KvPart::kValues);
            EXPECT_EQ(got, want) << "arena values, layer " << l << " head " << h;
        }
    }
}

}  // namespace
}  // namespace efld::model
