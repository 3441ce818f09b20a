// Reference kernels: RMSNorm, RoPE, softmax, SiLU, attention, and the paged
// attention walk the engines run, held to the reference bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/rng.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "model/kernels.hpp"
#include "model/kv_cache.hpp"

namespace efld::model {
namespace {

TEST(Rmsnorm, UnitWeightNormalizesRms) {
    std::vector<float> x{1, 2, 3, 4}, w(4, 1.0f), out(4);
    rmsnorm(x, w, 0.0f, out);
    double ms = 0;
    for (const float v : out) ms += v * v;
    EXPECT_NEAR(ms / 4.0, 1.0, 1e-5);  // output RMS is 1
}

TEST(Rmsnorm, WeightScalesElementwise) {
    std::vector<float> x{1, 1, 1, 1}, w{1, 2, 3, 4}, out(4);
    rmsnorm(x, w, 0.0f, out);
    EXPECT_NEAR(out[1] / out[0], 2.0f, 1e-5);
    EXPECT_NEAR(out[3] / out[0], 4.0f, 1e-5);
}

TEST(Rmsnorm, EpsilonPreventsDivideByZero) {
    std::vector<float> x(8, 0.0f), w(8, 1.0f), out(8);
    rmsnorm(x, w, 1e-5f, out);
    for (const float v : out) EXPECT_TRUE(std::isfinite(v));
}

TEST(Rope, PositionZeroIsIdentity) {
    std::vector<float> v{0.1f, 0.2f, 0.3f, 0.4f};
    const std::vector<float> orig = v;
    rope_rotate(v, 0, 10000.0f);
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], orig[i], 1e-6f);
}

TEST(Rope, PreservesNorm) {
    Xoshiro256 rng(1);
    std::vector<float> v(128);
    for (auto& x : v) x = static_cast<float>(rng.gaussian());
    const double n0 = std::inner_product(v.begin(), v.end(), v.begin(), 0.0);
    rope_rotate(v, 777, 10000.0f);
    const double n1 = std::inner_product(v.begin(), v.end(), v.begin(), 0.0);
    EXPECT_NEAR(n1, n0, 1e-3 * n0);  // rotations are orthogonal
}

TEST(Rope, RelativePositionProperty) {
    // The RoPE dot product depends only on the position difference:
    // <R(p)q, R(p+d)k> must be equal for any p with the same d.
    Xoshiro256 rng(2);
    std::vector<float> q0(64), k0(64);
    for (auto& x : q0) x = static_cast<float>(rng.gaussian());
    for (auto& x : k0) x = static_cast<float>(rng.gaussian());

    auto rotated_dot = [&](std::size_t p, std::size_t d) {
        std::vector<float> q = q0, k = k0;
        rope_rotate(q, p, 10000.0f);
        rope_rotate(k, p + d, 10000.0f);
        double acc = 0;
        for (std::size_t i = 0; i < q.size(); ++i) acc += q[i] * k[i];
        return acc;
    };

    const double a = rotated_dot(0, 5);
    const double b = rotated_dot(100, 5);
    const double c = rotated_dot(917, 5);
    EXPECT_NEAR(a, b, 1e-2 * std::abs(a) + 1e-3);
    EXPECT_NEAR(a, c, 1e-2 * std::abs(a) + 1e-3);
}

TEST(Rope, DifferentPositionsProduceDifferentVectors) {
    std::vector<float> a{1, 0, 0, 0}, b{1, 0, 0, 0};
    rope_rotate(a, 1, 10000.0f);
    rope_rotate(b, 2, 10000.0f);
    EXPECT_NE(a[0], b[0]);
}

TEST(Softmax, MatchesDirectComputation) {
    const std::vector<float> x{0.5f, -1.0f, 2.0f};
    std::vector<float> out(3);
    softmax(x, out);
    const float denom = std::exp(0.5f) + std::exp(-1.0f) + std::exp(2.0f);
    EXPECT_NEAR(out[0], std::exp(0.5f) / denom, 1e-6f);
    EXPECT_NEAR(out[2], std::exp(2.0f) / denom, 1e-6f);
}

TEST(Softmax, HandlesExtremeLogits) {
    const std::vector<float> x{-1e4f, 0.0f, 1e4f};
    std::vector<float> out(3);
    softmax(x, out);
    EXPECT_NEAR(out[2], 1.0f, 1e-6f);
    EXPECT_TRUE(std::isfinite(out[0]));
}

TEST(Silu, GateMultiplication) {
    const std::vector<float> gate{1.0f, -1.0f}, up{2.0f, 3.0f};
    std::vector<float> out(2);
    silu_gate(gate, up, out);
    const float s1 = 1.0f / (1.0f + std::exp(-1.0f));
    EXPECT_NEAR(out[0], s1 * 2.0f, 1e-6f);
    EXPECT_NEAR(out[1], (-1.0f) * (1.0f - s1) * 3.0f, 1e-6f);
}

TEST(Silu, InplaceMatchesScalar) {
    std::vector<float> x{-2.0f, -0.5f, 0.0f, 0.5f, 2.0f};
    const std::vector<float> orig = x;
    silu_inplace(x);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(x[i], orig[i] / (1.0f + std::exp(-orig[i])), 1e-6f);
    }
}

TEST(Attention, SingleTokenReturnsItsValue) {
    // With one cached token the softmax is 1 and the output is that value.
    const std::size_t hd = 8;
    std::vector<float> q(hd, 0.5f), k(hd, 0.3f), v(hd);
    for (std::size_t i = 0; i < hd; ++i) v[i] = static_cast<float>(i);
    std::vector<float> out(hd);
    attention_head(q, k, v, 1, hd, out);
    for (std::size_t i = 0; i < hd; ++i) EXPECT_NEAR(out[i], v[i], 1e-5f);
}

TEST(Attention, StrongMatchDominates) {
    const std::size_t hd = 4, ctx = 3;
    std::vector<float> q{10, 0, 0, 0};
    std::vector<float> keys(ctx * hd, 0.0f);
    keys[1 * hd + 0] = 10.0f;  // token 1 matches q strongly
    std::vector<float> values(ctx * hd, 0.0f);
    values[0 * hd + 0] = 1.0f;
    values[1 * hd + 0] = 2.0f;
    values[2 * hd + 0] = 3.0f;
    std::vector<float> out(hd);
    attention_head(q, keys, values, ctx, hd, out);
    EXPECT_NEAR(out[0], 2.0f, 0.01f);
}

TEST(Attention, UniformKeysAverageValues) {
    const std::size_t hd = 2, ctx = 4;
    std::vector<float> q{1, 1};
    std::vector<float> keys(ctx * hd, 0.0f);  // all scores identical
    std::vector<float> values(ctx * hd);
    for (std::size_t t = 0; t < ctx; ++t) {
        values[t * hd] = static_cast<float>(t);
        values[t * hd + 1] = 1.0f;
    }
    std::vector<float> out(hd);
    attention_head(q, keys, values, ctx, hd, out);
    EXPECT_NEAR(out[0], 1.5f, 1e-5f);  // mean of 0..3
    EXPECT_NEAR(out[1], 1.0f, 1e-5f);
}

// A history of `n` random tokens in one arena (page_tokens per page) and
// its contiguous oracle, every layer per token (the append cadence).
template <class Arena, class Oracle>
void fill_history(const ModelConfig& c, Arena& arena, std::size_t seq, Oracle& oracle,
                  std::size_t n, Xoshiro256& rng) {
    std::vector<float> k(c.kv_dim()), v(c.kv_dim());
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            for (float& x : k) x = static_cast<float>(rng.uniform(-2.0, 2.0));
            for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
            arena.append(seq, l, k, v);
            oracle.append(l, k, v);
        }
    }
}

// Sweeps attention_paged against attention_head over every ctx 1..n, with
// 1 and 16 query rows and 1 and 3 query heads per KV head. history(l, h,
// part, len) is the oracle's contiguous rows; key_page/value_page the walk's.
template <class History, class Pages>
void expect_walk_matches_reference(const ModelConfig& c, std::size_t n,
                                   std::size_t page_tokens, const History& history,
                                   const Pages& pages) {
    const std::size_t hd = c.head_dim();
    const std::size_t layer = 1, kvh = 1;
    Xoshiro256 rng(page_tokens);
    for (const std::size_t rows : {std::size_t{1}, std::size_t{16}}) {
        for (const std::size_t heads : {std::size_t{1}, std::size_t{3}}) {
            // Query rows sit `stride` floats apart, wider than their heads, as
            // an engine's rows of n_heads heads do.
            const std::size_t stride = heads * hd + 8;
            std::vector<float> q(rows * stride), got(rows * stride), want(hd);
            std::vector<float> scores(rows * heads * n), ref_scores(n);
            for (std::size_t ctx = 1; ctx + rows - 1 <= n; ++ctx) {
                SCOPED_TRACE(::testing::Message() << "pages " << page_tokens << " rows "
                                                  << rows << " heads " << heads
                                                  << " ctx " << ctx);
                for (float& x : q) x = static_cast<float>(rng.gaussian());
                const PagedAttentionShape shape{.rows = rows,
                                                .heads = heads,
                                                .head_dim = hd,
                                                .row_stride = stride,
                                                .ctx = ctx,
                                                .page_tokens = page_tokens};
                attention_paged(q, got, shape, pages(layer, kvh, kvpool::KvPart::kKeys),
                                pages(layer, kvh, kvpool::KvPart::kValues), scores);
                for (std::size_t j = 0; j < rows; ++j) {
                    const std::size_t len = ctx + j;
                    for (std::size_t h = 0; h < heads; ++h) {
                        const std::size_t at = j * stride + h * hd;
                        attention_head(std::span<const float>(q).subspan(at, hd),
                                       history(layer, kvh, kvpool::KvPart::kKeys, len),
                                       history(layer, kvh, kvpool::KvPart::kValues, len),
                                       len, hd, want, ref_scores);
                        for (std::size_t i = 0; i < hd; ++i) {
                            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[at + i]),
                                      std::bit_cast<std::uint32_t>(want[i]))
                                << "row " << j << " head " << h << " lane " << i;
                        }
                    }
                }
            }
        }
    }
}

ModelConfig paged_cfg() {
    ModelConfig c = ModelConfig::micro_256();
    c.max_seq_len = 64;
    return c;
}

TEST(AttentionPaged, FloatPagesMatchReferenceBitForBit) {
    const ModelConfig c = paged_cfg();
    const std::size_t n = 37;  // a partial last page at every page size but 1
    for (const std::size_t pt : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
        kvpool::PagedKvArena arena(c, kvpool::pool_config(c, 1, pt, 0));
        KvCache oracle(c);
        const std::size_t seq = arena.create_sequence();
        Xoshiro256 rng(21);
        fill_history(c, arena, seq, oracle, n, rng);
        const auto history = [&](std::size_t l, std::size_t h, kvpool::KvPart part,
                                 std::size_t len) {
            return part == kvpool::KvPart::kKeys ? oracle.keys_span(l, h, len)
                                                 : oracle.values_span(l, h, len);
        };
        const auto pages = [&](std::size_t l, std::size_t h, kvpool::KvPart part) {
            return [&, l, h, part](std::size_t i) {
                return arena.page(seq, l, h, part, i);
            };
        };
        expect_walk_matches_reference(c, n, pt, history, pages);
    }
}

TEST(AttentionPaged, Kv8PagesMatchReferenceBitForBit) {
    const ModelConfig c = paged_cfg();
    const std::size_t n = 37, hd = c.head_dim();
    for (const std::size_t pt : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
        kvpool::PagedQuantizedKvArena arena(c, kvpool::pool_config(c, 1, pt, 0));
        QuantizedKvCache oracle(c);
        const std::size_t seq = arena.create_sequence();
        Xoshiro256 rng(22);
        fill_history(c, arena, seq, oracle, n, rng);
        std::vector<float> keys(n * hd), values(n * hd), page_rows(pt * hd);
        const auto history = [&](std::size_t l, std::size_t h, kvpool::KvPart part,
                                 std::size_t len) {
            return part == kvpool::KvPart::kKeys
                       ? oracle.dequant_keys_into(l, h, len, keys)
                       : oracle.dequant_values_into(l, h, len, values);
        };
        // The engine's reader: one page dequantized into page_tokens rows.
        const auto pages = [&](std::size_t l, std::size_t h, kvpool::KvPart part) {
            return [&, l, h, part](std::size_t i) {
                const kvpool::KvPage page = arena.page(seq, l, h, part, i);
                for (std::size_t t = 0; t < page.rows(); ++t) {
                    quant::kv_dequantize_into(page.row(t), page.params[t],
                                              std::span(page_rows).subspan(t * hd, hd));
                }
                return std::span<const float>(page_rows).first(page.rows() * hd);
            };
        };
        expect_walk_matches_reference(c, n, pt, history, pages);
    }
}

}  // namespace
}  // namespace efld::model
