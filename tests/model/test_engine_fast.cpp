// Fast-path decode parity: the fused/threaded/table-driven engine must be
// bit-for-bit independent of its thread count, track the float engine over
// the same (dequantized) weights, and the cached RoPE trigonometry must be
// identical to the direct kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "model/kernels.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"
#include "support/solo_stream.hpp"

namespace efld::model {
namespace {

const ModelConfig& gqa_cfg() {
    static const ModelConfig cfg = [] {
        ModelConfig c = ModelConfig::micro_256();
        c.name = "micro-gqa";
        c.n_heads = 4;
        c.n_kv_heads = 2;  // exercise the per-KV-head cluster path
        return c;
    }();
    return cfg;
}

const QuantizedModelWeights& quant_weights() {
    static const QuantizedModelWeights qw = QuantizedModelWeights::quantize(
        ModelWeights::synthetic(gqa_cfg(), 42), quant::GroupQuantConfig{});
    return qw;
}

// The float model whose every matrix is QuantizedLinear::dequantize() of
// quant_weights() (embedding and norms copied): the weights the fused W4
// engine walks, multiplied in the float engine's own, independent order.
const ModelWeights& dequantized_weights() {
    static const ModelWeights fw = [] {
        const auto dense = [](const quant::QuantizedLinear& q) {
            Matrix m(q.rows(), q.cols());
            const std::vector<float> w = q.dequantize();
            std::copy(w.begin(), w.end(), m.flat().begin());
            return m;
        };
        const QuantizedModelWeights& qw = quant_weights();
        ModelWeights w;
        w.config = qw.config;
        w.embedding = qw.embedding;
        for (const QuantizedLayerWeights& l : qw.layers) {
            w.layers.push_back({dense(l.wq), dense(l.wk), dense(l.wv), dense(l.wo),
                                dense(l.w_gate), dense(l.w_up), dense(l.w_down),
                                l.attn_norm, l.mlp_norm});
        }
        w.final_norm = qw.final_norm;
        w.lm_head = dense(qw.lm_head);
        return w;
    }();
    return fw;
}

std::vector<std::vector<float>> run_tokens(ReferenceEngine& eng) {
    tests::SoloStream s(eng);
    std::vector<std::vector<float>> logits;
    for (const std::int32_t t : {1, 7, 30, 2, 99, 5}) logits.push_back(s.step(t));
    return logits;
}

TEST(EngineFast, FastPathTracksFloatOverDequantizedWeights) {
    // The fused W4 kernel factors each group's scale out of its dot product
    // and sums in partial lanes, so it is not bit-identical to a float GEMV
    // over the dequantized weights — but on the same weights and KV8 cache
    // the whole engine must stay numerically indistinguishable from it.
    ReferenceEngine dense(dequantized_weights(), EngineOptions{.use_kv8 = true});
    ReferenceEngine fused(quant_weights(), EngineOptions{.use_kv8 = true});
    const auto ld = run_tokens(dense);
    const auto lf = run_tokens(fused);
    ASSERT_EQ(ld.size(), lf.size());
    for (std::size_t i = 0; i < ld.size(); ++i) {
        EXPECT_GT(efld::cosine_similarity(ld[i], lf[i]), 0.99999) << "token " << i;
    }
}

TEST(EngineFast, ThreadCountNeverChangesLogits) {
    ReferenceEngine single(quant_weights(),
                           EngineOptions{.use_kv8 = true, .threads = 1});
    const auto want = run_tokens(single);
    for (const std::size_t threads : {2u, 4u}) {
        ReferenceEngine multi(quant_weights(),
                              EngineOptions{.use_kv8 = true, .threads = threads});
        EXPECT_EQ(run_tokens(multi), want) << threads << " threads";
    }
}

TEST(EngineFast, GlobalPoolEngineMatchesPrivateAndSingle) {
    // threads == 0 borrows ThreadPool::global(); results must still be exact.
    ReferenceEngine single(quant_weights(),
                           EngineOptions{.use_kv8 = true, .threads = 1});
    const auto want = run_tokens(single);
    ThreadPool::set_global_threads(3);
    ReferenceEngine global(quant_weights(),
                           EngineOptions{.use_kv8 = true, .threads = 0});
    EXPECT_EQ(run_tokens(global), want);
    ThreadPool::set_global_threads(1);
}

TEST(EngineFast, FloatWeightEngineThreadingIsExact) {
    static const ModelWeights fw = ModelWeights::synthetic(gqa_cfg(), 17);
    ReferenceEngine single(fw, EngineOptions{.threads = 1});
    ReferenceEngine multi(fw, EngineOptions{.threads = 4});
    EXPECT_EQ(run_tokens(single), run_tokens(multi));
}

TEST(EngineFast, DecodeBatchSpanMatchesSeam) {
    // The span-returning decode_batch overload is bit-for-bit the seam's
    // copying one on an identically configured engine.
    ReferenceEngine a(quant_weights()), b(quant_weights());
    tests::SoloStream seam(b);
    const std::size_t slot = a.reserve_slot();
    for (const std::int32_t t : {9, 1, 64}) {
        const std::span<const float> la = a.decode_batch(std::span<const std::int32_t>(&t, 1),
                                                         std::span<const std::size_t>(&slot, 1));
        const std::vector<float>& lb = seam.step(t);
        ASSERT_EQ(la.size(), lb.size());
        EXPECT_TRUE(std::equal(la.begin(), la.end(), lb.begin())) << "token " << t;
    }
}

TEST(EngineFast, SpanOverloadReportsItsStepCost) {
    // last_step_cost() is the most recent decode_batch's, whichever overload
    // ran it: after a 16-row tile (two walks of the weight codes) through the
    // seam, a one-token span-overload step must report its own single walk.
    ReferenceEngine eng(quant_weights());
    const std::size_t slot = eng.reserve_slot();
    const std::int32_t one = 9;
    (void)eng.decode_batch(std::span<const std::int32_t>(&one, 1),
                           std::span<const std::size_t>(&slot, 1));
    EXPECT_GT(eng.last_step_cost().wall_ns, 0.0);
    EXPECT_EQ(eng.last_step_cost().weight_walks, 1.0);

    const std::vector<std::int32_t> tile(ReferenceEngine::kMaxFeedTokens, 5);
    const std::size_t rows = tile.size();
    std::vector<float> logits(gqa_cfg().vocab_size);
    eng.decode_batch(tile, std::span<const std::size_t>(&slot, 1),
                     std::span<const std::size_t>(&rows, 1), logits);
    EXPECT_EQ(eng.last_step_cost().weight_walks,
              static_cast<double>(ReferenceEngine::kMaxFeedTokens / quant::kGemmBatchTile));

    (void)eng.decode_batch(std::span<const std::int32_t>(&one, 1),
                           std::span<const std::size_t>(&slot, 1));
    EXPECT_GT(eng.last_step_cost().wall_ns, 0.0);
    EXPECT_EQ(eng.last_step_cost().weight_walks, 1.0);
}

// FNV-1a over every logit's bits: a first step feeding 5-, 16- and 1-row
// spans into 3 slots (prompt tiles crossing a 16-token page), then 20 batched
// greedy decode steps.
std::uint64_t golden_logits_hash(ReferenceEngine& eng) {
    const std::size_t vocab = gqa_cfg().vocab_size;
    const std::vector<std::size_t> slots{eng.reserve_slot(), eng.reserve_slot(),
                                         eng.reserve_slot()};
    const std::vector<std::size_t> rows{5, 16, 1};
    std::vector<std::int32_t> tokens;
    for (std::int32_t t = 0; t < 22; ++t) tokens.push_back((t * 37 + 11) % 251);
    std::vector<float> logits(slots.size() * vocab);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (int step = 0; step <= 20; ++step) {
        if (step == 0) {
            eng.decode_batch(tokens, slots, rows, logits);
        } else {
            eng.decode_batch(tokens, slots, logits);
        }
        for (const float v : logits) {
            hash = (hash ^ std::bit_cast<std::uint32_t>(v)) * 0x100000001b3ull;
        }
        tokens.resize(slots.size());
        for (std::size_t b = 0; b < slots.size(); ++b) {
            tokens[b] = Sampler::argmax(std::span(logits).subspan(b * vocab, vocab));
        }
    }
    return hash;
}

TEST(EngineFast, GoldenLogitsHash) {
    // Bit-exact pin on the host engine's logits, on the float engine (float
    // weights, float KV arena) and the KV8 engine (W4 weights, KV8 arena), at
    // 1 and 4 threads. Any change to the attention read path, a kernel's
    // reduction order or the KV store's values moves the hash.
    static const ModelWeights fw = ModelWeights::synthetic(gqa_cfg(), 42);
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        ReferenceEngine golden(fw, EngineOptions{.threads = threads, .max_batch = 3});
        const std::uint64_t gh = golden_logits_hash(golden);
        EXPECT_EQ(gh, 0xf9320a319ab32eadull) << std::hex << gh;
        ReferenceEngine kv8(quant_weights(), EngineOptions{.use_kv8 = true,
                                                           .threads = threads,
                                                           .max_batch = 3});
        const std::uint64_t qh = golden_logits_hash(kv8);
        EXPECT_EQ(qh, 0xb532e42240aa24feull) << std::hex << qh;
    }
}

TEST(RopeTable, CachedRotationMatchesDirectKernelBitForBit) {
    const std::size_t d = 64;
    const RopeTable table(d, 32, 10000.0f);
    Xoshiro256 rng(3);
    for (const std::size_t pos : {0u, 1u, 13u, 31u}) {
        std::vector<float> direct(d), cached(d);
        for (std::size_t i = 0; i < d; ++i) {
            direct[i] = static_cast<float>(rng.gaussian());
            cached[i] = direct[i];
        }
        rope_rotate(direct, pos, 10000.0f);
        rope_rotate_cached(cached, table.cos_row(pos), table.sin_row(pos));
        EXPECT_EQ(direct, cached) << "pos " << pos;
    }
}

TEST(RopeTable, IncrementalFrequenciesMatchPow) {
    // The recurrence freq_{i+1} = freq_i * base^(-2/d) must agree with the
    // direct pow to float precision across the whole head.
    const std::size_t d = 128;
    std::vector<float> cosr(d / 2), sinr(d / 2);
    const std::size_t pos = 777;
    rope_angles(d, pos, 10000.0f, cosr, sinr);
    for (std::size_t i = 0; i < d / 2; ++i) {
        const double freq =
            std::pow(10000.0, -2.0 * static_cast<double>(i) / static_cast<double>(d));
        const double angle = static_cast<double>(pos) * freq;
        EXPECT_NEAR(cosr[i], std::cos(angle), 2e-6) << i;
        EXPECT_NEAR(sinr[i], std::sin(angle), 2e-6) << i;
    }
}

TEST(EngineFast, Kv8ScratchPathStaysCloseToGolden) {
    // The per-cluster dequant scratch must not change the KV8 engine's
    // numerics: same closeness bound the seed test asserted.
    static const ModelWeights fw = ModelWeights::synthetic(gqa_cfg(), 11);
    ReferenceEngine golden(fw, EngineOptions{.threads = 2});
    ReferenceEngine kv8(fw, EngineOptions{.use_kv8 = true, .threads = 2});
    tests::SoloStream g(golden), q(kv8);
    const std::vector<std::int32_t> stream{1, 2, 3, 4, 5, 6};
    EXPECT_GT(efld::cosine_similarity(g.feed(stream), q.feed(stream)), 0.999);
}

}  // namespace
}  // namespace efld::model
