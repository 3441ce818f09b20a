// Model geometry and footprint arithmetic — the numbers behind Fig. 1 and
// the Table II/III theoretical rates.
#include <gtest/gtest.h>

#include "common/mathutil.hpp"
#include "model/config.hpp"

namespace efld::model {
namespace {

TEST(ModelConfig, Llama7BParameterCount) {
    const ModelConfig c = ModelConfig::llama2_7b();
    // Official LLaMA2-7B: 6.74B parameters.
    EXPECT_NEAR(static_cast<double>(c.total_params()), 6.74e9, 0.02e9);
    EXPECT_EQ(c.layer_params(), 32ull * (4 * 4096 * 4096 + 3 * 4096 * 11008));
    EXPECT_EQ(c.head_dim(), 128u);
    EXPECT_EQ(c.kv_dim(), 4096u);
}

TEST(ModelConfig, TinyLlamaParameterCount) {
    const ModelConfig c = ModelConfig::tinyllama_1_1b();
    EXPECT_NEAR(static_cast<double>(c.total_params()), 1.1e9, 0.05e9);
    EXPECT_EQ(c.kv_dim(), 256u);  // 4 KV heads x 64 head_dim (GQA)
}

TEST(ModelConfig, Gpt2GeometryNear1_5B) {
    EXPECT_NEAR(static_cast<double>(ModelConfig::gpt2_1_5b_geometry().total_params()),
                1.5e9, 0.2e9);
}

TEST(ModelConfig, ChatGlmGeometryNear6B) {
    EXPECT_NEAR(static_cast<double>(ModelConfig::chatglm_6b_geometry().total_params()),
                6.2e9, 0.3e9);
}

TEST(QuantScheme, BytesPerWeight) {
    // W4 g128: 0.5 B codes + (2 + 0.5)/128 B scale/zero.
    EXPECT_NEAR(QuantScheme::w4a16_kv8().bytes_per_weight(), 0.51953125, 1e-9);
    EXPECT_NEAR(QuantScheme::w8a16_kv8().bytes_per_weight(), 1.0 + 3.0 / 128.0, 1e-9);
    EXPECT_EQ(QuantScheme::fp16_baseline().bytes_per_weight(), 2.0);
}

TEST(Footprint, Llama7BWeightsMatchPaper) {
    // The paper stores 3556 MiB of weights; our accounting (embedding fp16,
    // everything else W4 g128) lands within 1%.
    const ModelFootprint f =
        compute_footprint(ModelConfig::llama2_7b(), QuantScheme::w4a16_kv8());
    const double weights_mib = static_cast<double>(f.weight_bytes()) / double(kMiB);
    EXPECT_NEAR(weights_mib, 3556.0, 40.0);
}

TEST(Footprint, Llama7BKvCacheMatchesPaperExactly) {
    // 1024-token KV8 cache: 256 MiB codes + 8 MiB scale-zero packs = 264 MiB,
    // exactly the Fig. 1 number.
    const ModelFootprint f =
        compute_footprint(ModelConfig::llama2_7b(), QuantScheme::w4a16_kv8());
    EXPECT_EQ(f.kv_cache_bytes, 256 * kMiB);
    EXPECT_EQ(f.kv_pack_bytes, 8 * kMiB);
}

TEST(Footprint, Fp16BaselineDoesNotFit4GB) {
    // The motivating arithmetic: LLaMA2-7B at fp16 needs ~13.5 GB — more than
    // three times the KV260's DDR.
    const ModelFootprint f =
        compute_footprint(ModelConfig::llama2_7b(), QuantScheme::fp16_baseline());
    EXPECT_GT(f.weight_bytes(), 13.0e9);
    EXPECT_GT(f.weight_bytes(), 3 * (4ull * kGiB));
}

TEST(Footprint, KvScalesLinearlyWithContext) {
    ModelConfig c = ModelConfig::llama2_7b();
    c.max_seq_len = 512;
    const auto f512 = compute_footprint(c, QuantScheme::w4a16_kv8());
    c.max_seq_len = 1024;
    const auto f1024 = compute_footprint(c, QuantScheme::w4a16_kv8());
    EXPECT_EQ(f1024.kv_total_bytes(), 2 * f512.kv_total_bytes());
    EXPECT_EQ(f1024.weight_bytes(), f512.weight_bytes());
}

TEST(DecodeTraffic, WeightsDominateAtShortContext) {
    const DecodeTraffic t =
        decode_traffic(ModelConfig::llama2_7b(), QuantScheme::w4a16_kv8(), 16);
    EXPECT_GT(t.weight_read_bytes, 50 * t.kv_read_bytes);
}

TEST(DecodeTraffic, KvTrafficGrowsWithContext) {
    const ModelConfig c = ModelConfig::llama2_7b();
    const QuantScheme s = QuantScheme::w4a16_kv8();
    const auto t0 = decode_traffic(c, s, 0);
    const auto t512 = decode_traffic(c, s, 512);
    const auto t1023 = decode_traffic(c, s, 1023);
    EXPECT_EQ(t0.kv_read_bytes, 0u);
    EXPECT_GT(t512.kv_read_bytes, 0u);
    EXPECT_NEAR(static_cast<double>(t1023.kv_read_bytes),
                static_cast<double>(t512.kv_read_bytes) * 1023.0 / 512.0, 1e3);
    EXPECT_EQ(t0.weight_read_bytes, t1023.weight_read_bytes);
}

TEST(DecodeTraffic, Llama7BPerTokenKvBytes) {
    // Per history token: 2 * 32 layers * 4096 codes + 2 * 32 * 32 packs * 4B.
    const auto t = decode_traffic(ModelConfig::llama2_7b(), QuantScheme::w4a16_kv8(), 1);
    EXPECT_EQ(t.kv_read_bytes, 2u * 32 * 4096 + 2u * 32 * 32 * 4);
}

TEST(TheoreticalRate, Llama7BOnKv260Is5_8) {
    // Table II footnote 1 arithmetic, using nominal 4-bit weights.
    const double rate = 19.2e9 / (6.62e9 * 0.5);
    EXPECT_NEAR(rate, 5.8, 0.05);
}

TEST(TheoreticalRate, FullFootprintVersionIsLower) {
    // Against the *actual* stored bytes (incl. scales/zeros/embedding) the
    // ceiling drops to ~5.2 token/s — utilization measured against 5.8 can
    // therefore never reach 100% by construction (bench_paper's headline
    // utilization row prints both ceilings).
    const double rate = theoretical_tokens_per_s(ModelConfig::llama2_7b(),
                                                 QuantScheme::w4a16_kv8(), 19.2e9);
    EXPECT_GT(rate, 4.9);
    EXPECT_LT(rate, 5.8);
}

TEST(TinyConfigs, BusFormatCompatible) {
    for (const ModelConfig& c : {ModelConfig::tiny_512(), ModelConfig::micro_256()}) {
        EXPECT_EQ(c.dim % 128, 0u) << c.name;
        EXPECT_EQ(c.hidden_dim % 128, 0u) << c.name;
        EXPECT_EQ(c.n_heads % c.n_kv_heads, 0u) << c.name;
    }
}

}  // namespace
}  // namespace efld::model
