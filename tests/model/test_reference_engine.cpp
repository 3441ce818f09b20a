// Golden reference engine: determinism, causality, quantized variants.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "engine/generate.hpp"
#include "model/reference_engine.hpp"
#include "support/solo_stream.hpp"

namespace efld::model {
namespace {

const ModelWeights& micro_weights() {
    static const ModelWeights w = ModelWeights::synthetic(ModelConfig::micro_256(), 42);
    return w;
}

TEST(ReferenceEngine, LogitShapeAndFiniteness) {
    ReferenceEngine eng(micro_weights());
    const std::vector<float> logits = tests::SoloStream(eng).step(5);
    ASSERT_EQ(logits.size(), micro_weights().config.vocab_size);
    for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(ReferenceEngine, DeterministicAcrossInstances) {
    ReferenceEngine a(micro_weights()), b(micro_weights());
    EXPECT_EQ(tests::SoloStream(a).step(7), tests::SoloStream(b).step(7));
}

TEST(ReferenceEngine, PositionAdvances) {
    ReferenceEngine eng(micro_weights());
    tests::SoloStream s(eng);
    EXPECT_EQ(s.position(), 0u);
    (void)s.step(1);
    (void)s.step(2);
    EXPECT_EQ(s.position(), 2u);
}

TEST(ReferenceEngine, ContextChangesLogits) {
    // Same token at position 1 after different history must differ (KV cache
    // is actually consulted).
    ReferenceEngine a(micro_weights()), b(micro_weights());
    tests::SoloStream sa(a), sb(b);
    (void)sa.step(1);
    (void)sb.step(2);
    EXPECT_NE(sa.step(9), sb.step(9));
}

TEST(ReferenceEngine, ResetRestoresInitialState) {
    ReferenceEngine eng(micro_weights());
    tests::SoloStream s(eng);
    const std::vector<float> first = s.step(3);
    (void)s.step(4);
    eng.reset();
    EXPECT_EQ(s.position(), 0u);
    EXPECT_EQ(s.step(3), first);
}

TEST(ReferenceEngine, PrefillEqualsStepByStep) {
    ReferenceEngine a(micro_weights()), b(micro_weights());
    const std::vector<std::int32_t> prompt{1, 5, 9, 2};
    std::vector<float> la(micro_weights().config.vocab_size);
    engine::prefill(a, a.reserve_slot(), prompt, la);
    EXPECT_EQ(la, tests::SoloStream(b).feed(prompt));
}

TEST(ReferenceEngine, RejectsBadToken) {
    ReferenceEngine eng(micro_weights());
    tests::SoloStream s(eng);
    EXPECT_THROW((void)s.step(-1), efld::Error);
    EXPECT_THROW(
        (void)s.step(static_cast<std::int32_t>(micro_weights().config.vocab_size)),
        efld::Error);
}

TEST(ReferenceEngine, Kv8VariantStaysClose) {
    ReferenceEngine fp(micro_weights());
    ReferenceEngine kv8(micro_weights(), {.use_kv8 = true});
    const std::vector<std::int32_t> stream{1, 2, 3, 4, 5, 6};
    EXPECT_GT(efld::cosine_similarity(tests::SoloStream(fp).feed(stream),
                                      tests::SoloStream(kv8).feed(stream)),
              0.999);
}

TEST(ReferenceEngine, W4VariantStaysClose) {
    quant::GroupQuantConfig qc;
    const QuantizedModelWeights qw =
        QuantizedModelWeights::quantize(micro_weights(), qc);
    ReferenceEngine fp(micro_weights());
    ReferenceEngine w4(qw);
    const std::vector<std::int32_t> stream{1, 2, 3, 4};
    // Random gaussian weights are the worst case for 4-bit groups (no trained
    // structure); real checkpoints sit much higher. 0.95 still catches any
    // systematic quantizer bug.
    EXPECT_GT(efld::cosine_similarity(tests::SoloStream(fp).feed(stream),
                                      tests::SoloStream(w4).feed(stream)),
              0.95);
}

TEST(ReferenceEngine, Kv4DegradesMoreThanKv8) {
    // The §IV.B argument: KV8 is near-transparent, KV4 measurably is not.
    ReferenceEngine golden(micro_weights());
    ReferenceEngine kv8(micro_weights(), {.use_kv8 = true, .kv_bits = 8});
    ReferenceEngine kv4(micro_weights(), {.use_kv8 = true, .kv_bits = 4});
    const std::vector<std::int32_t> stream{1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<float> lg = tests::SoloStream(golden).feed(stream);
    const double sim8 = efld::cosine_similarity(lg, tests::SoloStream(kv8).feed(stream));
    const double sim4 = efld::cosine_similarity(lg, tests::SoloStream(kv4).feed(stream));
    EXPECT_GT(sim8, sim4);
    EXPECT_GT(sim8, 0.999);
    EXPECT_LT(sim4, 0.999);
}

TEST(ReferenceEngine, GqaConfigRuns) {
    // TinyLlama-style GQA geometry at micro scale: 4 heads, 2 KV heads.
    ModelConfig cfg = ModelConfig::micro_256();
    cfg.name = "micro-gqa";
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2;
    const ModelWeights w = ModelWeights::synthetic(cfg, 17);
    ReferenceEngine eng(w);
    std::vector<float> logits(cfg.vocab_size);
    engine::prefill(eng, eng.reserve_slot(), std::vector<std::int32_t>{1, 2, 3}, logits);
    for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace efld::model
