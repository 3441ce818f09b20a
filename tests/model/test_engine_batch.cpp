// Batched multi-session decode parity: decode_batch of N sessions must be
// bit-for-bit identical to N independent single-session decode runs, for
// every batch size, thread count, and weight storage (8-bit codes and the
// packed-4bit bus stream).
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "engine/generate.hpp"
#include "model/reference_engine.hpp"
#include "support/solo_stream.hpp"

namespace efld::model {
namespace {

const ModelConfig& gqa_cfg() {
    static const ModelConfig cfg = [] {
        ModelConfig c = ModelConfig::micro_256();
        c.name = "micro-gqa";
        c.n_heads = 4;
        c.n_kv_heads = 2;  // exercise the per-(lane, KV-head) task path
        return c;
    }();
    return cfg;
}

const QuantizedModelWeights& weights_w4() {
    static const QuantizedModelWeights qw = QuantizedModelWeights::quantize(
        ModelWeights::synthetic(gqa_cfg(), 42), quant::GroupQuantConfig{});
    return qw;
}

const QuantizedModelWeights& weights_w8() {
    static const QuantizedModelWeights qw = [] {
        quant::GroupQuantConfig qc;
        qc.bits = 8;
        return QuantizedModelWeights::quantize(ModelWeights::synthetic(gqa_cfg(), 42), qc);
    }();
    return qw;
}

// Deterministic distinct token stream for session s.
std::int32_t stream_token(std::size_t s, std::size_t step) {
    const auto vocab = static_cast<std::int32_t>(gqa_cfg().vocab_size);
    return static_cast<std::int32_t>((7 * s + 13 * step + 1) % vocab);
}

// Runs `steps` batched decode steps over `batch` sessions and compares every
// logits row against an independent single-session engine fed the same
// stream.
void expect_batch_matches_solo(const QuantizedModelWeights& qw, EngineOptions opts,
                               std::size_t batch, std::size_t steps) {
    opts.max_batch = batch;
    ReferenceEngine batched(qw, opts);

    EngineOptions solo_opts = opts;
    solo_opts.max_batch = 1;

    std::vector<std::vector<std::vector<float>>> want(batch);  // [s][step][vocab]
    for (std::size_t s = 0; s < batch; ++s) {
        ReferenceEngine solo(qw, solo_opts);
        tests::SoloStream stream(solo);
        for (std::size_t i = 0; i < steps; ++i) {
            want[s].push_back(stream.step(stream_token(s, i)));
        }
    }

    std::vector<std::int32_t> tokens(batch);
    std::vector<std::size_t> slots(batch);
    const std::size_t vocab = qw.config.vocab_size;
    for (std::size_t i = 0; i < steps; ++i) {
        for (std::size_t s = 0; s < batch; ++s) {
            tokens[s] = stream_token(s, i);
            slots[s] = s;
        }
        const std::span<const float> logits = batched.decode_batch(tokens, slots);
        ASSERT_EQ(logits.size(), batch * vocab);
        for (std::size_t s = 0; s < batch; ++s) {
            const std::vector<float> got(logits.begin() + s * vocab,
                                         logits.begin() + (s + 1) * vocab);
            ASSERT_EQ(got, want[s][i]) << "session " << s << " step " << i;
        }
    }
}

TEST(EngineBatch, MatchesIndependentDecodes8BitWeights) {
    for (const std::size_t batch : {1u, 2u, 4u, 8u}) {
        for (const std::size_t threads : {1u, 4u}) {
            expect_batch_matches_solo(
                weights_w8(), EngineOptions{.use_kv8 = true, .threads = threads},
                batch, 3);
        }
    }
}

TEST(EngineBatch, MatchesIndependentDecodes4BitWeights) {
    for (const std::size_t batch : {1u, 2u, 4u, 8u}) {
        for (const std::size_t threads : {1u, 4u}) {
            expect_batch_matches_solo(
                weights_w4(), EngineOptions{.use_kv8 = true, .threads = threads},
                batch, 3);
        }
    }
}

TEST(EngineBatch, StaggeredPositionsStayBitExact) {
    // Sessions at different context lengths batch together: prefill slot 0 by
    // 5 tokens and slot 1 by 2, then decode both in one batch. This is the
    // token-boundary join continuous batching relies on.
    EngineOptions opts{.use_kv8 = true, .max_batch = 2};
    ReferenceEngine batched(weights_w4(), opts);

    ReferenceEngine solo_a_eng(weights_w4(), EngineOptions{.use_kv8 = true});
    ReferenceEngine solo_b_eng(weights_w4(), EngineOptions{.use_kv8 = true});
    tests::SoloStream solo_a(solo_a_eng), solo_b(solo_b_eng);

    const std::vector<std::int32_t> warm_a{11, 12, 13, 14, 15};
    const std::vector<std::int32_t> warm_b{21, 22};
    for (const auto t : warm_a) {
        const std::size_t s = 0;
        (void)batched.decode_batch(std::span<const std::int32_t>(&t, 1),
                                   std::span<const std::size_t>(&s, 1));
        (void)solo_a.step(t);
    }
    for (const auto t : warm_b) {
        const std::size_t s = 1;
        (void)batched.decode_batch(std::span<const std::int32_t>(&t, 1),
                                   std::span<const std::size_t>(&s, 1));
        (void)solo_b.step(t);
    }
    EXPECT_EQ(batched.position(0), 5u);
    EXPECT_EQ(batched.position(1), 2u);

    for (std::size_t i = 0; i < 3; ++i) {
        const std::vector<std::int32_t> tokens{static_cast<std::int32_t>(40 + i),
                                               static_cast<std::int32_t>(60 + i)};
        const std::vector<std::size_t> slots{0, 1};
        const std::span<const float> logits = batched.decode_batch(tokens, slots);
        const std::vector<float>& wa = solo_a.step(tokens[0]);
        const std::vector<float>& wb = solo_b.step(tokens[1]);
        const std::size_t vocab = gqa_cfg().vocab_size;
        EXPECT_TRUE(std::equal(wa.begin(), wa.end(), logits.begin())) << "step " << i;
        EXPECT_TRUE(std::equal(wb.begin(), wb.end(), logits.begin() + vocab))
            << "step " << i;
    }
}

TEST(EngineBatch, SubsetAndReorderedSlots) {
    // A batch may name any distinct subset of slots in any order; each row
    // lines up with its slot, not with slot numbering.
    EngineOptions opts{.use_kv8 = true, .max_batch = 4};
    ReferenceEngine eng(weights_w4(), opts);
    ReferenceEngine solo2(weights_w4(), EngineOptions{.use_kv8 = true});
    ReferenceEngine solo0(weights_w4(), EngineOptions{.use_kv8 = true});

    const std::vector<std::int32_t> tokens{5, 9};
    const std::vector<std::size_t> slots{2, 0};
    const std::span<const float> logits = eng.decode_batch(tokens, slots);
    const std::vector<float> w2 = tests::SoloStream(solo2).step(5);
    const std::vector<float> w0 = tests::SoloStream(solo0).step(9);
    const std::size_t vocab = gqa_cfg().vocab_size;
    EXPECT_TRUE(std::equal(w2.begin(), w2.end(), logits.begin()));
    EXPECT_TRUE(std::equal(w0.begin(), w0.end(), logits.begin() + vocab));
    EXPECT_EQ(eng.position(2), 1u);
    EXPECT_EQ(eng.position(0), 1u);
    EXPECT_EQ(eng.position(1), 0u);
}

TEST(EngineBatch, ResetSessionClearsOneSlotOnly) {
    EngineOptions opts{.use_kv8 = true, .max_batch = 2};
    ReferenceEngine eng(weights_w4(), opts);
    const std::vector<std::int32_t> tokens{3, 4};
    const std::vector<std::size_t> slots{0, 1};
    (void)eng.decode_batch(tokens, slots);
    eng.reset_session(1);
    EXPECT_EQ(eng.position(0), 1u);
    EXPECT_EQ(eng.position(1), 0u);
}

TEST(EngineBatch, FloatWeightBatchMatchesSolo) {
    static const ModelWeights fw = ModelWeights::synthetic(gqa_cfg(), 17);
    ReferenceEngine batched(fw, EngineOptions{.threads = 2, .max_batch = 3});
    std::vector<std::vector<float>> want;
    for (std::size_t s = 0; s < 3; ++s) {
        ReferenceEngine solo(fw, EngineOptions{.threads = 2});
        want.push_back(tests::SoloStream(solo).step(stream_token(s, 0)));
    }
    std::vector<std::int32_t> tokens{stream_token(0, 0), stream_token(1, 0),
                                     stream_token(2, 0)};
    std::vector<std::size_t> slots{0, 1, 2};
    const std::span<const float> logits = batched.decode_batch(tokens, slots);
    const std::size_t vocab = gqa_cfg().vocab_size;
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_TRUE(std::equal(want[s].begin(), want[s].end(),
                               logits.begin() + s * vocab))
            << "lane " << s;
    }
}

TEST(EngineBatch, TileSpansMatchSoloAcrossThreadCounts) {
    // Prompt tiles beside decoding lanes: session 0 advances in spans of up
    // to 16 rows while sessions 1 and 2 take one row (and once a span) per
    // step. Every span's last-row logits are bit-for-bit a single-threaded
    // solo engine's fed the same stream token by token — for both weight
    // storages and on a worker pool, whose per-(span, KV head) attention
    // tasks then run in parallel.
    const std::vector<std::vector<std::size_t>> plan = {
        {14, 1, 1}, {16, 7, 1}, {3, 1, 1}, {1, 1, 16}, {16, 16, 1}};
    constexpr std::size_t kSessions = 3;
    std::vector<std::vector<std::vector<float>>> want(kSessions);  // [s][step]
    for (std::size_t s = 0; s < kSessions; ++s) {
        ReferenceEngine solo(weights_w4(), EngineOptions{.use_kv8 = true});
        tests::SoloStream stream(solo);
        std::size_t fed = 0;
        for (const std::vector<std::size_t>& rows : plan) {
            std::vector<float> last;
            for (std::size_t j = 0; j < rows[s]; ++j) last = stream.step(stream_token(s, fed++));
            want[s].push_back(std::move(last));
        }
    }
    const std::size_t vocab = gqa_cfg().vocab_size;
    for (const std::size_t threads : {1u, 4u}) {
        ReferenceEngine eng(weights_w4(), EngineOptions{.use_kv8 = true,
                                                        .threads = threads,
                                                        .max_batch = kSessions});
        std::vector<std::size_t> fed(kSessions, 0);
        const std::vector<std::size_t> slots{0, 1, 2};
        std::vector<float> logits(kSessions * vocab);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            std::vector<std::int32_t> tokens;
            for (std::size_t s = 0; s < kSessions; ++s) {
                for (std::size_t j = 0; j < plan[i][s]; ++j) {
                    tokens.push_back(stream_token(s, fed[s]++));
                }
            }
            eng.decode_batch(tokens, slots, plan[i], logits);
            for (std::size_t s = 0; s < kSessions; ++s) {
                const std::vector<float> got(logits.begin() + s * vocab,
                                             logits.begin() + (s + 1) * vocab);
                ASSERT_EQ(got, want[s][i]) << "session " << s << " step " << i
                                           << " threads " << threads;
                ASSERT_EQ(eng.position(s), fed[s]);
            }
        }
        // The last step held 33 rows, more than one pass's 16: three
        // passes of 16, 16 and 1 rows, walking the weight codes 2 + 2 + 1
        // times.
        EXPECT_DOUBLE_EQ(eng.last_step_cost().weight_walks, 5.0);
    }
}

TEST(EngineBatch, PrefillTilesMatchTokenByToken) {
    std::vector<std::int32_t> prompt(37);
    for (std::size_t i = 0; i < prompt.size(); ++i) prompt[i] = stream_token(1, i);
    ReferenceEngine tiled(weights_w4(), EngineOptions{.use_kv8 = true});
    ReferenceEngine solo(weights_w4(), EngineOptions{.use_kv8 = true});
    const std::size_t slot = tiled.reserve_slot();
    std::vector<float> got(gqa_cfg().vocab_size);
    engine::prefill(tiled, slot, prompt, got);
    EXPECT_EQ(got, tests::SoloStream(solo).feed(prompt));
    EXPECT_EQ(tiled.position(slot), prompt.size());
    // 37 rows in tiles of 16, 16 and 5: the last step fed one register tile.
    EXPECT_DOUBLE_EQ(tiled.last_step_cost().weight_walks, 1.0);
}

TEST(EngineBatch, RejectsBadSpans) {
    ReferenceEngine eng(weights_w4(), EngineOptions{.max_batch = 2});
    const std::vector<std::size_t> slots{0, 1};
    std::vector<float> logits(2 * gqa_cfg().vocab_size);
    const std::vector<std::int32_t> t3{1, 2, 3};
    // Rows must sum to the token count, and every span holds 1..16 tokens.
    EXPECT_THROW(eng.decode_batch(t3, slots, std::vector<std::size_t>{1, 1}, logits),
                 efld::Error);
    EXPECT_THROW(eng.decode_batch(t3, slots, std::vector<std::size_t>{3, 0}, logits),
                 efld::Error);
    const std::vector<std::int32_t> t18(18, 1);
    EXPECT_THROW(eng.decode_batch(t18, slots, std::vector<std::size_t>{17, 1}, logits),
                 efld::Error);
    EXPECT_EQ(eng.position(0), 0u);
    EXPECT_EQ(eng.position(1), 0u);

    // A span may not run past the context window.
    ModelConfig small = gqa_cfg();
    small.max_seq_len = 8;
    static const QuantizedModelWeights qw = QuantizedModelWeights::quantize(
        ModelWeights::synthetic(small, 3), quant::GroupQuantConfig{});
    ReferenceEngine tiny(qw, EngineOptions{});
    const std::size_t slot0 = 0;
    const std::size_t nine = 9;
    const std::vector<std::int32_t> t9(9, 1);
    EXPECT_THROW(tiny.decode_batch(t9, std::span<const std::size_t>(&slot0, 1),
                                   std::span<const std::size_t>(&nine, 1), logits),
                 efld::Error);
    EXPECT_EQ(tiny.position(slot0), 0u);
}

TEST(EngineBatch, RejectsBadBatches) {
    ReferenceEngine eng(weights_w4(), EngineOptions{.max_batch = 2});
    const std::vector<std::int32_t> t2{1, 2};
    const std::vector<std::size_t> dup{0, 0};
    EXPECT_THROW((void)eng.decode_batch(t2, dup), efld::Error);
    const std::vector<std::size_t> oob{0, 2};
    EXPECT_THROW((void)eng.decode_batch(t2, oob), efld::Error);
    const std::vector<std::int32_t> t3{1, 2, 3};
    const std::vector<std::size_t> s3{0, 1, 2};
    EXPECT_THROW((void)eng.decode_batch(t3, s3), efld::Error);
    EXPECT_THROW((void)eng.decode_batch(std::span<const std::int32_t>(),
                                        std::span<const std::size_t>()),
                 efld::Error);
}

}  // namespace
}  // namespace efld::model
