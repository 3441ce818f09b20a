// Full functional accelerator vs. the software reference engines.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>

#include "accel/accelerator.hpp"
#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"
#include "support/solo_stream.hpp"

namespace efld::accel {
namespace {

struct Fixture {
    model::ModelWeights fw;
    model::QuantizedModelWeights qw;
    PackedModel packed;

    explicit Fixture(const model::ModelConfig& cfg, std::uint64_t seed = 42)
        : fw(model::ModelWeights::synthetic(cfg, seed)),
          qw(model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{})),
          packed(PackedModel::build(qw)) {}
};

const Fixture& micro_fixture() {
    static const Fixture f(model::ModelConfig::micro_256());
    return f;
}

TEST(Accelerator, LogitsFiniteAndShaped) {
    Accelerator acc(micro_fixture().packed);
    const std::vector<float> logits = tests::SoloStream(acc).step(5);
    ASSERT_EQ(logits.size(), micro_fixture().packed.config.vocab_size);
    for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(Accelerator, MatchesQuantizedSoftwareTwin) {
    // The W4A16+KV8 reference engine is the software twin of the datapath;
    // logits must agree closely (differences: fp16 arithmetic, LUT rope/exp).
    Accelerator acc(micro_fixture().packed);
    model::ReferenceEngine twin(micro_fixture().qw, {.use_kv8 = true});
    tests::SoloStream a(acc), t(twin);
    const std::vector<std::int32_t> stream{1, 7, 3, 9, 2};
    EXPECT_GT(efld::cosine_similarity(a.feed(stream), t.feed(stream)), 0.995);
}

TEST(Accelerator, CloseToFloatReference) {
    // End-to-end quantization + fp16 error vs. the pure float model.
    Accelerator acc(micro_fixture().packed);
    model::ReferenceEngine golden(micro_fixture().fw);
    tests::SoloStream a(acc), g(golden);
    const std::vector<std::int32_t> stream{4, 8, 15, 16};
    // Synthetic gaussian weights: W4 + KV8 + fp16 accumulation lands ~0.94;
    // the tight check against the *quantized* twin is the bit-level one.
    EXPECT_GT(efld::cosine_similarity(a.feed(stream), g.feed(stream)), 0.92);
}

TEST(Accelerator, ArgmaxAgreementWithTwin) {
    // Same top-1 token on a short greedy rollout.
    Accelerator acc(micro_fixture().packed);
    model::ReferenceEngine twin(micro_fixture().qw, {.use_kv8 = true});
    tests::SoloStream a(acc), t(twin);
    std::int32_t ta = 3, tt = 3;
    for (int i = 0; i < 6; ++i) {
        ta = model::Sampler::argmax(a.step(ta));
        tt = model::Sampler::argmax(t.step(tt));
        EXPECT_EQ(ta, tt) << "step " << i;
    }
}

TEST(Accelerator, DeterministicAcrossRuns) {
    Accelerator a(micro_fixture().packed), b(micro_fixture().packed);
    tests::SoloStream sa(a), sb(b);
    for (const std::int32_t t : {2, 4, 6}) EXPECT_EQ(sa.step(t), sb.step(t));
}

TEST(Accelerator, ResetRestoresState) {
    Accelerator acc(micro_fixture().packed);
    tests::SoloStream s(acc);
    const std::vector<float> first = s.step(9);
    (void)s.step(1);
    acc.reset();
    EXPECT_EQ(s.position(), 0u);
    EXPECT_EQ(s.step(9), first);
}

TEST(Accelerator, TimingAttachedToSteps) {
    Accelerator acc(micro_fixture().packed);
    (void)tests::SoloStream(acc).step(1);
    EXPECT_GT(acc.last_step_cost().simulated_ns, 0.0);
    EXPECT_GT(acc.last_step_cost().sim_mem_bound_ns, 0.0);  // the weight stream
}

TEST(Accelerator, ScaleZeroFifoFollowsSchedule) {
    Accelerator acc(micro_fixture().packed);
    const auto& cfg = micro_fixture().packed.config;
    tests::SoloStream s(acc);
    for (int t = 0; t < 16; ++t) (void)s.step(1);
    // After 16 tokens every (layer, head, K|V) stream flushed exactly once.
    EXPECT_EQ(acc.scale_zero_fifo(s.slot()).words_flushed(),
              2u * cfg.n_layers * cfg.n_kv_heads);
    EXPECT_THROW((void)acc.scale_zero_fifo(acc.max_batch()), efld::Error);
}

TEST(Accelerator, RejectsOutOfRangeToken) {
    Accelerator acc(micro_fixture().packed);
    tests::SoloStream s(acc);
    EXPECT_THROW((void)s.step(-1), efld::Error);
    EXPECT_THROW(
        (void)s.step(static_cast<std::int32_t>(micro_fixture().packed.config.vocab_size)),
        efld::Error);
}

TEST(Accelerator, GqaModelWorks) {
    model::ModelConfig cfg = model::ModelConfig::micro_256();
    cfg.name = "micro-gqa";
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2;
    const Fixture f(cfg, 7);
    Accelerator acc(f.packed);
    model::ReferenceEngine twin(f.qw, {.use_kv8 = true});
    tests::SoloStream a(acc), t(twin);
    const std::vector<std::int32_t> stream{1, 2, 3, 4};
    EXPECT_GT(efld::cosine_similarity(a.feed(stream), t.feed(stream)), 0.99);
}

TEST(Accelerator, GoldenBatchedLogitsHash) {
    // Bit-exact pin on the whole functional datapath (VPU, SPUs, KV8 cache):
    // 4 slots at staggered positions, 40 greedy batched steps, an FNV-1a hash
    // over every logit's bits. Any change to a rounding step or to the
    // reduction order moves the hash.
    AcceleratorOptions opts;
    opts.max_batch = 4;
    Accelerator acc(micro_fixture().packed, opts);
    const std::size_t vocab = micro_fixture().packed.config.vocab_size;
    const std::vector<std::size_t> slots{0, 1, 2, 3};
    std::vector<std::int32_t> tokens{11, 22, 33, 44};
    std::vector<float> logits(slots.size() * vocab);
    for (std::size_t s = 1; s < slots.size(); ++s) {
        for (std::size_t t = 0; t < s; ++t) {
            acc.decode_batch(std::span(tokens).subspan(s, 1),
                             std::span(slots).subspan(s, 1), logits);
        }
    }
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (int step = 0; step < 40; ++step) {
        acc.decode_batch(tokens, slots, logits);
        for (const float v : logits) {
            hash = (hash ^ std::bit_cast<std::uint32_t>(v)) * 0x100000001b3ull;
        }
        for (std::size_t b = 0; b < slots.size(); ++b) {
            tokens[b] = model::Sampler::argmax(std::span(logits).subspan(b * vocab, vocab));
        }
    }
    EXPECT_EQ(hash, 0x226a43a4271ae325ull) << std::hex << hash;
}

TEST(Accelerator, BatchedLanesMatchSoloRuns) {
    // A batched step walks each weight stream once for all lanes; no lane may
    // see another's activations or KV. 4 slots at staggered positions step
    // together in a shuffled order (every fourth step feeds a 2-slot subset),
    // and each lane's logits must equal that slot stepped alone, bit for bit,
    // with contiguous and with 16-token paged KV.
    const PackedModel& packed = micro_fixture().packed;
    const std::size_t vocab = packed.config.vocab_size;
    for (const std::size_t page_tokens : {std::size_t{0}, std::size_t{16}}) {
        SCOPED_TRACE(page_tokens);
        AcceleratorOptions opts;
        opts.accel.kv_page_tokens = page_tokens;
        std::vector<std::unique_ptr<Accelerator>> solo;
        for (int s = 0; s < 4; ++s) solo.push_back(std::make_unique<Accelerator>(packed, opts));
        opts.max_batch = 4;
        Accelerator batched(packed, opts);

        std::vector<std::int32_t> next{5, 17, 29, 41};  // per slot
        std::vector<float> logits(4 * vocab), solo_logits(vocab);
        const std::size_t solo_slot = 0;
        const auto step = [&](std::span<const std::size_t> slots) {
            std::vector<std::int32_t> tokens;
            for (const std::size_t s : slots) tokens.push_back(next[s]);
            batched.decode_batch(tokens, slots, logits);
            for (std::size_t b = 0; b < slots.size(); ++b) {
                const std::size_t s = slots[b];
                solo[s]->decode_batch(std::span(tokens).subspan(b, 1),
                                      std::span(&solo_slot, 1), solo_logits);
                const std::span<const float> lane =
                    std::span<const float>(logits).subspan(b * vocab, vocab);
                EXPECT_EQ(std::memcmp(lane.data(), solo_logits.data(), vocab * sizeof(float)), 0)
                    << "slot " << s << " at position " << batched.position(s);
                next[s] = model::Sampler::argmax(lane);
            }
        };
        for (std::size_t s = 1; s < 4; ++s) {
            for (std::size_t t = 0; t < 3 * s; ++t) step(std::span(&s, 1));
        }
        const std::vector<std::size_t> all{2, 0, 3, 1}, pair{3, 1};
        for (int i = 0; i < 24; ++i) step(i % 4 == 3 ? pair : all);
        EXPECT_EQ(batched.position(0), 18u);
        EXPECT_EQ(batched.position(3), 33u);
    }
}

}  // namespace
}  // namespace efld::accel
