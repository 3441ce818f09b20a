// Fig. 4A interleaved weight arrangement: schedule, round trip, overhead.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "quant/weight_format.hpp"

namespace efld::quant {
namespace {

QuantizedLinear random_layer(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    efld::Xoshiro256 rng(seed);
    std::vector<float> w(rows * cols);
    for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, 0.05));
    return QuantizedLinear::quantize(w, rows, cols, GroupQuantConfig{});
}

TEST(WeightFormat, ScheduleStructureFullChunk) {
    // 128 groups = 1 zero word + 4 x (1 scale + 32 weights) = 133 words.
    const auto sched = stream_schedule(128);
    ASSERT_EQ(sched.size(), 133u);
    EXPECT_EQ(sched[0], WordKind::kZero);
    EXPECT_EQ(sched[1], WordKind::kScale);
    for (std::size_t i = 2; i < 34; ++i) EXPECT_EQ(sched[i], WordKind::kWeight);
    EXPECT_EQ(sched[34], WordKind::kScale);
    std::size_t weights = 0, scales = 0, zeros = 0;
    for (const auto k : sched) {
        if (k == WordKind::kWeight) ++weights;
        if (k == WordKind::kScale) ++scales;
        if (k == WordKind::kZero) ++zeros;
    }
    EXPECT_EQ(weights, 128u);
    EXPECT_EQ(scales, 4u);
    EXPECT_EQ(zeros, 1u);
}

TEST(WeightFormat, SchedulePartialChunk) {
    // 40 groups: 1 zero word, 2 scale words (32 + 8), 40 weight words.
    const auto sched = stream_schedule(40);
    EXPECT_EQ(sched.size(), 1u + 2 + 40);
    EXPECT_EQ(stream_words(40), 43u);
}

TEST(WeightFormat, StreamWordsMatchesScheduleForManySizes) {
    for (const std::size_t g : {1u, 31u, 32u, 33u, 127u, 128u, 129u, 500u, 4096u}) {
        EXPECT_EQ(stream_schedule(g).size(), stream_words(g)) << "groups=" << g;
    }
}

TEST(WeightFormat, OverheadApproaches376Percent) {
    // 5 overhead words per 133 at full chunks.
    EXPECT_NEAR(stream_overhead(128 * 100), 5.0 / 133.0, 1e-6);
    EXPECT_NEAR(stream_overhead(4096 * 32), 5.0 / 133.0, 1e-4);
}

TEST(WeightFormat, PackUnpackRoundTripSmall) {
    const auto layer = random_layer(4, 256, 1);
    const auto words = pack_weight_stream(layer);
    EXPECT_EQ(words.size(), stream_words(layer.num_groups()));
    const auto back = unpack_weight_stream(words, 4, 256);
    EXPECT_EQ(back.dequantize(), layer.dequantize());
}

TEST(WeightFormat, PackUnpackRoundTripMultiChunk) {
    // 40 rows x 512 cols = 160 groups: spans two chunks with a partial tail.
    const auto layer = random_layer(40, 512, 2);
    const auto words = pack_weight_stream(layer);
    const auto back = unpack_weight_stream(words, 40, 512);
    EXPECT_EQ(back.dequantize(), layer.dequantize());
    for (std::size_t g = 0; g < layer.num_groups(); ++g) {
        EXPECT_EQ(back.scale(g).bits(), layer.scale(g).bits()) << g;
        EXPECT_EQ(back.zero(g), layer.zero(g)) << g;
    }
}

TEST(WeightFormat, DecoderAttachesCorrectScaleZero) {
    const auto layer = random_layer(2, 128 * 40, 3);  // 80 groups
    const auto words = pack_weight_stream(layer);
    WeightStreamDecoder dec(layer.num_groups());
    std::size_t g = 0;
    for (const auto& w : words) {
        if (const auto grp = dec.consume(w)) {
            EXPECT_EQ(grp->scale.bits(), layer.scale(g).bits()) << g;
            EXPECT_EQ(grp->zero, layer.zero(g)) << g;
            const auto codes = layer.codes().subspan(g * 128, 128);
            for (std::size_t i = 0; i < 128; ++i) {
                EXPECT_EQ(grp->codes.nibble(i), codes[i]);
            }
            ++g;
        }
    }
    EXPECT_TRUE(dec.done());
    EXPECT_EQ(g, layer.num_groups());
}

TEST(WeightFormat, DecoderExpectedKindFollowsSchedule) {
    // One partial chunk, one full chunk, and several chunks with a partial
    // tail: the decoder derives each word's kind from its cursor.
    for (const std::size_t groups : {70u, 128u, 129u, 300u}) {
        const auto sched = stream_schedule(groups);
        WeightStreamDecoder dec(groups);
        for (const auto kind : sched) {
            EXPECT_EQ(dec.expected_kind(), kind) << "groups=" << groups;
            (void)dec.consume(Word512{});
        }
        EXPECT_TRUE(dec.done());
        EXPECT_THROW((void)dec.expected_kind(), efld::Error);
    }
}

TEST(WeightFormat, RejectsWrongGroupSize) {
    GroupQuantConfig cfg;
    cfg.group_size = 64;
    efld::Xoshiro256 rng(4);
    std::vector<float> w(2 * 128);
    for (auto& v : w) v = static_cast<float>(rng.gaussian());
    const auto layer = QuantizedLinear::quantize(w, 2, 128, cfg);
    EXPECT_THROW((void)pack_weight_stream(layer), efld::Error);
}

TEST(WeightFormat, RejectsWordCountMismatch) {
    const auto layer = random_layer(2, 256, 5);
    auto words = pack_weight_stream(layer);
    words.pop_back();
    EXPECT_THROW((void)unpack_weight_stream(words, 2, 256), efld::Error);
}

TEST(WeightFormat, Llama7BLayerStreamArithmetic) {
    // A 4096x4096 projection: 131072 groups -> 1024 zero words, 4096 scale
    // words, 131072 weight words.
    const std::size_t groups = 4096 * 4096 / 128;
    EXPECT_EQ(stream_words(groups), groups + groups / 32 + groups / 128);
    // Stream bytes = payload bytes exactly (no padding at full chunks):
    // codes 64B + scale 2B + zero 0.5B per group = 66.5B.
    EXPECT_EQ(stream_words(groups) * 64, groups * 64 + groups * 2 + groups / 2);
}

}  // namespace
}  // namespace efld::quant
