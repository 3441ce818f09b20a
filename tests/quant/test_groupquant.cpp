// W4A16 group quantization invariants and reconstruction accuracy.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "quant/groupquant.hpp"

namespace efld::quant {
namespace {

std::vector<float> random_weights(std::size_t n, std::uint64_t seed, double scale = 0.05) {
    efld::Xoshiro256 rng(seed);
    std::vector<float> w(n);
    for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, scale));
    return w;
}

TEST(GroupQuant, CodesWithinRange) {
    const auto w = random_weights(4 * 512, 1);
    const auto q = QuantizedLinear::quantize(w, 4, 512, GroupQuantConfig{});
    for (std::size_t i = 0; i < 4 * 512; ++i) EXPECT_LE(q.code(i), 15);
    for (const std::uint8_t z : q.zeros()) EXPECT_LE(z, 15);
}

TEST(GroupQuant, GroupCountsAndShape) {
    const auto w = random_weights(8 * 1024, 2);
    const auto q = QuantizedLinear::quantize(w, 8, 1024, GroupQuantConfig{});
    EXPECT_EQ(q.rows(), 8u);
    EXPECT_EQ(q.cols(), 1024u);
    EXPECT_EQ(q.groups_per_row(), 8u);
    EXPECT_EQ(q.num_groups(), 64u);
    EXPECT_EQ(q.scales().size(), 64u);
}

TEST(GroupQuant, ReconstructionErrorBounded) {
    const auto w = random_weights(16 * 512, 3);
    const auto q = QuantizedLinear::quantize(w, 16, 512, GroupQuantConfig{});
    const auto back = q.dequantize();
    const QuantError e = quant_error(w, back);
    // 4-bit min/max quantization: error bounded by ~scale/2 per element.
    // With ~N(0, 0.05) groups, range ~= 0.4 -> scale ~= 0.027.
    EXPECT_LT(std::sqrt(e.mse), 0.02);
    EXPECT_LT(e.max_abs, 0.05);
}

TEST(GroupQuant, ZeroVectorQuantizesExactly) {
    const std::vector<float> w(2 * 128, 0.0f);
    const auto q = QuantizedLinear::quantize(w, 2, 128, GroupQuantConfig{});
    const auto back = q.dequantize();
    for (const float v : back) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(GroupQuant, ConstantGroupReconstructsNearExactly) {
    std::vector<float> w(128, 0.37f);
    const auto q = QuantizedLinear::quantize(w, 1, 128, GroupQuantConfig{});
    const auto back = q.dequantize();
    for (const float v : back) EXPECT_NEAR(v, 0.37f, 0.37f * 0.04f + 1e-3f);
}

TEST(GroupQuant, ZeroIsRepresentable) {
    // The quantization grid must contain exact zero (lo/hi are clamped to
    // include it), so sparse weights stay sparse.
    std::vector<float> w(128);
    for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = (i % 4 == 0) ? 0.0f : 0.1f + static_cast<float>(i) * 1e-3f;
    }
    const auto q = QuantizedLinear::quantize(w, 1, 128, GroupQuantConfig{});
    const auto back = q.dequantize();
    for (std::size_t i = 0; i < w.size(); ++i) {
        if (w[i] == 0.0f) EXPECT_NEAR(back[i], 0.0f, 2e-3f) << i;
    }
}

TEST(GroupQuant, PerGroupScalesAreIndependent) {
    // One huge group must not degrade a small-magnitude group's precision.
    std::vector<float> w(2 * 128);
    for (std::size_t i = 0; i < 128; ++i) w[i] = static_cast<float>(i % 16) * 1.0f;
    for (std::size_t i = 128; i < 256; ++i) w[i] = static_cast<float>(i % 16) * 1e-3f;
    GroupQuantConfig cfg;
    const auto q = QuantizedLinear::quantize(w, 1, 256, cfg);
    const auto back = q.dequantize();
    for (std::size_t i = 128; i < 256; ++i) {
        EXPECT_NEAR(back[i], w[i], 1e-3f) << i;
    }
}

TEST(GroupQuant, GemvMatchesDequantizedGemv) {
    const std::size_t rows = 6, cols = 256;
    const auto w = random_weights(rows * cols, 4);
    const auto q = QuantizedLinear::quantize(w, rows, cols, GroupQuantConfig{});
    const auto x = random_weights(cols, 5, 1.0);
    const auto y = q.gemv_reference(x);

    const auto wq = q.dequantize();
    for (std::size_t r = 0; r < rows; ++r) {
        float acc = 0;
        for (std::size_t c = 0; c < cols; ++c) acc += wq[r * cols + c] * x[c];
        EXPECT_NEAR(y[r], acc, 1e-4f) << "row " << r;
    }
}

TEST(GroupQuant, EightBitBeatsFourBit) {
    const auto w = random_weights(8 * 512, 6);
    GroupQuantConfig c4, c8;
    c8.bits = 8;
    const auto q4 = QuantizedLinear::quantize(w, 8, 512, c4);
    const auto q8 = QuantizedLinear::quantize(w, 8, 512, c8);
    const double mse4 = quant_error(w, q4.dequantize()).mse;
    const double mse8 = quant_error(w, q8.dequantize()).mse;
    EXPECT_LT(mse8, mse4 / 10.0);
}

TEST(GroupQuant, SmallerGroupsReduceError) {
    const auto w = random_weights(4 * 1024, 7);
    GroupQuantConfig big, small;
    big.group_size = 256;
    small.group_size = 64;
    const double mse_big =
        quant_error(w, QuantizedLinear::quantize(w, 4, 1024, big).dequantize()).mse;
    const double mse_small =
        quant_error(w, QuantizedLinear::quantize(w, 4, 1024, small).dequantize()).mse;
    EXPECT_LT(mse_small, mse_big);
}

TEST(GroupQuant, PackedBytesArithmetic) {
    const auto w = random_weights(4096ull * 128, 8);
    const auto q = QuantizedLinear::quantize(w, 4096, 128, GroupQuantConfig{});
    // 4096 rows x 1 group: codes 4096*128/2 B, scales 4096*2 B, zeros 4096/2 B.
    EXPECT_EQ(q.packed_bytes(), 4096u * 64 + 4096u * 2 + 2048u);
}

TEST(GroupQuant, RejectsMisalignedCols) {
    const auto w = random_weights(4 * 100, 9);
    EXPECT_THROW((void)QuantizedLinear::quantize(w, 4, 100, GroupQuantConfig{}),
                 efld::Error);
}

// One byte per code, as from_parts takes them.
std::vector<std::uint8_t> byte_codes(const QuantizedLinear& q) {
    std::vector<std::uint8_t> codes(q.rows() * q.cols());
    for (std::size_t i = 0; i < codes.size(); ++i) codes[i] = q.code(i);
    return codes;
}

TEST(GroupQuant, FromPartsRoundTrip) {
    const auto w = random_weights(2 * 256, 10);
    const auto q = QuantizedLinear::quantize(w, 2, 256, GroupQuantConfig{});
    const auto q2 = QuantizedLinear::from_parts(
        byte_codes(q), std::vector<Fp16>(q.scales().begin(), q.scales().end()),
        std::vector<std::uint8_t>(q.zeros().begin(), q.zeros().end()), 2, 256,
        q.config());
    EXPECT_EQ(q.dequantize(), q2.dequantize());
}

TEST(GroupQuant, FromPartsByteCodesRoundTripEveryWidth) {
    // 3 x 12 weights in groups of 6: a group that is not a multiple of the
    // 8-code word, so groups start mid-word at bits <= 4.
    const std::size_t rows = 3, cols = 12, n = rows * cols;
    efld::Xoshiro256 rng(11);
    for (unsigned bits = 2; bits <= 8; ++bits) {
        GroupQuantConfig cfg;
        cfg.bits = bits;
        cfg.group_size = 6;
        const std::size_t groups = n / cfg.group_size;
        std::vector<std::uint8_t> codes(n), zeros(groups);
        std::vector<Fp16> scales(groups);
        for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(cfg.qmax() + 1u));
        for (auto& z : zeros) z = static_cast<std::uint8_t>(rng.below(cfg.qmax() + 1u));
        for (auto& s : scales) s = Fp16::from_float(static_cast<float>(rng.uniform(0.01, 1.0)));
        const auto q = QuantizedLinear::from_parts(codes, scales, zeros, rows, cols, cfg);

        EXPECT_EQ(q.codes().size(), bits <= 4 ? n / 2 : n) << "bits=" << bits;
        const auto back = q.dequantize();
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(q.code(i), codes[i]) << "bits=" << bits << " i=" << i;
            const std::size_t g = i / cfg.group_size;
            EXPECT_EQ(back[i], static_cast<float>(codes[i] - zeros[g]) * scales[g].to_float())
                << "bits=" << bits << " i=" << i;
        }
        const auto again = QuantizedLinear::from_parts(byte_codes(q), scales, zeros, rows, cols,
                                                       cfg);
        EXPECT_EQ(again.dequantize(), back) << "bits=" << bits;
    }
}

TEST(GroupQuant, OddGroupSizeNeedsByteCodes) {
    // Two codes per byte need an even group, so every group starts on a byte.
    GroupQuantConfig cfg;
    cfg.group_size = 5;
    const auto w = random_weights(2 * 15, 12);
    for (unsigned bits = 2; bits <= 8; ++bits) {
        cfg.bits = bits;
        const std::vector<std::uint8_t> codes(30, 1), zeros(6, 0);
        const std::vector<Fp16> scales(6, Fp16::from_float(1.0f));
        if (bits <= 4) {
            EXPECT_THROW((void)QuantizedLinear::quantize(w, 2, 15, cfg), efld::Error) << bits;
            EXPECT_THROW((void)QuantizedLinear::from_parts(codes, scales, zeros, 2, 15, cfg),
                         efld::Error)
                << bits;
        } else {
            EXPECT_EQ(QuantizedLinear::quantize(w, 2, 15, cfg).codes().size(), 30u) << bits;
            EXPECT_EQ(QuantizedLinear::from_parts(codes, scales, zeros, 2, 15, cfg).code(29), 1)
                << bits;
        }
    }
}

TEST(GroupQuant, FromPartsRejectsCodesAboveQmax) {
    GroupQuantConfig cfg;
    cfg.group_size = 4;
    std::vector<std::uint8_t> codes = {0, 15, 3, 16};
    EXPECT_THROW((void)QuantizedLinear::from_parts(codes, {Fp16::from_float(1.0f)}, {0}, 1, 4,
                                                   cfg),
                 efld::Error);
}

}  // namespace
}  // namespace efld::quant
