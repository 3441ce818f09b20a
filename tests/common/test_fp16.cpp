// Bit-level tests of the IEEE binary16 soft float — the foundation of the
// accelerator's numerics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/fp16.hpp"
#include "common/rng.hpp"

namespace efld {
namespace {

TEST(Fp16, KnownEncodings) {
    EXPECT_EQ(Fp16::from_float(0.0f).bits(), 0x0000);
    EXPECT_EQ(Fp16::from_float(-0.0f).bits(), 0x8000);
    EXPECT_EQ(Fp16::from_float(1.0f).bits(), 0x3C00);
    EXPECT_EQ(Fp16::from_float(-1.0f).bits(), 0xBC00);
    EXPECT_EQ(Fp16::from_float(2.0f).bits(), 0x4000);
    EXPECT_EQ(Fp16::from_float(0.5f).bits(), 0x3800);
    EXPECT_EQ(Fp16::from_float(65504.0f).bits(), 0x7BFF);  // max normal
    EXPECT_EQ(Fp16::from_float(-65504.0f).bits(), 0xFBFF);
}

TEST(Fp16, KnownDecodings) {
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x3C00).to_float(), 1.0f);
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x3555).to_float(), 0.333251953125f);
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x0001).to_float(), 5.960464477539063e-8f);  // min subnormal
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x03FF).to_float(), 6.097555160522461e-5f);  // max subnormal
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x0400).to_float(), 6.103515625e-5f);        // min normal
}

TEST(Fp16, OverflowToInfinity) {
    EXPECT_TRUE(Fp16::from_float(65536.0f).is_inf());
    EXPECT_TRUE(Fp16::from_float(1e10f).is_inf());
    EXPECT_TRUE(Fp16::from_float(-1e10f).is_inf());
    EXPECT_TRUE(Fp16::from_float(-1e10f).sign());
    // 65520 is the rounding boundary: rounds up to inf.
    EXPECT_TRUE(Fp16::from_float(65520.0f).is_inf());
    // 65519 rounds down to max.
    EXPECT_EQ(Fp16::from_float(65519.0f).bits(), 0x7BFF);
}

TEST(Fp16, UnderflowToZero) {
    EXPECT_TRUE(Fp16::from_float(1e-10f).is_zero());
    EXPECT_TRUE(Fp16::from_float(-1e-10f).is_zero());
    EXPECT_TRUE(Fp16::from_float(-1e-10f).sign());  // signed zero preserved
    // (2^-25, 2^-24) rounds up to the smallest subnormal; 2^-25 itself is
    // the tie between 0 and 2^-24 and goes to even (zero).
    EXPECT_EQ(Fp16::from_float(0x1.8p-25f).bits(), 0x0001);
    EXPECT_EQ(Fp16::from_float(0x1p-25f).bits(), 0x0000);
    EXPECT_EQ(Fp16::from_float(0x1.fffffep-25f).bits(), 0x0001);
    EXPECT_EQ(Fp16::from_float(-0x1.8p-25f).bits(), 0x8001);
    EXPECT_EQ(Fp16::from_float(-0x1p-25f).bits(), 0x8000);
    EXPECT_EQ(Fp16::from_float(-0x1.fffffep-25f).bits(), 0x8001);
}

TEST(Fp16, NanPropagation) {
    const Fp16 nan = Fp16::from_float(std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(nan.is_nan());
    EXPECT_TRUE(std::isnan(nan.to_float()));
    EXPECT_FALSE(nan == nan);
    EXPECT_TRUE((nan + Fp16::one()).is_nan());
}

TEST(Fp16, RoundToNearestEven) {
    // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties-to-even
    // keeps 1.0 (even mantissa).
    EXPECT_EQ(Fp16::from_float(1.0f + 0x1.0p-11f).bits(), 0x3C00);
    // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds to even
    // (mantissa 2).
    EXPECT_EQ(Fp16::from_float(1.0f + 3 * 0x1.0p-11f).bits(), 0x3C02);
    // Just above the halfway point rounds up.
    EXPECT_EQ(Fp16::from_float(1.0f + 0x1.2p-11f).bits(), 0x3C01);
}

TEST(Fp16, RoundTripAllFiniteBitPatterns) {
    // Every finite half value converts to float and back to the same bits —
    // float32 represents all half values exactly.
    for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
        const Fp16 h = Fp16::from_bits(static_cast<std::uint16_t>(b));
        if (h.is_nan()) continue;
        const Fp16 back = Fp16::from_float(h.to_float());
        EXPECT_EQ(back.bits(), h.bits()) << "bits=0x" << std::hex << b;
    }
}

TEST(Fp16, ConversionMatchesRoundTripProperty) {
    // For random floats within half range the stored value is within half an
    // ULP of the original (correct rounding).
    Xoshiro256 rng(42);
    for (int i = 0; i < 10000; ++i) {
        const float f = static_cast<float>(rng.uniform(-60000.0, 60000.0));
        const Fp16 h = Fp16::from_float(f);
        const float back = h.to_float();
        // ULP at |f|: 2^(floor(log2|f|) - 10).
        const float ulp =
            std::ldexp(1.0f, std::max(-14, std::ilogb(std::abs(f) + 1e-30f)) - 10);
        EXPECT_LE(std::abs(back - f), ulp * 0.5f + 1e-12f) << "f=" << f;
    }
}

TEST(Fp16, ArithmeticIsCorrectlyRounded) {
    Xoshiro256 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const Fp16 a = Fp16::from_float(static_cast<float>(rng.uniform(-100.0, 100.0)));
        const Fp16 b = Fp16::from_float(static_cast<float>(rng.uniform(-100.0, 100.0)));
        // float32 computes the exact product/sum of two halves; rounding that
        // to half is the correctly rounded result.
        EXPECT_EQ((a + b).bits(), Fp16::from_float(a.to_float() + b.to_float()).bits());
        EXPECT_EQ((a * b).bits(), Fp16::from_float(a.to_float() * b.to_float()).bits());
    }
}

TEST(Fp16, ComparisonSemantics) {
    EXPECT_TRUE(Fp16::from_float(1.0f) < Fp16::from_float(2.0f));
    EXPECT_FALSE(Fp16::from_float(2.0f) < Fp16::from_float(1.0f));
    EXPECT_TRUE(Fp16::from_float(-2.0f) < Fp16::from_float(-1.0f));
    EXPECT_TRUE(Fp16::from_float(0.0f) == Fp16::from_float(-0.0f));
}

TEST(Fp16, NegationFlipsSignBitOnly) {
    const Fp16 x = Fp16::from_float(3.14f);
    EXPECT_EQ((-x).bits(), x.bits() ^ 0x8000);
    EXPECT_FLOAT_EQ((-x).to_float(), -x.to_float());
}

TEST(Fp16, Constants) {
    EXPECT_FLOAT_EQ(Fp16::one().to_float(), 1.0f);
    EXPECT_FLOAT_EQ(Fp16::max().to_float(), 65504.0f);
    EXPECT_FLOAT_EQ(Fp16::lowest().to_float(), -65504.0f);
    EXPECT_TRUE(Fp16::infinity().is_inf());
    EXPECT_FLOAT_EQ(Fp16::epsilon().to_float(), 0x1.0p-10f);
}

TEST(Fp16, SubnormalArithmetic) {
    const Fp16 tiny = Fp16::from_bits(0x0001);  // min subnormal
    const Fp16 sum = tiny + tiny;
    EXPECT_EQ(sum.bits(), 0x0002);
    EXPECT_EQ((tiny - tiny).bits(), 0x0000);
}

TEST(Fp16, RoundToFp16MatchesTheConversionPairOnEveryRoundingCase) {
    // round_to_fp16(v) must be bit-identical to decoding float_to_half_bits(v).
    // The result depends only on the mantissa bits rounding drops, the lowest
    // kept bit (ties to even) and whether the kept bits are all ones (carry
    // into the exponent). So for every exponent and both signs: every dropped
    // pattern, under kept patterns 0, 1, all-ones - 1 and all-ones. Normal
    // halves and beyond (overflow, inf, NaN) drop 13 bits; the half-subnormal
    // range (2^-25 <= |v| < 2^-14) drops 14..23, which makes every mantissa
    // at 2^-25 .. 2^-22 part of the sweep. Below 2^-25 everything is +-0.
    std::vector<std::uint32_t> decoded(0x10000);
    for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
        const float f = half_bits_to_float(static_cast<std::uint16_t>(h));
        decoded[h] = std::bit_cast<std::uint32_t>(f);
    }
    std::uint64_t checked = 0, mismatches = 0;
    for (std::uint32_t exp = 0; exp <= 0xFF; ++exp) {
        const bool subnormal = exp >= 102 && exp <= 112;
        const std::uint32_t kept_bits = subnormal ? (exp > 103 ? exp - 103 : 0) : 10;
        const std::uint32_t dropped_bits = 23 - kept_bits;
        const std::uint32_t kept_max = (1u << kept_bits) - 1;
        std::vector<std::uint32_t> kept;
        for (const std::uint32_t k : {0u, 1u, kept_max - 1, kept_max}) {
            if (k <= kept_max && std::find(kept.begin(), kept.end(), k) == kept.end()) {
                kept.push_back(k);
            }
        }
        for (const std::uint32_t sign : {0u, 0x8000'0000u}) {
            for (const std::uint32_t k : kept) {
                const std::uint32_t high = sign | (exp << 23) | (k << dropped_bits);
                for (std::uint32_t low = 0; low < (1u << dropped_bits); ++low) {
                    const float v = std::bit_cast<float>(high | low);
                    mismatches += std::bit_cast<std::uint32_t>(round_to_fp16(v)) !=
                                  decoded[float_to_half_bits(v)];
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checked, 80'000'000u);
}

}  // namespace
}  // namespace efld
