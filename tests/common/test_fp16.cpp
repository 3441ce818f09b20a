// Bit-level tests of the IEEE binary16 soft float — the foundation of the
// accelerator's numerics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "accel/fp16_lanes.hpp"
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

TEST(Fp16, DecodeIsExactOnEveryBitPattern) {
    // Finite halves decode to (-1)^s * m * 2^e exactly; inf and NaN keep the
    // sign and carry the 10-bit payload into the top of the float mantissa.
    for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
        const auto h = static_cast<std::uint16_t>(b);
        const std::uint32_t exp = (b >> 10) & 0x1Fu;
        const std::uint32_t mant = b & 0x3FFu;
        const float got = Fp16::from_bits(h).to_float();
        if (exp == 0x1Fu) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
                      ((b & 0x8000u) << 16) | 0x7F80'0000u | (mant << 13))
                << "bits=0x" << std::hex << b;
            continue;
        }
        const float mag = exp == 0 ? std::ldexp(static_cast<float>(mant), -24)
                                   : std::ldexp(static_cast<float>(mant | 0x400u),
                                                static_cast<int>(exp) - 25);
        const float want = (b & 0x8000u) != 0 ? -mag : mag;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got), std::bit_cast<std::uint32_t>(want))
            << "bits=0x" << std::hex << b;
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

// Calls f(v) for every rounding case of a float -> fp16 conversion. The
// result depends only on the mantissa bits rounding drops, the lowest kept
// bit (ties to even) and whether the kept bits are all ones (carry into the
// exponent). So for every exponent and both signs: every dropped pattern,
// under kept patterns 0, 1, all-ones - 1 and all-ones. Normal halves and
// beyond (overflow, inf, NaN with every 13-bit low payload) drop 13 bits; the
// half-subnormal range (2^-25 <= |v| < 2^-14) drops 14..23, which makes every
// mantissa at 2^-25 .. 2^-22 part of the sweep. Below 2^-25 everything is +-0.
template <class F>
std::uint64_t for_each_rounding_case(F&& f) {
    std::uint64_t cases = 0;
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
                    f(std::bit_cast<float>(high | low));
                    ++cases;
                }
            }
        }
    }
    return cases;
}

TEST(Fp16, RoundToFp16MatchesTheConversionPairOnEveryRoundingCase) {
    // round_to_fp16(v) must be bit-identical to decoding float_to_half_bits(v).
    std::vector<std::uint32_t> decoded(0x10000);
    for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
        const float f = half_bits_to_float(static_cast<std::uint16_t>(h));
        decoded[h] = std::bit_cast<std::uint32_t>(f);
    }
    std::uint64_t mismatches = 0;
    const std::uint64_t checked = for_each_rounding_case([&](float v) {
        mismatches += std::bit_cast<std::uint32_t>(round_to_fp16(v)) !=
                      decoded[float_to_half_bits(v)];
    });
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checked, 80'000'000u);
}

using accel::F32x16;
using accel::round_to_fp16_lanes;

// Rounds a batch through round_to_fp16_lanes and counts the lanes that differ
// from the scalar round_to_fp16 in any bit.
std::uint64_t lane_mismatches(const F32x16& in) {
    F32x16 out = in;
    round_to_fp16_lanes(out);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 16; ++i) {
        mismatches += std::bit_cast<std::uint32_t>(out[i]) !=
                      std::bit_cast<std::uint32_t>(round_to_fp16(in[i]));
    }
    return mismatches;
}

TEST(Fp16, VectorRoundingMatchesScalarOnEveryRoundingCase) {
    // The vector primitive (the hardware converter where the target has
    // F16C) must equal the scalar bit formula lane by lane on the same sweep,
    // 16 consecutive cases per vector.
    F32x16 batch{};
    int fill = 0;
    std::uint64_t mismatches = 0;
    const std::uint64_t checked = for_each_rounding_case([&](float v) {
        batch[fill++] = v;
        if (fill == 16) {
            mismatches += lane_mismatches(batch);
            fill = 0;
        }
    });
    EXPECT_EQ(fill, 0);  // the sweep is a whole number of vectors
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checked, 80'000'000u);
}

TEST(Fp16, VectorRoundingCanonicalizesNanPayloads) {
    // Quiet and signaling NaNs of both signs with payloads in every part of
    // the mantissa come out as the scalar's canonical quiet NaN, sign kept;
    // the F16C converter alone would keep the top payload bits.
    const std::uint32_t payloads[] = {0x0000'0001u, 0x0000'1FFFu, 0x0000'2000u, 0x0003'0000u,
                                      0x001F'E000u, 0x003F'FFFFu, 0x0040'0000u, 0x0040'0001u,
                                      0x0055'5555u, 0x007F'E000u, 0x007F'FFFFu, 0x0020'0000u,
                                      0x0010'0001u, 0x0000'4000u, 0x0012'3456u, 0x0060'0000u};
    for (const std::uint32_t sign : {0u, 0x8000'0000u}) {
        F32x16 v;
        for (int i = 0; i < 16; ++i) v[i] = std::bit_cast<float>(sign | 0x7F80'0000u | payloads[i]);
        const F32x16 in = v;
        round_to_fp16_lanes(v);
        for (int i = 0; i < 16; ++i) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(v[i]), sign | 0x7FC0'0000u)
                << std::hex << std::bit_cast<std::uint32_t>(in[i]);
        }
        EXPECT_EQ(lane_mismatches(in), 0u);
    }
}

}  // namespace
}  // namespace efld
