#include "common/fp16.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <ostream>

namespace efld {

namespace {

constexpr std::uint32_t kF32SignMask = 0x8000'0000u;
constexpr std::uint32_t kF32ExpMask = 0x7F80'0000u;

}  // namespace

std::uint16_t float_to_half_bits(float f) noexcept {
    const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
    const std::uint32_t sign = (x & kF32SignMask) >> 16;
    std::uint32_t absx = x & 0x7FFF'FFFFu;

    if ((x & kF32ExpMask) == kF32ExpMask) {
        // Inf or NaN. Preserve NaN-ness with a quiet mantissa bit.
        if (absx > 0x7F80'0000u) {
            return static_cast<std::uint16_t>(sign | 0x7E00u);
        }
        return static_cast<std::uint16_t>(sign | 0x7C00u);
    }

    // Overflow to infinity: anything >= 2^16 - 2^4 (half max + 1/2 ulp).
    if (absx >= 0x4780'0000u) {  // 65536.0f
        return static_cast<std::uint16_t>(sign | 0x7C00u);
    }
    // Values in [65504 + 16, 65536) also round to inf; handle via rounding below
    // (the generic path covers them because the exponent arithmetic carries).

    const std::int32_t exp32 = static_cast<std::int32_t>((absx >> 23) & 0xFF) - 127;
    if (exp32 < -25) {
        // Below half the smallest subnormal (2^-25): rounds to signed zero.
        // [2^-25, 2^-24) still rounds to the smallest subnormal (or, at
        // exactly 2^-25, ties to even zero) in the branch below.
        return static_cast<std::uint16_t>(sign);
    }

    if (exp32 < -14) {
        // Subnormal half. Shift the (implicit-1) mantissa right with RNE.
        const std::uint32_t mant = (absx & 0x007F'FFFFu) | 0x0080'0000u;
        const int shift = -exp32 - 14 + 13;  // 14..24
        const std::uint32_t half_mant = mant >> shift;
        const std::uint32_t rem = mant & ((1u << shift) - 1u);
        const std::uint32_t halfway = 1u << (shift - 1);
        std::uint32_t rounded = half_mant;
        if (rem > halfway || (rem == halfway && (half_mant & 1u))) {
            ++rounded;
        }
        return static_cast<std::uint16_t>(sign | rounded);
    }

    // Normal half. Round the 23-bit mantissa to 10 bits with RNE, letting the
    // carry propagate into the exponent (this also produces inf for values in
    // (65504, 65520]).
    std::uint32_t half = ((static_cast<std::uint32_t>(exp32 + 15) << 10) |
                          ((absx >> 13) & 0x03FFu));
    const std::uint32_t rem = absx & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) {
        ++half;
    }
    return static_cast<std::uint16_t>(sign | half);
}

Fp16 Fp16::from_float(float f) noexcept { return from_bits(float_to_half_bits(f)); }

Fp16 operator+(Fp16 a, Fp16 b) noexcept {
    return Fp16::from_float(a.to_float() + b.to_float());
}
Fp16 operator-(Fp16 a, Fp16 b) noexcept {
    return Fp16::from_float(a.to_float() - b.to_float());
}
Fp16 operator*(Fp16 a, Fp16 b) noexcept {
    return Fp16::from_float(a.to_float() * b.to_float());
}
Fp16 operator/(Fp16 a, Fp16 b) noexcept {
    return Fp16::from_float(a.to_float() / b.to_float());
}

bool operator==(Fp16 a, Fp16 b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
    return a.bits() == b.bits();
}

bool operator<(Fp16 a, Fp16 b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    return a.to_float() < b.to_float();
}

std::ostream& operator<<(std::ostream& os, Fp16 h) { return os << h.to_float(); }

}  // namespace efld
