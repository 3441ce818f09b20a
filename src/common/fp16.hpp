// IEEE 754 binary16 ("half") software floating point.
//
// The paper's VPU computes in FP16 on the FPGA fabric (multipliers, adder
// tree, accumulator). To make the simulator bit-comparable with such a
// datapath, every arithmetic operation here converts through float32 and
// rounds the result back to binary16 with round-to-nearest-even — the same
// result a correctly rounded FP16 FPU produces for +, -, *, /.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

namespace efld {

class Fp16 {
public:
    constexpr Fp16() = default;

    // Named constructors keep implicit conversions out of user code.
    [[nodiscard]] static Fp16 from_float(float f) noexcept;
    [[nodiscard]] static constexpr Fp16 from_bits(std::uint16_t b) noexcept {
        Fp16 h;
        h.bits_ = b;
        return h;
    }

    [[nodiscard]] float to_float() const noexcept;
    [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }

    [[nodiscard]] constexpr bool is_nan() const noexcept {
        return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
    }
    [[nodiscard]] constexpr bool is_inf() const noexcept {
        return (bits_ & 0x7FFFu) == 0x7C00u;
    }
    [[nodiscard]] constexpr bool is_zero() const noexcept {
        return (bits_ & 0x7FFFu) == 0;
    }
    [[nodiscard]] constexpr bool sign() const noexcept { return (bits_ & 0x8000u) != 0; }

    // Correctly rounded FP16 arithmetic (via float32, then RNE back to half).
    // float32 is exact for products/sums of two half values, so one rounding
    // step matches hardware behaviour.
    friend Fp16 operator+(Fp16 a, Fp16 b) noexcept;
    friend Fp16 operator-(Fp16 a, Fp16 b) noexcept;
    friend Fp16 operator*(Fp16 a, Fp16 b) noexcept;
    friend Fp16 operator/(Fp16 a, Fp16 b) noexcept;
    Fp16 operator-() const noexcept { return from_bits(static_cast<std::uint16_t>(bits_ ^ 0x8000u)); }

    friend bool operator==(Fp16 a, Fp16 b) noexcept;
    friend bool operator<(Fp16 a, Fp16 b) noexcept;

    static constexpr Fp16 zero() noexcept { return from_bits(0x0000); }
    static constexpr Fp16 one() noexcept { return from_bits(0x3C00); }
    static constexpr Fp16 infinity() noexcept { return from_bits(0x7C00); }
    static constexpr Fp16 neg_infinity() noexcept { return from_bits(0xFC00); }
    static constexpr Fp16 lowest() noexcept { return from_bits(0xFBFF); }   // -65504
    static constexpr Fp16 max() noexcept { return from_bits(0x7BFF); }      // +65504
    static constexpr Fp16 epsilon() noexcept { return from_bits(0x1400); }  // 2^-10

private:
    std::uint16_t bits_ = 0;
};

// Scalar conversion primitives (exposed for tests and packing code).
[[nodiscard]] std::uint16_t float_to_half_bits(float f) noexcept;
[[nodiscard]] float half_bits_to_float(std::uint16_t h) noexcept;

// Rounds `v` to the nearest binary16 value (ties to even) and returns it as a
// float: bit-identical to half_bits_to_float(float_to_half_bits(v)) for every
// input, NaN included (canonical quiet NaN, sign kept). Datapaths that hold
// exact fp16 values in floats call this once per operation instead of
// converting through the 16-bit encoding.
[[nodiscard]] inline float round_to_fp16(float v) noexcept {
    const std::uint32_t u = std::bit_cast<std::uint32_t>(v);
    const std::uint32_t sign = u & 0x8000'0000u;
    const std::uint32_t a = u & 0x7FFF'FFFFu;
    // |v| >= 2^-14 (normal half exponent, or beyond): round the 23-bit
    // mantissa to 10 bits, RNE; a carry bumps the exponent. 65520 and up
    // (inf included) end at >= 2^16 and become infinity.
    std::uint32_t normal = (a + 0x0FFFu + ((a >> 13) & 1u)) & ~0x1FFFu;
    normal = normal >= 0x4780'0000u ? 0x7F80'0000u : normal;
    normal = a > 0x7F80'0000u ? 0x7FC0'0000u : normal;  // NaN
    // Subnormal half range: a fixed 2^-24 quantum. Adding 0.5 (ulp 2^-24)
    // makes the float adder round there, RNE; subtracting it back is exact.
    const std::uint32_t subnormal =
        std::bit_cast<std::uint32_t>((std::bit_cast<float>(a) + 0.5f) - 0.5f);
    // Both paths are computed and one selected, so loops over lanes vectorize.
    return std::bit_cast<float>(sign | (a >= 0x3880'0000u ? normal : subnormal));
}

std::ostream& operator<<(std::ostream& os, Fp16 h);

}  // namespace efld
