// 512-bit bus words and their nibble, byte, half and u32 lanes.
//
// The accelerator moves data over a 512-bit stream (4 × 128-bit AXI ports
// concatenated). Word512 is the unit of every transaction in the simulator:
// one word carries 128 × u4 (a full quantization group of weights or zero
// points), 32 × fp16 (scales), or 16 × 32-bit KV scale-zero packs.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/fp16.hpp"

namespace efld {

inline constexpr std::size_t kBusBits = 512;
inline constexpr std::size_t kBusBytes = kBusBits / 8;          // 64
inline constexpr std::size_t kNibblesPerWord = kBusBits / 4;    // 128
inline constexpr std::size_t kHalfsPerWord = kBusBits / 16;     // 32
inline constexpr std::size_t kU32PerWord = kBusBits / 32;       // 16

struct Word512 {
    std::array<std::uint64_t, 8> lanes{};

    [[nodiscard]] bool operator==(const Word512&) const = default;

    // u4 lanes ------------------------------------------------------------
    [[nodiscard]] std::uint8_t nibble(std::size_t i) const noexcept {
        return static_cast<std::uint8_t>((lanes[i / 16] >> ((i % 16) * 4)) & 0xFu);
    }
    void set_nibble(std::size_t i, std::uint8_t v) noexcept;

    // u8 lanes ------------------------------------------------------------
    [[nodiscard]] std::uint8_t byte(std::size_t i) const noexcept;
    void set_byte(std::size_t i, std::uint8_t v) noexcept;

    // u16 lanes (used for fp16 scales) -------------------------------------
    [[nodiscard]] std::uint16_t half_bits(std::size_t i) const noexcept;
    void set_half_bits(std::size_t i, std::uint16_t v) noexcept;

    [[nodiscard]] Fp16 half(std::size_t i) const noexcept {
        return Fp16::from_bits(half_bits(i));
    }
    void set_half(std::size_t i, Fp16 v) noexcept { set_half_bits(i, v.bits()); }

    // u32 lanes (used for KV scale-zero packs) ------------------------------
    [[nodiscard]] std::uint32_t word32(std::size_t i) const noexcept;
    void set_word32(std::size_t i, std::uint32_t v) noexcept;
};

// Packs fp16 values, 32 per word.
[[nodiscard]] std::vector<Word512> pack_halfs(std::span<const Fp16> values);
[[nodiscard]] std::vector<Fp16> unpack_halfs(std::span<const Word512> words,
                                             std::size_t count);

// Integer ceiling division / alignment helpers used throughout the formats.
[[nodiscard]] constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) noexcept {
    return (a + b - 1) / b;
}
[[nodiscard]] constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t a) noexcept {
    return div_ceil(v, a) * a;
}

}  // namespace efld
