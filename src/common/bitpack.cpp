#include "common/bitpack.hpp"

namespace efld {

void Word512::set_nibble(std::size_t i, std::uint8_t v) noexcept {
    std::uint64_t& lane = lanes[i / 16];
    const unsigned shift = static_cast<unsigned>((i % 16) * 4);
    lane = (lane & ~(0xFull << shift)) | (static_cast<std::uint64_t>(v & 0xFu) << shift);
}

std::uint8_t Word512::byte(std::size_t i) const noexcept {
    return static_cast<std::uint8_t>((lanes[i / 8] >> ((i % 8) * 8)) & 0xFFu);
}

void Word512::set_byte(std::size_t i, std::uint8_t v) noexcept {
    std::uint64_t& lane = lanes[i / 8];
    const unsigned shift = static_cast<unsigned>((i % 8) * 8);
    lane = (lane & ~(0xFFull << shift)) | (static_cast<std::uint64_t>(v) << shift);
}

std::uint16_t Word512::half_bits(std::size_t i) const noexcept {
    return static_cast<std::uint16_t>((lanes[i / 4] >> ((i % 4) * 16)) & 0xFFFFu);
}

void Word512::set_half_bits(std::size_t i, std::uint16_t v) noexcept {
    std::uint64_t& lane = lanes[i / 4];
    const unsigned shift = static_cast<unsigned>((i % 4) * 16);
    lane = (lane & ~(0xFFFFull << shift)) | (static_cast<std::uint64_t>(v) << shift);
}

std::uint32_t Word512::word32(std::size_t i) const noexcept {
    return static_cast<std::uint32_t>((lanes[i / 2] >> ((i % 2) * 32)) & 0xFFFF'FFFFu);
}

void Word512::set_word32(std::size_t i, std::uint32_t v) noexcept {
    std::uint64_t& lane = lanes[i / 2];
    const unsigned shift = static_cast<unsigned>((i % 2) * 32);
    lane = (lane & ~(0xFFFF'FFFFull << shift)) | (static_cast<std::uint64_t>(v) << shift);
}

std::vector<Word512> pack_halfs(std::span<const Fp16> values) {
    std::vector<Word512> words(div_ceil(values.size(), kHalfsPerWord));
    for (std::size_t i = 0; i < values.size(); ++i) {
        words[i / kHalfsPerWord].set_half(i % kHalfsPerWord, values[i]);
    }
    return words;
}

std::vector<Fp16> unpack_halfs(std::span<const Word512> words, std::size_t count) {
    std::vector<Fp16> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = words[i / kHalfsPerWord].half(i % kHalfsPerWord);
    }
    return out;
}

}  // namespace efld
