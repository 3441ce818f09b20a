// Tests of the 512-bit bus word's lanes and of half packing.
#include <gtest/gtest.h>

#include "common/bitpack.hpp"
#include "common/rng.hpp"

namespace efld {
namespace {

TEST(Word512, NibbleRoundTrip) {
    Word512 w;
    for (std::size_t i = 0; i < kNibblesPerWord; ++i) {
        w.set_nibble(i, static_cast<std::uint8_t>(i % 16));
    }
    for (std::size_t i = 0; i < kNibblesPerWord; ++i) {
        EXPECT_EQ(w.nibble(i), i % 16) << "lane " << i;
    }
}

TEST(Word512, NibbleMasksHighBits) {
    Word512 w;
    w.set_nibble(5, 0xFF);  // only low 4 bits stored
    EXPECT_EQ(w.nibble(5), 0xF);
    EXPECT_EQ(w.nibble(4), 0);
    EXPECT_EQ(w.nibble(6), 0);
}

TEST(Word512, ByteRoundTrip) {
    Word512 w;
    for (std::size_t i = 0; i < kBusBytes; ++i) {
        w.set_byte(i, static_cast<std::uint8_t>(i * 3 + 1));
    }
    for (std::size_t i = 0; i < kBusBytes; ++i) {
        EXPECT_EQ(w.byte(i), static_cast<std::uint8_t>(i * 3 + 1));
    }
}

TEST(Word512, HalfRoundTrip) {
    Word512 w;
    for (std::size_t i = 0; i < kHalfsPerWord; ++i) {
        w.set_half(i, Fp16::from_float(static_cast<float>(i) * 0.25f));
    }
    for (std::size_t i = 0; i < kHalfsPerWord; ++i) {
        EXPECT_FLOAT_EQ(w.half(i).to_float(), static_cast<float>(i) * 0.25f);
    }
}

TEST(Word512, Word32RoundTrip) {
    Word512 w;
    for (std::size_t i = 0; i < kU32PerWord; ++i) {
        w.set_word32(i, 0xDEAD0000u + static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i < kU32PerWord; ++i) {
        EXPECT_EQ(w.word32(i), 0xDEAD0000u + i);
    }
}

TEST(Word512, LanesDoNotAlias) {
    // Writing one lane kind must not disturb neighbours of the same kind.
    Word512 w;
    w.set_byte(0, 0xAA);
    w.set_byte(1, 0xBB);
    w.set_nibble(4, 0x5);  // byte 2, low nibble
    EXPECT_EQ(w.byte(0), 0xAA);
    EXPECT_EQ(w.byte(1), 0xBB);
    EXPECT_EQ(w.byte(2), 0x05);
}

TEST(Pack, HalfsRoundTrip) {
    Xoshiro256 rng(2);
    std::vector<Fp16> vals(100);
    for (auto& v : vals) v = Fp16::from_float(static_cast<float>(rng.gaussian()));
    const auto words = pack_halfs(vals);
    EXPECT_EQ(words.size(), 4u);  // ceil(100/32)
    const auto back = unpack_halfs(words, vals.size());
    for (std::size_t i = 0; i < vals.size(); ++i) {
        EXPECT_EQ(back[i].bits(), vals[i].bits());
    }
}

TEST(Helpers, DivCeilAndAlignUp) {
    EXPECT_EQ(div_ceil(0, 8), 0u);
    EXPECT_EQ(div_ceil(1, 8), 1u);
    EXPECT_EQ(div_ceil(8, 8), 1u);
    EXPECT_EQ(div_ceil(9, 8), 2u);
    EXPECT_EQ(align_up(0, 64), 0u);
    EXPECT_EQ(align_up(1, 64), 64u);
    EXPECT_EQ(align_up(64, 64), 64u);
    EXPECT_EQ(align_up(65, 64), 128u);
}

}  // namespace
}  // namespace efld
