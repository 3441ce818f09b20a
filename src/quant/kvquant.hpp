// KV8: 8-bit linear quantization of the key/value cache (§IV.B, §VI.C6).
//
// Keys and values are quantized on-chip as they are produced (one vector =
// one head's key or value for one token) and dequantized when fetched back.
// Per vector: scale s = (max - min) / 255, zero magnitude z = round(-min/s);
// code q = round(x/s + z) in [0, 255]; dequant x' = (q - z) * s.
// The (s, z) pair is carried as a 32-bit scale-zero pack (fp16 + u8 + pad).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fp16.hpp"

namespace efld::quant {

struct KvQuantParams {
    Fp16 scale = Fp16::one();
    std::uint8_t zero = 0;  // magnitude of the (negative) zero point
};

struct KvQuantized {
    std::vector<std::uint8_t> codes;
    KvQuantParams params;
};

// Quantizes one K or V vector (two passes, like the SPU submodule).
[[nodiscard]] KvQuantized kv_quantize(std::span<const float> x);

// Variable-width variant for precision studies (KV4 vs KV8, §IV.B). Codes
// still occupy one byte of storage each; `bits` selects the grid (2..8).
[[nodiscard]] KvQuantized kv_quantize_bits(std::span<const float> x, unsigned bits);

// The one KV quantizer: writes x's codes into `codes` (x.size() bytes, e.g.
// a row of a paged arena's codes region) and returns their scale-zero pack.
[[nodiscard]] KvQuantParams kv_quantize_bits_into(std::span<const float> x, unsigned bits,
                                                  std::span<std::uint8_t> codes);

// Dequantizes codes back to float.
[[nodiscard]] std::vector<float> kv_dequantize(std::span<const std::uint8_t> codes,
                                               KvQuantParams params);

// In-place variant writing into `out` (sized like codes).
void kv_dequantize_into(std::span<const std::uint8_t> codes, KvQuantParams params,
                        std::span<float> out);

// Packed-cache byte footprint for one token across the whole model:
// 2 (K and V) * layers * dim codes + 2 * layers * heads scale-zero packs.
[[nodiscard]] std::uint64_t kv8_bytes_per_token(std::uint64_t layers, std::uint64_t dim,
                                                std::uint64_t kv_heads);

}  // namespace efld::quant
