#include "quant/kvquant.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace efld::quant {

KvQuantized kv_quantize(std::span<const float> x) { return kv_quantize_bits(x, 8); }

KvQuantized kv_quantize_bits(std::span<const float> x, unsigned bits) {
    KvQuantized out;
    out.codes.resize(x.size());
    out.params = kv_quantize_bits_into(x, bits, out.codes);
    return out;
}

KvQuantParams kv_quantize_bits_into(std::span<const float> x, unsigned bits,
                                    std::span<std::uint8_t> codes) {
    check(!x.empty(), "kv_quantize: empty vector");
    check(codes.size() == x.size(), "kv_quantize: codes size mismatch");
    check(bits >= 2 && bits <= 8, "kv_quantize: bits out of range");
    const int qmax = static_cast<int>((1u << bits) - 1u);

    // Pass 1: min/max scan (the SPU tracks both in one pass over the stream).
    float lo = x[0], hi = x[0];
    for (const float v : x) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    lo = std::min(lo, 0.0f);
    hi = std::max(hi, 0.0f);

    float scale = (hi - lo) / static_cast<float>(qmax);
    if (scale <= 0.0f) scale = 1.0f;
    const Fp16 scale_h = Fp16::from_float(scale);
    const float s = scale_h.to_float();
    const std::uint8_t z = static_cast<std::uint8_t>(
        std::clamp(static_cast<int>(std::lround(-lo / s)), 0, qmax));

    // Pass 2: quantize against the stored fp16 scale.
    for (std::size_t i = 0; i < x.size(); ++i) {
        const int q = static_cast<int>(std::lround(x[i] / s)) + z;
        codes[i] = static_cast<std::uint8_t>(std::clamp(q, 0, qmax));
    }
    return {scale_h, z};
}

std::vector<float> kv_dequantize(std::span<const std::uint8_t> codes, KvQuantParams params) {
    std::vector<float> out(codes.size());
    kv_dequantize_into(codes, params, out);
    return out;
}

void kv_dequantize_into(std::span<const std::uint8_t> codes, KvQuantParams params,
                        std::span<float> out) {
    check(out.size() == codes.size(), "kv_dequantize_into: size mismatch");
    const float s = params.scale.to_float();
    const int z = params.zero;
    for (std::size_t i = 0; i < codes.size(); ++i) {
        out[i] = static_cast<float>(static_cast<int>(codes[i]) - z) * s;
    }
}

std::uint64_t kv8_bytes_per_token(std::uint64_t layers, std::uint64_t dim,
                                  std::uint64_t kv_heads) {
    const std::uint64_t code_bytes = 2 * layers * dim;          // 1 B per element
    const std::uint64_t pack_bytes = 2 * layers * kv_heads * 4; // 32-bit packs
    return code_bytes + pack_bytes;
}

}  // namespace efld::quant
