#include "accel/vpu.hpp"

#include <algorithm>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/check.hpp"

namespace efld::accel {

namespace {

// One wave of fp16 lanes in lane order, held as exact floats.
using Lanes = std::array<float, kVpuLanes>;

// One adder-tree stage: sums neighbouring pairs of in[0, n) into out,
// rounding each node to fp16; an odd last element passes through.
std::size_t tree_stage(const float* in, std::size_t n, float* out) noexcept {
    const std::size_t pairs = n / 2;
    for (std::size_t i = 0; i < pairs; ++i) {
        out[i] = round_to_fp16(in[2 * i] + in[2 * i + 1]);
    }
    if (n % 2 == 1) out[pairs] = in[n - 1];
    return pairs + n % 2;
}

// The adder tree over v[0, n), n <= 128. Stages alternate between two
// buffers so each stage's pair loop vectorizes.
float reduce_tree(const float* v, std::size_t n) noexcept {
    if (n == 0) return 0.0f;
    Lanes a, b;
    n = tree_stage(v, n, a.data());
    while (n > 1) {
        n = tree_stage(a.data(), n, b.data());
        if (n == 1) return b[0];
        n = tree_stage(b.data(), n, a.data());
    }
    return a[0];
}

// A wave's 128 lane products and the first three adder-tree stages: in wave
// order each stage adds the upper half of the vectors onto the lower half,
// leaving the 16 stage-3 nodes (bit-reversed) in s.
void reduce_to_16(const Wave& w, const Wave& x, F32x16& s) noexcept {
    Wave p;
    for (std::size_t k = 0; k < kWaveVectors; ++k) {
        p[k] = w[k] * x[k];
        round_to_fp16_lanes(p[k]);
    }
    for (std::size_t half = kWaveVectors / 2; half >= 1; half /= 2) {
        for (std::size_t k = 0; k < half; ++k) {
            p[k] += p[k + half];
            round_to_fp16_lanes(p[k]);
        }
    }
    s = p[0];
}

// The last four stages of two trees in one vector: stage 4 adds a's upper
// eight nodes onto its lower eight into lanes 0-7, and b's into lanes 8-15;
// stages 5-7 then halve each eight-lane block in place. Tree a's root lands
// in lane 0 and b's in lane 8; the other lanes are don't-cares.
void finish_pair(const F32x16& a, const F32x16& b, F32x16& s) noexcept {
    s = __builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23);
    s += __builtin_shufflevector(a, b, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29,
                                 30, 31);
    round_to_fp16_lanes(s);
    s += __builtin_shufflevector(s, s, 4, 5, 6, 7, 4, 5, 6, 7, 12, 13, 14, 15, 12, 13, 14, 15);
    round_to_fp16_lanes(s);
    s += __builtin_shufflevector(s, s, 2, 3, 2, 3, 6, 7, 6, 7, 10, 11, 10, 11, 14, 15, 14, 15);
    round_to_fp16_lanes(s);
    s += __builtin_shufflevector(s, s, 1, 1, 3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 15, 15);
    round_to_fp16_lanes(s);
}

}  // namespace

std::array<float, 16> DequantUnit::table(Fp16 scale, std::uint8_t zero) noexcept {
    // (code - zero) * scale — a small integer subtract feeding an fp16
    // multiply; the product is exact in float, so it rounds once.
    std::array<float, 16> t;
    const float s = scale.to_float();
    for (int c = 0; c < 16; ++c) t[c] = round_to_fp16(static_cast<float>(c - zero) * s);
    return t;
}

Wave DequantUnit::run(const Word512& word, Fp16 scale, std::uint8_t zero) noexcept {
    const std::array<float, 16> t = table(scale, zero);
    // Wave vector m holds positions 16m + l, i.e. lanes r + 8 * bitrev4(l)
    // with r = bitrev3(m). Dword q of the word holds lanes 8q .. 8q + 7, low
    // nibble first, so reordering the dwords by bitrev4 once puts lane
    // r + 8 * bitrev4(l)'s code in nibble r of dword l, for every m.
    U32x16 d;
    std::memcpy(&d, word.lanes.data(), sizeof d);
    d = __builtin_shufflevector(d, d, 0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15);
    Wave out;
    for (std::size_t m = 0; m < kWaveVectors; ++m) {
        const std::size_t r = wave_lane(m * 16);  // bitrev3(m)
        const U32x16 codes = (d >> (4 * r)) & 0xFu;
#if defined(__AVX512F__)
        out[m] = _mm512_permutexvar_ps(reinterpret_cast<__m512i>(codes), _mm512_loadu_ps(t.data()));
#else
        for (int l = 0; l < 16; ++l) out[m][l] = t[codes[l]];
#endif
    }
    return out;
}

void DequantUnit::run_kv(std::span<const std::uint8_t> codes, quant::KvQuantParams params,
                         std::span<float> out) {
    check(out.size() >= codes.size(), "DequantUnit::run_kv: out too small");
    const float s = params.scale.to_float();
    const int z = params.zero;
    for (std::size_t i = 0; i < codes.size(); ++i) {
        out[i] = round_to_fp16(static_cast<float>(static_cast<int>(codes[i]) - z) * s);
    }
}

float DotEngine::tree_sum(std::span<const float> vals) {
    check(vals.size() <= kVpuLanes, "DotEngine::tree_sum: more than 128 lanes");
    return reduce_tree(vals.data(), vals.size());
}

float DotEngine::dot128(std::span<const float> a, std::span<const float> b) {
    const std::size_t n = std::min(a.size(), b.size());
    check(n <= kVpuLanes, "DotEngine::dot128: more than 128 lanes");
    Lanes prod;
    for (std::size_t i = 0; i < n; ++i) prod[i] = round_to_fp16(a[i] * b[i]);
    return reduce_tree(prod.data(), n);
}

float DotEngine::dot(std::span<const float> a, std::span<const float> b) {
    float acc = 0.0f;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t base = 0; base < n; base += kVpuLanes) {
        const std::size_t len = std::min(kVpuLanes, n - base);
        acc = round_to_fp16(acc + dot128(a.subspan(base, len), b.subspan(base, len)));
    }
    return acc;
}

float DotEngine::wave_dot(const Wave& w, const Wave& x) noexcept {
    F32x16 a, s;
    reduce_to_16(w, x, a);
    finish_pair(a, a, s);
    return s[0];
}

void DotEngine::gemm(std::span<const Word512> stream, std::size_t rows, std::size_t cols,
                     std::size_t nb, std::span<const Fp16> x, std::span<Fp16> y) {
    check(cols % kVpuLanes == 0, "DotEngine::gemm: cols must be a multiple of 128");
    check(nb >= 1, "DotEngine::gemm: no lanes");
    check(x.size() == nb * cols, "DotEngine::gemm: x size mismatch");
    check(y.size() == nb * rows, "DotEngine::gemm: y size mismatch");

    const std::size_t groups_per_row = cols / kVpuLanes;
    const std::size_t waves = nb * groups_per_row;
    if (x_.size() < waves) x_.resize(waves);
    for (std::size_t g = 0; g < waves; ++g) {
        const Fp16* xg = x.data() + g * kVpuLanes;
        for (std::size_t p = 0; p < kVpuLanes; ++p) {
            x_[g][p / 16][p % 16] = xg[wave_lane(p)].to_float();
        }
    }
    acc_.assign(std::max(acc_.size(), nb), 0.0f);

    quant::WeightStreamDecoder dec(rows * groups_per_row);

    std::size_t group_index = 0;
    for (const Word512& word : stream) {
        const auto decoded = dec.consume(word);
        if (!decoded) continue;
        const Wave w = DequantUnit::run(decoded->codes, decoded->scale, decoded->zero);

        // The decoded word feeds every lane: its own multipliers, adder tree
        // and accumulator, in the single-lane order. Lanes go in pairs whose
        // last four tree stages share one vector.
        const Wave* xg = x_.data() + group_index % groups_per_row;
        for (std::size_t b = 0; b < nb; b += 2) {
            F32x16 p0, p1, s;
            reduce_to_16(w, xg[b * groups_per_row], p0);
            if (b + 1 < nb) {
                reduce_to_16(w, xg[(b + 1) * groups_per_row], p1);
            } else {
                p1 = p0;
            }
            finish_pair(p0, p1, s);
            acc_[b] = round_to_fp16(acc_[b] + s[0]);
            if (b + 1 < nb) acc_[b + 1] = round_to_fp16(acc_[b + 1] + s[8]);
        }

        if ((group_index + 1) % groups_per_row == 0) {
            const std::size_t row = group_index / groups_per_row;
            for (std::size_t b = 0; b < nb; ++b) {
                y[b * rows + row] = Fp16::from_float(acc_[b]);
                acc_[b] = 0.0f;
            }
        }
        ++group_index;
    }
    check(group_index == rows * groups_per_row, "DotEngine::gemm: stream too short");
}

std::vector<Fp16> to_fp16(std::span<const float> x) {
    std::vector<Fp16> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = Fp16::from_float(x[i]);
    return out;
}

std::vector<float> to_float(std::span<const Fp16> x) {
    std::vector<float> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i].to_float();
    return out;
}

}  // namespace efld::accel
