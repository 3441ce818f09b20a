#include "accel/vpu.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace efld::accel {

namespace {

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

}  // namespace

std::array<float, 16> DequantUnit::table(Fp16 scale, std::uint8_t zero) noexcept {
    // (code - zero) * scale — a small integer subtract feeding an fp16
    // multiply; the product is exact in float, so it rounds once.
    std::array<float, 16> t;
    const float s = scale.to_float();
    for (int c = 0; c < 16; ++c) t[c] = round_to_fp16(static_cast<float>(c - zero) * s);
    return t;
}

Lanes DequantUnit::run(const Word512& word, Fp16 scale, std::uint8_t zero) noexcept {
    const std::array<float, 16> t = table(scale, zero);
    Lanes out;
    // Code n is Word512::nibble(n): each 64-bit lane holds 16, low nibble
    // first. Shifting the lane keeps the lookups scalar loads (a vectorized
    // gather is several times slower on common x86 parts).
    for (std::size_t k = 0; k < word.lanes.size(); ++k) {
        std::uint64_t bits = word.lanes[k];
        for (std::size_t j = 0; j < 16; ++j, bits >>= 4) out[16 * k + j] = t[bits & 0xFu];
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

void DotEngine::gemm(std::span<const Word512> stream, std::size_t rows, std::size_t cols,
                     std::size_t nb, std::span<const Fp16> x, std::span<Fp16> y) {
    check(cols % kVpuLanes == 0, "DotEngine::gemm: cols must be a multiple of 128");
    check(nb >= 1, "DotEngine::gemm: no lanes");
    check(x.size() == nb * cols, "DotEngine::gemm: x size mismatch");
    check(y.size() == nb * rows, "DotEngine::gemm: y size mismatch");

    if (x_.size() < nb * cols) x_.resize(nb * cols);
    for (std::size_t i = 0; i < nb * cols; ++i) x_[i] = x[i].to_float();
    acc_.assign(std::max(acc_.size(), nb), 0.0f);

    const std::size_t groups_per_row = cols / kVpuLanes;
    quant::WeightStreamDecoder dec(rows * groups_per_row);

    std::size_t group_index = 0;
    Lanes prod;
    for (const Word512& word : stream) {
        const auto decoded = dec.consume(word);
        if (!decoded) continue;
        const Lanes w = DequantUnit::run(decoded->codes, decoded->scale, decoded->zero);

        // The decoded word feeds every lane: its own multipliers, adder tree
        // and accumulator, in the single-lane order.
        const float* xg = x_.data() + (group_index % groups_per_row) * kVpuLanes;
        for (std::size_t b = 0; b < nb; ++b, xg += cols) {
            for (std::size_t i = 0; i < kVpuLanes; ++i) prod[i] = round_to_fp16(w[i] * xg[i]);
            acc_[b] = round_to_fp16(acc_[b] + reduce_tree(prod.data(), kVpuLanes));
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
