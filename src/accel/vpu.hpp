// Vector Processing Unit: on-the-fly dequantization + 128-lane FP16 dot
// engine (Fig. 5B).
//
// The VPU is deliberately a *vector* engine, not a matrix engine: during
// decoding every weight is used exactly once, so compute only needs to keep
// pace with the 512-bit weight stream — 128 dequantized fp16 values per
// clock. It consists of the dequant stage (512b -> 2048b), 128 fp16
// multipliers, a binary adder tree, a scaling multiplier and an accumulator.
//
// Invariant: every value the VPU holds — dequantized weight, activation,
// lane product, adder-tree node, row accumulator — is a float that is
// exactly an fp16 value, and each hardware operation rounds its result once,
// to nearest even, through round_to_fp16. float32 holds the exact product of
// two halves, and rounding a float32 sum of two halves to fp16 equals
// rounding the exact sum, so every operation is a correctly rounded fp16
// operation and results are bit-comparable to an RTL FP16 datapath with the
// same reduction order.
//
// Wave layout. gemm holds each 128-lane wave (one weight group and the
// activations it meets) in 7-bit bit-reversed order: position p holds lane
// wave_lane(p). The adder tree's first stage adds lanes (2i, 2i+1); those sit
// at positions j and j + 64 with i = bitrev6(j), so the stage is "add the two
// contiguous halves", and its 64 outputs are again in bit-reversed order.
// Every stage is therefore a half-against-half vector add: the first three
// add whole 16-lane vectors, the last four add halves of one vector. The
// pairs and the roundings are those of tree_sum, each pair written even lane
// first; only the positions the lanes occupy change. Each vector op rounds
// through round_to_fp16_lanes (accel/fp16_lanes.hpp), which equals
// round_to_fp16 lane by lane, so gemm's bits are the scalar datapath's. gemm
// runs the last four stages of two activation lanes side by side in one
// vector.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/bitpack.hpp"
#include "accel/fp16_lanes.hpp"
#include "common/fp16.hpp"
#include "quant/kvquant.hpp"
#include "quant/weight_format.hpp"

namespace efld::accel {

inline constexpr std::size_t kVpuLanes = 128;

// One wave in wave order: eight 16-lane vectors.
inline constexpr std::size_t kWaveVectors = kVpuLanes / 16;
using Wave = std::array<F32x16, kWaveVectors>;

// The lane at wave position p: p with its 7 bits reversed (an involution, so
// it also gives the position of lane p).
[[nodiscard]] constexpr std::size_t wave_lane(std::size_t p) noexcept {
    std::size_t lane = 0;
    for (int bit = 0; bit < 7; ++bit) lane |= ((p >> bit) & 1u) << (6 - bit);
    return lane;
}

class DequantUnit {
public:
    // A 4-bit code has 16 values, so a group's dequantizer is a 16-entry
    // table: entry c = (c - zero) * scale, rounded once to fp16.
    [[nodiscard]] static std::array<float, 16> table(Fp16 scale,
                                                     std::uint8_t zero) noexcept;

    // 512b weight word (one group's 128 codes) + scale/zero -> 128 fp16
    // lanes (512b -> 2048b), in wave order: position p holds code
    // word.nibble(wave_lane(p)) dequantized.
    [[nodiscard]] static Wave run(const Word512& word, Fp16 scale,
                                  std::uint8_t zero) noexcept;

    // KV8 variant: one lane per 8-bit code, written to out[0, codes.size()).
    static void run_kv(std::span<const std::uint8_t> codes, quant::KvQuantParams params,
                       std::span<float> out);
};

class DotEngine {
public:
    // Binary-tree fp16 reduction (the hardware adder tree) over at most 128
    // lanes. Length need not be a power of two; odd elements pass through a
    // stage unchanged.
    [[nodiscard]] static float tree_sum(std::span<const float> vals);

    // One cycle of the engine: elementwise multiply + tree reduce (<= 128).
    [[nodiscard]] static float dot128(std::span<const float> a, std::span<const float> b);

    // dot128 of two full waves held in wave order: the 128 lane products and
    // the adder tree as vector ops (see the wave layout above). Bit-identical
    // to dot128 over the same lanes in lane order.
    [[nodiscard]] static float wave_dot(const Wave& w, const Wave& x) noexcept;

    // Accumulating dot over arbitrary-length vectors, processed in 128-lane
    // waves exactly as the hardware would.
    [[nodiscard]] static float dot(std::span<const float> a, std::span<const float> b);

    // Batched GEMV over a packed weight stream: y[b][rows] = W x[b] for nb
    // lanes (x is [nb][cols], y is [nb][rows]). Loads x into the activation
    // buffer in wave order and walks the Fig. 4A stream once through a
    // WeightStreamDecoder: each weight word is dequantized once, as it
    // streams past, and feeds every lane's multipliers, adder tree and fp16
    // row accumulator (wave_dot's kernel, two lanes at a time). Each lane's
    // result is bit-identical to a gemv of that lane alone.
    void gemm(std::span<const Word512> stream, std::size_t rows, std::size_t cols,
              std::size_t nb, std::span<const Fp16> x, std::span<Fp16> y);

    // Full GEMV: y[rows] = W x, the one-lane gemm.
    void gemv(std::span<const Word512> stream, std::size_t rows, std::size_t cols,
              std::span<const Fp16> x, std::span<Fp16> y) {
        gemm(stream, rows, cols, 1, x, y);
    }

    // Cycle cost of that GEMV: one group per clock, fully pipelined.
    [[nodiscard]] static std::uint64_t gemv_cycles(std::size_t rows, std::size_t cols) noexcept {
        return rows * (cols / kVpuLanes);
    }

private:
    // On-chip activation buffer ([nb][cols / 128] waves, wave order) and
    // per-lane row accumulators; both grow, never shrink.
    std::vector<Wave> x_;
    std::vector<float> acc_;
};

// Helpers bridging float vectors and fp16 lanes.
[[nodiscard]] std::vector<Fp16> to_fp16(std::span<const float> x);
[[nodiscard]] std::vector<float> to_float(std::span<const Fp16> x);

}  // namespace efld::accel
