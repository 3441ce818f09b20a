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
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/bitpack.hpp"
#include "common/fp16.hpp"
#include "quant/kvquant.hpp"
#include "quant/weight_format.hpp"

namespace efld::accel {

inline constexpr std::size_t kVpuLanes = 128;

// One wave of fp16 lanes, held as exact floats.
using Lanes = std::array<float, kVpuLanes>;

class DequantUnit {
public:
    // A 4-bit code has 16 values, so a group's dequantizer is a 16-entry
    // table: entry c = (c - zero) * scale, rounded once to fp16.
    [[nodiscard]] static std::array<float, 16> table(Fp16 scale,
                                                     std::uint8_t zero) noexcept;

    // 512b weight word (one group's 128 codes) + scale/zero -> 128 fp16
    // lanes (512b -> 2048b).
    [[nodiscard]] static Lanes run(const Word512& word, Fp16 scale,
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

    // Accumulating dot over arbitrary-length vectors, processed in 128-lane
    // waves exactly as the hardware would.
    [[nodiscard]] static float dot(std::span<const float> a, std::span<const float> b);

    // Batched GEMV over a packed weight stream: y[b][rows] = W x[b] for nb
    // lanes (x is [nb][cols], y is [nb][rows]). Loads x into the activation
    // buffer and walks the Fig. 4A stream once through a WeightStreamDecoder:
    // each weight word is dequantized once, as it streams past, and feeds
    // every lane's multipliers, adder tree and fp16 row accumulator. Each
    // lane's result is bit-identical to a gemv of that lane alone.
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
    // On-chip activation buffer ([nb][cols]) and per-lane row accumulators;
    // both grow, never shrink.
    std::vector<float> x_, acc_;
};

// Helpers bridging float vectors and fp16 lanes.
[[nodiscard]] std::vector<Fp16> to_fp16(std::span<const float> x);
[[nodiscard]] std::vector<float> to_float(std::span<const Fp16> x);

}  // namespace efld::accel
