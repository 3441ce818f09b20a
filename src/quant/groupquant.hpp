// W4A16 group quantization (AWQ-style storage layout).
//
// Weights are quantized per group of `group_size` consecutive input-channel
// elements within one output row: 4-bit codes, one fp16 scale and one 4-bit
// zero point per group. Activations stay fp16 — the VPU dequantizes on the
// fly (512b of codes -> 128 fp16 values) and multiplies in floating point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fp16.hpp"

namespace efld {
class ThreadPool;
}

namespace efld::quant {

struct GroupQuantConfig {
    std::size_t group_size = 128;  // weights per scale/zero group (even for bits <= 4)
    unsigned bits = 4;             // code width

    [[nodiscard]] std::uint8_t qmax() const noexcept {
        return static_cast<std::uint8_t>((1u << bits) - 1u);
    }
};

// GEMV accumulation contract ------------------------------------------------
//
// Every GEMV/GEMM in QuantizedLinear — the readable oracle and the fast path
// at any batch and any thread pool — performs the exact same float
// operations in the same order, so their outputs are bit-for-bit identical:
//
//   per row r and activation column b (each pair is independent; threading
//   partitions rows):
//     acc = 0
//     per group g in row order:
//       kGemvLanes partial sums; element i of the group contributes
//         float(code_i - zero) * x_i   to partial[i mod kGemvLanes]
//       group_dot = ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7))
//       acc += scale_g * group_dot
//     y[r] = acc
//
// The fast path may produce float(code_i - zero) any exact way (with
// AVX-512VL it looks the value up in a 16-entry table per group) and may form
// group_dot with in-register lane shuffles, as long as every add keeps the
// operands and order written above.
//
// The per-group form mirrors the VPU datapath: centered integer codes
// accumulated against activations with a single scale multiply per group and
// no materialized fp weights. The independent partial lanes are the adder-tree
// analogue — they break the sequential float-add dependence so the fast path
// is throughput-bound, not add-latency-bound.
inline constexpr std::size_t kGemvLanes = 8;

// One kernel runs every fast path: an R x NB register tile of R rows against
// NB activation columns (NB = 1..kGemmBatchTile; R = 4 at NB = 1, 2 at NB = 2,
// 1 above). Each group's codes are decoded once per row and feed all NB
// columns, so a batch walks the weights once per kGemmBatchTile columns — the
// host-side mirror of the paper's bandwidth argument (decode is weight-bound,
// so the only way past the single-stream roofline is to amortize one weight
// walk across more activations). At batch 1 the R rows' partial-lane chains
// are independent and overlap, which is what keeps a single-stream walk off
// the float-add latency. gemv is gemm at batch 1. The tile reads the codes
// 8 lanes at a time (a group tail that is not a multiple of kGemvLanes runs
// lane by lane); each group's fp16 scale is decoded inline. Nibble codes
// (bits <= 4) are read one 32-bit word of 8 codes per step: each lane shifts
// out its own nibble and, with AVX-512VL, picks float(code - zero) from a
// per-(row, group) 16-entry table (the exact values the contract computes);
// every other target subtracts and converts per lane.
inline constexpr std::size_t kGemmBatchTile = 8;

// A quantized linear layer y = W x, W of shape [rows, cols] (out, in).
// Codes of bits <= 4 are stored two per byte in row-major element order,
// element e in bits 4 * (e % 2) of byte e / 2; their group size must be even,
// so every group starts on a byte and a 128-weight group is byte for byte its
// Fig. 4A weight word (weight_format.hpp): the host walks the same half byte
// per weight the bus moves. Wider codes (bits > 4) are stored one byte per
// weight.
class QuantizedLinear {
public:
    QuantizedLinear() = default;

    // Quantizes a row-major float matrix.
    [[nodiscard]] static QuantizedLinear quantize(std::span<const float> weights,
                                                  std::size_t rows, std::size_t cols,
                                                  const GroupQuantConfig& cfg);

    // Full dequantization to float (golden reference).
    [[nodiscard]] std::vector<float> dequantize() const;

    // Dequantizes a single group (group_size weights) into `out`.
    void dequantize_group(std::size_t group_index, std::span<float> out) const;

    // Reference GEMV (the parity oracle): the contract above written as the
    // simplest possible loop. The span overload is allocation-free; the
    // vector form is kept for existing call sites.
    [[nodiscard]] std::vector<float> gemv_reference(std::span<const float> x) const;
    void gemv_reference(std::span<const float> x, std::span<float> y) const;

    // Fused fast path: dequantize×dot directly over the stored codes, no
    // scratch vectors, no allocation — gemm at batch 1. Rows are partitioned
    // across `pool` when one is given (results are identical for any pool
    // size).
    void gemv(std::span<const float> x, std::span<float> y,
              ThreadPool* pool = nullptr) const;

    // Skinny GEMM: Y = W X for a block of `batch` activation vectors.
    // X is [batch][cols] row-major (each session's activation contiguous),
    // Y is [batch][rows] row-major. Bit-for-bit identical to `batch`
    // independent gemv calls, but the weight stream is decoded once per
    // kGemmBatchTile columns instead of once per column. Rows are
    // partitioned across `pool` when one is given.
    void gemm(std::span<const float> x, std::size_t batch, std::span<float> y,
              ThreadPool* pool = nullptr) const;

    // The parity oracle for gemm: literally `batch` gemv_reference calls.
    void gemm_reference(std::span<const float> x, std::size_t batch,
                        std::span<float> y) const;

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t groups_per_row() const noexcept { return cols_ / cfg_.group_size; }
    [[nodiscard]] std::size_t num_groups() const noexcept { return rows_ * groups_per_row(); }
    [[nodiscard]] const GroupQuantConfig& config() const noexcept { return cfg_; }

    // The stored code bytes: two codes per byte for bits <= 4, else one.
    [[nodiscard]] std::span<const std::uint8_t> codes() const noexcept { return codes_; }
    // The code of element i (row-major, i < rows * cols).
    [[nodiscard]] std::uint8_t code(std::size_t i) const noexcept {
        return cfg_.bits <= 4 ? static_cast<std::uint8_t>((codes_[i / 2] >> (4 * (i % 2))) & 0xFu)
                              : codes_[i];
    }
    [[nodiscard]] std::span<const Fp16> scales() const noexcept { return scales_; }
    [[nodiscard]] std::span<const std::uint8_t> zeros() const noexcept { return zeros_; }

    [[nodiscard]] Fp16 scale(std::size_t group) const { return scales_[group]; }
    [[nodiscard]] std::uint8_t zero(std::size_t group) const { return zeros_[group]; }

    // Memory footprint of the packed representation (codes at `bits` each,
    // fp16 scales, zero points packed at `bits` each) — the capacity model's
    // input.
    [[nodiscard]] std::uint64_t packed_bytes() const noexcept;

    // Construction from raw parts (used by the format decoder and tests):
    // one byte per code, rows * cols of them, each at most qmax.
    [[nodiscard]] static QuantizedLinear from_parts(std::vector<std::uint8_t> codes,
                                                    std::vector<Fp16> scales,
                                                    std::vector<std::uint8_t> zeros,
                                                    std::size_t rows, std::size_t cols,
                                                    const GroupQuantConfig& cfg);

private:
    GroupQuantConfig cfg_;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::uint8_t> codes_;  // see codes(); values in [0, qmax]
    std::vector<Fp16> scales_;         // one per group
    std::vector<std::uint8_t> zeros_;  // one per group, values in [0, qmax]
};

// Quantization error metrics for tests and the AWQ search.
struct QuantError {
    double mse = 0.0;
    double max_abs = 0.0;
};

[[nodiscard]] QuantError quant_error(std::span<const float> original,
                                     std::span<const float> reconstructed);

}  // namespace efld::quant
