#include "quant/groupquant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/threadpool.hpp"

namespace efld::quant {

namespace {

// Fixed combine order of the partial lanes (the adder-tree reduction of the
// GEMV accumulation contract). Every GEMV variant must use exactly this.
template <class Lanes8>
inline float lane_tree_sum(const Lanes8& p) noexcept {
    return ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
}

// The kGemvLanes partial sums of one (row, column) live in one 8-float vector
// where the compiler supports it: each SIMD lane IS a contract lane, and every
// lane performs the same correctly-rounded convert/mul/add sequence as the
// scalar code, so results stay bit-for-bit identical to the oracle (FMA
// contraction is disabled project-wide). Elsewhere Lanes is a plain struct
// doing the same per-lane operations one lane at a time.
#if defined(__GNUC__) || defined(__clang__)
#define EFLD_GEMV_VECTOR 1
typedef float Lanes __attribute__((vector_size(kGemvLanes * sizeof(float))));
typedef std::int32_t LanesI __attribute__((vector_size(kGemvLanes * sizeof(std::int32_t))));
#else
struct Lanes {
    float v[kGemvLanes] = {};
    float& operator[](std::size_t l) noexcept { return v[l]; }
    float operator[](std::size_t l) const noexcept { return v[l]; }
    Lanes& operator+=(const Lanes& o) noexcept {
        for (std::size_t l = 0; l < kGemvLanes; ++l) v[l] += o.v[l];
        return *this;
    }
    friend Lanes operator*(const Lanes& a, const Lanes& b) noexcept {
        Lanes r;
        for (std::size_t l = 0; l < kGemvLanes; ++l) r.v[l] = a.v[l] * b.v[l];
        return r;
    }
};
#endif

inline Lanes load_lanes(const float* p) noexcept {
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

// float(code - z) of the kGemvLanes byte codes from b on, one per lane.
inline Lanes centered_codes(const std::uint8_t* b, int z) noexcept {
#if EFLD_GEMV_VECTOR
    const LanesI ci = {b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]};
    return __builtin_convertvector(ci - z, Lanes);
#else
    Lanes d;
    for (std::size_t l = 0; l < kGemvLanes; ++l) d[l] = static_cast<float>(b[l] - z);
    return d;
#endif
}

// One gemm call as the tile sees it: weights, shapes, and the current column
// tile (column b of x at x + b * cols, its outputs at y + b * rows).
struct TileArgs {
    const std::uint8_t* codes;
    const Fp16* scales;
    const std::uint8_t* zeros;
    std::size_t rows, cols, gs;
    const float* x;
    float* y;
};

// The R x NB register tile: rows [r0, r0 + R) against NB activation columns.
// One code decode feeds all NB columns, and the R * NB partial-lane vectors
// are independent add chains, so their latencies overlap. Every (row,
// column) still runs the contract recipe on its own accumulators.
template <std::size_t R, std::size_t NB>
void tile(const TileArgs& t, std::size_t r0) {
    const std::size_t gpr = t.cols / t.gs;
    float acc[R][NB] = {};
    for (std::size_t g = 0; g < gpr; ++g) {
        const std::size_t c0 = g * t.gs;
        const std::uint8_t* row[R] = {};
        int z[R] = {};
        for (std::size_t r = 0; r < R; ++r) {
            row[r] = t.codes + (r0 + r) * t.cols + c0;
            z[r] = t.zeros[(r0 + r) * gpr + g];
        }
        Lanes p[R][NB] = {};
        std::size_t i = 0;
        for (; i + kGemvLanes <= t.gs; i += kGemvLanes) {
            Lanes xv[NB];
            for (std::size_t b = 0; b < NB; ++b) xv[b] = load_lanes(t.x + b * t.cols + c0 + i);
            for (std::size_t r = 0; r < R; ++r) {
                const Lanes d = centered_codes(row[r] + i, z[r]);
                for (std::size_t b = 0; b < NB; ++b) p[r][b] += d * xv[b];
            }
        }
        // Group tail (group_size % kGemvLanes != 0): the vector loop stopped
        // on a lane boundary, so element i + l lands on lane l.
        for (std::size_t l = 0; l < kGemvLanes && i + l < t.gs; ++l) {
            for (std::size_t r = 0; r < R; ++r) {
                const float d = static_cast<float>(row[r][i + l] - z[r]);
                for (std::size_t b = 0; b < NB; ++b) {
                    p[r][b][l] += d * t.x[b * t.cols + c0 + i + l];
                }
            }
        }
        for (std::size_t r = 0; r < R; ++r) {
            const float s = t.scales[(r0 + r) * gpr + g].to_float();
            for (std::size_t b = 0; b < NB; ++b) acc[r][b] += s * lane_tree_sum(p[r][b]);
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t b = 0; b < NB; ++b) t.y[b * t.rows + r0 + r] = acc[r][b];
    }
}

// Rows [row_begin, row_end) at NB columns: R-row blocks, then single rows.
// Fewer columns leave registers for more rows.
template <std::size_t NB>
void tile_rows(const TileArgs& t, std::size_t row_begin, std::size_t row_end) {
    constexpr std::size_t R = NB == 1 ? 4 : NB == 2 ? 2 : 1;
    std::size_t r = row_begin;
    for (; r + R <= row_end; r += R) tile<R, NB>(t, r);
    for (; r < row_end; ++r) tile<1, NB>(t, r);
}

// Every gemm: batch columns in tiles of kGemmBatchTile, rows partitioned
// across `pool` when one is given.
void gemm_tiles(const QuantizedLinear& q, const float* x, std::size_t batch, float* y,
                ThreadPool* pool) {
    const auto walk = [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t bt = 0; bt < batch; bt += kGemmBatchTile) {
            const TileArgs t{q.codes().data(), q.scales().data(), q.zeros().data(), q.rows(),
                             q.cols(), q.config().group_size, x + bt * q.cols(),
                             y + bt * q.rows()};
            switch (std::min(kGemmBatchTile, batch - bt)) {
                case 1: tile_rows<1>(t, row_begin, row_end); break;
                case 2: tile_rows<2>(t, row_begin, row_end); break;
                case 3: tile_rows<3>(t, row_begin, row_end); break;
                case 4: tile_rows<4>(t, row_begin, row_end); break;
                case 5: tile_rows<5>(t, row_begin, row_end); break;
                case 6: tile_rows<6>(t, row_begin, row_end); break;
                case 7: tile_rows<7>(t, row_begin, row_end); break;
                default: tile_rows<8>(t, row_begin, row_end); break;
            }
        }
    };
    if (pool != nullptr && pool->size() > 1 && q.rows() > 1) {
        pool->parallel_for(q.rows(), walk);
    } else {
        walk(0, q.rows());
    }
}

}  // namespace

QuantizedLinear QuantizedLinear::quantize(std::span<const float> weights,
                                          std::size_t rows, std::size_t cols,
                                          const GroupQuantConfig& cfg) {
    check(rows > 0 && cols > 0, "QuantizedLinear: empty matrix");
    check(weights.size() == rows * cols, "QuantizedLinear: size mismatch");
    check(cfg.group_size > 0 && cols % cfg.group_size == 0,
          "QuantizedLinear: cols must be a multiple of group_size");
    check(cfg.bits >= 2 && cfg.bits <= 8, "QuantizedLinear: bits out of range");

    QuantizedLinear q;
    q.cfg_ = cfg;
    q.rows_ = rows;
    q.cols_ = cols;
    q.codes_.resize(rows * cols);
    const std::size_t groups = q.num_groups();
    q.scales_.resize(groups);
    q.zeros_.resize(groups);

    const float qmaxf = static_cast<float>(cfg.qmax());
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = g * cfg.group_size;
        float lo = weights[base];
        float hi = weights[base];
        for (std::size_t i = 1; i < cfg.group_size; ++i) {
            lo = std::min(lo, weights[base + i]);
            hi = std::max(hi, weights[base + i]);
        }
        // Asymmetric min/max quantization; zero point must itself be a code.
        lo = std::min(lo, 0.0f);
        hi = std::max(hi, 0.0f);
        float scale = (hi - lo) / qmaxf;
        if (scale <= 0.0f) scale = 1.0f;
        // The hardware stores the scale as fp16; quantize codes against the
        // *stored* scale so dequantization is exact w.r.t. the codes.
        const Fp16 scale_h = Fp16::from_float(scale);
        const float scale_q = scale_h.to_float();
        const std::uint8_t zp = static_cast<std::uint8_t>(std::clamp(
            static_cast<int>(std::lround(-lo / scale_q)), 0, static_cast<int>(cfg.qmax())));

        q.scales_[g] = scale_h;
        q.zeros_[g] = zp;
        for (std::size_t i = 0; i < cfg.group_size; ++i) {
            const int code = static_cast<int>(std::lround(weights[base + i] / scale_q)) + zp;
            q.codes_[base + i] = static_cast<std::uint8_t>(
                std::clamp(code, 0, static_cast<int>(cfg.qmax())));
        }
    }
    return q;
}

std::vector<float> QuantizedLinear::dequantize() const {
    std::vector<float> out(rows_ * cols_);
    const std::size_t groups = num_groups();
    for (std::size_t g = 0; g < groups; ++g) {
        dequantize_group(g, std::span<float>(out).subspan(g * cfg_.group_size, cfg_.group_size));
    }
    return out;
}

void QuantizedLinear::dequantize_group(std::size_t group_index, std::span<float> out) const {
    check(group_index < num_groups(), "dequantize_group: group out of range");
    check(out.size() == cfg_.group_size, "dequantize_group: bad output span");
    const float s = scales_[group_index].to_float();
    const int z = zeros_[group_index];
    const std::size_t base = group_index * cfg_.group_size;
    for (std::size_t i = 0; i < cfg_.group_size; ++i) {
        out[i] = static_cast<float>(static_cast<int>(codes_[base + i]) - z) * s;
    }
}

void QuantizedLinear::gemv_reference(std::span<const float> x, std::span<float> y) const {
    check(x.size() == cols_, "gemv_reference: input size mismatch");
    check(y.size() == rows_, "gemv_reference: output size mismatch");
    const std::size_t gs = cfg_.group_size;
    const std::size_t gpr = groups_per_row();
    for (std::size_t r = 0; r < rows_; ++r) {
        float acc = 0.0f;
        for (std::size_t g = 0; g < gpr; ++g) {
            const std::size_t gi = r * gpr + g;
            const float s = scales_[gi].to_float();
            const int z = zeros_[gi];
            const std::size_t base = gi * gs;
            const std::size_t xbase = g * gs;
            float p[kGemvLanes] = {};
            for (std::size_t i = 0; i < gs; ++i) {
                p[i % kGemvLanes] +=
                    static_cast<float>(static_cast<int>(codes_[base + i]) - z) *
                    x[xbase + i];
            }
            acc += s * lane_tree_sum(p);
        }
        y[r] = acc;
    }
}

std::vector<float> QuantizedLinear::gemv_reference(std::span<const float> x) const {
    std::vector<float> y(rows_);
    gemv_reference(x, y);
    return y;
}

void QuantizedLinear::gemv(std::span<const float> x, std::span<float> y,
                           ThreadPool* pool) const {
    gemm(x, 1, y, pool);
}

void QuantizedLinear::gemm_reference(std::span<const float> x, std::size_t batch,
                                     std::span<float> y) const {
    check(batch > 0, "gemm_reference: empty batch");
    check(x.size() == batch * cols_, "gemm_reference: input size mismatch");
    check(y.size() == batch * rows_, "gemm_reference: output size mismatch");
    for (std::size_t b = 0; b < batch; ++b) {
        gemv_reference(x.subspan(b * cols_, cols_), y.subspan(b * rows_, rows_));
    }
}

void QuantizedLinear::gemm(std::span<const float> x, std::size_t batch,
                           std::span<float> y, ThreadPool* pool) const {
    check(batch > 0, "gemm: empty batch");
    check(x.size() == batch * cols_, "gemm: input size mismatch");
    check(y.size() == batch * rows_, "gemm: output size mismatch");
    gemm_tiles(*this, x.data(), batch, y.data(), pool);
}

std::uint64_t QuantizedLinear::packed_bytes() const noexcept {
    const std::uint64_t code_bits =
        static_cast<std::uint64_t>(rows_) * cols_ * cfg_.bits;
    const std::uint64_t scale_bits = static_cast<std::uint64_t>(num_groups()) * 16;
    const std::uint64_t zero_bits = static_cast<std::uint64_t>(num_groups()) * cfg_.bits;
    return (code_bits + scale_bits + zero_bits) / 8;
}

QuantizedLinear QuantizedLinear::from_parts(std::vector<std::uint8_t> codes,
                                            std::vector<Fp16> scales,
                                            std::vector<std::uint8_t> zeros,
                                            std::size_t rows, std::size_t cols,
                                            const GroupQuantConfig& cfg) {
    check(codes.size() == rows * cols, "from_parts: codes size mismatch");
    check(cols % cfg.group_size == 0, "from_parts: cols not group aligned");
    const std::size_t groups = rows * (cols / cfg.group_size);
    check(scales.size() == groups, "from_parts: scales size mismatch");
    check(zeros.size() == groups, "from_parts: zeros size mismatch");
    QuantizedLinear q;
    q.cfg_ = cfg;
    q.rows_ = rows;
    q.cols_ = cols;
    q.codes_ = std::move(codes);
    q.scales_ = std::move(scales);
    q.zeros_ = std::move(zeros);
    return q;
}

QuantError quant_error(std::span<const float> original,
                       std::span<const float> reconstructed) {
    QuantError e;
    for (std::size_t i = 0; i < original.size(); ++i) {
        const double d = static_cast<double>(original[i]) - static_cast<double>(reconstructed[i]);
        e.mse += d * d;
        e.max_abs = std::max(e.max_abs, std::abs(d));
    }
    if (!original.empty()) e.mse /= static_cast<double>(original.size());
    return e;
}

}  // namespace efld::quant
