#include "quant/groupquant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/threadpool.hpp"

#if defined(__AVX512VL__)
#include <immintrin.h>
#endif

namespace efld::quant {

namespace {

// Stored code bytes for n codes of `bits` each (see QuantizedLinear::codes();
// n is even for bits <= 4, because the group size is).
std::size_t code_bytes(std::size_t n, unsigned bits) noexcept {
    return bits <= 4 ? n / 2 : n;
}

// Nibble codes pack a group into whole bytes, so its size must be even.
void check_group_packs(const GroupQuantConfig& cfg, const char* what) {
    check(cfg.bits > 4 || cfg.group_size % 2 == 0, what);
}

// Fixed combine order of the partial lanes (the adder-tree reduction of the
// GEMV accumulation contract). Every GEMV variant must use exactly this.
template <class Lanes8>
inline float lane_tree_sum(const Lanes8& p) noexcept {
    return ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
}

// The kGemvLanes partial sums of one (row, column) live in one 8-float vector
// (GCC/Clang vector extensions, which the build requires): each SIMD lane IS
// a contract lane, and every lane performs the same correctly-rounded
// convert/mul/add sequence as the scalar code, so results stay bit-for-bit
// identical to the oracle (FMA contraction is disabled project-wide).
typedef float Lanes __attribute__((vector_size(kGemvLanes * sizeof(float))));
typedef std::int32_t LanesI __attribute__((vector_size(kGemvLanes * sizeof(std::int32_t))));
typedef std::uint32_t LanesU __attribute__((vector_size(kGemvLanes * sizeof(std::uint32_t))));

// lane_tree_sum of one vector, in registers: each stage adds lane pairs in
// the contract's operand order, so lane 0 ends as the scalar tree's sum.
// Takes a reference so no vector crosses a call boundary by value (that
// changes the psABI on targets without AVX).
inline float lane_tree_sum(const Lanes& v) noexcept {
    Lanes p = v + __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
    p = p + __builtin_shufflevector(p, p, 2, 3, 0, 1, 6, 7, 4, 5);
    p = p + __builtin_shufflevector(p, p, 4, 5, 6, 7, 0, 1, 2, 3);
    return p[0];
}

inline Lanes load_lanes(const float* p) noexcept {
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

// Code loaders: the codes of one (row, group) as the tile reads them. load(i)
// is float(code - z) of the group's elements i .. i + kGemvLanes - 1 (i a
// multiple of kGemvLanes), one per lane; at(i) is element i's alone, for the
// group tail.

// One byte per code (bits > 4).
struct ByteGroup {
    const std::uint8_t* p = nullptr;  // the group's first code
    int z = 0;

    ByteGroup() = default;
    ByteGroup(const std::uint8_t* codes, std::size_t e, int zero) noexcept
        : p(codes + e), z(zero) {}
    [[nodiscard]] Lanes load(std::size_t i) const noexcept {
        const std::uint8_t* b = p + i;
        const LanesI ci = {b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]};
        return __builtin_convertvector(ci - z, Lanes);
    }
    [[nodiscard]] float at(std::size_t i) const noexcept {
        return static_cast<float>(p[i] - z);
    }
};

// Two codes per byte (bits <= 4); the group starts on a byte.
struct NibbleGroup {
    const std::uint8_t* p = nullptr;  // the byte holding the group's first code
    int z = 0;
#if defined(__AVX512VL__)
    Lanes lo{}, hi{};  // float(c - z) for c = 0..7 and c = 8..15
#endif

    NibbleGroup() = default;
    NibbleGroup(const std::uint8_t* codes, std::size_t e, int zero) noexcept
        : p(codes + e / 2), z(zero) {
#if defined(__AVX512VL__)
        const LanesI c = {0, 1, 2, 3, 4, 5, 6, 7};
        lo = __builtin_convertvector(c - z, Lanes);
        hi = __builtin_convertvector(c + (8 - z), Lanes);
#endif
    }
    [[nodiscard]] Lanes load(std::size_t i) const noexcept {
        // Elements i .. i + 7 as one 32-bit word, element i + l in bits 4l: a
        // dword of the group's Fig. 4A weight word.
        const std::uint8_t* b = p + i / 2;
        const std::uint32_t w = b[0] | std::uint32_t{b[1]} << 8 | std::uint32_t{b[2]} << 16 |
                                std::uint32_t{b[3]} << 24;
        const LanesU shift = {0, 4, 8, 12, 16, 20, 24, 28};
        const LanesU n = (LanesU{} + w) >> shift;
#if defined(__AVX512VL__)
        // vpermt2ps reads only each index's low 4 bits, so no mask: lane l
        // picks table entry code_l from lo (codes 0..7) or hi (8..15).
        return _mm256_permutex2var_ps(lo, reinterpret_cast<__m256i>(n), hi);
#else
        return __builtin_convertvector(__builtin_convertvector(n & 0xFu, LanesI) - z, Lanes);
#endif
    }
    [[nodiscard]] float at(std::size_t i) const noexcept {
        return static_cast<float>(((p[i / 2] >> (4 * (i % 2))) & 0xF) - z);
    }
};

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
template <std::size_t R, std::size_t NB, class Group>
void tile(const TileArgs& t, std::size_t r0) {
    const std::size_t gpr = t.cols / t.gs;
    float acc[R][NB] = {};
    for (std::size_t g = 0; g < gpr; ++g) {
        const std::size_t c0 = g * t.gs;
        Group w[R];
        for (std::size_t r = 0; r < R; ++r) {
            w[r] = Group(t.codes, (r0 + r) * t.cols + c0, t.zeros[(r0 + r) * gpr + g]);
        }
        Lanes p[R][NB] = {};
        std::size_t i = 0;
        for (; i + kGemvLanes <= t.gs; i += kGemvLanes) {
            Lanes xv[NB];
            for (std::size_t b = 0; b < NB; ++b) xv[b] = load_lanes(t.x + b * t.cols + c0 + i);
            for (std::size_t r = 0; r < R; ++r) {
                const Lanes d = w[r].load(i);
                for (std::size_t b = 0; b < NB; ++b) p[r][b] += d * xv[b];
            }
        }
        // Group tail (group_size % kGemvLanes != 0): the vector loop stopped
        // on a lane boundary, so element i + l lands on lane l.
        for (std::size_t l = 0; l < kGemvLanes && i + l < t.gs; ++l) {
            for (std::size_t r = 0; r < R; ++r) {
                const float d = w[r].at(i + l);
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
template <std::size_t NB, class Group>
void tile_rows(const TileArgs& t, std::size_t row_begin, std::size_t row_end) {
    constexpr std::size_t R = NB == 1 ? 4 : NB == 2 ? 2 : 1;
    std::size_t r = row_begin;
    for (; r + R <= row_end; r += R) tile<R, NB, Group>(t, r);
    for (; r < row_end; ++r) tile<1, NB, Group>(t, r);
}

// Every gemm: batch columns in tiles of kGemmBatchTile, rows partitioned
// across `pool` when one is given.
template <class Group>
void gemm_tiles(const QuantizedLinear& q, const float* x, std::size_t batch, float* y,
                ThreadPool* pool) {
    const auto walk = [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t bt = 0; bt < batch; bt += kGemmBatchTile) {
            const TileArgs t{q.codes().data(), q.scales().data(), q.zeros().data(), q.rows(),
                             q.cols(), q.config().group_size, x + bt * q.cols(),
                             y + bt * q.rows()};
            switch (std::min(kGemmBatchTile, batch - bt)) {
                case 1: tile_rows<1, Group>(t, row_begin, row_end); break;
                case 2: tile_rows<2, Group>(t, row_begin, row_end); break;
                case 3: tile_rows<3, Group>(t, row_begin, row_end); break;
                case 4: tile_rows<4, Group>(t, row_begin, row_end); break;
                case 5: tile_rows<5, Group>(t, row_begin, row_end); break;
                case 6: tile_rows<6, Group>(t, row_begin, row_end); break;
                case 7: tile_rows<7, Group>(t, row_begin, row_end); break;
                default: tile_rows<8, Group>(t, row_begin, row_end); break;
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
    check_group_packs(cfg, "QuantizedLinear: group_size must be even for bits <= 4");

    QuantizedLinear q;
    q.cfg_ = cfg;
    q.rows_ = rows;
    q.cols_ = cols;
    q.codes_.assign(code_bytes(rows * cols, cfg.bits), 0);
    const std::size_t groups = q.num_groups();
    q.scales_.resize(groups);
    q.zeros_.resize(groups);

    const float qmaxf = static_cast<float>(cfg.qmax());
    const int qmax = cfg.qmax();
    const bool nibbles = cfg.bits <= 4;
    std::uint8_t* const out = q.codes_.data();
    std::uint8_t pending = 0;  // an even element's nibble, until its odd partner
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
        const std::uint8_t zp = static_cast<std::uint8_t>(
            std::clamp(static_cast<int>(std::lround(-lo / scale_q)), 0, qmax));

        q.scales_[g] = scale_h;
        q.zeros_[g] = zp;
        for (std::size_t i = 0; i < cfg.group_size; ++i) {
            const int code = static_cast<int>(std::lround(weights[base + i] / scale_q)) + zp;
            const auto c = static_cast<std::uint8_t>(std::clamp(code, 0, qmax));
            const std::size_t e = base + i;
            if (!nibbles) {
                out[e] = c;
            } else if (e % 2 == 0) {
                pending = c;
            } else {
                out[e / 2] = static_cast<std::uint8_t>(pending | c << 4);
            }
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
        out[i] = static_cast<float>(code(base + i) - z) * s;
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
                p[i % kGemvLanes] += static_cast<float>(code(base + i) - z) * x[xbase + i];
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
    if (cfg_.bits > 4) {
        gemm_tiles<ByteGroup>(*this, x.data(), batch, y.data(), pool);
    } else {
        gemm_tiles<NibbleGroup>(*this, x.data(), batch, y.data(), pool);
    }
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
    check_group_packs(cfg, "from_parts: group_size must be even for bits <= 4");
    const std::size_t groups = rows * (cols / cfg.group_size);
    check(scales.size() == groups, "from_parts: scales size mismatch");
    check(zeros.size() == groups, "from_parts: zeros size mismatch");
    check(std::all_of(codes.begin(), codes.end(), [&](std::uint8_t c) { return c <= cfg.qmax(); }),
          "from_parts: code above qmax");
    QuantizedLinear q;
    q.cfg_ = cfg;
    q.rows_ = rows;
    q.cols_ = cols;
    if (cfg.bits <= 4) {
        q.codes_.assign(code_bytes(codes.size(), cfg.bits), 0);
        for (std::size_t e = 0; e < codes.size(); ++e) {
            q.codes_[e / 2] |= static_cast<std::uint8_t>(codes[e] << (4 * (e % 2)));
        }
    } else {
        q.codes_ = std::move(codes);
    }
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
