// Float32 reference kernels for every operation the SPU implements.
//
// These are the golden functions the hardware submodules (accel/spu_*.cpp)
// are validated against: RMSNorm, rotary position embedding (rotate-half
// convention, as in LLaMA), numerically stable softmax, SiLU, and attention.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/mathutil.hpp"

namespace efld::model {

// RMSNorm: out_i = x_i / rms(x) * weight_i,  rms = sqrt(mean(x^2) + eps).
void rmsnorm(std::span<const float> x, std::span<const float> weight, float eps,
             std::span<float> out);

// Rotary position embedding over one head vector (rotate-half pairing):
// for i in [0, d/2): (x_i, x_{i+d/2}) rotated by theta_i = pos * base^(-2i/d).
// Frequencies are generated incrementally (freq_{i+1} = freq_i * base^(-2/d),
// one pow per call instead of one per element); rope_angles below shares the
// same recurrence so a cached table is bit-for-bit identical to this kernel.
void rope_rotate(std::span<float> head_vec, std::size_t pos, float theta_base);

// Writes cos/sin of pos * base^(-2i/d) for i in [0, d/2) — one table row.
void rope_angles(std::size_t head_dim, std::size_t pos, float theta_base,
                 std::span<float> cos_out, std::span<float> sin_out);

// rope_rotate with the trigonometry precomputed: cos_row/sin_row must hold
// the head_dim/2 values rope_angles produced for this position.
void rope_rotate_cached(std::span<float> head_vec, std::span<const float> cos_row,
                        std::span<const float> sin_row);

// Per-position RoPE trigonometry for a whole context window, built once at
// engine construction so decode never touches pow/sin/cos.
class RopeTable {
public:
    RopeTable() = default;
    RopeTable(std::size_t head_dim, std::size_t max_pos, float theta_base);

    [[nodiscard]] std::span<const float> cos_row(std::size_t pos) const noexcept {
        return std::span<const float>(cos_).subspan(pos * half_, half_);
    }
    [[nodiscard]] std::span<const float> sin_row(std::size_t pos) const noexcept {
        return std::span<const float>(sin_).subspan(pos * half_, half_);
    }
    [[nodiscard]] std::size_t max_pos() const noexcept { return max_pos_; }
    [[nodiscard]] bool empty() const noexcept { return max_pos_ == 0; }

private:
    std::size_t half_ = 0;
    std::size_t max_pos_ = 0;
    std::vector<float> cos_;
    std::vector<float> sin_;
};

// Numerically stable softmax (three-pass: max, exp-sum, normalize).
void softmax(std::span<const float> x, std::span<float> out);

// SiLU applied elementwise: x * sigmoid(x).
void silu_inplace(std::span<float> x);

// Gated MLP activation: out_i = silu(gate_i) * up_i.
void silu_gate(std::span<const float> gate, std::span<const float> up,
               std::span<float> out);

// Single-head attention over a contiguous KV history: the reference the
// engines' paged walk (attention_paged below) is held to.
// q: [head_dim]; keys/values: ctx rows of [head_dim]; out: [head_dim].
void attention_head(std::span<const float> q, std::span<const float> keys,
                    std::span<const float> values, std::size_t ctx,
                    std::size_t head_dim, std::span<float> out);

// Allocation-free variant: `scores` is caller-owned scratch of at least `ctx`
// floats (distinct per head when heads run in parallel).
void attention_head(std::span<const float> q, std::span<const float> keys,
                    std::span<const float> values, std::size_t ctx,
                    std::size_t head_dim, std::span<float> out,
                    std::span<float> scores);

// One attention_paged call: `rows` query rows (row j at j * row_stride in q
// and out), each with `heads` consecutive query heads of head_dim floats that
// share one KV head. Row j attends history rows 0 .. ctx + j - 1 (a prompt
// tile's causal mask), stored in pages of page_tokens rows.
struct PagedAttentionShape {
    std::size_t rows = 1;
    std::size_t heads = 1;
    std::size_t head_dim = 0;
    std::size_t row_stride = 0;
    std::size_t ctx = 1;
    std::size_t page_tokens = 0;
};

// attention_head for every (row, head) of `s`, reading the history where it
// lives: key_page(i) / value_page(i) return page i's rows (head_dim floats
// each, at least those the last row attends), read only until the next call.
// Key pages are walked once to score every query, each query's scores go
// through softmax_inplace, and value pages are walked once to accumulate
// every output. Each query runs attention_head's float ops in its order
// (dot_f32 x 1/sqrt(d), softmax, out[i] += p * v[i] in t order), so outputs
// are bit-identical to it. `scores`: rows x heads x (ctx + rows - 1) floats.
template <class KeyPage, class ValuePage>
void attention_paged(std::span<const float> q, std::span<float> out,
                     const PagedAttentionShape& s, KeyPage&& key_page,
                     ValuePage&& value_page, std::span<float> scores) {
    const std::size_t hd = s.head_dim, pt = s.page_tokens;
    const std::size_t n_ctx = s.ctx + s.rows - 1;  // the last row's history
    const std::size_t extent = (s.rows - 1) * s.row_stride + s.heads * hd;
    check(s.rows > 0 && s.heads > 0 && s.ctx > 0 && pt > 0 && q.size() >= extent &&
              out.size() >= extent && scores.size() >= s.rows * s.heads * n_ctx,
          "attention_paged: bad shape or scratch");
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
    const auto page = [&](const auto& read, std::size_t t0) {
        const std::span<const float> rows = read(t0 / pt);
        check(rows.size() >= (std::min(t0 + pt, n_ctx) - t0) * hd,
              "attention_paged: page shorter than the history it holds");
        return rows;
    };
    // fn(offset of query (j, h) in q and out, its scores, end of the rows it
    // attends in the page at t0), for every query attending into that page.
    const auto for_each_query = [&](std::size_t t0, const auto& fn) {
        for (std::size_t j = 0; j < s.rows; ++j) {
            const std::size_t end = std::min(t0 + pt, s.ctx + j);
            if (end <= t0) continue;  // row j attends no row of this page
            for (std::size_t h = 0; h < s.heads; ++h) {
                fn(j * s.row_stride + h * hd, &scores[(j * s.heads + h) * n_ctx], end);
            }
        }
    };
    for (std::size_t t0 = 0; t0 < n_ctx; t0 += pt) {
        const std::span<const float> keys = page(key_page, t0);
        for_each_query(t0, [&](std::size_t at, float* sc, std::size_t end) {
            for (std::size_t t = t0; t < end; ++t) {
                sc[t] = dot_f32(q.subspan(at, hd), keys.subspan((t - t0) * hd, hd)) *
                        inv_sqrt_d;
            }
        });
    }
    for (std::size_t j = 0; j < s.rows; ++j) {
        for (std::size_t h = 0; h < s.heads; ++h) {
            softmax_inplace(scores.subspan((j * s.heads + h) * n_ctx, s.ctx + j));
            std::fill_n(&out[j * s.row_stride + h * hd], hd, 0.0f);
        }
    }
    for (std::size_t t0 = 0; t0 < n_ctx; t0 += pt) {
        const std::span<const float> values = page(value_page, t0);
        for_each_query(t0, [&](std::size_t at, const float* sc, std::size_t end) {
            float* o = &out[at];
            for (std::size_t t = t0; t < end; ++t) {
                const float p = sc[t];
                const float* v = &values[(t - t0) * hd];
                for (std::size_t i = 0; i < hd; ++i) o[i] += p * v[i];
            }
        });
    }
}

}  // namespace efld::model
