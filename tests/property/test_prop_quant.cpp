// Property sweeps over the quantization pipeline: for every geometry and
// weight distribution, quantize -> dequantize must satisfy the grid-error
// bound, codes must stay in range, and GEMV must commute with dequantization.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "quant/groupquant.hpp"
#include "quant/kvquant.hpp"

namespace efld::quant {
namespace {

enum class Dist { kGaussian, kUniform, kHeavyTail, kShifted };

const char* dist_name(Dist d) {
    switch (d) {
        case Dist::kGaussian: return "gaussian";
        case Dist::kUniform: return "uniform";
        case Dist::kHeavyTail: return "heavytail";
        case Dist::kShifted: return "shifted";
    }
    return "?";
}

std::vector<float> sample(Dist d, std::size_t n, std::uint64_t seed) {
    efld::Xoshiro256 rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) {
        switch (d) {
            case Dist::kGaussian:
                x = static_cast<float>(rng.gaussian(0.0, 0.05));
                break;
            case Dist::kUniform:
                x = static_cast<float>(rng.uniform(-0.2, 0.2));
                break;
            case Dist::kHeavyTail: {
                const double g = rng.gaussian();
                x = static_cast<float>(g * g * g * 0.02);
                break;
            }
            case Dist::kShifted:
                x = static_cast<float>(rng.gaussian(0.3, 0.05));
                break;
        }
    }
    return v;
}

using QuantParam = std::tuple<std::size_t /*rows*/, std::size_t /*cols*/,
                              std::size_t /*group*/, unsigned /*bits*/, Dist>;

class GroupQuantProperty : public ::testing::TestWithParam<QuantParam> {};

TEST_P(GroupQuantProperty, RoundTripWithinGridError) {
    const auto [rows, cols, group, bits, dist] = GetParam();
    const auto w = sample(dist, rows * cols, 0xC0FFEE ^ (rows * 31 + cols));
    GroupQuantConfig cfg;
    cfg.group_size = group;
    cfg.bits = bits;
    const auto q = QuantizedLinear::quantize(w, rows, cols, cfg);
    const auto back = q.dequantize();

    // Per-group bound: |w - w'| <= scale/2 from code rounding, plus up to one
    // extra step at the range edges when the rounded zero point pushes the
    // extreme code past qmax (standard asymmetric min/max behaviour) —
    // 1.5 * scale worst case, plus fp16 resolution slack.
    const std::size_t groups = q.num_groups();
    for (std::size_t g = 0; g < groups; ++g) {
        const float s = q.scale(g).to_float();
        const float bound = s * 1.5f + s * 0.01f + 1e-6f;
        for (std::size_t i = 0; i < group; ++i) {
            const std::size_t idx = g * group + i;
            ASSERT_NEAR(back[idx], w[idx], bound)
                << dist_name(dist) << " rows=" << rows << " cols=" << cols
                << " group=" << group << " bits=" << bits << " idx=" << idx;
        }
    }
}

TEST_P(GroupQuantProperty, CodesAndZerosInRange) {
    const auto [rows, cols, group, bits, dist] = GetParam();
    const auto w = sample(dist, rows * cols, 0xBEEF ^ cols);
    GroupQuantConfig cfg;
    cfg.group_size = group;
    cfg.bits = bits;
    const auto q = QuantizedLinear::quantize(w, rows, cols, cfg);
    const std::uint8_t qmax = cfg.qmax();
    for (std::size_t i = 0; i < rows * cols; ++i) ASSERT_LE(q.code(i), qmax);
    for (const auto z : q.zeros()) ASSERT_LE(z, qmax);
}

TEST_P(GroupQuantProperty, GemvLinearInInput) {
    // q.gemv(a*x) == a * q.gemv(x): the quantized operator is linear.
    const auto [rows, cols, group, bits, dist] = GetParam();
    const auto w = sample(dist, rows * cols, 0xF00D ^ rows);
    GroupQuantConfig cfg;
    cfg.group_size = group;
    cfg.bits = bits;
    const auto q = QuantizedLinear::quantize(w, rows, cols, cfg);

    efld::Xoshiro256 rng(7);
    std::vector<float> x(cols);
    for (auto& v : x) v = static_cast<float>(rng.gaussian());
    std::vector<float> x2(cols);
    for (std::size_t i = 0; i < cols; ++i) x2[i] = 2.5f * x[i];

    const auto y = q.gemv_reference(x);
    const auto y2 = q.gemv_reference(x2);
    for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_NEAR(y2[r], 2.5f * y[r], 1e-3f + 1e-3f * std::abs(y[r]));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupQuantProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 8),
                       ::testing::Values<std::size_t>(128, 256, 512),
                       ::testing::Values<std::size_t>(64, 128),
                       ::testing::Values<unsigned>(4, 8),
                       ::testing::Values(Dist::kGaussian, Dist::kUniform,
                                         Dist::kHeavyTail, Dist::kShifted)),
    [](const auto& info) {
        return "r" + std::to_string(std::get<0>(info.param)) + "_c" +
               std::to_string(std::get<1>(info.param)) + "_g" +
               std::to_string(std::get<2>(info.param)) + "_b" +
               std::to_string(std::get<3>(info.param)) + "_" +
               dist_name(std::get<4>(info.param));
    });

class KvQuantProperty : public ::testing::TestWithParam<std::tuple<std::size_t, Dist>> {};

TEST_P(KvQuantProperty, RoundTripWithinGridBound) {
    const auto [n, dist] = GetParam();
    const auto x = sample(dist, n, 0xAB ^ n);
    const KvQuantized q = kv_quantize(x);
    const auto back = kv_dequantize(q.codes, q.params);
    const float s = q.params.scale.to_float();
    for (std::size_t i = 0; i < n; ++i) {
        // scale/2 interior; up to 1.5*scale at range edges (zero-point
        // rounding can clamp the extreme code by one step).
        ASSERT_NEAR(back[i], x[i], s * 1.51f + 1e-6f) << dist_name(dist) << " i=" << i;
    }
}

TEST_P(KvQuantProperty, DequantizeIsMonotoneInCode) {
    const auto [n, dist] = GetParam();
    const auto x = sample(dist, n, 0xCD ^ n);
    const KvQuantized q = kv_quantize(x);
    // Larger code always decodes to a larger value (positive scale).
    const auto v0 = kv_dequantize(std::vector<std::uint8_t>{0}, q.params);
    const auto v255 = kv_dequantize(std::vector<std::uint8_t>{255}, q.params);
    ASSERT_LT(v0[0], v255[0] + 1e-9f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KvQuantProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 64, 128, 333),
                       ::testing::Values(Dist::kGaussian, Dist::kUniform,
                                         Dist::kHeavyTail, Dist::kShifted)),
    [](const auto& info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "_" +
               dist_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace efld::quant
