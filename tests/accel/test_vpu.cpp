// VPU: dequantization unit and FP16 dot engine.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "accel/vpu.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "quant/weight_format.hpp"

namespace efld::accel {
namespace {

std::vector<float> lanes_of(std::initializer_list<float> xs) {
    std::vector<float> out;
    for (const float x : xs) out.push_back(round_to_fp16(x));
    return out;
}

// The VPU datapath written with Fp16 operators — one conversion pair per
// operation, the same reduction order. Bit-exact oracle for DotEngine::gemv.
Fp16 oracle_tree(std::vector<Fp16> stage) {
    while (stage.size() > 1) {
        std::vector<Fp16> next;
        for (std::size_t i = 0; i + 1 < stage.size(); i += 2) {
            next.push_back(stage[i] + stage[i + 1]);
        }
        if (stage.size() % 2 == 1) next.push_back(stage.back());
        stage = std::move(next);
    }
    return stage[0];
}

std::vector<Fp16> oracle_gemv(const quant::QuantizedLinear& q, std::span<const Fp16> x) {
    const std::size_t gpr = q.cols() / kVpuLanes;
    std::vector<Fp16> y(q.rows());
    for (std::size_t r = 0; r < q.rows(); ++r) {
        Fp16 acc = Fp16::zero();
        for (std::size_t gc = 0; gc < gpr; ++gc) {
            const std::size_t g = r * gpr + gc;
            const float s = q.scale(g).to_float();
            std::vector<Fp16> prod(kVpuLanes);
            for (std::size_t i = 0; i < kVpuLanes; ++i) {
                const int code = q.codes()[g * kVpuLanes + i];
                const Fp16 w = Fp16::from_float(static_cast<float>(code - q.zero(g)) * s);
                prod[i] = w * x[gc * kVpuLanes + i];
            }
            acc = acc + oracle_tree(prod);
        }
        y[r] = acc;
    }
    return y;
}

struct RandomLayer {
    std::size_t rows, cols;
    double scale_mag;      // scales ~ U(0, scale_mag)
    double x_mag;          // activations ~ N(0, x_mag)
    double zero_scale_frac;
};

quant::QuantizedLinear random_layer(const RandomLayer& spec, Xoshiro256& rng) {
    const std::size_t groups = spec.rows * spec.cols / kVpuLanes;
    std::vector<std::uint8_t> codes(spec.rows * spec.cols), zeros(groups);
    std::vector<Fp16> scales(groups);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(16));
    for (auto& z : zeros) z = static_cast<std::uint8_t>(rng.below(16));
    for (auto& s : scales) {
        s = rng.uniform() < spec.zero_scale_frac
                ? Fp16::zero()
                : Fp16::from_float(static_cast<float>(rng.uniform(0.0, spec.scale_mag)));
    }
    return quant::QuantizedLinear::from_parts(std::move(codes), std::move(scales),
                                              std::move(zeros), spec.rows, spec.cols, {});
}

TEST(DequantUnit, TableMatchesScalarFormula) {
    const auto t = DequantUnit::table(Fp16::from_float(0.125f), 7);
    for (int c = 0; c < 16; ++c) {
        EXPECT_FLOAT_EQ(t[c], (static_cast<float>(c) - 7.0f) * 0.125f) << c;
    }
}

TEST(DequantUnit, RunRoundsEachLaneOnce) {
    Xoshiro256 rng(1);
    Word512 word;
    for (std::size_t i = 0; i < kVpuLanes; ++i) {
        word.set_nibble(i, static_cast<std::uint8_t>(rng.below(16)));
    }
    const Fp16 s = Fp16::from_float(0.07f);
    const Lanes lanes = DequantUnit::run(word, s, 3);
    for (std::size_t i = 0; i < kVpuLanes; ++i) {
        const Fp16 want =
            Fp16::from_float(static_cast<float>(word.nibble(i) - 3) * s.to_float());
        EXPECT_EQ(std::bit_cast<std::uint32_t>(lanes[i]),
                  std::bit_cast<std::uint32_t>(want.to_float()))
            << i;
    }
}

TEST(DequantUnit, KvVariant) {
    const std::vector<std::uint8_t> codes{0, 100, 200, 255};
    quant::KvQuantParams p{Fp16::from_float(0.5f), 100};
    std::vector<float> vals(codes.size());
    DequantUnit::run_kv(codes, p, vals);
    EXPECT_FLOAT_EQ(vals[0], -50.0f);
    EXPECT_FLOAT_EQ(vals[1], 0.0f);
    EXPECT_FLOAT_EQ(vals[2], 50.0f);
    EXPECT_FLOAT_EQ(vals[3], 77.5f);
}

TEST(DotEngine, TreeSumSmall) {
    EXPECT_FLOAT_EQ(DotEngine::tree_sum(lanes_of({1.0f, 2.0f, 3.0f, 4.0f, 5.0f})), 15.0f);
}

TEST(DotEngine, TreeSumEmptyAndSingle) {
    EXPECT_EQ(DotEngine::tree_sum({}), 0.0f);
    EXPECT_FLOAT_EQ(DotEngine::tree_sum(lanes_of({-2.5f})), -2.5f);
}

TEST(DotEngine, TreeSumPairsNeighboursAndPassesOddThrough) {
    // ((2048 + 1) + (3 + 2)) + 2 with ulp 2: 2049 ties to 2048, 2048 + 5
    // ties to 2052, + 2 is 2054. Pairing (i, i + n/2) gives 2058, a left
    // fold 2056.
    EXPECT_FLOAT_EQ(DotEngine::tree_sum(lanes_of({2048.0f, 1.0f, 3.0f, 2.0f, 2.0f})),
                    2054.0f);
}

TEST(DotEngine, TreeSumRejectsMoreThan128Lanes) {
    const std::vector<float> v(kVpuLanes + 1, 1.0f);
    EXPECT_THROW((void)DotEngine::tree_sum(v), efld::Error);
}

TEST(DotEngine, Dot128CloseToFloat) {
    Xoshiro256 rng(3);
    std::vector<float> a(128), b(128);
    double exact = 0;
    for (std::size_t i = 0; i < 128; ++i) {
        a[i] = round_to_fp16(static_cast<float>(rng.gaussian(0, 0.1)));
        b[i] = round_to_fp16(static_cast<float>(rng.gaussian(0, 0.1)));
        exact += static_cast<double>(a[i]) * b[i];
    }
    EXPECT_NEAR(DotEngine::dot128(a, b), exact, 0.02);
}

TEST(DotEngine, DotHandlesNonMultipleLengths) {
    const std::vector<float> a(200, 1.0f), b(200, 1.0f);
    EXPECT_FLOAT_EQ(DotEngine::dot(a, b), 200.0f);
}

TEST(DotEngine, GemvMatchesQuantizedReference) {
    // The full path: quantize -> pack stream -> VPU gemv must match the
    // scalar dequantized GEMV within fp16 accumulation error.
    Xoshiro256 rng(4);
    const std::size_t rows = 8, cols = 512;
    std::vector<float> w(rows * cols);
    for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, 0.05));
    const auto q = quant::QuantizedLinear::quantize(w, rows, cols, {});
    const auto stream = quant::pack_weight_stream(q);

    std::vector<float> xf(cols);
    for (auto& v : xf) v = static_cast<float>(rng.gaussian(0.0, 0.5));
    const auto x = to_fp16(xf);

    std::vector<Fp16> y(rows);
    DotEngine vpu;
    vpu.gemv(stream, rows, cols, x, y);
    const auto y_ref = q.gemv_reference(to_float(x));
    for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_NEAR(y[r].to_float(), y_ref[r], 0.05f + 0.02f * std::abs(y_ref[r])) << r;
    }
}

TEST(DotEngine, GemvBitIdenticalToFp16OperatorOracle) {
    // Random streams plus the edge cases the float-domain datapath must get
    // right: zero scales, scales whose dequantized weights overflow to inf
    // (inf * 0 and inf - inf give NaN rows), and activations small enough
    // that lane products are fp16 subnormals or round to zero.
    const RandomLayer specs[] = {
        {16, 512, 0.02, 1.0, 0.0},     // typical weights and activations
        {7, 384, 0.5, 4.0, 0.25},      // a quarter of the scales are zero
        {5, 256, 65504.0, 1.0, 0.0},   // dequantized weights overflow to inf
        {9, 640, 0.01, 2e-4, 0.0},     // subnormal lane products
        {3, 1280, 3.0, 30.0, 0.0},     // long rows, accumulators saturate
    };
    Xoshiro256 rng(11);
    DotEngine vpu;
    std::size_t nonfinite_rows = 0;
    for (const RandomLayer& spec : specs) {
        const auto q = random_layer(spec, rng);
        std::vector<Fp16> x(spec.cols);
        for (auto& v : x) {
            v = Fp16::from_float(static_cast<float>(rng.gaussian(0.0, spec.x_mag)));
        }
        std::vector<Fp16> y(spec.rows);
        vpu.gemv(quant::pack_weight_stream(q), spec.rows, spec.cols, x, y);
        const std::vector<Fp16> want = oracle_gemv(q, x);
        for (std::size_t r = 0; r < spec.rows; ++r) {
            EXPECT_EQ(y[r].bits(), want[r].bits()) << "cols=" << spec.cols << " row " << r;
            nonfinite_rows += y[r].is_nan() || y[r].is_inf();
        }
    }
    EXPECT_GT(nonfinite_rows, 0u);  // the overflow case really overflowed
}

TEST(DotEngine, GemvCycles) {
    EXPECT_EQ(DotEngine::gemv_cycles(4096, 4096), 4096u * 32);
    EXPECT_EQ(DotEngine::gemv_cycles(128, 128), 128u);
}

TEST(Fp16Bridge, RoundTrips) {
    const std::vector<float> xs{0.0f, 1.0f, -2.5f, 100.0f};
    const auto h = to_fp16(xs);
    const auto back = to_float(h);
    for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_FLOAT_EQ(back[i], xs[i]);
}

}  // namespace
}  // namespace efld::accel
