// VPU: dequantization unit and FP16 dot engine.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

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
                const int code = q.code(g * kVpuLanes + i);
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
    const Wave wave = DequantUnit::run(word, s, 3);
    for (std::size_t p = 0; p < kVpuLanes; ++p) {
        const std::size_t i = wave_lane(p);  // the output is in wave order
        const Fp16 want =
            Fp16::from_float(static_cast<float>(word.nibble(i) - 3) * s.to_float());
        EXPECT_EQ(std::bit_cast<std::uint32_t>(wave[p / 16][p % 16]),
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

// Lane-order vectors -> one wave in wave order.
Wave to_wave(const std::vector<float>& lanes) {
    Wave w{};
    for (std::size_t p = 0; p < kVpuLanes; ++p) w[p / 16][p % 16] = lanes[wave_lane(p)];
    return w;
}

TEST(DotEngine, WaveLaneIsTheSevenBitReversal) {
    EXPECT_EQ(wave_lane(0), 0u);
    EXPECT_EQ(wave_lane(1), 64u);
    EXPECT_EQ(wave_lane(64), 1u);
    EXPECT_EQ(wave_lane(0b0000110), 0b0110000u);
    EXPECT_EQ(wave_lane(127), 127u);
    for (std::size_t p = 0; p < kVpuLanes; ++p) EXPECT_EQ(wave_lane(wave_lane(p)), p);
    // The adder tree's first-stage pair (2i, 2i + 1) sits at positions j and
    // j + 64: the halves of the wave.
    for (std::size_t j = 0; j < kVpuLanes / 2; ++j) {
        EXPECT_EQ(wave_lane(j) % 2, 0u);
        EXPECT_EQ(wave_lane(j + 64), wave_lane(j) + 1);
    }
}

TEST(DotEngine, WaveDotBitIdenticalToScalarTree) {
    // The vector kernel (wave order, vector rounding) against dot128's scalar
    // adder tree over the same lanes in lane order, bit for bit, on waves
    // whose products are typical, fp16 subnormals, overflow to +-inf (inf
    // - inf in the tree gives NaN), and with inf and NaN operands.
    Xoshiro256 rng(21);
    const auto halves = [&](double mag) {
        std::vector<float> v(kVpuLanes);
        for (float& x : v) x = round_to_fp16(static_cast<float>(rng.gaussian(0.0, mag)));
        return v;
    };
    struct Case {
        const char* name;
        double a_mag, b_mag;
    };
    const Case cases[] = {
        {"typical", 0.05, 1.0},
        {"subnormal products", 3e-3, 3e-3},
        {"overflow to +-inf", 400.0, 400.0},
        {"mixed", 30.0, 2.0},
    };
    std::size_t subnormal_products = 0, inf_products = 0, nan_results = 0;
    for (const Case& c : cases) {
        for (int rep = 0; rep < 64; ++rep) {
            std::vector<float> a = halves(c.a_mag), b = halves(c.b_mag);
            if (rep % 8 == 5) a[rep % kVpuLanes] = std::numeric_limits<float>::infinity();
            if (rep % 8 == 6) b[(rep * 3) % kVpuLanes] = -std::numeric_limits<float>::infinity();
            if (rep % 8 == 7) b[rep % kVpuLanes] = std::bit_cast<float>(0xFF81'2000u);  // NaN

            for (std::size_t i = 0; i < kVpuLanes; ++i) {
                const float p = round_to_fp16(a[i] * b[i]);
                subnormal_products += p != 0.0f && std::abs(p) < 0x1p-14f;
                inf_products += std::isinf(p);
            }
            const float want = DotEngine::dot128(a, b);
            const float got = DotEngine::wave_dot(to_wave(a), to_wave(b));
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got), std::bit_cast<std::uint32_t>(want))
                << c.name << " rep " << rep;
            nan_results += std::isnan(want);
        }
    }
    EXPECT_GT(subnormal_products, 1000u);
    EXPECT_GT(inf_products, 1000u);
    EXPECT_GT(nan_results, 10u);
}

// Random streams plus the edge cases the float-domain datapath must get
// right: zero scales, scales whose dequantized weights overflow to inf
// (inf * 0 and inf - inf give NaN rows), and activations small enough that
// lane products are fp16 subnormals or round to zero.
constexpr RandomLayer kOracleSpecs[] = {
    {16, 512, 0.02, 1.0, 0.0},     // typical weights and activations
    {7, 384, 0.5, 4.0, 0.25},      // a quarter of the scales are zero
    {5, 256, 65504.0, 1.0, 0.0},   // dequantized weights overflow to inf
    {9, 640, 0.01, 2e-4, 0.0},     // subnormal lane products
    {3, 1280, 3.0, 30.0, 0.0},     // long rows, accumulators saturate
};

TEST(DotEngine, GemvBitIdenticalToFp16OperatorOracle) {
    Xoshiro256 rng(11);
    DotEngine vpu;
    std::size_t nonfinite_rows = 0;
    for (const RandomLayer& spec : kOracleSpecs) {
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

TEST(DotEngine, GemmMatchesPerLaneGemv) {
    // One stream walk feeding nb lanes must give each lane exactly what a
    // gemv of that lane alone gives, edge cases included.
    Xoshiro256 rng(12);
    DotEngine batched, solo;
    std::size_t nonfinite_rows = 0;
    for (const RandomLayer& spec : kOracleSpecs) {
        const auto q = random_layer(spec, rng);
        const auto stream = quant::pack_weight_stream(q);
        for (std::size_t nb = 1; nb <= 5; ++nb) {
            std::vector<Fp16> x(nb * spec.cols);
            for (auto& v : x) {
                v = Fp16::from_float(static_cast<float>(rng.gaussian(0.0, spec.x_mag)));
            }
            std::vector<Fp16> y(nb * spec.rows);
            batched.gemm(stream, spec.rows, spec.cols, nb, x, y);
            for (std::size_t b = 0; b < nb; ++b) {
                const std::span<const Fp16> xb =
                    std::span<const Fp16>(x).subspan(b * spec.cols, spec.cols);
                std::vector<Fp16> want(spec.rows);
                solo.gemv(stream, spec.rows, spec.cols, xb, want);
                const std::vector<Fp16> oracle = oracle_gemv(q, xb);
                for (std::size_t r = 0; r < spec.rows; ++r) {
                    const Fp16 got = y[b * spec.rows + r];
                    EXPECT_EQ(got.bits(), want[r].bits())
                        << "cols=" << spec.cols << " nb=" << nb << " lane " << b << " row " << r;
                    EXPECT_EQ(got.bits(), oracle[r].bits())
                        << "cols=" << spec.cols << " nb=" << nb << " lane " << b << " row " << r;
                    nonfinite_rows += got.is_nan() || got.is_inf();
                }
            }
        }
    }
    EXPECT_GT(nonfinite_rows, 0u);
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
