// SPU submodules vs. the float reference kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/hw_exp.hpp"
#include "accel/spu_rmsnorm.hpp"
#include "accel/spu_rope.hpp"
#include "accel/spu_silu.hpp"
#include "accel/spu_softmax.hpp"
#include "accel/vpu.hpp"
#include "common/rng.hpp"
#include "model/kernels.hpp"

namespace efld::accel {
namespace {

TEST(HwExp, MatchesLibmWithinLutError) {
    HwExp hw;
    for (float x = -10.0f; x <= 5.0f; x += 0.0371f) {
        const float got = hw.exp(Fp16::from_float(x)).to_float();
        const float want = std::exp(x);
        EXPECT_NEAR(got, want, want * 3e-3f + 1e-6f) << "x=" << x;
    }
}

TEST(HwExp, SaturationBehaviour) {
    HwExp hw;
    EXPECT_EQ(hw.exp(Fp16::from_float(-100.0f)).to_float(), 0.0f);
    EXPECT_TRUE(hw.exp(Fp16::from_float(100.0f)).is_inf());
    EXPECT_FLOAT_EQ(hw.exp(Fp16::zero()).to_float(), 1.0f);
}

TEST(HwExp, SigmoidSymmetry) {
    HwExp hw;
    for (float x = -6.0f; x <= 6.0f; x += 0.5f) {
        const float s = hw.sigmoid(Fp16::from_float(x)).to_float();
        const float s_neg = hw.sigmoid(Fp16::from_float(-x)).to_float();
        EXPECT_NEAR(s + s_neg, 1.0f, 5e-3f) << x;
    }
}

TEST(SinCosRom, MatchesLibmAcrossQuadrants) {
    SinCosRom rom;
    for (double a = -10.0; a < 10.0; a += 0.0173) {
        EXPECT_NEAR(rom.sin(a).to_float(), std::sin(a), 2e-3) << a;
        EXPECT_NEAR(rom.cos(a).to_float(), std::cos(a), 2e-3) << a;
    }
}

TEST(InvFreqRom, MatchesClosedForm) {
    InvFreqRom rom(10000.0f);
    const std::size_t d = 128;
    for (std::size_t j = 0; j < d / 2; ++j) {
        const double want =
            std::pow(10000.0, -2.0 * static_cast<double>(j) / static_cast<double>(d));
        EXPECT_NEAR(rom.freq(j, d), want, want * 1e-9) << j;
    }
}

TEST(SpuRope, MatchesReferenceKernel) {
    Xoshiro256 rng(1);
    SpuRope rope;
    for (const std::size_t pos : {0u, 1u, 17u, 500u, 1023u}) {
        std::vector<float> vf(128);
        for (auto& x : vf) x = static_cast<float>(rng.gaussian());
        auto vh = to_fp16(vf);

        model::rope_rotate(vf, pos, 10000.0f);
        rope.run(vh, pos);
        for (std::size_t i = 0; i < vf.size(); ++i) {
            EXPECT_NEAR(vh[i].to_float(), vf[i], 0.02f) << "pos=" << pos << " i=" << i;
        }
    }
}

TEST(SpuRope, CycleCountIsVectorLength) {
    SpuRope rope;
    std::vector<Fp16> v(128, Fp16::one());
    EXPECT_EQ(rope.run(v, 3).cycles, 128u);
}

TEST(SpuRmsNorm, MatchesReference) {
    Xoshiro256 rng(2);
    std::vector<float> xf(256), wf(256);
    for (auto& v : xf) v = static_cast<float>(rng.gaussian());
    for (auto& v : wf) v = static_cast<float>(1.0 + 0.1 * rng.gaussian());
    std::vector<float> ref(256);
    model::rmsnorm(xf, wf, 1e-5f, ref);

    SpuRmsNorm rms;
    const auto xh = to_fp16(xf), wh = to_fp16(wf);
    std::vector<Fp16> out(256);
    rms.run(xh, wh, 1e-5f, out);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(out[i].to_float(), ref[i], 0.01f + 0.01f * std::abs(ref[i])) << i;
    }
}

TEST(SpuRmsNorm, BypassHalvesCycles) {
    SpuRmsNorm rms;
    std::vector<Fp16> x(256, Fp16::one()), w(256, Fp16::one()), out(256);
    const auto full = rms.run(x, w, 1e-5f, out);
    const auto bypass = rms.run(x, w, 1e-5f, out, SpuRmsNorm::square_sum(x));
    EXPECT_EQ(full.cycles, 2u * 256 + 16);
    EXPECT_EQ(bypass.cycles, 256u + 16);
}

TEST(SpuRmsNorm, BypassProducesSameResult) {
    Xoshiro256 rng(3);
    std::vector<float> xf(128);
    for (auto& v : xf) v = static_cast<float>(rng.gaussian());
    const auto x = to_fp16(xf);
    std::vector<Fp16> w(128, Fp16::one()), a(128), b(128);
    SpuRmsNorm rms;
    rms.run(x, w, 1e-5f, a);
    rms.run(x, w, 1e-5f, b, SpuRmsNorm::square_sum(x));
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].bits(), b[i].bits());
}

TEST(SpuSoftmax, MatchesReference) {
    Xoshiro256 rng(4);
    HwExp hw;
    SpuSoftmax sm(hw);
    std::vector<float> xf(300);
    for (auto& v : xf) v = static_cast<float>(rng.gaussian(0.0, 3.0));
    std::vector<float> ref(300);
    model::softmax(xf, ref);

    const auto x = to_fp16(xf);
    std::vector<Fp16> out(300);
    sm.run(x, out);
    float sum = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_NEAR(out[i].to_float(), ref[i], 0.01f) << i;
        sum += out[i].to_float();
    }
    EXPECT_NEAR(sum, 1.0f, 0.02f);
}

TEST(SpuSoftmax, StableUnderLargeInputs) {
    HwExp hw;
    SpuSoftmax sm(hw);
    std::vector<Fp16> x{Fp16::from_float(60000.0f), Fp16::from_float(60000.0f)};
    std::vector<Fp16> out(2);
    sm.run(x, out);
    EXPECT_NEAR(out[0].to_float(), 0.5f, 0.01f);
    EXPECT_NEAR(out[1].to_float(), 0.5f, 0.01f);
}

TEST(SpuSoftmax, ThreePassCycleCount) {
    HwExp hw;
    SpuSoftmax sm(hw);
    std::vector<Fp16> x(100, Fp16::one()), out(100);
    EXPECT_EQ(sm.run(x, out).cycles, 3u * 100 + 16);
}

TEST(SpuSilu, MatchesReference) {
    Xoshiro256 rng(5);
    HwExp hw;
    SpuSilu silu(hw);
    std::vector<float> gf(200), uf(200);
    for (auto& v : gf) v = static_cast<float>(rng.gaussian(0.0, 2.0));
    for (auto& v : uf) v = static_cast<float>(rng.gaussian());
    std::vector<float> ref(200);
    model::silu_gate(gf, uf, ref);

    std::vector<Fp16> out(200);
    silu.run(to_fp16(gf), to_fp16(uf), out);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(out[i].to_float(), ref[i], 0.02f + 0.01f * std::abs(ref[i])) << i;
    }
}

}  // namespace
}  // namespace efld::accel
