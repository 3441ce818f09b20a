// Bare-metal host boot flow (§VII.A).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "runtime/host.hpp"
#include "runtime/loader.hpp"
#include "support/solo_stream.hpp"

namespace efld::runtime {
namespace {

std::vector<std::uint8_t> micro_image() {
    const auto fw = model::ModelWeights::synthetic(model::ModelConfig::micro_256(), 21);
    const auto qw = model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});
    return serialize_model(accel::PackedModel::build(qw));
}

TEST(BareMetalHost, BootsFromValidImage) {
    BareMetalHost host = BareMetalHost::boot(micro_image());
    EXPECT_TRUE(host.report().crc_ok);
    EXPECT_EQ(host.config().name, "micro-256");
    EXPECT_GT(host.report().image_bytes, 0u);
    EXPECT_GT(host.report().sd_load_s, 0.0);
    EXPECT_GT(host.report().ddr_copy_s, 0.0);
    // Copying into DDR at 19.2 GB/s is far faster than reading the SD card.
    EXPECT_LT(host.report().ddr_copy_s, host.report().sd_load_s);
}

TEST(BareMetalHost, RejectsCorruptImage) {
    auto img = micro_image();
    img[img.size() / 3] ^= 0x40;
    EXPECT_THROW((void)BareMetalHost::boot(img), efld::Error);
}

TEST(BareMetalHost, ExecutesTokenCommands) {
    BareMetalHost host = BareMetalHost::boot(micro_image());
    const std::size_t vocab = host.config().vocab_size;
    EXPECT_EQ(host.execute({.token_index = 5, .is_prefill = true}).size(), vocab);
    EXPECT_GT(host.accelerator().last_step_cost().simulated_ns, 0.0);
    EXPECT_EQ(host.execute({.token_index = 9, .is_prefill = false}).size(), vocab);
    EXPECT_EQ(host.accelerator().position(host.slot()), 2u);
}

TEST(BareMetalHost, MatchesDirectAccelerator) {
    const auto fw = model::ModelWeights::synthetic(model::ModelConfig::micro_256(), 21);
    const auto qw = model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});
    const accel::PackedModel packed = accel::PackedModel::build(qw);
    accel::Accelerator direct(packed);
    tests::SoloStream solo(direct);

    BareMetalHost host = BareMetalHost::boot(serialize_model(packed));
    for (const std::int32_t t : {1, 2, 3}) {
        const std::span<const float> a = host.execute({.token_index = t, .is_prefill = false});
        const std::vector<float>& b = solo.step(t);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "token " << t;
    }
}

TEST(BareMetalHost, SdLoadArithmeticFor7B) {
    // A 3.8 GB image at 25 MB/s: ~2.5 minutes of boot time — the real-world
    // cost of the SD-card flow the paper describes.
    const double s = BareMetalHost::estimated_sd_load_s(3'800'000'000ull, {});
    EXPECT_NEAR(s, 152.0, 1.0);
    // A UHS-I card at 90 MB/s would cut it to ~42 s.
    const double fast = BareMetalHost::estimated_sd_load_s(3'800'000'000ull, {90.0});
    EXPECT_NEAR(fast, 42.2, 0.5);
}

}  // namespace
}  // namespace efld::runtime
