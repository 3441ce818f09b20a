// Full-pipeline integration: synthetic weights -> AWQ-style quantization ->
// bus-format packing -> SD-card image -> bare-metal boot -> decode on the
// accelerator -> validated against the software twin, with timing and FIFO
// behaviour checked along the way. Every module in the repository is on this
// path.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/mathutil.hpp"
#include "model/reference_engine.hpp"
#include "runtime/host.hpp"
#include "runtime/loader.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/session.hpp"
#include "support/solo_stream.hpp"

namespace efld {
namespace {

TEST(EndToEnd, OfflineToDecodePipeline) {
    // Offline: quantize and pack.
    const model::ModelConfig cfg = model::ModelConfig::micro_256();
    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 1234);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});
    const accel::PackedModel packed = accel::PackedModel::build(qw);

    // Image round trip through a file (the SD card).
    const std::string path = testing::TempDir() + "/efld_e2e_model.bin";
    runtime::save_model(packed, path);
    const accel::PackedModel loaded = runtime::load_model(path);
    std::remove(path.c_str());

    // Boot the bare-metal host on the image.
    runtime::BareMetalHost host = runtime::BareMetalHost::boot(
        runtime::serialize_model(loaded));
    ASSERT_TRUE(host.report().crc_ok);

    // Decode against the software twin (same quantized weights, KV8).
    model::ReferenceEngine twin(qw, {.use_kv8 = true});
    tests::SoloStream ts(twin);
    std::span<const float> lh;
    std::vector<float> lt;
    double sim_ns = 0.0;
    for (const std::int32_t t : {1, 9, 4, 7, 2, 8}) {
        lh = host.execute({t, false});
        sim_ns += host.accelerator().last_step_cost().simulated_ns;
        lt = ts.step(t);
    }
    EXPECT_GT(cosine_similarity(lh, lt), 0.995);
    EXPECT_GT(sim_ns, 0.0);

    // FIFO discipline: no stream flushed yet (6 < 16 tokens)...
    const auto& fifo = host.accelerator().scale_zero_fifo(host.slot());
    EXPECT_EQ(fifo.words_flushed(), 0u);
    // ...and each K/V stream holds exactly 6 packs.
    EXPECT_EQ(fifo.slot_fill(0, 0, false), 6u);
    EXPECT_EQ(fifo.slot_fill(cfg.n_layers - 1, cfg.n_kv_heads - 1, true), 6u);
}

TEST(EndToEnd, SessionAgainstHostConsistency) {
    // The high-level session and the explicit host flow must produce the same
    // logits stream for the same model and inputs.
    const model::ModelConfig cfg = model::ModelConfig::micro_256();
    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 555);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});
    accel::PackedModel packed = accel::PackedModel::build(qw);
    const auto image = runtime::serialize_model(packed);

    runtime::SessionOptions opts;
    opts.sampler.temperature = 0.0f;
    runtime::InferenceSession session(std::move(packed), opts);
    runtime::BareMetalHost host = runtime::BareMetalHost::boot(image);

    const auto prompt_ids = session.tokenizer().encode("ab");
    for (const auto id : prompt_ids) {
        (void)host.execute({id, true});
    }
    const runtime::GenerationOutput out = session.generate("ab", 3);
    ASSERT_EQ(out.tokens.size(), 3u);

    // Replay the greedy choice on the host side.
    std::int32_t next = out.tokens[0];
    // (First token came from the prompt's last logits; verify the chain.)
    for (std::size_t i = 1; i < out.tokens.size(); ++i) {
        next = model::Sampler::argmax(host.execute({next, false}));
        EXPECT_EQ(next, out.tokens[i]) << "diverged at step " << i;
    }
}

TEST(EndToEnd, CapacityAndTimingConsistentFor7B) {
    // The planner, the MCU map, and the cycle model must tell one coherent
    // story for the deployment configuration.
    const model::ModelConfig cfg = model::ModelConfig::llama2_7b();
    const model::QuantScheme scheme = model::QuantScheme::w4a16_kv8();

    const runtime::MemoryPlan plan = runtime::MemoryPlanner::plan_kv260(cfg, scheme);
    ASSERT_TRUE(plan.fits);

    accel::DecodeCycleModel m(cfg, scheme, accel::AccelConfig{});
    // MCU map utilization within 1% of the planner's arithmetic.
    EXPECT_NEAR(m.mcu().map().utilization(), plan.utilization, 0.01);

    // Weight bytes moved per token == packed weight bytes placed in DDR
    // (excluding the embedding table, which is fetched one row at a time).
    const accel::TokenTiming t = m.token_timing(0);
    const double placed = static_cast<double>(plan.weight_bytes) -
                          static_cast<double>(model::compute_footprint(cfg, scheme)
                                                  .embedding_bytes);
    EXPECT_NEAR(static_cast<double>(t.weight_bytes), placed, placed * 0.01);
}

}  // namespace
}  // namespace efld
