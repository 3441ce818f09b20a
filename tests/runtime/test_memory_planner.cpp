// Memory planner: the Fig. 1 capacity story.
#include <gtest/gtest.h>

#include "common/mathutil.hpp"
#include "runtime/memory_planner.hpp"

namespace efld::runtime {
namespace {

using model::ModelConfig;
using model::QuantScheme;

TEST(MemoryPlanner, Llama7BFitsKv260) {
    const MemoryPlan p = MemoryPlanner::plan_kv260(ModelConfig::llama2_7b(),
                                                   QuantScheme::w4a16_kv8());
    EXPECT_TRUE(p.fits);
}

TEST(MemoryPlanner, UtilizationNearPaper93_3) {
    const MemoryPlan p = MemoryPlanner::plan_kv260(ModelConfig::llama2_7b(),
                                                   QuantScheme::w4a16_kv8());
    // Our accounting: 92.5%; paper: 93.3% (bench_paper's Fig. 1 row notes the
    // delta: fp16 embedding table, W4 lm_head).
    EXPECT_NEAR(p.utilization, 0.933, 0.015);
}

TEST(MemoryPlanner, KvRegionIs264MiB) {
    const MemoryPlan p = MemoryPlanner::plan_kv260(ModelConfig::llama2_7b(),
                                                   QuantScheme::w4a16_kv8());
    EXPECT_EQ(p.kv_bytes, 264 * kMiB);
}

TEST(MemoryPlanner, WeightsNearPaper3556MiB) {
    const MemoryPlan p = MemoryPlanner::plan_kv260(ModelConfig::llama2_7b(),
                                                   QuantScheme::w4a16_kv8());
    EXPECT_NEAR(static_cast<double>(p.weight_bytes) / double(kMiB), 3556, 40);
}

TEST(MemoryPlanner, Fp16DoesNotFit) {
    const MemoryPlan p = MemoryPlanner::plan_kv260(ModelConfig::llama2_7b(),
                                                   QuantScheme::fp16_baseline());
    EXPECT_FALSE(p.fits);
}

TEST(MemoryPlanner, W8DoesNotFit7B) {
    const MemoryPlan p = MemoryPlanner::plan_kv260(ModelConfig::llama2_7b(),
                                                   QuantScheme::w8a16_kv8());
    EXPECT_FALSE(p.fits);
}

TEST(MemoryPlanner, NoRoomForLinux) {
    // §VII.A: "impossible to load a Linux operating system with so little
    // memory remaining". ~280 MiB is free after weights+KV — a practically
    // usable Linux resident set (~512 MiB with CMA headroom) cannot fit.
    EXPECT_FALSE(MemoryPlanner::fits_with_os(ModelConfig::llama2_7b(),
                                             QuantScheme::w4a16_kv8(), 4 * kGiB,
                                             512 * kMiB));
    // The tiny bare-metal reservation is what makes it possible.
    EXPECT_TRUE(MemoryPlanner::fits_with_os(ModelConfig::llama2_7b(),
                                            QuantScheme::w4a16_kv8(), 4 * kGiB, 1 * kMiB));
}

TEST(MemoryPlanner, MaxContextNearPaperReservation) {
    const std::uint64_t ctx = MemoryPlanner::max_context(
        ModelConfig::llama2_7b(), QuantScheme::w4a16_kv8(), 4 * kGiB, 1 * kMiB);
    // The paper reserves 1024; the hard ceiling is somewhat above it.
    EXPECT_GE(ctx, 1024u);
    EXPECT_LT(ctx, 4096u);
}

TEST(MemoryPlanner, MaxContextZeroWhenWeightsTooBig) {
    EXPECT_EQ(MemoryPlanner::max_context(ModelConfig::llama2_7b(),
                                         QuantScheme::fp16_baseline(), 4 * kGiB, 0),
              0u);
}

TEST(MemoryPlanner, TinyLlamaLeavesRoomFor2GBDevice) {
    model::ModelConfig c = ModelConfig::tinyllama_1_1b();
    c.max_seq_len = 1024;
    const MemoryPlan p = MemoryPlanner::plan(c, QuantScheme::w4a16_kv8(), 2 * kGiB, kMiB);
    EXPECT_TRUE(p.fits);
    EXPECT_LT(p.utilization, 0.5);
}

TEST(MemoryPlanner, RegionsSumToDevice) {
    const MemoryPlan p = MemoryPlanner::plan_kv260(ModelConfig::llama2_7b(),
                                                   QuantScheme::w4a16_kv8());
    std::uint64_t sum = 0;
    for (const auto& r : p.regions) sum += r.bytes;
    EXPECT_EQ(sum, p.device_bytes);
    double pct = 0;
    for (const auto& r : p.regions) pct += r.pct_of_total;
    EXPECT_NEAR(pct, 100.0, 0.01);
}

}  // namespace
}  // namespace efld::runtime
