// Profiler: scoped spans under ManualClock, step-cost attribution (the
// exact-by-subtraction sim split), span-ring overwrite accounting, the
// enabled gate, and the exported serve_phase_* series.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"

namespace efld::obs {
namespace {

TEST(Profiler, DisabledScopesRecordNothing) {
    Profiler prof;
    EXPECT_FALSE(prof.enabled());
    { const ScopedPhase span(&prof, Phase::kAdmission); }
    { const ScopedPhase span(nullptr, Phase::kSampling); }
    EXPECT_EQ(prof.totals(Phase::kAdmission).count, 0u);
    EXPECT_TRUE(prof.spans().empty());
}

TEST(Profiler, ScopedSpanAccumulatesWallTime) {
    ManualClock clock;
    Profiler prof;
    prof.enable(&clock, 7);
    clock.set_ns(1000);
    {
        const ScopedPhase span(&prof, Phase::kSampling);
        clock.advance_ns(250);
    }
    {
        const ScopedPhase span(&prof, Phase::kSampling);
        clock.advance_ns(50);
    }
    const PhaseTotals t = prof.totals(Phase::kSampling);
    EXPECT_EQ(t.count, 2u);
    EXPECT_EQ(t.wall_ns, 300u);
    const std::vector<SpanRecord> spans = prof.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].phase, Phase::kSampling);
    EXPECT_EQ(spans[0].shard, 7u);
    EXPECT_EQ(spans[0].begin_ns, 1000u);
    EXPECT_EQ(spans[0].end_ns, 1250u);
    EXPECT_EQ(spans[1].begin_ns, 1250u);
}

TEST(Profiler, AttributeStepSplitsSimExactlyBySubtraction) {
    ManualClock clock;
    Profiler prof;
    prof.enable(&clock, 0);
    // 3 rows, 1 prefilling: prefill gets 1/3 of everything (rounded), decode
    // the exact remainder — the two sim_ns MUST re-sum to the input.
    prof.attribute_step(/*wall_ns=*/900, /*sim_ns=*/1000.0,
                        /*weight_walks=*/1.0, /*prefill_rows=*/1, /*rows=*/3);
    const PhaseTotals pre = prof.totals(Phase::kPrefill);
    const PhaseTotals dec = prof.totals(Phase::kDecodeBatch);
    EXPECT_EQ(pre.count, 1u);
    EXPECT_EQ(dec.count, 1u);
    EXPECT_EQ(pre.wall_ns + dec.wall_ns, 900u);
    EXPECT_DOUBLE_EQ(pre.sim_ns + dec.sim_ns, 1000.0);
    EXPECT_DOUBLE_EQ(pre.weight_walks + dec.weight_walks, 1.0);

    // All-decode step: nothing lands on prefill.
    prof.attribute_step(600, 500.0, 1.0, 0, 2);
    EXPECT_EQ(prof.totals(Phase::kPrefill).count, 1u);
    EXPECT_EQ(prof.totals(Phase::kDecodeBatch).count, 2u);
    EXPECT_DOUBLE_EQ(prof.totals(Phase::kPrefill).sim_ns +
                         prof.totals(Phase::kDecodeBatch).sim_ns,
                     1500.0);
}

TEST(Profiler, SpanRingOverwritesOldestAndCountsDrops) {
    ManualClock clock;
    Profiler prof;
    prof.enable(&clock, 0, /*span_capacity=*/4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        clock.set_ns(i * 10);
        prof.record_span(Phase::kRetire, i * 10, i * 10 + 5);
    }
    EXPECT_EQ(prof.spans_dropped(), 6u);
    const std::vector<SpanRecord> spans = prof.spans();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first across the wrap: scopes 6..9 survive.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(spans[i].begin_ns, (6 + i) * 10);
    }
    EXPECT_EQ(prof.totals(Phase::kRetire).count, 10u);  // totals never drop
}

TEST(Profiler, ExportEmitsSeriesOnlyForActivePhases) {
    ManualClock clock;
    Profiler prof;
    prof.enable(&clock, 0);
    clock.set_ns(0);
    {
        const ScopedPhase span(&prof, Phase::kAdmission);
        clock.advance_ns(40);
    }
    prof.attribute_step(100, 200.0, 1.0, 0, 1);
    MetricsSnapshot snap;
    prof.export_into(snap);
    EXPECT_EQ(snap.counters.at("serve_phase_admission_count_total"), 1u);
    EXPECT_EQ(snap.counters.at("serve_phase_admission_wall_ns_total"), 40u);
    EXPECT_EQ(snap.counters.at("serve_phase_decode_batch_sim_ns_total"), 200u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("serve_phase_decode_batch_weight_walks"),
                     1.0);
    // Untouched phases must stay absent — scrapes report what happened.
    EXPECT_EQ(snap.counters.count("serve_phase_prefill_count_total"), 0u);
    EXPECT_EQ(snap.counters.count("serve_phase_attention_count_total"), 0u);
}

TEST(Profiler, BoundRegistryCarriesWallHistograms) {
    ManualClock clock;
    MetricsRegistry reg;
    Profiler prof;
    prof.enable(&clock, 0);
    prof.bind_registry(reg);
    clock.set_ns(0);
    {
        const ScopedPhase span(&prof, Phase::kQueuePick);
        clock.advance_ns(123);
    }
    const MetricsSnapshot snap = reg.snapshot();
    const HistogramSnapshot& h =
        snap.histograms.at("serve_phase_queue_pick_wall_ns");
    EXPECT_EQ(h.count, 1u);
    EXPECT_EQ(h.sum, 123u);
}

TEST(Profiler, ConcurrentSpansKeepTotalsExact) {
    ManualClock clock;
    Profiler prof;
    prof.enable(&clock, 0, /*span_capacity=*/64);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                prof.record_span(Phase::kAttention, 0, 3);
            }
        });
    }
    for (auto& t : threads) t.join();
    const PhaseTotals tot = prof.totals(Phase::kAttention);
    EXPECT_EQ(tot.count, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(tot.wall_ns, static_cast<std::uint64_t>(kThreads * kPerThread * 3));
    EXPECT_EQ(prof.spans().size() + prof.spans_dropped(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Profiler, PhaseNames) {
    EXPECT_STREQ(to_string(Phase::kQueuePick), "queue_pick");
    EXPECT_STREQ(to_string(Phase::kPrefixAdopt), "prefix_adopt");
    EXPECT_STREQ(to_string(Phase::kDecodeBatch), "decode_batch");
    EXPECT_STREQ(to_string(Phase::kRetire), "retire");
}

}  // namespace
}  // namespace efld::obs
