// Serve-layer cost attribution: with ServeOptions::profile on, the engine's
// metrics snapshot must carry serve_phase_* series whose totals reconcile
// with ServeStats — in particular, on the accel backend the per-phase
// simulated-ns split must re-sum to the cycle model's total within 1% (the
// exporter rounds each phase's double to a counter). With profile off, the
// series must be absent.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

runtime::ServeDeployment run_profiled(ServeOptions opts, std::size_t requests,
                                      std::size_t max_new) {
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);
    std::vector<RequestHandle> futs;
    for (std::size_t r = 0; r < requests; ++r) {
        futs.push_back(d.engine->submit(
            Request{.prompt = "profile req " + std::to_string(r),
                    .max_new_tokens = max_new}));
    }
    d.engine->run_until_idle();
    for (auto& f : futs) (void)f.get();
    return d;
}

std::uint64_t phase_counter(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(ServeProfiling, HostRunEmitsPhaseSeriesWithZeroSim) {
    ServeOptions opts;
    opts.max_batch = 2;
    opts.profile = true;
    runtime::ServeDeployment d = run_profiled(opts, 4, 5);

    const ServeStats stats = d.engine->stats();
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    // Control-plane phases fire once per admitted / retired request.
    EXPECT_EQ(phase_counter(snap, "serve_phase_admission_count_total"), 4u);
    EXPECT_EQ(phase_counter(snap, "serve_phase_retire_count_total"), 4u);
    // Every step is attributed: a mixed step lands on both phases, so the
    // two counts together at least cover the step count.
    EXPECT_GE(phase_counter(snap, "serve_phase_prefill_count_total") +
                  phase_counter(snap, "serve_phase_decode_batch_count_total"),
              stats.steps);
    EXPECT_GT(phase_counter(snap, "serve_phase_decode_batch_count_total"), 0u);
    EXPECT_GT(phase_counter(snap, "serve_phase_decode_batch_wall_ns_total"),
              0u);
    // The host backend has no cycle model: simulated ns stays zero, so the
    // sim series must not appear (the exporter skips empty phases' series
    // only when the whole phase is idle — sim counters round to 0 here).
    EXPECT_EQ(phase_counter(snap, "serve_phase_decode_batch_sim_ns_total"),
              0u);
    EXPECT_DOUBLE_EQ(stats.simulated_ns, 0.0);
}

TEST(ServeProfiling, AccelPhaseSimSumsReconcileWithStats) {
    ServeOptions opts;
    opts.max_batch = 3;
    opts.backend = engine::BackendKind::kAccel;
    opts.profile = true;
    runtime::ServeDeployment d = run_profiled(opts, 5, 6);

    const ServeStats stats = d.engine->stats();
    ASSERT_GT(stats.simulated_ns, 0.0);
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    double phase_sim = 0.0;
    double phase_walks = 0.0;
    for (int p = 0; p < static_cast<int>(obs::Phase::kCount); ++p) {
        const std::string base =
            std::string("serve_phase_") + obs::to_string(static_cast<obs::Phase>(p));
        phase_sim += static_cast<double>(phase_counter(snap, base + "_sim_ns_total"));
        const auto it = snap.gauges.find(base + "_weight_walks");
        if (it != snap.gauges.end()) phase_walks += it->second;
    }
    // Every phase's sim ns together: only prefill and decode_batch carry any,
    // and their attribution is exact by construction (decode = total -
    // prefill); only the counter rounding can move the sum, so 1% is generous.
    EXPECT_LE(std::abs(phase_sim - stats.simulated_ns),
              0.01 * stats.simulated_ns)
        << "phase sim " << phase_sim << " vs stats " << stats.simulated_ns;
    EXPECT_DOUBLE_EQ(phase_walks, stats.weight_walks);
}

TEST(ServeProfiling, ProfileOffKeepsPhaseSeriesAbsent) {
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = run_profiled(opts, 3, 4);
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    for (const auto& [name, value] : snap.counters) {
        EXPECT_EQ(name.rfind("serve_phase_", 0), std::string::npos)
            << name << "=" << value << " present with profiling off";
    }
}

TEST(ServeProfiling, SpanRingFeedsTheTimelineWhenEnabled) {
    ServeOptions opts;
    opts.max_batch = 2;
    opts.profile = true;
    opts.profiler_spans = 128;
    runtime::ServeDeployment d = run_profiled(opts, 3, 4);
    const std::vector<obs::SpanRecord> spans = d.engine->profiler().spans();
    ASSERT_FALSE(spans.empty());
    for (const obs::SpanRecord& s : spans) {
        EXPECT_LE(s.begin_ns, s.end_ns);
    }
}

}  // namespace
}  // namespace efld::serve
