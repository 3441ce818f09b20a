// OverloadGovernor: the actuator half of the SLO loop. Unit tests for the
// engagement state machine and the published TTFT estimate, plus the
// ServeEngine queue sweep that sheds deadline-hopeless requests with
// kShedOverload while the governor is engaged, and the goodput that sweep
// buys under deadline overload on a hand-stepped ManualClock.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"
#include "serve/overload.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

// A TTFT estimate far beyond the 10s deadlines below: any such deadline is
// hopeless, so the sweep's decision does not race the real clock.
constexpr std::uint64_t kMinuteNs = 60'000'000'000ull;

Request with_deadline(const char* prompt, std::size_t max_new,
                      std::chrono::seconds budget) {
    Request r;
    r.prompt = prompt;
    r.max_new_tokens = max_new;
    r.deadline = std::chrono::steady_clock::now() + budget;
    return r;
}

}  // namespace

TEST(OverloadGovernor, EngagementCountsFiringAlerts) {
    OverloadGovernor g;
    EXPECT_FALSE(g.engaged());
    EXPECT_DOUBLE_EQ(g.retry_hint_scale(), 1.0);

    g.on_alert_firing();
    EXPECT_TRUE(g.engaged());
    EXPECT_DOUBLE_EQ(g.retry_hint_scale(), OverloadGovernor::kRetryHintScale);

    // Two overlapping alerts: disengages only when BOTH resolve.
    g.on_alert_firing();
    g.on_alert_resolved();
    EXPECT_TRUE(g.engaged());
    g.on_alert_resolved();
    EXPECT_FALSE(g.engaged());
    EXPECT_DOUBLE_EQ(g.retry_hint_scale(), 1.0);
    EXPECT_EQ(g.engagements(), 2u);
}

TEST(OverloadGovernor, ResolveWithoutFiringClampsAtZero) {
    // A subscriber attached mid-incident can see a resolve with no matched
    // firing; the count must not wedge negative.
    OverloadGovernor g;
    g.on_alert_resolved();
    g.on_alert_resolved();
    EXPECT_FALSE(g.engaged());
    g.on_alert_firing();
    EXPECT_TRUE(g.engaged());  // one firing still engages
    g.on_alert_resolved();
    EXPECT_FALSE(g.engaged());
}

TEST(OverloadGovernor, TtftEstimateDefaultsToNoData) {
    OverloadGovernor g;
    EXPECT_EQ(g.ttft_estimate_ns(), 0u);  // 0 = no data
    g.set_ttft_estimate_ns(1'500'000);
    EXPECT_EQ(g.ttft_estimate_ns(), 1'500'000u);
    g.set_ttft_estimate_ns(0);  // the window idled out
    EXPECT_EQ(g.ttft_estimate_ns(), 0u);
}

TEST(ServeOverload, EngagedGovernorShedsDeadlineHopelessQueuedRequests) {
    ServeOptions opts;
    opts.max_batch = 1;
    opts.sampler.temperature = 0.0f;
    opts.trace = std::make_shared<obs::TraceRecorder>(1024);
    auto governor = std::make_shared<OverloadGovernor>();
    opts.overload = governor;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    governor->set_ttft_estimate_ns(kMinuteNs);
    governor->on_alert_firing();
    Request blocker;
    blocker.prompt = "blocker";
    blocker.max_new_tokens = 8;
    RequestHandle hb = d.engine->submit(std::move(blocker));  // no deadline
    // Deadline beyond the estimate: can still make it, so it is kept.
    RequestHandle patient = d.engine->submit(
        with_deadline("patient", 4, std::chrono::hours(1)));
    std::vector<RequestHandle> doomed;
    for (int i = 0; i < 3; ++i) {
        // Future deadline, but inside the estimated TTFT.
        doomed.push_back(d.engine->submit(
            with_deadline("hopeless", 4, std::chrono::seconds(10))));
    }
    d.engine->run_until_idle();

    EXPECT_EQ(hb.get().finish_reason, FinishReason::kBudget);
    EXPECT_EQ(patient.get().finish_reason, FinishReason::kBudget);
    for (RequestHandle& h : doomed) {
        const ServeResult& r = h.get();
        EXPECT_EQ(r.finish_reason, FinishReason::kShedOverload);
        EXPECT_TRUE(r.tokens.empty());  // shed from the queue, never decoded
    }
    EXPECT_EQ(d.engine->stats().requests_shed, 3u);
    EXPECT_EQ(governor->shed_total(), 3u);

    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    EXPECT_EQ(snap.counters.at("serve_requests_shed"), 3u);

    // Each shed leaves a kShed trace event carrying the remaining budget.
    std::size_t shed_events = 0;
    for (const obs::TraceRecord& e : opts.trace->snapshot()) {
        if (e.event == obs::TraceEvent::kShed) {
            ++shed_events;
            EXPECT_GT(e.arg, 0u);
        }
    }
    EXPECT_EQ(shed_events, 3u);
}

TEST(ServeOverload, DisengagedGovernorNeverSheds) {
    ServeOptions opts;
    opts.max_batch = 1;
    opts.sampler.temperature = 0.0f;
    auto governor = std::make_shared<OverloadGovernor>();
    opts.overload = governor;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    // Same hopeless shape as above — but no firing alert, so they decode.
    governor->set_ttft_estimate_ns(kMinuteNs);
    std::vector<RequestHandle> fine;
    for (int i = 0; i < 3; ++i) {
        fine.push_back(d.engine->submit(
            with_deadline("still fine", 2, std::chrono::seconds(10))));
    }
    d.engine->run_until_idle();
    for (RequestHandle& h : fine) {
        EXPECT_EQ(h.get().finish_reason, FinishReason::kBudget);
    }
    EXPECT_EQ(d.engine->stats().requests_shed, 0u);
    EXPECT_EQ(governor->shed_total(), 0u);
}

TEST(ServeOverload, NoTtftEstimateMeansNoShedding) {
    // Engaged, but no estimate has been published (0 = no data): the sweep
    // has nothing to judge hopelessness by, so it must not guess.
    ServeOptions opts;
    opts.max_batch = 1;
    opts.sampler.temperature = 0.0f;
    auto governor = std::make_shared<OverloadGovernor>();
    opts.overload = governor;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    governor->on_alert_firing();
    std::vector<RequestHandle> hs;
    for (int i = 0; i < 3; ++i) {
        hs.push_back(d.engine->submit(
            with_deadline("no estimate", 2, std::chrono::seconds(10))));
    }
    d.engine->run_until_idle();
    for (RequestHandle& h : hs) {
        EXPECT_EQ(h.get().finish_reason, FinishReason::kBudget);
    }
    EXPECT_EQ(governor->shed_total(), 0u);
}

TEST(ServeOverload, SheddingGoodputAtLeastDetectOnlyOnManualClock) {
    // Deadline overload, hand-stepped: 24 requests of 8 tokens arrive at once
    // on a 2-slot engine, all due 44 steps later. The ManualClock moves 1 ms
    // per step, so a pair takes 8 ms and only 5 pairs can finish in budget.
    // Detect-only, the engine admits the 6th pair at 40 ms and the deadline
    // cuts it at 44 ms. With the governor engaged and fed the mean TTFT
    // before every step (what SloController publishes from its TSDB), the
    // sweep sheds the queue once the estimate no longer fits the budget, so
    // the run ends sooner. Its deadline-met completions per simulated second
    // must be at least the detect-only run's, it must shed, and the
    // admitted requests' TTFT p99 must stay inside 1.5x the budget.
    constexpr std::uint64_t kStepNs = 1'000'000;
    constexpr std::uint64_t kBudgetNs = 44 * kStepNs;
    struct Run {
        std::size_t deadline_met = 0;
        std::size_t shed = 0;
        std::uint64_t elapsed_ns = 0;
        std::uint64_t ttft_p99_ns = 0;
    };
    const auto run = [&](bool govern) {
        auto clock = std::make_shared<obs::ManualClock>(1'000'000'000);
        ServeOptions opts;
        opts.max_batch = 2;
        opts.sampler.temperature = 0.0f;
        opts.clock = clock;
        std::shared_ptr<OverloadGovernor> governor;
        if (govern) {
            governor = std::make_shared<OverloadGovernor>();
            governor->on_alert_firing();
            opts.overload = governor;
        }
        runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);
        const std::uint64_t t0 = clock->now_ns();
        const auto deadline = obs::time_point(*clock) + std::chrono::nanoseconds(kBudgetNs);
        std::vector<RequestHandle> hs;
        for (int r = 0; r < 24; ++r) {
            hs.push_back(d.engine->submit(Request{
                .prompt = "slo probe " + std::to_string(r),
                .max_new_tokens = 8,
                .deadline = deadline}));
        }
        const auto ttft = [&] {
            return d.engine->metrics_snapshot().histograms.at("serve_ttft_ns");
        };
        for (;;) {
            if (governor != nullptr) {
                const obs::HistogramSnapshot h = ttft();
                governor->set_ttft_estimate_ns(h.count == 0 ? 0 : h.sum / h.count);
            }
            if (!d.engine->step()) break;
            clock->advance_ns(kStepNs);
        }
        Run out;
        out.elapsed_ns = clock->now_ns() - t0;
        for (RequestHandle& h : hs) {
            out.deadline_met += h.get().finish_reason == FinishReason::kBudget ? 1 : 0;
            out.shed += h.get().finish_reason == FinishReason::kShedOverload ? 1 : 0;
        }
        out.ttft_p99_ns = obs::LatencySummary::from(ttft()).p99_ns;
        return out;
    };
    const Run off = run(false);
    const Run on = run(true);

    EXPECT_EQ(off.shed, 0u);
    ASSERT_GT(off.deadline_met, 0u);
    ASSERT_GT(on.elapsed_ns, 0u);
    // Goodput on >= goodput off, cross-multiplied to stay in integers.
    EXPECT_GE(on.deadline_met * off.elapsed_ns, off.deadline_met * on.elapsed_ns)
        << "on " << on.deadline_met << " in " << on.elapsed_ns << " ns, off "
        << off.deadline_met << " in " << off.elapsed_ns << " ns";
    EXPECT_GT(on.shed, 0u);
    EXPECT_GT(on.ttft_p99_ns, 0u);
    EXPECT_LE(on.ttft_p99_ns, kBudgetNs * 3 / 2);
}

}  // namespace efld::serve
