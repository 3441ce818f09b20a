// Serve-layer observability: the engine's metrics snapshot must agree with
// its own ServeStats exactly, the latency histograms must fire once per
// request boundary, and the trace must tell each request's story in order.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

TEST(ServeMetrics, CountersMatchServeStatsExactly) {
    ServeOptions opts;
    opts.max_batch = 3;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    constexpr std::size_t kRequests = 5;
    std::vector<RequestHandle> futs;
    for (std::size_t r = 0; r < kRequests; ++r) {
        futs.push_back(d.engine->submit(Request{
            .prompt = "metrics req " + std::to_string(r), .max_new_tokens = 6}));
    }
    d.engine->run_until_idle();
    for (auto& f : futs) (void)f.get();

    const ServeStats stats = d.engine->stats();
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    EXPECT_EQ(stats.requests_completed, kRequests);
    EXPECT_EQ(snap.counters.at("serve_requests_completed"),
              stats.requests_completed);
    EXPECT_EQ(snap.counters.at("serve_steps"), stats.steps);
    EXPECT_EQ(snap.counters.at("serve_prompt_tokens"), stats.prompt_tokens);
    EXPECT_EQ(snap.counters.at("serve_generated_tokens"),
              stats.generated_tokens);
    EXPECT_EQ(snap.counters.at("serve_requests_lost"), stats.requests_lost);
    EXPECT_DOUBLE_EQ(snap.gauges.at("serve_queued"), 0.0);
    EXPECT_DOUBLE_EQ(snap.gauges.at("serve_active_sessions"), 0.0);

    // And the wire body round-trips those same numbers.
    const auto parsed = obs::parse_prometheus(obs::to_prometheus(snap));
    EXPECT_DOUBLE_EQ(parsed.at("serve_requests_completed"),
                     static_cast<double>(kRequests));
}

TEST(ServeMetrics, LatencyHistogramsFireOncePerBoundary) {
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    constexpr std::size_t kRequests = 4;
    std::vector<RequestHandle> futs;
    for (std::size_t r = 0; r < kRequests; ++r) {
        futs.push_back(d.engine->submit(Request{
            .prompt = "latency req " + std::to_string(r), .max_new_tokens = 5}));
    }
    d.engine->run_until_idle();
    for (auto& f : futs) (void)f.get();

    const ServeStats stats = d.engine->stats();
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    // One queue-wait, one TTFT, one e2e sample per request; one inter-token
    // gap per generated token after each request's first.
    EXPECT_EQ(snap.histograms.at("serve_queue_wait_ns").count, kRequests);
    EXPECT_EQ(snap.histograms.at("serve_ttft_ns").count, kRequests);
    EXPECT_EQ(snap.histograms.at("serve_e2e_ns").count, kRequests);
    EXPECT_EQ(snap.histograms.at("serve_intertoken_gap_ns").count,
              stats.generated_tokens - kRequests);

    // The load snapshot carries the same summaries for the placement layer.
    const ServeLoad load = d.engine->load();
    EXPECT_EQ(load.ttft.count, kRequests);
    EXPECT_EQ(load.e2e.count, kRequests);
}

TEST(ServeMetrics, TraceTellsEachRequestsStoryInOrder) {
    auto clock = std::make_shared<obs::ManualClock>();
    auto trace = std::make_shared<obs::TraceRecorder>(256, clock.get());
    ServeOptions opts;
    opts.max_batch = 2;
    opts.trace = trace;
    opts.clock = clock;
    opts.shard_id = 3;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    std::vector<RequestHandle> futs;
    futs.push_back(d.engine->submit(Request{
        .prompt = "trace one", .max_new_tokens = 4}));
    futs.push_back(d.engine->submit(Request{
        .prompt = "trace two", .max_new_tokens = 4}));
    d.engine->run_until_idle();
    std::vector<std::uint64_t> ids;
    for (auto& f : futs) ids.push_back(f.get().id);

    for (const std::uint64_t id : ids) {
        const std::vector<obs::TraceRecord> events = trace->for_request(id);
        // submitted → admitted → prefill_done → first_token → retired, all
        // tagged with this engine's shard id.
        ASSERT_GE(events.size(), 5u) << "request " << id;
        EXPECT_EQ(events.front().event, obs::TraceEvent::kSubmitted);
        std::vector<obs::TraceEvent> order;
        for (const obs::TraceRecord& e : events) {
            EXPECT_EQ(e.shard, 3u);
            order.push_back(e.event);
        }
        const std::vector<obs::TraceEvent> want{
            obs::TraceEvent::kSubmitted, obs::TraceEvent::kAdmitted,
            obs::TraceEvent::kPrefillDone, obs::TraceEvent::kFirstToken,
            obs::TraceEvent::kRetired};
        EXPECT_EQ(order, want) << "request " << id;
    }
}

}  // namespace
}  // namespace efld::serve
